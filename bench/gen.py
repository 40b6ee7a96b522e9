"""Seeded input generator for the benchmark.

From a workload name and a seed it writes one directory of inputs:

  graph.tsv        hub-skewed edge snapshot (s_id, s_label, p, o_id, o_label)
  graph.nodes.tsv  sidecar read by load_kg: node id, description, aliases
  docs.jsonl       one document per line, with what the checker expects
  answers.json     scripted model answers, keyed by sha256 of the chunk text

Everything derives from random.Random(f"{workload}:{seed}") and is written
in a fixed order, so one seed gives byte-identical files in any process.
Documents are built from real edges of the graph. The scripted answers mix
Attributable, Contradictory and Extrapolatory claims with unlocatable spans,
triplets found only in the graph, bogus triplets, unrecognized labels and
drifted formatting (braces, unnumbered keys, unquoted values, NA), and each
document records the claim labels validation must end up with.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import accumulate
from pathlib import Path

PREDICATES = (
    "located in", "member of", "founded by", "part of", "capital of",
    "award received", "employer", "educated at", "spouse", "sibling",
    "headquarters location", "developer", "publisher", "operator", "owned by",
    "country", "occupation", "genre", "instance of", "subclass of", "follows",
    "followed by", "participant in", "named after",
)
BOGUS_PREDICATE = "rumoured rival of"

ADJECTIVES = ("regional", "annual", "archival", "municipal", "coastal", "northern",
              "quarterly", "federal", "maritime", "historical", "provincial", "early")
NOUNS = ("survey", "registry", "ledger", "census", "almanac", "gazette", "catalogue",
         "inventory", "chronicle", "bulletin", "index", "digest")
PLACES = ("district", "valley", "harbour", "county", "estate", "borough", "parish",
          "province", "township", "basin")
FILLER_WORDS = frozenset(w for group in (ADJECTIVES, NOUNS, PLACES) for w in group) | frozenset(
    "the a an of in and as was were by for from with to during reviewed noted listed "
    "recorded appears according records committee findings season detail clerks "
    "copied entry entries later volumes kept office archive also mentions".split())

_ONSETS = "b c d f g h j k l m n p r s t v z br dr gr kr tr th vl zh sk".split()
_NUCLEI = "a e i o u ai ei ou".split()
_CODAS = ("", "", "n", "r", "l", "s", "th", "x", "m")

RATIONALES = ("The cited fact states this directly.",
              "The retrieved fact points the other way.",
              "The facts are related but do not settle it.",
              "No listed fact covers this sentence.")

# Node ids below this are the most popular entities (ids follow popularity).
POPULAR = 100

# Upper bound on sum(claim_score) over one document's positive claims. The
# match score is at most 1, so the document score sigmoid(sum) stays
# strictly below 1.0 in floating point (1 - e**-30 > 1 - 2**-53).
POSITIVE_BUDGET = 30

# Sizes per workload. scale shrinks graph and corpus for self-tests.
SPECS = {
    "verify-hubs": {"nodes": 50_000, "edges": 200_000, "skew": 0.75, "docs": 200,
                    "hubs": 20},
    "verify-chunked": {"nodes": 3_000, "edges": 9_000, "skew": 0.3, "docs": 100,
                       "chunk_chars": 1800, "chunks": (6, 8)},
    "datagen-corpus": {"nodes": 20_000, "edges": 80_000, "skew": 0.75, "docs": 250},
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Names:
    """Unique pseudo-words that no filler word or other name can collide with."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set(FILLER_WORDS)

    def word(self, syllables: int) -> str:
        while True:
            w = "".join(self.rng.choice(_ONSETS) + self.rng.choice(_NUCLEI) + self.rng.choice(_CODAS)
                        for _ in range(syllables))
            if w not in self.used:
                self.used.add(w)
                return w.capitalize()


class Graph:
    """The generated graph as plain lists: labels, aliases, edges, adjacency."""

    def __init__(self, rng: random.Random, n_nodes: int, n_edges: int, skew: float):
        names = _Names(rng)
        surnames = [names.word(2) for _ in range(300)]
        self.ids = [f"Q{100000 + i}" for i in range(n_nodes)]
        self.labels = [f"{names.word(2)} {rng.choice(surnames)}" for _ in range(n_nodes)]
        self.aliases = [names.word(3) if rng.random() < 0.25 else "" for _ in range(n_nodes)]

        # Chung-Lu style: one endpoint drawn by Zipf weight, the other
        # uniformly, so degrees follow a power law. As in Wikidata, popular
        # entities have the small ids: node i has the i-th largest weight.
        cum = list(accumulate((rank + 1) ** -skew for rank in range(n_nodes)))
        population = range(n_nodes)
        seen: set[tuple[int, int]] = set()
        self.edges: list[tuple[int, str, int]] = []
        while len(self.edges) < n_edges:
            batch = n_edges - len(self.edges)
            heads = rng.choices(population, cum_weights=cum, k=batch)
            tails = rng.choices(population, k=batch)
            for a, b in zip(heads, tails):
                key = (a, b) if a < b else (b, a)
                if a == b or key in seen:
                    continue
                seen.add(key)
                if rng.random() < 0.5:
                    a, b = b, a
                self.edges.append((a, rng.choice(PREDICATES), b))
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        for idx, (s, _, o) in enumerate(self.edges):
            self.adj[s].append(idx)
            self.adj[o].append(idx)

    def other(self, edge: int, node: int) -> int:
        s, _, o = self.edges[edge]
        return o if s == node else s

    def labeled(self, edge: int) -> list[str]:
        s, p, o = self.edges[edge]
        return [self.labels[s], p, self.labels[o]]

    def by_degree(self) -> list[int]:
        return sorted(range(len(self.ids)), key=lambda n: (-len(self.adj[n]), n))

    def write(self, out: Path):
        with open(out / "graph.tsv", "w", encoding="utf-8", newline="\n") as f:
            for s, p, o in self.edges:
                f.write(f"{self.ids[s]}\t{self.labels[s]}\t{p}\t{self.ids[o]}\t{self.labels[o]}\n")
        with open(out / "graph.nodes.tsv", "w", encoding="utf-8", newline="\n") as f:
            for n, nid in enumerate(self.ids):
                if self.adj[n]:
                    f.write(f"{nid}\tgenerated entity {n} of the benchmark graph\t{self.aliases[n]}\n")


class _Draft:
    """Sentences, linked mentions and scripted claims of one document."""

    def __init__(self, rng: random.Random, g: Graph):
        self.rng = rng
        self.g = g
        self.pieces: list[str] = []
        self.mentions: list[str] = []  # node ids in mention order
        self.claims: list[dict] = []   # scripted claim plus predicted label
        self.positive = 0

    def surface(self, node: int) -> str:
        self.mentions.append(self.g.ids[node])
        alias = self.g.aliases[node]
        return alias if alias and self.rng.random() < 0.3 else self.g.labels[node]

    def tail(self) -> str:
        r = self.rng
        return (f", according to the {r.choice(ADJECTIVES)} {r.choice(NOUNS)} "
                f"of the {r.choice(PLACES)}")

    def edge_sentence(self, edge: int, min_len: int = 0) -> str:
        s, p, o = self.g.edges[edge]
        text = f"{self.surface(s)} {p} {self.surface(o)}"
        return self._finish(text, min_len)

    def star_sentence(self, edges: list[int], center: int, extra: int | None) -> str:
        """The edges as clauses (or center alone), plus a clause naming extra."""
        parts = []
        for e in edges:
            s, p, o = self.g.edges[e]
            parts.append(f"{self.surface(s)} {p} {self.surface(o)}")
        r = self.rng
        for node in ([] if edges else [center]) + ([] if extra is None else [extra]):
            parts.append(f"{self.surface(node)} appears in the {r.choice(ADJECTIVES)} {r.choice(NOUNS)}")
        return self._finish(", and ".join(parts), 0)

    def entity_sentence(self, node: int, min_len: int = 0) -> str:
        r = self.rng
        text = f"{self.surface(node)} appears in the {r.choice(ADJECTIVES)} {r.choice(NOUNS)}"
        return self._finish(text, min_len)

    def filler_sentence(self, min_len: int = 0) -> str:
        r = self.rng
        text = (f"The {r.choice(ADJECTIVES)} committee reviewed the {r.choice(NOUNS)} "
                f"findings in detail")
        return self._finish(text, min_len)

    def _finish(self, text: str, min_len: int) -> str:
        text += self.tail()
        while len(text) + 2 < min_len:
            text += f" and the {self.rng.choice(ADJECTIVES)} {self.rng.choice(NOUNS)}"
        return text + ". "

    def add(self, sentence: str):
        self.pieces.append(sentence)

    def text(self) -> str:
        return "".join(self.pieces)

    # -- scripted claims -------------------------------------------------

    def claim(self, span: str, cited: list[int] | None, far_edge: int | None = None):
        """Script one claim about a sentence and record its validated label.

        cited holds the graph edges the sentence states (retrieved, since
        both ends are seeds); far_edge is an edge elsewhere in the graph
        (validates, maybe without being retrieved).
        """
        r = self.rng
        g = self.g
        real = [g.labeled(e) for e in (cited or [])]
        roll = r.random()
        if not real:
            kind = "extra-na" if roll < 0.6 else ("contra" if roll < 0.8 and far_edge is not None else "na-attr")
        elif roll < 0.40:
            kind = "attr"
        elif roll < 0.55:
            kind = "contra"
        elif roll < 0.68:
            kind = "extra-na"
        elif roll < 0.76:
            kind = "extra"
        elif roll < 0.83:
            kind = "bogus"
        elif roll < 0.88:
            kind = "graph-only" if far_edge is not None else "attr"
        elif roll < 0.94:
            kind = "normalized"
        else:
            kind = "unrecognized"

        bogus = [real[0][0] if real else g.labels[0], BOGUS_PREDICATE,
                 real[0][2] if real else g.labels[1]]
        prediction, triplets, expected = "Extrapolatory", [], "Extrapolatory"
        if kind == "attr":
            prediction, triplets, expected = "Attributable", list(real), "Attributable"
            if r.random() < 0.3:
                triplets.append(bogus)
        elif kind == "contra":
            triplets = list(real) if real else [g.labeled(far_edge)]
            prediction, expected = "Contradictory", "Contradictory"
        elif kind == "extra":
            triplets = list(real)
            if r.random() < 0.3:
                triplets.append(real[0])  # duplicate citation
        elif kind == "bogus":
            prediction, triplets, expected = "Attributable", [bogus], "NoAttribution"
        elif kind == "na-attr":
            prediction, expected = "Attributable", "NoAttribution"
        elif kind == "graph-only":
            prediction, triplets, expected = "Attributable", [g.labeled(far_edge)], "Attributable"
        elif kind == "normalized":
            span = span.lower().replace(" ", "  ", 1)
            prediction, triplets, expected = "Attributable", list(real), "Attributable"
        elif kind == "unrecognized":
            prediction, triplets, expected = "Supported", list(real), "NoAttribution"

        # claim_score: Attributable 2, Extrapolatory with triplets 1.
        cost = 2 if expected == "Attributable" else int(expected == "Extrapolatory" and bool(triplets))
        if cost and self.positive + cost > POSITIVE_BUDGET:
            prediction, expected = "Extrapolatory", "Extrapolatory"
            triplets = []
            cost = 0
        self.positive += cost
        self.claims.append({"span": span, "prediction": prediction, "triplets": triplets,
                            "rationale": r.choice(RATIONALES), "expected": expected})

    def unlocatable_claim(self, edge: int):
        s, p, o = self.g.edges[edge]
        span = f"{self.g.labels[o]} was never {p} {self.g.labels[s]}"
        self.claims.append({"span": span, "prediction": "Attributable",
                            "triplets": [self.g.labeled(edge)],
                            "rationale": self.rng.choice(RATIONALES), "expected": "NoAttribution"})

    def take_claims(self) -> list[dict]:
        claims, self.claims = self.claims, []
        return claims


def _triplet_field(triplets: list[list[str]], style: str) -> str:
    if not triplets:
        return "NA"
    if style == "pipe":
        return "\n".join(" | ".join(t) for t in triplets)
    if style == "bracketed":
        return "[" + ", ".join("(" + ", ".join(json.dumps(x) for x in t) + ")" for t in triplets) + "]"
    return ", ".join(f"({s}, {p}, {o})" for s, p, o in triplets)


def render_answer(rng: random.Random, claims: list[dict]) -> str:
    """A model answer for the claims, in one of several drifted formats."""
    fmt = rng.choice(("numbered", "braces", "unquoted", "mixed-keys"))
    lines = []
    for i, c in enumerate(claims, 1):
        if fmt == "unquoted":
            style = "paren"
        else:
            style = rng.choice(("paren", "pipe", "bracketed"))
        values = (("text_span", c["span"]), ("prediction", c["prediction"]),
                  ("triplets", _triplet_field(c["triplets"], style)),
                  ("rationale", c["rationale"] if rng.random() < 0.9 else "NA"))
        for key, value in values:
            if fmt == "unquoted":
                lines.append(f"{key}{i}: {value}")
            elif fmt == "mixed-keys" and i == 1:
                lines.append(f'"{key}": {json.dumps(value)},')
            elif fmt == "mixed-keys":
                sep = ("_", " ", "-")[i % 3]
                lines.append(f'"{key.title()}{sep}{i}": {json.dumps(value)},')
            else:
                lines.append(f'"{key}{i}": {json.dumps(value)},')
    body = "\n".join(lines)
    if fmt == "braces":
        return "Here is the analysis.\n```json\n{\n" + body.rstrip(",") + "\n}\n```\n"
    return body + "\n"


def _far_edge(rng: random.Random, g: Graph, avoid: set[int]) -> int | None:
    for _ in range(20):
        e = rng.randrange(len(g.edges))
        s, _, o = g.edges[e]
        if s not in avoid and o not in avoid:
            return e
    return None


def _hubs_doc(rng: random.Random, g: Graph, hubs: list[int],
              target: int) -> tuple[dict, dict]:
    """target linked entities: three hubs, one from each degree tier of the
    top 20, plus neighbours of theirs.

    Tiers and the cycled entity count keep documents alike in cost, so the
    mean over a corpus moves little from seed to seed.
    """
    b = _Draft(rng, g)
    chosen = [rng.choice(hubs[:4]), rng.choice(hubs[4:10]), rng.choice(hubs[10:20])]
    entities = set(chosen)
    edges: list[int] = []
    turn = 0
    while len(entities) < target:
        hub = chosen[turn % len(chosen)]
        turn += 1
        edge = rng.choice(g.adj[hub])
        other = g.other(edge, hub)
        if other in entities:
            continue
        entities.add(other)
        edges.append(edge)
    for edge in edges:
        sentence = b.edge_sentence(edge)
        b.add(sentence)
        b.claim(sentence.strip(), [edge], _far_edge(rng, g, entities))
    for _ in range(rng.randint(1, 2)):
        b.unlocatable_claim(rng.choice(edges))
    text = b.text().rstrip()
    claims = b.take_claims()
    doc = {"text": text, "entities": b.mentions, "labels": [c["expected"] for c in claims]}
    return doc, {sha(text): render_answer(rng, claims)}


def _chunked_doc(rng: random.Random, g: Graph, chunk_chars: int,
                 n_chunks: int) -> tuple[dict, dict]:
    """A document whose greedy sentence packing gives exactly n_chunks chunks.

    Each chunk holds 2-4 linked entities (a node and 1-3 neighbours) and
    10+ sentences; a chunk closes when no typical sentence fits any more,
    and the next chunk's first sentence is padded so it cannot fit either.
    """
    b = _Draft(rng, g)
    answers = {}
    labels: list[str] = []
    room_left = 0
    for _ in range(n_chunks):
        center = rng.randrange(len(g.ids))
        while len(g.adj[center]) < 3:
            center = rng.randrange(len(g.ids))
        edges = rng.sample(g.adj[center], rng.randint(1, min(3, len(g.adj[center]))))
        members = {center} | {g.other(e, center) for e in edges}
        chunk: list[str] = []
        used = 0
        min_len = room_left + 1
        while True:
            roll = rng.random()
            if roll < 0.5:
                edge = rng.choice(edges)
                sentence = b.edge_sentence(edge, min_len)
                cited = [edge]
            elif roll < 0.75:
                sentence = b.entity_sentence(rng.choice(sorted(members)), min_len)
                cited = None
            else:
                sentence = b.filler_sentence(min_len)
                cited = None
            if used + len(sentence) > chunk_chars:
                raise AssertionError("chunk sentence overflow")
            min_len = 0
            chunk.append(sentence)
            used += len(sentence)
            b.add(sentence)
            b.claim(sentence.strip(), cited, rng.choice(edges))
            if chunk_chars - used < 200:
                break
        room_left = chunk_chars - used
        if rng.random() < 0.5:
            b.unlocatable_claim(rng.choice(edges))
        claims = b.take_claims()
        answers[sha("".join(chunk))] = render_answer(rng, claims)
        labels.extend(c["expected"] for c in claims)
    # The last chunk's key covers its trailing space: the document keeps it.
    return {"text": b.text(), "entities": b.mentions, "labels": labels}, answers


def _datagen_doc(rng: random.Random, g: Graph, index: int) -> dict:
    """5-10 sentences of 1-4 entities each, counts cycled by document index.

    Retrieval cost grows with the entity pairs of each sentence, and pairs
    with a top hub cost up to 40 times the median pair. So the counts are
    fixed, sentences are stars around entities outside the POPULAR most
    linked, and every third sentence of two or more entities swaps one of
    them for the top hub of a rank cycled by position. This keeps the cost
    distribution alike from seed to seed.
    """
    b = _Draft(rng, g)
    sentences = []
    for j in range(5 + index % 6):
        n_entities = 1 + (index + j) % 4
        hub = (index + j) % 10 if n_entities > 1 and (index + j) % 3 == 0 else None
        n_edges = n_entities - 1 - (hub is not None)
        while True:
            node = rng.randrange(POPULAR, len(g.ids))
            others = [e for e in g.adj[node] if g.other(e, node) >= POPULAR]
            if len(others) >= n_edges:
                break
        edges = rng.sample(others, n_edges)
        sentence = b.star_sentence(edges, node, hub)
        b.add(sentence)
        sentences.append({"span": sentence.strip(), "entities": n_entities,
                          "triplets": [g.labeled(e) for e in edges]})
    return {"text": b.text().rstrip(), "entities": b.mentions, "sentences": sentences}


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the inputs of one workload and seed into out; returns the spec used."""
    spec = dict(SPECS[workload])
    for key in ("nodes", "edges", "docs"):
        spec[key] = max(8, int(spec[key] * scale))
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    g = Graph(rng, spec["nodes"], spec["edges"], spec["skew"])
    g.write(out)

    docs: list[dict] = []
    answers: dict[str, str] = {}
    if workload == "verify-hubs":
        hubs = g.by_degree()[:spec["hubs"]]
        spec["hub_degrees"] = [len(g.adj[h]) for h in hubs]
        for i in range(spec["docs"]):
            doc, ans = _hubs_doc(rng, g, hubs, 12 + i % 5)
            docs.append(doc)
            answers.update(ans)
    elif workload == "verify-chunked":
        lo, hi = spec["chunks"]
        for _ in range(spec["docs"]):
            doc, ans = _chunked_doc(rng, g, spec["chunk_chars"], rng.randint(lo, hi))
            docs.append(doc)
            answers.update(ans)
    elif workload == "datagen-corpus":
        docs = [_datagen_doc(rng, g, i) for i in range(spec["docs"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    with open(out / "docs.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for i, doc in enumerate(docs):
            f.write(json.dumps({"id": i, **doc}, ensure_ascii=False) + "\n")
    (out / "answers.json").write_text(json.dumps(answers, indent=0, sort_keys=True), encoding="utf-8")
    (out / "spec.json").write_text(json.dumps(spec, indent=1, sort_keys=True), encoding="utf-8")
    return spec


if __name__ == "__main__":
    import sys
    scale = float(sys.argv[4]) if len(sys.argv) > 4 else 1.0
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), scale)
