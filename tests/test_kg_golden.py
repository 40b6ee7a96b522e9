"""Golden outcomes of load_kg on malformed snapshots.

Each case is a snapshot (TSV or JSONL) plus an optional node file. The file
tests/golden/kg_load.json pins, for a strict and a lenient load of each, the
exact KgLoadError messages, or the loaded graph: nodes, edges, load_report,
label index, each node's neighbors with the edge to each, and the triplet
found for every edge's labels. Any change to row decoding, error wording,
line numbering or first-wins rules shows up here.

After an intended change, rewrite the file with
    PYTHONPATH=src:tests python tests/test_kg_golden.py
and review the diff.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from claimver.errors import KgLoadError
from claimver.kg import KnowledgeGraph, Triplet, load_kg

GOLDEN = Path(__file__).parent / "golden" / "kg_load.json"


def _jsonl(*rows) -> str:
    return "".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows)


# name -> (format, snapshot text, node file text or None)
CASES: dict[str, tuple[str, str, str | None]] = {
    "tsv_columns": ("tsv", (
        "A\tAlpha\trel\n"
        "A\tAlpha\trel\tB\tBeta\textra\n"
        "A\tAlpha\trel\tB\tBeta\n"
        "single\n"
        "A\tAlpha\trel\tC\tGa\u2028mma\n"
    ), None),
    "tsv_empty_fields": ("tsv", (
        "\tAlpha\trel\tB\tBeta\n"
        "A\tAlpha\t \tB\tBeta\n"
        "A\tAlpha\trel\t  \tBeta\n"
        "A\tAlpha\trel\tB\tBeta\n"
    ), None),
    "tsv_labels": ("tsv", (
        "A\tAlpha\tr\tB\tBeta\n"
        "A\talpha \tr2\tB\t BETA\n"
        "A\tOther\tr3\tC\tGamma\n"
        "C\tGamma  Ray\tr\tB\tBeta\n"
        "D\t\tr\tA\tAlpha\n"
        "D\tDelta\tr\tB\t\n"
    ), None),
    "tsv_dangling": ("tsv", (
        "A\tAlpha\trel\tB\t\n"
        "C\t\trel\tA\t\n"
        "A\tAlpha\trel\tD\tDelta\n"
        "B\t\trel\tD\t\n"
        "E\tEpsilon\trel\tD\t\n"
    ), None),
    "tsv_blank_lines": ("tsv", (
        "\n   \n\t\t\t\t\n"
        "A\tAlpha\trel\tB\tBeta\r\n"
        "\r\n"
        "B\tBeta\trel\tC\tGamma\n\n"
    ), None),
    "tsv_duplicates_and_loops": ("tsv", (
        " A \tAlpha\t rel \tB\tBeta\n"
        "A\tAlpha\trel\tB\tBeta\n"
        "B\tBeta\trel\tA\tAlpha\n"
        "B\tBeta\tother\tA\tAlpha\n"
        "A\tAlpha\tloop\tA\tAlpha\n"
        "A\tAlpha\tloop\tA\tAlpha\n"
        "C\tGamma\tREL\tA\tALPHA\n"
        "C\tGamma\trel\tA\tAlpha\n"
    ), None),
    "tsv_sidecar": ("tsv", (
        "A\tAlpha\trel\tB\tBeta\n"
        "B\tBeta\trel\tC\tGamma\n"
        "A\tAlpha\trel\tD\t\n"
    ), (
        "A\n"
        "A\tdesc\tx\ty\n"
        "\tno id\t\n"
        "Z\tunknown\tzed\n"
        "A\tfirst desc\tAl|al| AL |Alf||\n"
        "A\tsecond desc\tAlpha|alf|Beta\n"
        "\n"
        "B\tBeta desc\n"
        " C \t\t  \n"
        "C\t  \tgee|Gee|G  EE\n"
        "D\tdangling\tdee\n"
        "B\t\tbee\n"
    )),
    "tsv_sidecar_only_errors": ("tsv", "A\tAlpha\trel\tB\tBeta\n", (
        "Q\tdesc\t\n"
        "\t\t\n"
        "A\tone\ttwo\tthree\tfour\n"
    )),
    "jsonl_rows": ("jsonl", _jsonl(
        "{not json}",
        "[1, 2]",
        "3",
        '"text"',
        {"s_id": "A", "o_id": "B"},
        {"s_id": "", "s_label": "x", "p": "r", "o_id": "B", "o_label": "Beta"},
        {"s_id": "A", "s_label": "Alpha", "p": "  ", "o_id": "B", "o_label": "Beta"},
        {"s_id": " A ", "s_label": " Alpha ", "p": " rel ", "o_id": "B", "o_label": "Beta"},
        {"s_id": 1, "s_label": 2, "p": 3, "o_id": True, "o_label": 4.5},
        {"s_id": "A", "s_label": "Alpha", "p": ["x"], "o_id": "1", "o_label": "one"},
        "",
        "   ",
    ), None),
    "jsonl_labels": ("jsonl", _jsonl(
        {"s_id": "A", "s_label": "Alpha", "p": "r", "o_id": "B", "o_label": "Beta"},
        {"s_id": "A", "s_label": "ALPHA", "p": "r", "o_id": "B", "o_label": "Bet"},
        {"s_id": "C", "p": "r", "o_id": "A", "o_label": "Alpha"},
        {"s_id": "D", "s_label": "Delta", "p": "r", "o_id": "E"},
        {"s_id": "B", "s_label": "Beta", "p": "r", "o_id": "B", "o_label": "Beta"},
    ), None),
    "jsonl_nodes": ("jsonl", _jsonl(
        {"s_id": "A", "s_label": "Alpha", "p": "r", "o_id": "B", "o_label": "Beta"},
        {"s_id": "B", "s_label": "Beta", "p": "r", "o_id": "C"},
    ), _jsonl(
        "{broken",
        {"id": "", "label": "nothing"},
        {"label": "no id"},
        {"id": "A", "label": "Other", "description": "first", "aliases": ["Al", "al", " AL ", ""]},
        {"id": "A", "label": "alpha", "description": "second", "aliases": ["Alf"]},
        {"id": "B", "description": 5, "aliases": "not a list"},
        {"id": "C", "label": "Gamma", "aliases": [1, "1", 2.0]},
        {"id": "I", "label": "Isolated", "description": "  "},
        {"id": "J"},
        {"id": " K ", "label": " Kappa ", "description": " d ", "aliases": {"x": 1}},
        "",
    )),
}


def _fields(t: Triplet) -> list[str]:
    return [t.subject, t.predicate, t.object]


def _summary(kg: KnowledgeGraph) -> dict:
    return {
        "nodes": [[n.id, n.label, n.description, list(n.aliases)] for n in kg.nodes.values()],
        "edges": [_fields(t) for t in kg.edges],
        "load_report": list(kg.load_report),
        "label_index": {k: list(v) for k, v in kg.label_index.items()},
        "neighbors": {nid: [[nbr, *_fields(kg.edge_between(nid, nbr))]
                            for nbr in kg.neighbors(nid)] for nid in kg.nodes},
        "triplet_hits": [_fields(kg.contains_triplet(*kg.triplet_labels(t))) for t in kg.edges],
    }


def _outcome(path: Path, fmt: str, lenient: bool) -> dict:
    try:
        return _summary(load_kg(path, fmt, lenient=lenient))
    except KgLoadError as exc:
        return {"errors": exc.errors}


def golden_outcomes() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (fmt, edges, nodes) in CASES.items():
            case_dir = Path(tmp) / name
            case_dir.mkdir()
            path = case_dir / f"kg.{fmt}"
            path.write_text(edges, encoding="utf-8")
            if nodes is not None:
                (case_dir / f"kg.nodes.{fmt}").write_text(nodes, encoding="utf-8")
            out[name] = {"strict": _outcome(path, fmt, False),
                         "lenient": _outcome(path, fmt, True)}
    return out


@pytest.fixture(scope="module")
def outcomes() -> dict:
    return golden_outcomes()


@pytest.mark.parametrize("name", list(CASES))
def test_load_outcome(outcomes, name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outcomes[name] == expected[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outcomes(), ensure_ascii=False, indent=1) + "\n",
                      encoding="utf-8")
