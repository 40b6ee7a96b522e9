"""Knowledge-graph store: construction, indexing, loading, error reporting."""

import json
import random
import re
import sys
import tempfile
import threading
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimver.errors import KgLoadError, UnknownNodeError
from claimver import kg as kg_module
from claimver.kg import KgNode, KnowledgeGraph, Triplet, load_kg
from claimver.retrieval import RetrievalConfig, retrieve
from claimver.text import format_triplet, normalize

from conftest import APOLLO_NODES, write_apollo_jsonl, write_apollo_tsv
from graphgen import (contains_triplet_oracle, edge_between_oracle, label_index_oracle,
                      neighbors_oracle)

# Labels and predicates that collide after normalization, so the triplet
# index sees several edges under one key.
_LABELS = ("Alpha", "alpha", " ALPHA", "Beta", "beta  two", "Beta Two", "gamma")
_PREDICATES = ("rel", "REL", " rel ", "rel a", "Rel  A", "other")


@st.composite
def small_graphs(draw):
    nodes = [KgNode(f"N{i}", draw(st.sampled_from(_LABELS)))
             for i in range(draw(st.integers(1, 8)))]
    ids = st.sampled_from([n.id for n in nodes])
    triplets = draw(st.lists(st.builds(Triplet, ids, st.sampled_from(_PREDICATES), ids),
                             max_size=30))
    return KnowledgeGraph(nodes, triplets), triplets


# Aliases: the first three equal other nodes' labels after normalization,
# "Delta" and "Epsilon" exist only as aliases.
_ALIASES = ("alpha", "BETA", "Beta  two", "Delta", " delta", "Epsilon")


@st.composite
def aliased_graphs(draw):
    ids = draw(st.permutations([f"N{i}" for i in range(draw(st.integers(1, 8)))]))
    nodes = [KgNode(nid, draw(st.sampled_from(_LABELS)), aliases=tuple(draw(
                 st.lists(st.sampled_from(_ALIASES), unique_by=normalize, max_size=3))))
             for nid in ids]
    triplets = draw(st.lists(st.builds(Triplet, st.sampled_from(ids), st.sampled_from(_PREDICATES),
                                       st.sampled_from(ids)), max_size=30))
    return KnowledgeGraph(nodes, triplets)


# Labels and an alias that normalize to "": no label index key, but the
# triplet index still matches such a label.
_BLANK_LABELS = KnowledgeGraph(
    [KgNode("A", " "), KgNode("B", "Beta", aliases=("\t",)), KgNode("C", "  ", aliases=("Delta",))],
    [Triplet("A", "rel", "B"), Triplet("B", "rel", "C")])

# Query surfaces: every label and alias, plus an unknown label and predicate.
_QUERY_LABELS = (*_LABELS, *_ALIASES, "Zeta")
_QUERY_PREDICATES = (*_PREDICATES, "unknown rel")


class TestNodeAndTriplet:
    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            KgNode("Q1", "")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            KgNode("", "label")

    def test_duplicate_aliases_after_casefold_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph([KgNode("Q1", "x", aliases=("USA", "usa"))], [])

    def test_duplicate_node_id_rejected_before_triplets(self):
        def triplets():
            raise AssertionError("triplets read")
            yield

        nodes = [KgNode("A", "first"), KgNode("B", "b"), KgNode("A", "second")]
        with pytest.raises(ValueError, match="duplicate node id 'A'"):
            KnowledgeGraph(nodes, triplets())

    def test_triplet_is_hashable_value(self):
        assert Triplet("a", "p", "b") == Triplet("a", "p", "b")
        assert len({Triplet("a", "p", "b"), Triplet("a", "p", "b")}) == 1


class TestBuildGraph:
    def test_nodes_sorted_by_id(self, apollo_kg):
        assert list(apollo_kg.nodes) == sorted(apollo_kg.nodes)

    def test_duplicate_triplets_dropped_keep_first(self):
        nodes = [KgNode("A", "a"), KgNode("B", "b")]
        g = KnowledgeGraph(nodes, [Triplet("A", "p", "B"), Triplet("A", "p", "B")])
        assert g.edges == (Triplet("A", "p", "B"),)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownNodeError):
            KnowledgeGraph([KgNode("A", "a")], [Triplet("A", "p", "Zzz")])

    def test_self_loop_kept_and_reported(self):
        g = KnowledgeGraph([KgNode("A", "a")], [Triplet("A", "p", "A")])
        assert g.edges == (Triplet("A", "p", "A"),)
        assert any("self-loop" in line for line in g.load_report)

    def test_edges_indexed_under_both_endpoints(self, apollo_kg):
        for t in apollo_kg.edges:
            assert t.object in apollo_kg.neighbors(t.subject)
            assert t.subject in apollo_kg.neighbors(t.object)
            assert apollo_kg.edge_between(t.subject, t.object) == t
            assert apollo_kg.edge_between(t.object, t.subject) == t


class TestLookups:
    def test_label_lookup_case_insensitive(self, apollo_kg):
        assert apollo_kg.label_index.get(normalize("apollo 11"), ()) == ("Q43653",)
        assert apollo_kg.label_index.get(normalize("APOLLO  11"), ()) == ("Q43653",)

    def test_alias_lookup(self, apollo_kg):
        assert apollo_kg.label_index.get(normalize("USA"), ()) == ("Q30",)
        assert apollo_kg.label_index.get(normalize("Edwin Aldrin"), ()) == ("Q2252",)

    def test_unknown_surface_empty(self, apollo_kg):
        assert apollo_kg.label_index.get(normalize("Jupiter"), ()) == ()

    def test_ambiguous_surface_sorted(self):
        nodes = [KgNode("Q9", "Mercury"), KgNode("Q5", "Mercury"), KgNode("Q1", "x")]
        g = KnowledgeGraph(nodes, [Triplet("Q9", "p", "Q1")])
        assert g.label_index.get(normalize("mercury"), ()) == ("Q5", "Q9")

    def test_neighbors_sorted_unique(self, apollo_kg):
        assert apollo_kg.neighbors("Q43653") == ("Q1615", "Q2252", "Q405")
        assert apollo_kg.neighbors("Q30") == ("Q1615", "Q2252")

    def test_neighbors_unknown_node(self, apollo_kg):
        with pytest.raises(UnknownNodeError):
            apollo_kg.neighbors("Q999")

    def test_contains_triplet_by_labels(self, apollo_kg):
        hit = apollo_kg.contains_triplet("apollo 11", "LANDING SITE", "moon")
        assert hit == Triplet("Q43653", "landing site", "Q405")
        assert apollo_kg.contains_triplet("Moon", "landing site", "Apollo 11") is None

    def test_instance_attribute_shadows_neighbors(self, tsv_kg_path):
        # A per-instance wrapper is what callers reach; the traced benchmark
        # counts kg.neighbors calls this way. Retrieval reads the code-level
        # adjacency, so it makes no such call and the wrapper leaves it alone.
        g = load_kg(tsv_kg_path, "tsv")
        method = g.neighbors
        calls = []
        g.neighbors = lambda node: calls.append(node) or method(node)
        assert retrieve(g, ["Q43653", "Q30"]).paths
        assert retrieve(g, ["Q43653", "Q30"]) == retrieve(load_kg(tsv_kg_path), ["Q43653", "Q30"])
        assert g.neighbors("Q30") == method("Q30") and calls == ["Q30"]
        del g.neighbors
        assert g.neighbors == method

    def test_edge_between_picks_first_parallel_edge(self):
        nodes = [KgNode("A", "a"), KgNode("B", "b")]
        g = KnowledgeGraph(nodes, [Triplet("A", "first", "B"), Triplet("B", "second", "A")])
        assert g.edge_between("A", "B") == Triplet("A", "first", "B")
        assert g.edge_between("B", "A") == Triplet("A", "first", "B")

    def test_label_of(self, apollo_kg):
        assert apollo_kg.label_of("Q405") == "Moon"
        with pytest.raises(UnknownNodeError):
            apollo_kg.label_of("Q999")

    def test_triplet_labels(self, apollo_kg):
        assert apollo_kg.triplet_labels(Triplet("Q43653", "landing site", "Q405")) == (
            "Apollo 11", "landing site", "Moon")
        with pytest.raises(UnknownNodeError):
            apollo_kg.triplet_labels(Triplet("Q405", "orbits", "Q999"))


class TestStoreAgainstOracle:
    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_lookups_match_brute_force(self, graph):
        kg, _ = graph
        for a in kg.nodes:
            assert kg.neighbors(a) == neighbors_oracle(kg, a)
            for b in kg.nodes:
                expected = edge_between_oracle(kg, a, b)
                if expected is None:
                    with pytest.raises(KeyError):
                        kg.edge_between(a, b)
                else:
                    assert kg.edge_between(a, b) == expected
        for t in kg.edges:
            labels = kg.triplet_labels(t)
            assert kg.contains_triplet(*labels) is not None
            assert kg.contains_triplet(*labels) == contains_triplet_oracle(kg, *labels)

    @given(aliased_graphs())
    @example(_BLANK_LABELS)
    @settings(max_examples=200, deadline=None)
    def test_label_index_matches_brute_force(self, kg):
        expected = label_index_oracle(kg)
        assert list(kg.label_index.items()) == list(expected.items())
        # Each key's \w runs plus its "ι"s: U+0345 between two words folds to "ι".
        assert kg.max_label_tokens == max(
            (len(re.findall(r"\w+", k)) + k.count("\u03b9") for k in expected), default=0)

    @given(aliased_graphs(), st.lists(st.tuples(st.sampled_from(_QUERY_LABELS),
                                                st.sampled_from(_QUERY_PREDICATES),
                                                st.sampled_from(_QUERY_LABELS)), max_size=20))
    @example(KnowledgeGraph([KgNode("A", "Alpha", aliases=("Delta",)), KgNode("B", "Beta")],
                            [Triplet("A", "rel", "B")]),
             [("alpha", "REL", "beta"), ("Delta", "rel", "Beta"), ("Alpha", "unknown rel", "Beta"),
              ("Alpha", "rel", "Zeta"), ("Beta", "rel", "Alpha")])
    @example(_BLANK_LABELS, [(" ", "rel", "Beta"), ("", "rel", "beta"), ("Beta", "rel", "  "),
                             ("Delta", "rel", "")])
    @settings(max_examples=200, deadline=None)
    def test_contains_triplet_matches_brute_force(self, kg, queries):
        for query in queries:
            assert kg.contains_triplet(*query) == contains_triplet_oracle(kg, *query)

    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_duplicates_dropped_and_self_loops_reported_once(self, graph):
        kg, triplets = graph
        distinct = tuple(dict.fromkeys(triplets))
        assert kg.edges == distinct
        assert list(kg.load_report) == [
            f"self-loop triplet kept: {format_triplet(t.subject, t.predicate, t.object)}"
            for t in distinct if t.subject == t.object]


class TestLoadTsv:
    def test_roundtrip_against_programmatic_graph(self, tsv_kg_path, apollo_kg):
        g = load_kg(tsv_kg_path, "tsv")
        assert set(g.nodes) == set(apollo_kg.nodes)
        assert g.edges == apollo_kg.edges
        for nid, node in apollo_kg.nodes.items():
            assert g.nodes[nid].label == node.label
            assert g.nodes[nid].description == node.description
            assert g.nodes[nid].aliases == node.aliases

    def test_sidecar_autodiscovery(self, tsv_kg_path):
        g = load_kg(tsv_kg_path, "tsv")
        assert g.nodes["Q30"].aliases == ("USA", "United States of America")

    def test_dangling_node_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("A\tAlpha\trel\tB\t\n", encoding="utf-8")
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "tsv")
        assert any("line 1" in e and "'B'" in e for e in err.value.errors)

    def test_dangling_node_lenient_skips(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("A\tAlpha\trel\tB\t\nA\tAlpha\trel\tC\tGamma\n", encoding="utf-8")
        g = load_kg(path, "tsv", lenient=True)
        assert set(g.nodes) == {"A", "C"}
        assert g.edges == (Triplet("A", "rel", "C"),)
        assert any("skipped" in line for line in g.load_report)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("A\tAlpha\trel\n", encoding="utf-8")
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "tsv")
        assert "line 1" in err.value.errors[0]

    def test_label_resolved_from_other_row(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("A\tAlpha\trel\tB\t\nB\tBeta\trel2\tA\tAlpha\n", encoding="utf-8")
        g = load_kg(path, "tsv")
        assert g.nodes["B"].label == "Beta"

    def test_conflicting_labels_keep_first_and_report(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("A\tAlpha\trel\tB\tBeta\nA\tOther\trel2\tB\tBeta\n", encoding="utf-8")
        g = load_kg(path, "tsv")
        assert g.nodes["A"].label == "Alpha"
        assert any("conflicting label" in line for line in g.load_report)

    def test_node_file_unknown_id(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("A\tAlpha\trel\tB\tBeta\n", encoding="utf-8")
        (tmp_path / "kg.nodes.tsv").write_text("Zzz\tsome description\t\n", encoding="utf-8")
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "tsv")
        assert any("unknown node id" in e for e in err.value.errors)

    def test_missing_file(self, tmp_path):
        with pytest.raises(KgLoadError):
            load_kg(tmp_path / "nope.tsv", "tsv")

    def test_unknown_format(self, tsv_kg_path):
        with pytest.raises(ValueError):
            load_kg(tsv_kg_path, "xml")

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("\nA\tAlpha\trel\tB\tBeta\n\n", encoding="utf-8")
        g = load_kg(path, "tsv")
        assert len(g.edges) == 1

    def test_rows_end_only_at_newlines(self, tmp_path):
        # U+2028 and U+0085 end a line for str.splitlines, not in a file.
        path = tmp_path / "kg.tsv"
        path.write_text("A\tGa\u2028mma\u0085ray\trel\tB\tBeta\r\n"
                        "B\tBeta\trel\tC\tGamma\rbad row\n", encoding="utf-8", newline="")
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "tsv")
        assert err.value.errors == ["line 3: expected 5 tab-separated columns, got 1"]
        g = load_kg(path, "tsv", lenient=True)
        assert g.nodes["A"].label == "Ga\u2028mma\u0085ray"
        assert len(g.edges) == 2


class TestLoadJsonl:
    def test_roundtrip_against_programmatic_graph(self, jsonl_kg_path, apollo_kg):
        g = load_kg(jsonl_kg_path, "jsonl")
        assert set(g.nodes) == set(apollo_kg.nodes)
        assert g.edges == apollo_kg.edges
        assert g.nodes["Q2252"].aliases == ("Edwin Aldrin",)

    def test_invalid_json_line_reported(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text('{"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", "o_label": "b"}\n'
                        "{not json}\n", encoding="utf-8")
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "jsonl")
        assert any("line 2" in e for e in err.value.errors)

    def test_rows_json_cannot_convert_rejected(self, tmp_path):
        # json.loads raises ValueError for an integer longer than int()
        # converts, and RecursionError for nesting this deep.
        big, deep = '{"s_id": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000
        path = tmp_path / "kg.jsonl"
        path.write_text(f'{big}\n{{"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", '
                        f'"o_label": "b"}}\n{deep}\n', encoding="utf-8")
        (tmp_path / "kg.nodes.jsonl").write_text(
            f'{deep}\n{{"id": "A", "description": "first"}}\n{big}\n', encoding="utf-8")
        lines = ["line 1: ", "line 3: ", "line 1 (node file): ", "line 3 (node file): "]
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "jsonl")
        assert len(err.value.errors) == len(lines)
        for error, line in zip(err.value.errors, lines):
            assert error.startswith(f"{line}invalid JSON (")
        assert "4300 digits" in err.value.errors[0] and "recursion" in err.value.errors[1]
        g = load_kg(path, "jsonl", lenient=True)
        assert g.load_report == tuple(f"skipped: {e}" for e in err.value.errors)
        assert g.edges == (Triplet("A", "r", "B"),)
        assert g.nodes["A"].description == "first"

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text('{"s_id": "A", "o_id": "B"}\n', encoding="utf-8")
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "jsonl")
        assert any("missing" in e for e in err.value.errors)

    def test_node_file_can_introduce_isolated_node(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text('{"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", "o_label": "b"}\n',
                        encoding="utf-8")
        (tmp_path / "kg.nodes.jsonl").write_text(
            '{"id": "C", "label": "c", "description": "isolated"}\n', encoding="utf-8")
        g = load_kg(path, "jsonl")
        assert g.nodes["C"].description == "isolated"
        assert g.neighbors("C") == ()

    def test_explicit_nodes_path(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text('{"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", "o_label": "b"}\n',
                        encoding="utf-8")
        nodes = tmp_path / "extra.jsonl"
        nodes.write_text('{"id": "A", "label": "a", "aliases": ["alpha"]}\n', encoding="utf-8")
        g = load_kg(path, "jsonl", nodes_path=nodes)
        assert g.nodes["A"].aliases == ("alpha",)
        with pytest.raises(KgLoadError):
            load_kg(path, "jsonl", nodes_path=tmp_path / "gone.jsonl")

    def test_non_object_node_row_rejected(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        path.write_text('{"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", "o_label": "b"}\n',
                        encoding="utf-8")
        (tmp_path / "kg.nodes.jsonl").write_text(
            '[1, 2]\n{"id": "A", "description": "first"}\n"A"\n', encoding="utf-8")
        errors = ["line 1 (node file): expected a JSON object",
                  "line 3 (node file): expected a JSON object"]
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "jsonl")
        assert err.value.errors == errors
        g = load_kg(path, "jsonl", lenient=True)
        assert g.load_report == tuple(f"skipped: {e}" for e in errors)
        assert g.nodes["A"].description == "first"

    def test_null_is_absent(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        rows = [
            {"s_id": None, "s_label": "x", "p": "r", "o_id": "B", "o_label": "b"},
            {"s_id": "A", "s_label": "a", "p": None, "o_id": "B", "o_label": "b"},
            {"s_id": "A", "s_label": "a", "p": "r", "o_id": None, "o_label": "b"},
            {"s_id": "A", "s_label": None, "p": "r", "o_id": "B", "o_label": None},
            {"s_id": "A", "s_label": "Alpha", "p": "r", "o_id": "B", "o_label": "Beta"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        (tmp_path / "kg.nodes.jsonl").write_text(
            '{"id": null, "label": "x"}\n'
            '{"id": "A", "label": null, "description": null, "aliases": [null, "Al", null]}\n',
            encoding="utf-8")
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "jsonl")
        assert err.value.errors == [f"line {n}: missing s_id, p, or o_id" for n in (1, 2, 3)] + [
            "line 1 (node file): empty node id"]
        g = load_kg(path, "jsonl", lenient=True)
        assert set(g.nodes) == {"A", "B"}
        assert (g.nodes["A"].label, g.nodes["B"].label) == ("Alpha", "Beta")
        assert g.nodes["A"].description == ""
        assert g.nodes["A"].aliases == ("Al",)
        assert g.label_index.get(normalize("none"), ()) == ()
        assert not any("conflicting" in line for line in g.load_report)

    def test_non_string_values_rejected(self, tmp_path):
        path = tmp_path / "kg.jsonl"
        rows = [
            {"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", "o_label": "b"},
            {"s_id": "A", "s_label": "a", "p": ["x"], "o_id": "B", "o_label": "b"},
            {"s_id": "A", "s_label": "a", "p": "r", "o_id": True, "o_label": "b"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        nodes = [
            {"id": "A", "description": 5},
            {"id": "A", "aliases": "USA"},
            {"id": "A", "aliases": ["Al", 1]},
            {"id": "B", "aliases": ["Bee", None]},
        ]
        (tmp_path / "kg.nodes.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in nodes), encoding="utf-8")
        errors = ["line 2: p must be a string or null",
                  "line 3: o_id must be a string or null",
                  "line 1 (node file): description must be a string or null",
                  "line 2 (node file): aliases must be a list of strings",
                  "line 3 (node file): aliases must be a list of strings"]
        with pytest.raises(KgLoadError) as err:
            load_kg(path, "jsonl")
        assert err.value.errors == errors
        g = load_kg(path, "jsonl", lenient=True)
        assert g.load_report == tuple(f"skipped: {e}" for e in errors)
        assert g.edges == (Triplet("A", "r", "B"),)
        assert (g.nodes["A"].description, g.nodes["A"].aliases) == ("", ())
        assert g.nodes["B"].aliases == ("Bee",)


# A TSV snapshot: ids with one label spelling each, so a snapshot is clean
# unless a defect is drawn. Labels and aliases collide after normalization.
_TSV_LABELS = {"A": "Alpha", "B": "Beta two", "Q1": "alpha", "Q10": "Gamma", "b": "beta  TWO"}
_TSV_PREDICATES = ("rel", "REL", "rel a", "other")
_PADS = ("", " ", "\u3000", "\x0c ")
_SIDECAR_ALIASES = ("USA", "usa", " Alpha ", "Beta  Two", "x", "")
# Whitespace-only lines, which both decoders skip without a message.
_BLANKS = ("", " ", "\u3000", "\t \t\t\t")
# Defects: the first four send the block holding them row by row, and the
# last two are node-file rows that the load rejects.
_DEFECTS = ("second label spelling", "empty label", "empty id",
            "four columns", "sidecar unknown id", "sidecar one column")


@st.composite
def tsv_snapshots(draw):
    """(snapshot text, node file text or None, names of the drawn defects)."""
    def pad(field):
        return draw(st.sampled_from(_PADS)) + field + draw(st.sampled_from(_PADS))

    ids = st.sampled_from(sorted(_TSV_LABELS))
    rows = draw(st.lists(st.tuples(ids, st.sampled_from(_TSV_PREDICATES), ids), max_size=12))
    lines = [[pad(f) for f in (s, _TSV_LABELS[s], p, o, _TSV_LABELS[o])] for s, p, o in rows]
    referenced = sorted({end for s, _, o in rows for end in (s, o)})
    node_lines = None
    if referenced and draw(st.booleans()):
        node_lines = [[pad(nid), pad(draw(st.sampled_from(("", "desc", "Desc"))))]
                      + ["|".join(draw(st.lists(st.sampled_from(_SIDECAR_ALIASES), max_size=3)))]
                      * draw(st.integers(0, 1))
                      for nid in draw(st.lists(st.sampled_from(referenced), min_size=1))]
    defects = draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)) if lines else []
    if node_lines is None:
        defects = [d for d in defects if not d.startswith("sidecar")]
    for defect in defects:
        at = draw(st.integers(0, len(lines) - 1))
        if defect == "second label spelling":
            spelling = draw(st.sampled_from((lines[at][1].upper(), lines[at][1] + " x")))
            lines.insert(draw(st.integers(0, len(lines))),
                         [lines[at][0], spelling, *lines[at][2:]])
        elif defect == "empty label":
            lines[at][-1] = draw(st.sampled_from(_PADS))
        elif defect == "empty id":
            lines[at][0] = draw(st.sampled_from(_PADS))
        elif defect == "four columns":
            del lines[at][2]
        elif defect == "sidecar unknown id":
            node_lines.insert(draw(st.integers(0, len(node_lines))), ["Zzz", "desc"])
        elif defect == "sidecar one column":
            node_lines.insert(draw(st.integers(0, len(node_lines))), [referenced[0]])
    for rows in filter(None, (lines, node_lines)):
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from(_BLANKS))])

    def text(rows):
        ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in rows]
        if ends and draw(st.booleans()):
            ends[-1] = ""  # no final newline
        return "".join("\t".join(row) + end for row, end in zip(rows, ends))

    return text(lines), None if node_lines is None else text(node_lines), defects


def _write_snapshot(directory, snapshot, nodes):
    path = directory / "kg.tsv"
    path.write_text(snapshot, encoding="utf-8", newline="")
    if nodes is not None:
        (directory / "kg.nodes.tsv").write_text(nodes, encoding="utf-8", newline="")
    return path


def _all_rows(load, *args, **kwargs):
    """load(*args, **kwargs) with every snapshot block sent to the row decoder."""
    with patch.object(kg_module._SnapshotDecoder, "code_clean_block", lambda self, block: False):
        return load(*args, **kwargs)


def _loaded(path, lenient: bool):
    """The summary of a TSV snapshot's graph, or the errors that fail its load."""
    try:
        return _graph_summary(load_kg(path, "tsv", lenient=lenient))
    except KgLoadError as err:
        return err.errors


def _no_row_decoder(*args):
    raise AssertionError("row decoder used")


def _graph_summary(kg: KnowledgeGraph) -> dict:
    """Everything a lookup can see of a graph."""
    return {
        "nodes": list(kg.nodes.values()),
        "edges": kg.edges,
        "load_report": kg.load_report,
        "label_index": list(kg.label_index.items()),
        "max_label_tokens": kg.max_label_tokens,
        "adjacency": {nid: [(m, kg.edge_between(nid, m)) for m in kg.neighbors(nid)]
                      for nid in kg.nodes},
        "triplet_hits": [kg.contains_triplet(*kg.triplet_labels(t)) for t in kg.edges],
    }


class TestBlockDecoder:
    def test_clean_load_never_reaches_row_decoder(self, tsv_kg_path, monkeypatch, apollo_kg):
        def refuse(lines, node_file):
            raise AssertionError("row decoder used")

        monkeypatch.setattr(kg_module, "_tsv_rows", refuse)
        g = load_kg(tsv_kg_path, "tsv")
        assert g.edges == apollo_kg.edges
        assert list(g.nodes.values()) == list(apollo_kg.nodes.values())

    @given(tsv_snapshots(), st.sampled_from((1, 40, 65536)))
    @example(("A\tAlpha\trel\tA\tAlpha\r\nA\tAlpha\trel\tA\tAlpha", "A\t\tUSA|usa\n", []), 65536)
    @example(("A\tAlpha\trel\tA\tAlpha\n\n", "A\tdesc\n \t\n", []), 65536)
    # B is first seen unlabelled in a block that goes row by row, then
    # labelled in a later block that is clean on its own.
    @example(("A\tAlpha\trel\tB\t\nB\tBeta\trel\tA\tAlpha\n", None, ["empty label"]), 1)
    # The second block codes Q10 and then meets its second spelling, so the
    # code is dropped again and the first spelling wins.
    @example(("A\tAlpha\trel\tA\tAlpha\nQ10\tGamma\trel\tQ10\tGAMMA\n", None,
              ["second label spelling"]), 1)
    @settings(max_examples=300, deadline=None)
    def test_same_graph_as_row_decoder(self, snapshot, block_chars):
        text, nodes, defects = snapshot
        with tempfile.TemporaryDirectory() as tmp, \
                patch.object(kg_module, "_BLOCK_CHARS", block_chars):
            path = _write_snapshot(Path(tmp), text, nodes)
            for lenient in (False, True):
                assert _loaded(path, lenient) == _all_rows(_loaded, path, lenient)
            if all(d.startswith("sidecar") for d in defects):
                with patch.object(kg_module, "_tsv_rows", _no_row_decoder):
                    _loaded(path, lenient=True)

    def test_each_line_decoded_once(self, tmp_path):
        lines = ["A\tAlpha\trel\tB\tBeta\n", "B\tBeta\trel\tC\tGamma\n",
                 "C\tGamma\trel\tA\tAlpha\n", "bad row\n",
                 "A\tAlpha\tREL\tC\tGamma\n", "C\tGamma\trel\tB\tBeta\n"]
        path = tmp_path / "kg.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        decode, calls = kg_module._tsv_rows, []

        def recorded(lines, *args, **kwargs):
            calls.append(list(lines))
            return decode(calls[-1], *args, **kwargs)

        # Blocks of two lines each: each line has at most 20 characters, and
        # any two together have more.
        with patch.object(kg_module, "_BLOCK_CHARS", 20), \
                patch.object(kg_module, "_tsv_rows", recorded):
            g = load_kg(path, "tsv", lenient=True)
        assert calls == [lines[2:4]]
        assert g.load_report == ("skipped: line 4: expected 5 tab-separated columns, got 1",)
        assert len(g.edges) == 5

    def test_rejected_block_leaves_the_tables(self):
        decoder = kg_module._SnapshotDecoder()
        assert decoder.code_clean_block(["A\tAlpha\trel\tB\tBeta\n"])

        def tables():
            return (list(decoder.position.items()), list(decoder.labels),
                    list(decoder.predicates.items()), len(decoder.blocks))

        before = tables()
        # C and D are coded before A's second spelling fails the label check.
        assert not decoder.code_clean_block(["C\tGamma\tnew\tD\tDelta\n",
                                             "A\tALPHA\tnew\tC\tGamma\n"])
        assert tables() == before
        # The next new id takes the next code, as if the block was never seen.
        assert decoder.code_clean_block(["A\tAlpha\tnew\tE\tEpsilon\n"])
        assert list(decoder.position.items()) == [("A", 0), ("B", 1), ("E", 2)]
        assert decoder.labels == ["Alpha", "Beta", "Epsilon"]
        assert list(decoder.predicates.items()) == [("rel", 0), ("new", 1)]

    def test_loaded_tables_add_nothing_on_lookup(self, tsv_kg_path):
        g = load_kg(tsv_kg_path, "tsv")
        assert type(g._position) is dict and type(g._predicate_codes) is dict
        with pytest.raises(UnknownNodeError):
            g.label_of("Qx")
        assert g.contains_triplet("Moon", "no such predicate", "Moon") is None
        assert "Qx" not in g._position and "no such predicate" not in g._predicate_codes


# Text a load keeps as given: already stripped. The sampled labels collide
# after normalization; the drawn text adds any other character.
_STRIPPED = st.one_of(st.sampled_from(_LABELS + _ALIASES), st.text(max_size=6)).map(str.strip)


@st.composite
def stripped_graphs(draw):
    """Nodes, triplets and label queries for a graph that a JSONL snapshot
    and node file carry unchanged: text stripped, labels, predicates and
    aliases non-empty, aliases distinct after normalization. Triplets repeat,
    loop and run parallel, and some nodes have no edge."""
    ids = draw(st.permutations([f"N{i}" for i in range(draw(st.integers(1, 8)))]))
    names = _STRIPPED.filter(bool)
    nodes = [KgNode(nid, draw(names), draw(_STRIPPED),
                    tuple(draw(st.lists(names, unique_by=normalize, max_size=3))))
             for nid in ids]
    predicates = st.one_of(st.sampled_from(_PREDICATES).map(str.strip), names)
    triplets = draw(st.lists(st.builds(Triplet, st.sampled_from(ids), predicates,
                                       st.sampled_from(ids)), max_size=20))
    if triplets:
        triplets += draw(st.lists(st.sampled_from(triplets), max_size=5))
        triplets = draw(st.permutations(triplets))
    surfaces = st.sampled_from([s for n in nodes for s in (n.label, *n.aliases)] + ["Zeta"])
    queries = draw(st.lists(st.tuples(surfaces, predicates, surfaces), max_size=10))
    return nodes, triplets, queries


class TestTwoProducers:
    @given(stripped_graphs())
    @settings(max_examples=200, deadline=None)
    def test_constructor_and_load_build_the_same_store(self, graph):
        nodes, triplets, queries = graph
        built = KnowledgeGraph(nodes, triplets)
        labels = {n.id: n.label for n in nodes}
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "kg.jsonl"
            path.write_text("".join(
                json.dumps({"s_id": s, "s_label": labels[s], "p": p, "o_id": o,
                            "o_label": labels[o]}) + "\n" for s, p, o in triplets))
            (Path(directory) / "kg.nodes.jsonl").write_text("".join(
                json.dumps({"id": n.id, "label": n.label, "description": n.description,
                            "aliases": list(n.aliases)}) + "\n" for n in nodes))
            loaded = load_kg(path, "jsonl")
        assert _graph_summary(loaded) == _graph_summary(built)
        for query in queries:
            assert loaded.contains_triplet(*query) == built.contains_triplet(*query)


class TestViews:
    def test_nodes_is_a_read_only_mapping(self, tsv_kg_path):
        g = load_kg(tsv_kg_path, "tsv")
        assert isinstance(g.nodes, Mapping)
        assert list(g.nodes) == sorted(n.id for n in APOLLO_NODES)
        assert len(g.nodes) == len(APOLLO_NODES)
        assert "Q405" in g.nodes and "Q999" not in g.nodes
        assert g.nodes["Q405"] == KgNode("Q405", "Moon", "natural satellite of Earth")
        with pytest.raises(KeyError):
            g.nodes["Q999"]
        with pytest.raises(TypeError):
            g.nodes["Q999"] = KgNode("Q999", "x")
        assert "Q999" not in g.nodes

    def test_edges_equal_the_row_decoders(self, tsv_kg_path):
        edges = load_kg(tsv_kg_path, "tsv").edges
        assert type(edges) is tuple and all(type(t) is Triplet for t in edges)
        assert edges == _all_rows(load_kg, tsv_kg_path, "tsv").edges

    def test_instances_keep_a_dict(self, tsv_kg_path):
        # The traced benchmark patches kg.neighbors on the instance.
        g = load_kg(tsv_kg_path, "tsv")
        assert "neighbors" not in vars(g)
        assert g.edges is g.edges


def _ring_with_hubs(n: int = 600) -> KnowledgeGraph:
    """n nodes in a ring, every seventh also joined to one of three hubs; more
    than 256 nodes, so most codes are ints that Python does not cache."""
    ids = [f"N{i:04d}" for i in range(n)]
    triplets = [Triplet(ids[i], "next", ids[(i + 1) % n]) for i in range(n)]
    triplets += [Triplet(ids[i], "hub", ids[i % 3]) for i in range(3, n, 7)]
    return KnowledgeGraph([KgNode(i, f"node {i}") for i in ids], triplets)


class TestNeighborTuples:
    def test_built_on_first_use_from_the_csr_row(self, tsv_kg_path):
        for g in (load_kg(tsv_kg_path), _ring_with_hubs()):
            assert g._adjacency == [None] * len(g.nodes)
            for code in range(len(g.nodes)):
                row = g._nbr_codes[g._indptr[code]:g._indptr[code + 1]].tolist()
                nbrs = g._neighbor_codes(code)
                assert nbrs == tuple(row)
                assert g._adjacency[code] is nbrs and g._neighbor_codes(code) is nbrs

    def test_one_int_per_code(self):
        g = _ring_with_hubs()
        shared = {}
        for code in range(len(g.nodes)):
            for nbr in g._neighbor_codes(code):
                assert shared.setdefault(nbr, nbr) is nbr
        assert max(shared) > 256

    def test_id_table_shares_the_code_ints(self, tmp_path):
        ring = _ring_with_hubs()
        path = tmp_path / "ring.tsv"
        path.write_text("".join(f"{t.subject}\tnode {t.subject}\t{t.predicate}\t"
                                f"{t.object}\tnode {t.object}\n" for t in ring.edges))
        for g in (ring, load_kg(path)):
            assert len(g.nodes) > 256
            assert all(g._position[i] is g._code_ints[g._position[i]] for i in g.nodes)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_common_neighbors_match_sets(self, rng):
        # Rows drawn on both sides of the length from which the longer row
        # is probed through its set, with the odd self-loop.
        set_row = kg_module._SET_ROW
        ids = [f"N{i:03d}" for i in range(set_row + 40)]
        hubs = rng.sample(ids, 4)
        triplets = [Triplet(h, "p", o) for h in hubs
                    for o in rng.sample(ids, rng.randint(set_row - 8, len(ids)))]
        triplets += [Triplet(rng.choice(ids), "q", rng.choice(ids)) for _ in range(60)]
        g = KnowledgeGraph([KgNode(i, i.lower()) for i in ids], triplets)
        nodes = [*hubs, *rng.sample(ids, 4)]
        for a in nodes:
            for b in nodes:
                expected = sorted({g._code(n) for n in g.neighbors(a)}
                                  & {g._code(n) for n in g.neighbors(b)})
                assert g._common_neighbors(g._code(a), g._code(b)) == expected

    def test_threads_racing_on_first_use_get_equal_tuples(self):
        g = _ring_with_hubs()
        codes = list(range(len(g.nodes)))
        barrier = threading.Barrier(4)
        results = [None] * 4

        def first_use(slot):
            barrier.wait(timeout=10)
            results[slot] = [g._neighbor_codes(c) for c in codes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected = [tuple(g._nbr_codes[g._indptr[c]:g._indptr[c + 1]].tolist()) for c in codes]
        assert results == [expected] * 4

    def test_threads_racing_on_first_use_get_equal_sets(self):
        g = _ring_with_hubs()
        codes = list(range(len(g.nodes)))
        hubs = [c for c in codes if len(g._neighbor_codes(c)) >= kg_module._SET_ROW]
        assert len(hubs) == 3 and g._neighbor_sets == {}
        barrier = threading.Barrier(4)
        results = [None] * 4

        def first_use(slot):
            barrier.wait(timeout=10)
            results[slot] = [g._common_neighbors(c, h) for c in codes for h in hubs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        rows = [g._nbr_codes[g._indptr[c]:g._indptr[c + 1]].tolist() for c in codes]
        expected = [sorted(set(rows[c]) & set(rows[h])) for c in codes for h in hubs]
        assert results == [expected] * 4
        assert g._neighbor_sets == {h: frozenset(rows[h]) for h in hubs}

    @pytest.mark.parametrize("max_hops", [2, 3])
    def test_retrieve_same_on_fresh_and_fully_built_graphs(self, max_hops):
        config = RetrievalConfig(max_hops=max_hops, max_paths_per_pair=4)
        seeds = ["N0000", "N0001", "N0100", "N0297", "N0450"]
        built = _ring_with_hubs()
        for code in range(len(built.nodes)):
            built._neighbor_codes(code)
        result = retrieve(_ring_with_hubs(), seeds, config)
        assert result.paths
        assert result == retrieve(built, seeds, config)


def _first_occurrences(columns: list[list[int]]) -> list[int]:
    """The index of each distinct row's first occurrence, ordered by row."""
    rows = list(zip(*columns))
    return sorted(dict(map(reversed, reversed(list(enumerate(rows))))).values(),
                  key=rows.__getitem__)


# Three columns this wide, with the row index, overflow an int64 key.
_WIDE = [[v * 2**29 for v in (3, 0, 3, 0, 1, 3)]] * 3


class TestRunHeads:
    # Column values are 0-3 times a scale: rows with at most one wide column
    # pack into an int64 key, and rows with more leave np.lexsort to sort.
    @given(st.lists(st.tuples(st.sampled_from((1, 2**29)),
                              st.lists(st.integers(0, 3), min_size=6, max_size=6)),
                    min_size=1, max_size=3))
    @example([(2**29, [3, 0, 3, 0, 1, 3])] * 3)
    @settings(max_examples=200, deadline=None)
    def test_first_occurrence_of_each_distinct_row(self, scaled):
        columns = [[v * scale for v in values] for scale, values in scaled]
        arrays = [np.array(c, dtype=np.int32) for c in columns]
        assert kg_module._run_heads(*arrays).tolist() == _first_occurrences(columns)

    def test_wide_rows_fall_back_to_lexsort(self, monkeypatch):
        arrays = [np.array(c, dtype=np.int32) for c in _WIDE]
        index = np.arange(len(_WIDE[0]), dtype=np.int32)
        assert kg_module._packed_key((*arrays, index)) is None
        lexsort = np.lexsort
        sorts = []
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(keys) or lexsort(keys))
        assert kg_module._run_heads(*arrays).tolist() == _first_occurrences(_WIDE)
        assert len(sorts) == 1


def _utf8_rows(fmt: str, node_file: bool, ids: list[str]) -> list[bytes]:
    """One encoded row per id: a snapshot edge from the id to itself, or a
    node-file row."""
    if fmt == "tsv":
        return [(f"{i}\tdescribed" if node_file else f"{i}\t{i}\trel\t{i}\t{i}").encode()
                for i in ids]
    return [json.dumps({"id": i, "label": i} if node_file else
                       {"s_id": i, "s_label": i, "p": "rel", "o_id": i, "o_label": i}).encode()
            for i in ids]


class TestLoadNotUtf8:
    # Lines end at \n, \r\n and \r, and blank lines count, as the row decoder
    # numbers lines; 5,000 rows before the bad one put it past the first
    # readlines() block. A later bad line is not reported.
    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("node_file", [False, True])
    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    @pytest.mark.parametrize("good", [2, 5000])
    def test_fails_naming_the_first_bad_line(self, tmp_path, fmt, node_file, lenient, good):
        ids = [f"N{i}" for i in range(good)]
        rows = _utf8_rows(fmt, node_file, ids)
        bad = _utf8_rows(fmt, node_file, ["Bad"])[0].replace(b"Bad", b"B\xffa\xc3d")
        text = (rows[0] + b"\r\n" + b"\r".join(rows[1:]) + b"\n\n" + bad + b"\n"
                + rows[0] + b"\xff\n")
        path = tmp_path / f"kg.{fmt}"
        if node_file:
            path.write_bytes(b"\n".join(_utf8_rows(fmt, False, ids)) + b"\n")
            (tmp_path / f"kg.nodes.{fmt}").write_bytes(text)
        else:
            path.write_bytes(text)
        where = " (node file)" if node_file else ""
        with pytest.raises(KgLoadError) as err:
            load_kg(path, fmt, lenient=lenient)
        assert err.value.errors == [f"line {good + 2}{where}: not valid UTF-8"]


# Edits drawn into the bytes of a valid snapshot or node file: the bytes
# that end rows, separate fields, quote or bracket JSON, a JSON null, NUL,
# and bytes that are not UTF-8 (a stray continuation byte, a truncated
# two-byte sequence, an encoded surrogate).
_EDITS = (b"\t", b"\r", b"\n", b"\r\n", b"|", b'"', b"'", b"{", b"}", b"null", b"\x00",
          b"\xff", b"\xc3", b"\xed\xa0\x80")


def _apollo_files(fmt: str) -> list[bytes]:
    """The bytes of the Apollo snapshot in fmt and of its node file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path((write_apollo_tsv if fmt == "tsv" else write_apollo_jsonl)(Path(tmp)))
        return [path.read_bytes(), path.with_name(f"{path.stem}.nodes{path.suffix}").read_bytes()]


_APOLLO_FILES = {fmt: _apollo_files(fmt) for fmt in ("tsv", "jsonl")}


@st.composite
def mutated_snapshots(draw):
    """(format, snapshot bytes, node file bytes or None): the Apollo graph in
    either format with a few edits in the snapshot or in its node file."""
    fmt = draw(st.sampled_from(sorted(_APOLLO_FILES)))
    files = list(_APOLLO_FILES[fmt])
    which = draw(st.integers(0, 1))
    data = bytearray(files[which])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 3))] = draw(st.sampled_from(_EDITS))
    files[which] = bytes(data)
    if which == 0 and draw(st.booleans()):
        files[1] = None  # no node file
    return fmt, *files


def _load_outcome(fmt: str, snapshot: bytes, nodes, lenient: bool):
    """The summary of the graph the bytes load to, or the errors that fail
    the load. Any other exception propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"kg.{fmt}"
        path.write_bytes(snapshot)
        if nodes is not None:
            path.with_name(f"kg.nodes.{fmt}").write_bytes(nodes)
        try:
            return _graph_summary(load_kg(path, fmt, lenient=lenient))
        except KgLoadError as err:
            return err.errors


class TestMalformedSnapshots:
    """Bytes made from a valid snapshot end as a graph or a KgLoadError."""

    @given(mutated_snapshots())
    @settings(max_examples=300, deadline=None)
    def test_load_gives_a_graph_or_a_load_error(self, snapshot):
        for lenient in (False, True):
            _load_outcome(*snapshot, lenient)  # raises any other exception

    @given(mutated_snapshots(), st.sampled_from((1, 40, 65536)))
    @settings(max_examples=200, deadline=None)
    def test_row_decoder_agrees_with_the_clean_block_path(self, snapshot, block_chars):
        with patch.object(kg_module, "_BLOCK_CHARS", block_chars):
            for lenient in (False, True):
                assert _load_outcome(*snapshot, lenient) == _all_rows(
                    _load_outcome, *snapshot, lenient)


class TestLoadMemory:
    # Peak traced memory over memory retained after the load. The columnar
    # store, with neighbor tuples built on first use, gives about 1.19 on
    # this graph (3.2 MB over 2.7 MB); building every tuple at load gave
    # about 1.20 (3.7 over 3.1 MB), sorted-array indexes over Triplet tuples
    # about 1.18 (5.8 over 4.9 MB), and per-node dictionaries with a
    # dict-of-tuples triplet index about 1.67.
    PEAK_OVER_RETAINED = 1.35

    def test_peak_stays_near_retained(self, tmp_path, tsv_kg_path):
        load_kg(tsv_kg_path, "tsv")  # first-call set-up stays out of the trace
        rng = random.Random(7)
        n_nodes, n_edges = 4000, 16000
        path = tmp_path / "graph.tsv"
        rows = []
        for i in range(n_edges):
            s, o = int(n_nodes * rng.random() ** 2), i % n_nodes
            rows.append(f"E{s}\tEntity {s}\trel {rng.randrange(20)}\tE{o}\tEntity {o}\n")
        path.write_text("".join(rows), encoding="utf-8")
        (tmp_path / "graph.nodes.tsv").write_text(
            "".join(f"E{i}\tnode {i}\tEnt {i}|E-{i}\n" for i in range(0, n_nodes, 4)),
            encoding="utf-8")
        tracemalloc.start()
        try:
            graph = load_kg(path, "tsv")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph.nodes) == n_nodes
        assert peak / retained < self.PEAK_OVER_RETAINED


class TestDeterminism:
    def test_same_input_same_graph(self, tsv_kg_path):
        a = load_kg(tsv_kg_path, "tsv")
        b = load_kg(tsv_kg_path, "tsv")
        assert list(a.nodes) == list(b.nodes)
        assert a.edges == b.edges
        assert a.label_index == b.label_index
        for nid in a.nodes:
            assert a.neighbors(nid) == b.neighbors(nid)
            assert ([a.edge_between(nid, m) for m in a.neighbors(nid)]
                    == [b.edge_between(nid, m) for m in b.neighbors(nid)])
