"""Bounded path retrieval and its exhaustive enumeration oracle."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimver import kg as kg_module, retrieval
from claimver.errors import UnknownNodeError
from claimver.kg import KgNode, KnowledgeGraph, Triplet
from claimver.retrieval import KgPath, RetrievalConfig, retrieve

from graphgen import enumerate_paths_oracle, hub_graph, random_graph, random_seeds
from oracles import retrieve_oracle


class TestConfig:
    def test_defaults(self):
        cfg = RetrievalConfig()
        assert cfg.max_hops == 3 and cfg.max_paths_per_pair == 4

    @pytest.mark.parametrize("kwargs", [{"max_hops": 0}, {"max_paths_per_pair": 0}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            RetrievalConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_hops": 2.5}, {"max_hops": 3.0}, {"max_hops": True}, {"max_hops": "3"},
        {"max_paths_per_pair": 1.5}, {"max_paths_per_pair": False}, {"max_paths_per_pair": None}])
    def test_rejects_non_int(self, kwargs):
        with pytest.raises(ValueError, match="must be an int"):
            RetrievalConfig(**kwargs)


class TestKgPath:
    def test_invariants(self):
        t = Triplet("A", "p", "B")
        path = KgPath(nodes=("A", "B"), edges=(t,))
        assert (path.nodes[0], path.nodes[-1]) == ("A", "B") and len(path.edges) == 1

    def test_rejects_short_path(self):
        with pytest.raises(ValueError):
            KgPath(nodes=("A",), edges=())

    def test_rejects_edge_count_mismatch(self):
        with pytest.raises(ValueError):
            KgPath(nodes=("A", "B"), edges=())

    def test_rejects_repeated_nodes(self):
        t = Triplet("A", "p", "B")
        with pytest.raises(ValueError):
            KgPath(nodes=("A", "B", "A"), edges=(t, t))


class TestRetrieveFixture:
    def test_adjacent_pair_single_hop_first(self, apollo_kg):
        result = retrieve(apollo_kg, ["Q43653", "Q405"])
        assert [p.nodes for p in result.paths] == [("Q405", "Q43653")]
        assert result.paths[0].edges == (Triplet("Q43653", "landing site", "Q405"),)

    def test_paths_sorted_by_length_then_lex(self, apollo_kg):
        result = retrieve(apollo_kg, ["Q1615", "Q2252"])
        assert [p.nodes for p in result.paths] == [
            ("Q1615", "Q30", "Q2252"),
            ("Q1615", "Q43653", "Q2252"),
        ]

    def test_orientation_min_to_max(self, apollo_kg):
        result = retrieve(apollo_kg, ["Q43653", "Q1615"])
        for p in result.paths:
            assert p.nodes[0] < p.nodes[-1]

    def test_hop_bound_respected(self, apollo_kg):
        result = retrieve(apollo_kg, ["Q2", "Q30"], RetrievalConfig(max_hops=3))
        # Q2-Q405-Q43653-Q1615-Q30 needs 4 hops; nothing within 3.
        assert result.paths == ()
        wider = retrieve(apollo_kg, ["Q2", "Q30"], RetrievalConfig(max_hops=4))
        assert len(wider.paths) == 2

    def test_truncates_to_max_paths(self, apollo_kg):
        capped = retrieve(apollo_kg, ["Q1615", "Q2252"],
                          RetrievalConfig(max_paths_per_pair=1))
        assert [p.nodes for p in capped.paths] == [("Q1615", "Q30", "Q2252")]

    def test_seed_order_and_duplicates_irrelevant(self, apollo_kg):
        a = retrieve(apollo_kg, ["Q405", "Q43653", "Q405"])
        b = retrieve(apollo_kg, ["Q43653", "Q405"])
        assert a == b

    def test_single_or_no_seed_empty(self, apollo_kg):
        assert retrieve(apollo_kg, ["Q405"]).paths == ()
        assert retrieve(apollo_kg, []).paths == ()

    def test_unknown_seed(self, apollo_kg):
        with pytest.raises(UnknownNodeError):
            retrieve(apollo_kg, ["Q405", "Q999"])

    def test_triplets_first_appearance_dedup(self, apollo_kg):
        result = retrieve(apollo_kg, ["Q1615", "Q405", "Q43653"])
        seen = [t for p in result.paths for t in p.edges]
        expected = list(dict.fromkeys(seen))
        assert list(result.triplets) == expected

    def test_parallel_edges_use_first_stored(self):
        g = KnowledgeGraph(
            [KgNode("A", "a"), KgNode("B", "b")],
            [Triplet("A", "early", "B"), Triplet("B", "late", "A")])
        result = retrieve(g, ["A", "B"])
        assert [p.nodes for p in result.paths] == [("A", "B")]
        assert result.paths[0].edges == (Triplet("A", "early", "B"),)

    def test_hub_step_sorts_hits_across_rings(self):
        # U has more neighbors than V has nodes within 2 hops, so U's first
        # step looks up V's ball, where C is found after Z (BFS order).
        edges = [("V", "A"), ("V", "B"), ("A", "Z"), ("B", "C"), ("U", "A"),
                 ("U", "B"), ("U", "C"), ("U", "Z")] + [("U", f"X{i}") for i in range(9)]
        g = KnowledgeGraph([KgNode(i, i.lower()) for i in {n for e in edges for n in e}],
                        [Triplet(s, "p", o) for s, o in edges])
        result = retrieve(g, ["U", "V"], RetrievalConfig(max_hops=3, max_paths_per_pair=3))
        assert [p.nodes for p in result.paths] == [
            ("U", "A", "V"), ("U", "B", "V"), ("U", "C", "B", "V")]
        assert [p.nodes for p in result.paths] == enumerate_paths_oracle(g, "U", "V", 3)[:3]

    @pytest.mark.parametrize("max_hops", [2, 3])
    def test_hub_step_searches_large_ball(self, max_hops):
        # V's radius-1 ball (V, X00-X19, Y0-Y9) is large enough for U's first
        # step to search it in U's CSR row: V sorts before that row and the
        # Y nodes after it.
        edges = ([("U", f"X{i:02d}") for i in range(40)] + [("V", f"X{i:02d}") for i in range(20)]
                 + [("V", f"Y{i}") for i in range(10)] + [("X05", "X30"), ("X30", "Y3")])
        g = KnowledgeGraph([KgNode(i, i.lower()) for i in {n for e in edges for n in e}],
                           [Triplet(s, "p", o) for s, o in edges])
        cfg = RetrievalConfig(max_hops=max_hops, max_paths_per_pair=30)
        result = retrieve(g, ["U", "V"], cfg)
        expected = [("U", f"X{i:02d}", "V") for i in range(20)]
        if max_hops == 3:
            expected += [("U", "X30", "X05", "V"), ("U", "X30", "Y3", "V")]
        assert [p.nodes for p in result.paths] == expected
        assert (result.paths, result.triplets) == retrieve_oracle(g, ["U", "V"], cfg)


class TestOracle:
    def test_hand_checked_diamond(self):
        #   A-B, A-C, B-D, C-D, B-C: two 2-hop paths A..D plus two 3-hop ones
        g = KnowledgeGraph(
            [KgNode(i, i.lower()) for i in "ABCD"],
            [Triplet("A", "p", "B"), Triplet("A", "p", "C"), Triplet("B", "p", "D"),
             Triplet("C", "p", "D"), Triplet("B", "p", "C")])
        assert enumerate_paths_oracle(g, "A", "D", 3) == [
            ("A", "B", "D"), ("A", "C", "D"),
            ("A", "B", "C", "D"), ("A", "C", "B", "D"),
        ]

    def test_self_pair_empty(self, apollo_kg):
        assert enumerate_paths_oracle(apollo_kg, "Q405", "Q405", 3) == []

    def test_unknown_node(self, apollo_kg):
        with pytest.raises(UnknownNodeError):
            enumerate_paths_oracle(apollo_kg, "Q405", "Q999", 3)

    def test_hop_bound(self, apollo_kg):
        assert enumerate_paths_oracle(apollo_kg, "Q2", "Q30", 3) == []
        assert len(enumerate_paths_oracle(apollo_kg, "Q2", "Q30", 4)) == 2


class TestRetrieveMatchesOracle:
    def test_random_graphs(self):
        rng = random.Random(20240811)
        cfg = RetrievalConfig(max_hops=3, max_paths_per_pair=4)
        for _ in range(40):
            kg = random_graph(rng, max_nodes=25, max_edges=60)
            seeds = random_seeds(rng, kg, max_seeds=4)
            result = retrieve(kg, seeds, cfg)
            got = {}
            for p in result.paths:
                got.setdefault((p.nodes[0], p.nodes[-1]), []).append(p.nodes)
            for u, v in combinations(sorted(set(seeds)), 2):
                expected = enumerate_paths_oracle(kg, u, v, cfg.max_hops)
                assert got.get((u, v), []) == expected[:cfg.max_paths_per_pair]

    def test_more_hops_never_loses_connectivity(self):
        rng = random.Random(7)
        for _ in range(20):
            kg = random_graph(rng, max_nodes=20, max_edges=40)
            seeds = random_seeds(rng, kg, max_seeds=4)
            narrow = retrieve(kg, seeds, RetrievalConfig(max_hops=2))
            wide = retrieve(kg, seeds, RetrievalConfig(max_hops=3))
            narrow_pairs = {(p.nodes[0], p.nodes[-1]) for p in narrow.paths}
            wide_pairs = {(p.nodes[0], p.nodes[-1]) for p in wide.paths}
            assert narrow_pairs <= wide_pairs

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(1, 6))
    def test_hub_graphs(self, rng, max_hops, max_paths):
        kg = hub_graph(rng)
        by_degree = sorted(kg.nodes, key=lambda n: -len(kg.neighbors(n)))
        # The busiest nodes, a random few, and the node no edge reaches.
        seeds = {*by_degree[:2], *random_seeds(rng, kg, max_seeds=3), max(kg.nodes)}
        cfg = RetrievalConfig(max_hops=max_hops, max_paths_per_pair=max_paths)
        got = {}
        for p in retrieve(kg, seeds, cfg).paths:
            got.setdefault((p.nodes[0], p.nodes[-1]), []).append(p.nodes)
        for u, v in combinations(sorted(seeds), 2):
            expected = enumerate_paths_oracle(kg, u, v, max_hops)
            assert got.get((u, v), []) == expected[:max_paths]

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(1, 6),
           st.sampled_from([40, 80]))
    def test_hub_graphs_match_id_level_reference(self, rng, max_hops, max_paths, max_nodes):
        # The whole result, path edges and triplet order included, against
        # the id-level implementation. A few edges get a parallel twin in the
        # other direction, placed before or after them in file order, and
        # the busiest node a self-loop.
        base = hub_graph(rng, max_nodes=max_nodes)
        triplets = list(base.edges)
        by_degree = sorted(base.nodes, key=lambda n: -len(base.neighbors(n)))
        extra = [Triplet(t.object, "rel_z", t.subject)
                 for t in rng.sample(triplets, min(3, len(triplets)))]
        for t in [*extra, Triplet(by_degree[0], "rel_z", by_degree[0])]:
            triplets.insert(rng.randint(0, len(triplets)), t)
        kg = KnowledgeGraph(base.nodes.values(), triplets)
        seeds = {*by_degree[:2], *random_seeds(rng, kg, max_seeds=4), max(kg.nodes)}
        cfg = RetrievalConfig(max_hops=max_hops, max_paths_per_pair=max_paths)
        got = retrieve(kg, seeds, cfg)
        assert (got.paths, got.triplets) == retrieve_oracle(kg, seeds, cfg)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 40))
    def test_large_balls_match_id_level_reference(self, rng, max_hops, max_paths):
        # Hubs H and P25x share a pool. Their rows are drawn on both sides
        # of the length from which a row is probed through its set rather
        # than bisected, and pool codes sort on both sides of P25x; a few
        # pool edges, a parallel twin and pool seeds add joins of short rows.
        set_row = kg_module._SET_ROW
        pool = [f"P{i:02d}" for i in range(set_row + 40)]
        small = rng.sample(pool, rng.randint(set_row - 8, set_row + 24))
        large = rng.sample(pool, rng.randint(len(small) + 2, len(pool)))
        pairs = ([("H", p) for p in large] + [("P25x", p) for p in small]
                 + [tuple(rng.sample(pool, 2)) for _ in range(rng.randint(0, 20))])
        triplets = [Triplet(*((a, "p", b) if rng.random() < 0.5 else (b, "p", a)))
                    for a, b in pairs]
        twin = rng.choice(triplets)
        triplets.insert(rng.randint(0, len(triplets)), Triplet(twin.object, "q", twin.subject))
        kg = KnowledgeGraph([KgNode(i, i.lower()) for i in ["H", "P25x", *pool]], triplets)
        seeds = ["H", "P25x", *rng.sample(pool, rng.randint(0, 3))]
        cfg = RetrievalConfig(max_hops=max_hops, max_paths_per_pair=max_paths)
        got = retrieve(kg, seeds, cfg)
        assert (got.paths, got.triplets) == retrieve_oracle(kg, seeds, cfg)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 7), st.booleans(), st.booleans())
    @example(random.Random(5), 7, True, False)
    @example(random.Random(5), 7, False, True)
    def test_hub_pairs_joined_from_v(self, rng, max_paths, self_loop, twin):
        # Hubs U and V share part of a pool and V's row is the shorter, so
        # the length-3 U-V paths are joined from V's end and then sorted.
        # A self-loop on a middle node must not enter a path, and a parallel
        # twin of a middle edge must not replace the first stored edge.
        pool = [f"P{i:02d}" for i in range(40)]
        u_side = rng.sample(pool, rng.randint(10, 40))
        v_side = rng.sample(pool, rng.randint(1, len(u_side) - 1))
        pairs = ([("U", p) for p in u_side] + [("V", p) for p in v_side]
                 + [tuple(rng.sample(pool, 2)) for _ in range(rng.randint(0, 30))]
                 + [("U", "V")] * rng.randint(0, 1))
        triplets = [Triplet(*((a, "p", b) if rng.random() < 0.5 else (b, "p", a)))
                    for a, b in pairs]
        if self_loop:
            middle = rng.choice(sorted(set(u_side) & set(v_side)) or v_side)
            triplets.insert(rng.randint(0, len(triplets)), Triplet(middle, "loop", middle))
        if twin:
            t = rng.choice(triplets[len(u_side):])
            triplets.insert(rng.randint(0, len(triplets)), Triplet(t.object, "twin", t.subject))
        kg = KnowledgeGraph([KgNode(i, i.lower()) for i in ["U", "V", *pool]], triplets)
        assert len(kg.neighbors("V")) < len(kg.neighbors("U"))
        cfg = RetrievalConfig(max_hops=3, max_paths_per_pair=max_paths)
        got = retrieve(kg, ["U", "V"], cfg)
        assert (got.paths, got.triplets) == retrieve_oracle(kg, ["U", "V"], cfg)

    @pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
    def test_ball_built_only_from_four_hops(self, monkeypatch, max_hops):
        calls, distances_from = [], retrieval._distances_from

        def counted(kg, source, limit):
            calls.append(limit)
            return distances_from(kg, source, limit)
        monkeypatch.setattr(retrieval, "_distances_from", counted)
        kg = hub_graph(random.Random(11), max_nodes=40)
        by_degree = sorted(kg.nodes, key=lambda n: -len(kg.neighbors(n)))
        seeds = [*by_degree[:3], *sorted(kg.nodes)[:3]]
        cfg = RetrievalConfig(max_hops=max_hops, max_paths_per_pair=6)
        got = retrieve(kg, seeds, cfg)
        assert (got.paths, got.triplets) == retrieve_oracle(kg, seeds, cfg)
        assert calls == ([] if max_hops <= 3 else [2] * (len(set(seeds)) - 1))

    def test_determinism(self, apollo_kg):
        seeds = ["Q43653", "Q1615", "Q405", "Q30"]
        assert retrieve(apollo_kg, seeds) == retrieve(apollo_kg, list(reversed(seeds)))


class TestRetrievedTriplets:
    def test_soundness_edges_exist(self, apollo_kg):
        result = retrieve(apollo_kg, list(apollo_kg.nodes))
        for p in result.paths:
            for a, b, edge in zip(p.nodes, p.nodes[1:], p.edges):
                assert edge in apollo_kg.edges
                assert {a, b} == {edge.subject, edge.object}

    def test_empty(self, apollo_kg):
        result = retrieve(apollo_kg, [])
        assert result.paths == result.triplets == result.labels == ()
        with pytest.raises(TypeError):
            hash(result)  # equality reads the lazily built paths and triplets

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 6))
    def test_labels_and_triplet_order_on_hub_graphs(self, rng, max_hops, max_paths):
        # One result for prompt, validation and report: each triplet's label
        # triple is read once from its edge code, in triplet order, and the
        # triplets are the paths' edges in first-appearance order.
        kg = hub_graph(rng)
        by_degree = sorted(kg.nodes, key=lambda n: -len(kg.neighbors(n)))
        seeds = {*by_degree[:2], *random_seeds(rng, kg, max_seeds=4)}
        cfg = RetrievalConfig(max_hops=max_hops, max_paths_per_pair=max_paths)
        got = retrieve(kg, seeds, cfg)
        assert got.labels == tuple(map(kg.triplet_labels, got.triplets))
        assert got.triplets == tuple(dict.fromkeys(e for p in got.paths for e in p.edges))
        assert (got.paths, got.triplets) == retrieve_oracle(kg, seeds, cfg)
