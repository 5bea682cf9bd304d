"""Tests for repro.catalog.join_graph."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import tpch
from repro.catalog.join_graph import JoinEdge, JoinGraph, JoinGraphError
from repro.catalog.random_schema import RandomSchemaConfig, random_catalog


def _reference_connected(edges, tables):
    """Frozenset BFS over the induced subgraph of ``tables``."""
    start = next(iter(tables))
    reached, pending = {start}, [start]
    while pending:
        table = pending.pop()
        for a, b in edges:
            other = b if a == table else a if b == table else None
            if other in tables and other not in reached:
                reached.add(other)
                pending.append(other)
    return reached == set(tables)


def _reference_joinable(edges, left, right):
    return any(
        (a in left and b in right) or (a in right and b in left)
        for a, b in edges
    )


def chain_graph(n=4):
    """t0 - t1 - t2 - ... chain."""
    return JoinGraph(
        [
            JoinEdge(f"t{i}", f"t{i+1}", selectivity=0.5)
            for i in range(n - 1)
        ]
    )


class TestJoinEdge:
    def test_key_is_unordered(self):
        edge = JoinEdge("a", "b", 0.1)
        assert edge.key == frozenset(("a", "b"))

    def test_touches(self):
        edge = JoinEdge("a", "b", 0.1)
        assert edge.touches("a") and edge.touches("b")
        assert not edge.touches("c")

    def test_self_join_rejected(self):
        with pytest.raises(JoinGraphError):
            JoinEdge("a", "a", 0.1)

    @pytest.mark.parametrize("sel", [0.0, -0.5, 1.5])
    def test_bad_selectivity_rejected(self, sel):
        with pytest.raises(JoinGraphError):
            JoinEdge("a", "b", sel)

    def test_selectivity_one_allowed(self):
        assert JoinEdge("a", "b", 1.0).selectivity == 1.0


class TestJoinGraph:
    def test_edge_between(self):
        graph = chain_graph()
        assert graph.edge_between("t0", "t1") is not None
        assert graph.edge_between("t1", "t0") is not None
        assert graph.edge_between("t0", "t2") is None

    def test_duplicate_edge_rejected(self):
        graph = chain_graph()
        with pytest.raises(JoinGraphError):
            graph.add_edge(JoinEdge("t1", "t0", 0.2))

    def test_edges_within(self):
        graph = chain_graph()
        edges = graph.edges_within(["t0", "t1", "t2"])
        assert len(edges) == 2

    def test_edges_between(self):
        graph = chain_graph()
        edges = graph.edges_between(["t0", "t1"], ["t2", "t3"])
        assert len(edges) == 1
        assert edges[0].key == frozenset(("t1", "t2"))

    def test_edges_between_overlap_rejected(self):
        graph = chain_graph()
        with pytest.raises(JoinGraphError):
            graph.edges_between(["t0", "t1"], ["t1", "t2"])

    def test_joinable_overlap_rejected(self):
        graph = chain_graph()
        with pytest.raises(JoinGraphError, match="overlap"):
            graph.joinable(["t0", "t1"], ["t1", "t2"])

    @pytest.mark.parametrize("schema", ["tpch", "random-0", "random-1"])
    def test_joinable_matches_edges_between(self, schema):
        """On every disjoint pair of subsets of up to three tables."""
        if schema == "tpch":
            graph = tpch.tpch_catalog(scale_factor=1).join_graph
        else:
            seed = int(schema.split("-")[1])
            graph = random_catalog(
                RandomSchemaConfig(num_tables=9),
                np.random.default_rng(seed),
            ).join_graph
        tables = sorted(graph.tables())
        subsets = [
            frozenset(combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations(tables, size)
        ]
        pairs = 0
        for left in subsets:
            for right in subsets:
                if left.isdisjoint(right):
                    pairs += 1
                    assert graph.joinable(left, right) == bool(
                        graph.edges_between(left, right)
                    ), (left, right)
        assert pairs > 1000

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_masks_match_a_frozenset_reference(self, data):
        """``is_connected`` and ``joinable`` equal a frozenset BFS over
        random schemas of up to 16 tables, with absent tables mixed in."""
        num_tables = data.draw(st.integers(1, 16))
        present = [f"t{i}" for i in range(num_tables)]
        # A path through the tables in random order, with gaps, plus
        # random chords: windows of the path are connected through
        # long chains, and random sets mostly are not.
        order = data.draw(st.permutations(present))
        path = [
            pair
            for pair in zip(order, order[1:])
            if data.draw(st.integers(0, 9)) > 0
        ]
        pairs = list(itertools.combinations(present, 2))
        chords = data.draw(
            st.lists(st.sampled_from(pairs), max_size=num_tables)
            if pairs
            else st.just([])
        )
        chosen = {frozenset(pair): pair for pair in path + chords}
        graph = JoinGraph(JoinEdge(a, b, 0.5) for a, b in chosen.values())
        edges = [tuple(edge.key) for edge in graph.edges()]
        # Tables without an edge are absent from the graph.
        names = present + ["ghost0", "ghost1"]
        random_sets = st.frozensets(st.sampled_from(names), min_size=1)
        windows = st.tuples(
            st.integers(0, num_tables - 1), st.integers(1, num_tables)
        ).map(lambda w: frozenset(order[w[0] : w[0] + w[1]]))
        subsets = st.one_of(random_sets, windows)
        for _ in range(20):
            tables = data.draw(subsets)
            ordered = data.draw(st.permutations(sorted(tables)))
            expected = _reference_connected(edges, tables)
            assert graph.is_connected(tables) == expected, tables
            assert graph.is_connected(ordered) == expected, ordered
            left, right = data.draw(subsets), data.draw(subsets)
            if left & right:
                with pytest.raises(JoinGraphError, match="overlap"):
                    graph.joinable(left, right)
                continue
            expected = _reference_joinable(edges, left, right)
            assert graph.joinable(left, right) == expected, (left, right)
            assert graph.joinable(right, left) == expected, (left, right)
            assert graph.joinable(sorted(left), list(right)) == expected

    def test_absent_tables(self):
        graph = chain_graph()
        assert graph.is_connected(["ghost"])
        assert graph.is_connected(["ghost", "ghost"])
        assert not graph.is_connected(["ghost", "other"])
        assert not graph.is_connected(["t1", "ghost", "t0"])
        assert graph.mask_of(["t0", "ghost"]) is None
        assert not graph.joinable(["ghost"], ["t0"])
        assert graph.joinable(["ghost", "t1"], ["t2", "other"])
        with pytest.raises(JoinGraphError, match="overlap"):
            graph.joinable(["ghost"], ["ghost", "t0"])

    def test_neighbors(self):
        graph = chain_graph()
        assert graph.neighbors("t1") == {"t0", "t2"}
        assert graph.neighbors("unknown") == set()

    def test_tables(self):
        assert chain_graph(3).tables() == {"t0", "t1", "t2"}

    def test_is_connected_singleton(self):
        assert chain_graph().is_connected(["t0"])

    def test_is_connected_chain(self):
        graph = chain_graph()
        assert graph.is_connected(["t0", "t1", "t2"])
        assert not graph.is_connected(["t0", "t2"])

    def test_is_connected_unknown_table(self):
        assert not chain_graph().is_connected(["t0", "ghost"])

    def test_is_connected_empty_rejected(self):
        with pytest.raises(JoinGraphError):
            chain_graph().is_connected([])

    def test_selectivity_between(self):
        graph = chain_graph()
        assert graph.selectivity_between(["t0"], ["t1"]) == 0.5
        # Cross join: no edge -> selectivity 1.
        assert graph.selectivity_between(["t0"], ["t2"]) == 1.0

    def test_len_and_iter(self):
        graph = chain_graph(4)
        assert len(graph) == 3
        assert len(list(graph)) == 3


class TestConnectedSubset:
    def test_full_chain(self):
        graph = chain_graph(5)
        rng = np.random.default_rng(0)
        subset = graph.connected_subset("t0", 5, rng)
        assert sorted(subset) == ["t0", "t1", "t2", "t3", "t4"]

    def test_subset_always_connected(self):
        graph = chain_graph(6)
        rng = np.random.default_rng(1)
        for size in range(1, 7):
            subset = graph.connected_subset("t2", size, rng)
            assert len(subset) == size
            assert graph.is_connected(subset)

    def test_unknown_seed_rejected(self):
        with pytest.raises(JoinGraphError):
            chain_graph().connected_subset(
                "ghost", 2, np.random.default_rng(0)
            )

    def test_zero_size_rejected(self):
        with pytest.raises(JoinGraphError):
            chain_graph().connected_subset(
                "t0", 0, np.random.default_rng(0)
            )

    def test_oversized_request_fails(self):
        with pytest.raises(JoinGraphError):
            chain_graph(3).connected_subset(
                "t0", 10, np.random.default_rng(0)
            )

    @given(st.integers(min_value=2, max_value=10), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_property_connected_for_any_seed(self, n, seed):
        graph = chain_graph(n)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, n + 1))
        subset = graph.connected_subset("t0", size, rng)
        assert graph.is_connected(subset)
        assert len(set(subset)) == size
