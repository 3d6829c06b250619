"""Graph representation, decomposition chain, and the JSONL wire format."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degwin.graph import (
    Graph,
    compensation_factor,
    component_labels,
    from_jsonl_line,
    kernel,
    sprout_data,
    to_jsonl_line,
    two_core,
)

from oracles import (
    nx_components,
    random_complex_graph,
    random_simple_graph,
    read_jsonl,
    write_jsonl,
)


def theta_graph(lengths=(2, 2, 2)) -> Graph:
    """Two corner vertices 1, 2 joined by internally disjoint paths."""
    edges = []
    nxt = 3
    for length in lengths:
        prev = 1
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 2))
    return Graph(nxt - 1, edges)


def figure_eight() -> Graph:
    """Two triangles sharing vertex 1: a kernel of one corner with two loops."""
    return Graph(5, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])


def dumbbell() -> Graph:
    """Triangles at vertices 1 and 2 joined by an edge: loop-edge-loop kernel."""
    return Graph(6, [(1, 3), (3, 4), (1, 4), (2, 5), (5, 6), (2, 6), (1, 2)])


def complex_kernels(g: Graph):
    peel = two_core(g)
    sprouts = sprout_data(g, peel)
    for comp in nx_components(g):
        if comp.excess >= 1:
            yield comp, peel, kernel(g, comp, peel, sprouts)


def kernel_degree(k, v: int) -> int:
    """Multigraph degree of corner v, a loop counted twice."""
    return sum((e.u == v) + (e.v == v) for e in k.edges)


def filter_core(g: Graph) -> set[int]:
    """Reference 2-core: keep filtering out vertices of degree <= 1."""
    alive = set(range(1, g.n + 1))
    while True:
        deg = {v: sum(1 for w in g.adj[v] if w in alive) for v in alive}
        drop = {v for v in alive if deg[v] <= 1}
        if not drop:
            return alive
        alive -= drop


class TestGraph:
    def test_canonical_edges(self):
        g = Graph(4, [(3, 1), (2, 4), (1, 2)])
        assert g.edges == ((1, 2), (1, 3), (2, 4))
        assert g.m == 3
        assert len(g.adj[1]) == 2
        assert g.adj[1] == (2, 3)

    def test_equality_and_hash(self):
        a = Graph(3, [(1, 2)])
        b = Graph(3, [(2, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(4, [(1, 2)])

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 1"):
            Graph(0, [])
        with pytest.raises(ValueError, match="loop"):
            Graph(3, [(2, 2)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(1, 2), (2, 1)])
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(1, 4)])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_constructors_agree(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        g = random_simple_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        pairs = list(g.edges)
        rng.shuffle(pairs)
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        a = Graph(n, pairs)
        b = Graph.from_simple_arrays(n, ends[:, 0], ends[:, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a.edges == b.edges == g.edges
        assert a.adj == b.adj
        assert a.m == b.m == len(pairs)
        for arr in (a.u, a.v, b.u, b.v):
            assert arr.dtype == np.int64


class TestComponents:
    def test_excess_spread(self):
        # Four components with excesses -1, 0, 1, 2: path, triangle, theta, K4.
        edges = [(1, 2)]
        edges += [(3, 4), (4, 5), (3, 5)]
        theta = theta_graph()
        edges += [(u + 5, v + 5) for u, v in theta.edges]
        base = 5 + theta.n
        for u in range(1, 5):
            for v in range(u + 1, 5):
                edges.append((base + u, base + v))
        g = Graph(base + 4, edges)
        labels, sizes, edge_counts = component_labels(g)
        # Labels number the components in order of their smallest vertex.
        assert labels[[1, 3, 6, base + 1]].tolist() == [0, 1, 2, 3]
        assert sizes.tolist() == [2, 3, theta.n, 4]
        assert (edge_counts - sizes).tolist() == [-1, 0, 1, 2]

    def test_empty_graph(self):
        labels, sizes, edge_counts = component_labels(Graph(5, []))
        assert labels[1:].tolist() == [0, 1, 2, 3, 4]
        assert sizes.tolist() == [1] * 5
        assert edge_counts.tolist() == [0] * 5

    def test_triangle(self):
        labels, sizes, edge_counts = component_labels(Graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert labels[1:].tolist() == [0, 0, 0]
        assert (edge_counts - sizes).tolist() == [0]

    def test_partition(self):
        g = random_simple_graph(random.Random(5), 12, 14)
        labels, sizes, edge_counts = component_labels(g)
        # The labels split the vertices and edges as networkx's components do.
        comps = nx_components(g)
        got = [np.flatnonzero(labels == c).tolist() for c in range(sizes.size)]
        assert got == [list(c.vertices) for c in comps]
        assert sizes.tolist() == [len(c.vertices) for c in comps]
        assert edge_counts.tolist() == [c.edge_count for c in comps]
        assert int(edge_counts.sum()) == g.m


class TestTwoCore:
    def test_tree_peels_away(self):
        g = Graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
        peel = two_core(g)
        assert peel.core_vertices == frozenset()
        assert sorted(peel.order) == [1, 2, 3, 4, 5]

    def test_cycle_with_pendant_path(self):
        g = Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)])
        peel = two_core(g)
        assert peel.core_vertices == frozenset({1, 2, 3})
        assert peel.parent[5] == 4
        assert peel.parent[4] == 3

    def test_isolated_vertex_has_no_parent(self):
        peel = two_core(Graph(2, [(1, 2)]))
        assert peel.core_vertices == frozenset()
        late = peel.order[1]
        assert peel.parent[late] is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_filter_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        m = rng.randint(0, min(2 * n, n * (n - 1) // 2))
        g = random_simple_graph(rng, n, m)
        want = filter_core(g)
        assert two_core(g).core_vertices == frozenset(want)


class TestSprouts:
    def test_heights_and_tree_diameter(self):
        # Triangle 1-2-3 with the path 3-4-5-6 and the leaf 3-7 sprouting at 3.
        g = Graph(7, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (3, 7)])
        peel = two_core(g)
        sprouts = sprout_data(g, peel)
        assert sprouts.height1 == {3: 3}
        assert sprouts.height2 == {3: 1}
        assert sprouts.tree_diameter == {4: 2, 7: 0}

    def test_no_sprouts(self):
        g = theta_graph()
        sprouts = sprout_data(g, two_core(g))
        assert sprouts.height1 == {}
        assert sprouts.tree_diameter == {}


class TestKernel:
    def test_theta(self):
        g = theta_graph()
        ((comp, _, k),) = complex_kernels(g)
        assert comp.excess == 1
        assert k.vertices == (1, 2)
        assert [(e.u, e.v, e.length) for e in k.edges] == [(1, 2, 2)] * 3
        assert k.excess == 1
        assert compensation_factor(k) == Fraction(1, 6)

    def test_two_loops_at_one_corner(self):
        ((_, _, k),) = complex_kernels(figure_eight())
        assert k.vertices == (1,)
        assert [(e.u, e.v, e.length) for e in k.edges] == [(1, 1, 3)] * 2
        assert kernel_degree(k, 1) == 4
        assert compensation_factor(k) == Fraction(1, 8)

    def test_loop_edge_loop(self):
        ((_, _, k),) = complex_kernels(dumbbell())
        assert k.vertices == (1, 2)
        assert [(e.u, e.v, e.length) for e in k.edges] == [
            (1, 1, 3),
            (1, 2, 1),
            (2, 2, 3),
        ]
        assert compensation_factor(k) == Fraction(1, 4)

    def test_detail_interiors(self):
        g = theta_graph((3, 2, 4))
        ((_, _, k),) = complex_kernels(g)
        for e in k.edges:
            assert len(e.interior) == e.length - 1

    def test_requires_complex_component(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        peel = two_core(g)
        (comp,) = nx_components(g)
        with pytest.raises(ValueError, match="complex"):
            kernel(g, comp, peel, sprout_data(g, peel))

    def test_tree_data_attached(self):
        # Pendant path of length 2 at a chain-interior vertex of a theta.
        g = theta_graph((3, 3, 3))
        edges = list(g.edges) + [(3, 9), (9, 10)]
        g = Graph(10, edges)
        ((_, _, k),) = complex_kernels(g)
        assert k.tree_height[3] == 2
        assert k.tree_height2[3] == 0
        assert k.tree_diameter_bonus[9] == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_invariants(self, seed):
        g = random_complex_graph(random.Random(seed))
        total_kernel_excess = 0
        for comp, peel, k in complex_kernels(g):
            comp_core = set(comp.vertices) & peel.core_vertices
            assert k.excess == comp.excess
            total_kernel_excess += k.excess
            # Every corner keeps multigraph degree >= 3, loops counted twice.
            assert all(kernel_degree(k, v) >= 3 for v in k.vertices)
            # Chain lengths account for every 2-core edge of the component.
            core_edges = sum(
                1 for u, v in g.edges if u in comp_core and v in comp_core
            )
            assert sum(e.length for e in k.edges) == core_edges
            # Corners + chain interiors + peeled vertices partition the component.
            interiors = [v for e in k.edges for v in e.interior]
            assert len(interiors) == sum(e.length - 1 for e in k.edges)
            assert set(interiors) | set(k.vertices) == comp_core
            peeled = set(comp.vertices) - comp_core
            assert len(k.vertices) + len(interiors) + len(peeled) == len(comp.vertices)
            # Symmetry weight is a probability-like rational.
            w = compensation_factor(k)
            assert 0 < w <= 1
            simple_kernel = all(e.u != e.v for e in k.edges) and len(
                {(e.u, e.v) for e in k.edges}
            ) == len(k.edges)
            assert (w == 1) == simple_kernel
        assert total_kernel_excess >= 1


class TestJsonl:
    def test_exact_format(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert to_jsonl_line(g) == '{"n": 3, "edges": [[1, 2], [2, 3]]}'

    def test_roundtrip_line(self):
        g = random_simple_graph(random.Random(1), 9, 11)
        assert from_jsonl_line(to_jsonl_line(g)) == g

    def test_unordered_endpoints_canonicalised(self):
        g = from_jsonl_line('{"n": 3, "edges": [[3, 1]]}')
        assert g.edges == ((1, 3),)

    def test_file_roundtrip(self, tmp_path):
        rng = random.Random(2)
        graphs = [random_simple_graph(rng, 6, 7) for _ in range(3)]
        path = tmp_path / "graphs.jsonl"
        write_jsonl(str(path), graphs)
        assert list(read_jsonl(str(path))) == graphs
        assert path.read_text().count("\n") == 3
