"""Graph representation, decomposition chain, and the JSONL wire format."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degwin.graph import (
    Graph,
    adjacency,
    compensation_factor,
    component_labels,
    from_jsonl_line,
    kernel,
    sprout_data,
    to_jsonl_line,
    two_core,
)

from oracles import (
    contract_chains,
    induced_adjacency,
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


def peel_of(g: Graph):
    """The peel of the whole graph."""
    return two_core(adjacency(g, range(1, g.n + 1)))


def complex_kernels(g: Graph):
    """(vertices, excess, peel, kernel) of each complex component."""
    adj = adjacency(g, range(1, g.n + 1))
    peel = two_core(adj)
    sprouts = sprout_data(peel)
    for verts, edge_count in nx_components(g):
        if edge_count > len(verts):
            yield verts, edge_count - len(verts), peel, kernel(adj, verts, peel, sprouts)


def kernel_degree(k, v: int) -> int:
    """Multigraph degree of corner v, a loop counted twice."""
    return sum((e.u == v) + (e.v == v) for e in k.edges)


def filter_core(g: Graph) -> set[int]:
    """Reference 2-core: keep filtering out vertices of degree <= 1."""
    adj = induced_adjacency(g, range(1, g.n + 1))
    alive = set(adj)
    while True:
        deg = {v: len(adj[v] & alive) for v in alive}
        drop = {v for v in alive if deg[v] <= 1}
        if not drop:
            return alive
        alive -= drop


class TestGraph:
    def test_canonical_edges(self):
        g = Graph(4, [(3, 1), (2, 4), (1, 2)])
        assert g.edges == ((1, 2), (1, 3), (2, 4))
        assert g.m == 3
        assert adjacency(g, range(1, 5)) == {1: [2, 3], 2: [1, 4], 3: [1], 4: [2]}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_adjacency_is_induced_and_ascending(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        g = random_simple_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        verts = rng.sample(range(1, n + 1), rng.randint(0, n))
        adj = adjacency(g, verts)
        assert list(adj) == sorted(verts)
        assert adj == {v: sorted(ws) for v, ws in induced_adjacency(g, verts).items()}

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
        everything = range(1, n + 1)
        assert adjacency(a, everything) == adjacency(b, everything)
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
        comps = labels[[1, 3, 6, base + 1]]
        assert sorted(comps.tolist()) == list(range(4))
        assert sizes[comps].tolist() == [2, 3, theta.n, 4]
        assert (edge_counts - sizes)[comps].tolist() == [-1, 0, 1, 2]

    def test_empty_graph(self):
        labels, sizes, edge_counts = component_labels(Graph(5, []))
        assert sorted(labels[1:].tolist()) == [0, 1, 2, 3, 4]
        assert sizes.tolist() == [1] * 5
        assert edge_counts.tolist() == [0] * 5

    def test_triangle(self):
        labels, sizes, edge_counts = component_labels(Graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert labels[1:].tolist() == [0, 0, 0]
        assert (edge_counts - sizes).tolist() == [0]

    def test_partition(self):
        g = random_simple_graph(random.Random(5), 12, 14)
        labels, sizes, edge_counts = component_labels(g)
        # The labels split the vertices and edges as networkx's components
        # do, whatever order they number the components in.
        got = sorted(
            (np.flatnonzero(labels == c).tolist(), int(sizes[c]), int(edge_counts[c]))
            for c in range(sizes.size)
        )
        want = [(verts, len(verts), edge_count) for verts, edge_count in nx_components(g)]
        assert got == want
        assert int(edge_counts.sum()) == g.m


class TestTwoCore:
    def test_tree_peels_away(self):
        peel = peel_of(Graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)]))
        assert peel.core_vertices == frozenset()
        assert sorted(peel.order) == [1, 2, 3, 4, 5]

    def test_cycle_with_pendant_path(self):
        peel = peel_of(Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]))
        assert peel.core_vertices == frozenset({1, 2, 3})
        assert peel.children == {4: [5], 3: [4]}

    def test_isolated_vertex_has_no_parent(self):
        peel = peel_of(Graph(2, [(1, 2)]))
        assert peel.core_vertices == frozenset()
        # 1 hangs from 2, and 2 goes last, at degree 0, listed under no one.
        assert peel.order == (1, 2)
        assert peel.children == {2: [1]}

    def test_children_in_removal_order(self):
        # Triangle 1-2-3 with the leaves 4, 5 and the path 6-7 hung at 3, and
        # the leaf 8 at 1.  The peel seeds 4, 5, 7, 8 (lowest first), then
        # takes 6 once 7 is gone: each vertex is listed under the neighbour
        # it hung from, in the order the vertices went.
        g = Graph(8, [(1, 2), (2, 3), (1, 3), (3, 4), (3, 5), (3, 6), (6, 7), (1, 8)])
        peel = peel_of(g)
        assert peel.order == (4, 5, 7, 8, 6)
        assert peel.children == {3: [4, 5, 6], 6: [7], 1: [8]}
        assert peel.core_vertices == frozenset({1, 2, 3})

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_filter_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        m = rng.randint(0, min(2 * n, n * (n - 1) // 2))
        g = random_simple_graph(rng, n, m)
        want = filter_core(g)
        peel = peel_of(g)
        assert peel.core_vertices == frozenset(want)
        # Each peeled vertex is listed at most once, under a neighbour that
        # outlived it, and every list keeps the removal order.
        adj = induced_adjacency(g, range(1, n + 1))
        rank = {v: i for i, v in enumerate(peel.order)}
        listed = [v for kids in peel.children.values() for v in kids]
        assert len(listed) == len(set(listed))
        assert set(listed) <= set(peel.order)
        for w, kids in peel.children.items():
            assert kids == sorted(kids, key=rank.get)
            for v in kids:
                assert w in adj[v]
                assert w in peel.core_vertices or rank[w] > rank[v]


class TestSprouts:
    def test_heights_and_tree_diameter(self):
        # Triangle 1-2-3 with the path 3-4-5-6 and the leaf 3-7 sprouting at
        # 3: the tree-only path 6-5-4-3-7 joins two branches at 3.
        g = Graph(7, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (3, 7)])
        sprouts = sprout_data(peel_of(g))
        assert sprouts.height1 == {3: 3}
        assert sprouts.tree_path == {3: 4}
        # One tree at 3 whose inside, 6-5-4-8-9, beats its height 3.
        g = Graph(9, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 8), (8, 9)])
        sprouts = sprout_data(peel_of(g))
        assert sprouts.height1 == {3: 3}
        assert sprouts.tree_path == {3: 4}

    def test_no_sprouts(self):
        sprouts = sprout_data(peel_of(theta_graph()))
        assert sprouts.height1 == {}
        assert sprouts.tree_path == {}


class TestKernel:
    def test_theta(self):
        g = theta_graph()
        ((_, excess, _, k),) = complex_kernels(g)
        assert excess == 1
        assert k.vertices == (1, 2)
        assert [(e.u, e.v, e.length) for e in k.edges] == [(1, 2, 2)] * 3
        assert k.excess == 1
        assert compensation_factor(k) == Fraction(1, 6)

    def test_two_loops_at_one_corner(self):
        ((*_, k),) = complex_kernels(figure_eight())
        assert k.vertices == (1,)
        assert [(e.u, e.v, e.length) for e in k.edges] == [(1, 1, 3)] * 2
        assert kernel_degree(k, 1) == 4
        assert compensation_factor(k) == Fraction(1, 8)

    def test_loop_edge_loop(self):
        ((*_, k),) = complex_kernels(dumbbell())
        assert k.vertices == (1, 2)
        assert [(e.u, e.v, e.length) for e in k.edges] == [
            (1, 1, 3),
            (1, 2, 1),
            (2, 2, 3),
        ]
        assert compensation_factor(k) == Fraction(1, 4)

    def test_detail_interiors(self):
        g = theta_graph((3, 2, 4))
        ((*_, k),) = complex_kernels(g)
        for e in k.edges:
            assert len(e.interior) == e.length - 1

    def test_requires_complex_component(self):
        # A unicycle's 2-core is one cycle, and a tree's is empty.
        for g in (Graph(3, [(1, 2), (2, 3), (1, 3)]), Graph(3, [(1, 2), (2, 3)])):
            adj = adjacency(g, range(1, 4))
            peel = two_core(adj)
            with pytest.raises(ValueError, match="complex"):
                kernel(adj, range(1, 4), peel, sprout_data(peel))

    def test_tree_data_attached(self):
        # Pendant path of length 2 at the chain-interior vertex 3 of a theta,
        # and branches of lengths 2 and 1 at the chain-interior vertex 5.
        g = theta_graph((3, 3, 3))
        edges = list(g.edges) + [(3, 9), (9, 10), (5, 11), (11, 12), (5, 13)]
        g = Graph(13, edges)
        ((*_, k),) = complex_kernels(g)
        assert k.tree_height == {3: 2, 5: 2}
        assert k.tree_path == 3

    def test_matches_chain_oracle(self):
        # networkx's 2-core, split at the corners, against the chain walk.
        # The fixtures and the sparse random graphs between them have loops,
        # parallel chains and chains of one edge.
        shapes = {"loop": 0, "parallel": 0, "one edge": 0}
        rng = random.Random(24)
        graphs = [theta_graph(), figure_eight(), dumbbell(), theta_graph((1, 3, 3))]
        graphs += [random_complex_graph(rng, 4, 30) for _ in range(300)]
        for g in graphs:
            for verts, _, _, k in complex_kernels(g):
                corners, chains = contract_chains(g, verts)
                assert k.vertices == tuple(corners)
                assert [(e.u, e.v, e.length, e.interior) for e in k.edges] == chains
                ends = [(e.u, e.v) for e in k.edges if e.u != e.v]
                shapes["loop"] += sum(e.u == e.v for e in k.edges)
                shapes["parallel"] += len(ends) - len(set(ends))
                shapes["one edge"] += sum(e.length == 1 for e in k.edges)
        assert all(count > 0 for count in shapes.values()), shapes

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_invariants(self, seed):
        g = random_complex_graph(random.Random(seed))
        total_kernel_excess = 0
        for verts, excess, peel, k in complex_kernels(g):
            comp_core = set(verts) & peel.core_vertices
            assert k.excess == excess
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
            peeled = set(verts) - comp_core
            assert len(k.vertices) + len(interiors) + len(peeled) == len(verts)
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
