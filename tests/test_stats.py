"""Exact complex-part statistics: diameter, longest path, circumference, planarity."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from degwin.graph import (
    Graph,
    KernelEdge,
    KernelMultigraph,
    components,
    kernel,
    sprout_data,
    two_core,
)
from degwin.stats import (
    GraphSummary,
    circumference,
    diameter,
    is_planar,
    longest_path,
    summarize,
)

from oracles import (
    brute_circumference,
    brute_diameter,
    brute_longest_path,
    brute_planar,
    complex_vertices,
    random_complex_graph,
    random_simple_graph,
)


def theta_graph(lengths=(2, 2, 2)) -> Graph:
    edges = []
    nxt = 3
    for length in lengths:
        prev = 1
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 2))
    return Graph(nxt - 1, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(1, n + 1), 2)))


def complete_bipartite_33() -> Graph:
    return Graph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


def kernels_of(g: Graph, detail: bool = True):
    peel = two_core(g)
    sprouts = sprout_data(g, peel)
    return [
        kernel(g, comp, peel, sprouts, detail=detail)
        for comp in components(g)
        if comp.is_complex
    ]


def shift(g: Graph, offset: int, n: int) -> list[tuple[int, int]]:
    return [(u + offset, v + offset) for u, v in g.edges]


class TestDiameter:
    def test_theta_midpoints(self):
        g = theta_graph()
        assert diameter(g, range(1, g.n + 1)) == 2

    def test_theta_with_pendant_path(self):
        g = theta_graph()
        edges = list(g.edges) + [(2, 6), (6, 7), (7, 8), (8, 9), (9, 10)]
        g = Graph(10, edges)
        verts = complex_vertices(g)
        assert verts == set(range(1, 11))
        assert diameter(g, verts) == brute_diameter(g, verts) == 7

    def test_empty_set(self):
        assert diameter(Graph(3, [(1, 2)]), []) == -1

    def test_matches_bfs_from_every_vertex(self):
        # Sparse graphs large enough for several BFS levels and components,
        # on the complex part, the whole vertex set and arbitrary subsets.
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(20, 90)
            g = random_simple_graph(rng, n, rng.randint(n // 2, 3 * n // 2))
            for verts in (
                complex_vertices(g),
                range(1, n + 1),
                rng.sample(range(1, n + 1), rng.randint(1, n)),
            ):
                assert diameter(g, verts) == brute_diameter(g, verts)

    def test_relabeling_invariance(self):
        g = random_complex_graph(random.Random(3))
        perm = list(range(1, g.n + 1))
        random.Random(4).shuffle(perm)
        relabeled = Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
        assert diameter(g, complex_vertices(g)) == diameter(
            relabeled, complex_vertices(relabeled)
        )


class TestKernelLengths:
    def test_theta_222(self):
        (k,) = kernels_of(theta_graph())
        assert longest_path(k) == 4
        assert circumference(k) == 4

    def test_theta_333(self):
        # Full middle chain plus partial entries into the two other chains
        # beats the naive two-chain concatenation (6).
        (k,) = kernels_of(theta_graph((3, 3, 3)))
        assert longest_path(k) == 7
        assert circumference(k) == 6

    def test_pendant_tree_extends_path(self):
        # A pendant path of length 4 at a chain-interior vertex adds 4.
        g = theta_graph((3, 3, 3))
        extra = [(3, 9), (9, 10), (10, 11), (11, 12)]
        g = Graph(12, list(g.edges) + extra)
        (k,) = kernels_of(g)
        assert longest_path(k) == 11
        assert circumference(k) == 6

    @pytest.mark.parametrize(
        "builder, lp, circ, planar",
        [
            (lambda: complete_graph(4), 3, 4, True),
            (lambda: complete_graph(5), 4, 5, False),
            (complete_bipartite_33, 5, 6, False),
        ],
    )
    def test_complete_fixtures(self, builder, lp, circ, planar):
        g = builder()
        (k,) = kernels_of(g)
        assert longest_path(k) == lp
        assert circumference(k) == circ
        assert is_planar(k) == planar

    def test_requires_detail_mode(self):
        (k,) = kernels_of(theta_graph(), detail=False)
        with pytest.raises(ValueError, match="detail mode"):
            longest_path(k)

    def test_excess_guard(self):
        (k,) = kernels_of(complete_graph(10))
        assert k.excess == 35
        with pytest.raises(ValueError, match="guard"):
            longest_path(k)
        with pytest.raises(ValueError, match="guard"):
            circumference(k)


class TestPlanarity:
    def test_subdivision_invariance(self):
        for g in (complete_graph(5), theta_graph(), complete_bipartite_33()):
            (k,) = kernels_of(g)
            want = is_planar(k)
            stretched = KernelMultigraph(
                vertices=k.vertices,
                edges=tuple(
                    KernelEdge(e.u, e.v, e.length + 1, None) for e in k.edges
                ),
            )
            assert is_planar(stretched) == want

    def test_euler_prefilter_agrees(self):
        # Dense kernels rejected by the edge-count bound are truly nonplanar.
        (k,) = kernels_of(complete_graph(6))
        assert len({(e.u, e.v) for e in k.edges}) > 3 * len(k.vertices) - 6
        assert not is_planar(k)
        assert not brute_planar(complete_graph(6), range(1, 7))

    def test_vertex_guard(self):
        big = KernelMultigraph(
            vertices=tuple(range(1, 5002)),
            edges=(),
        )
        with pytest.raises(ValueError, match="guard"):
            is_planar(big)


class TestSummarize:
    def test_forest_sentinels(self):
        g = Graph(4, [(1, 2), (2, 3)])
        s = summarize(g)
        assert s == GraphSummary(
            attempts=0,
            largest_component=3,
            largest_excess=-1,
            total_excess=0,
            complex_size=0,
            complex_diameter=-1,
            complex_longest_path=-1,
            complex_circumference=-1,
            planar=True,
        )
        s.validate()

    def test_unicycle_not_complex(self):
        g = Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        s = summarize(g)
        assert s.largest_excess == 0
        assert s.complex_size == 0
        assert s.planar

    def test_multiple_complex_components(self):
        theta = theta_graph((3, 3, 3))
        edges = list(theta.edges) + shift(complete_graph(4), theta.n, 4)
        g = Graph(theta.n + 4, edges)
        s = summarize(g, attempts=5)
        assert s.largest_component == theta.n
        assert s.largest_excess == 2
        assert s.total_excess == 3
        assert s.complex_size == theta.n + 4
        assert s.complex_diameter == 3
        assert s.complex_longest_path == 7
        assert s.complex_circumference == 6
        assert s.planar
        assert s.attempts == 5
        s.validate()

    def test_refused_lengths_sentinel(self):
        s = summarize(complete_graph(10))
        assert s.total_excess == 35
        assert s.complex_longest_path == -1
        assert s.complex_circumference == -1
        assert s.complex_diameter == 1
        assert not s.planar
        s.validate()

    def test_validate_rejects_inconsistency(self):
        with pytest.raises(ValueError, match="empty-complex"):
            GraphSummary(0, 3, -1, 0, 0, 2, -1, -1, True).validate()
        with pytest.raises(ValueError, match="complex summary"):
            GraphSummary(0, 5, 1, 1, 5, 3, 2, 4, True).validate()
        with pytest.raises(ValueError, match="refused"):
            GraphSummary(0, 5, 1, 1, 5, 3, -1, 4, True).validate()

    def test_matches_brute_force(self):
        rng = random.Random(20260825)
        for _ in range(200):
            g = random_complex_graph(rng)
            s = summarize(g)
            verts = complex_vertices(g)
            assert s.complex_size == len(verts)
            assert s.complex_diameter == brute_diameter(g, verts)
            assert s.complex_longest_path == brute_longest_path(g, verts)
            assert s.complex_circumference == brute_circumference(g, verts)
            assert s.planar == brute_planar(g, verts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_invariants(self, seed):
        g = random_complex_graph(random.Random(seed))
        s = summarize(g)
        s.validate()
        assert s.complex_longest_path >= s.complex_diameter
        assert 3 <= s.complex_circumference <= s.complex_longest_path + 1
        assert s.complex_longest_path < s.complex_size
        complex_edges = sum(
            1 for u, v in g.edges if u in complex_vertices(g)
        )
        assert s.complex_circumference <= complex_edges
