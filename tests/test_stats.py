"""Exact complex-part statistics: diameter, longest path, circumference, planarity."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from degwin.degset import parse_degree_set
from degwin.graph import (
    Graph,
    KernelEdge,
    KernelMultigraph,
    kernel,
    sprout_data,
    two_core,
)
from degwin.sampler import build_dp, edges_for_mu, sample_batch, trial_generator
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
    nx_components,
    random_complex_graph,
    random_simple_graph,
    subdivided_planar,
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


def kernels_of(g: Graph):
    peel = two_core(g, range(1, g.n + 1))
    sprouts = sprout_data(g, peel)
    return [
        kernel(g, verts, peel, sprouts)
        for verts, edge_count in nx_components(g)
        if edge_count > len(verts)
    ]


def sprout(g: Graph, at: int, branches, stem: bool) -> Graph:
    """``g`` with paths of the given lengths hung at vertex ``at``.  With
    ``stem`` they hang from one new vertex joined to ``at``, as one tree."""
    edges = list(g.edges)
    nxt = g.n + 1
    if stem:
        edges.append((at, nxt))
        at, nxt = nxt, nxt + 1
    for length in branches:
        prev = at
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph(nxt - 1, edges)


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

    def test_loop_entered_from_both_sides(self):
        # Three cycles through vertex 1, with trees of height 2 at the
        # adjacent vertices 3 and 4 of the 5-cycle 1-2-3-4-5: the longest
        # path 13-11-3-2-1-5-4-10-12 enters that loop from both of its ends.
        g = Graph(
            13,
            [(1, 2), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 3), (3, 4),
             (3, 11), (4, 5), (4, 10), (6, 7), (8, 9), (10, 12), (11, 13)],
        )
        (k,) = kernels_of(g)
        assert k.vertices == (1,)
        assert longest_path(k) == brute_longest_path(g, range(1, 14)) == 8
        assert circumference(k) == brute_circumference(g, range(1, 14)) == 5

    @pytest.mark.parametrize(
        "builder, lp",
        [
            # Two branches at a corner: 5 + 5 beats 5 + the K4's 3.
            (lambda: sprout(complete_graph(4), 1, (5, 5), stem=False), 10),
            # One tree at a corner whose inside, 5 + 5, beats its height 6
            # plus the K4's 3.
            (lambda: sprout(complete_graph(4), 1, (5, 5), stem=True), 10),
            # The same two shapes at a chain-interior vertex of a theta, whose
            # longest path from that vertex is 7.
            (lambda: sprout(theta_graph((3, 3, 3)), 3, (8, 8), stem=False), 16),
            (lambda: sprout(theta_graph((3, 3, 3)), 3, (9, 9), stem=True), 18),
        ],
        ids=["corner-branches", "corner-tree", "interior-branches", "interior-tree"],
    )
    def test_path_inside_the_trees(self, builder, lp):
        g = builder()
        (k,) = kernels_of(g)
        assert k.tree_path == lp
        assert longest_path(k) == brute_longest_path(g, range(1, g.n + 1)) == lp

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

    def test_simple_graph_agrees_with_subdivision_on_pairings(self):
        # Connected random cubic pairings on 2q points, loops and parallel
        # edges kept: the kernels of the window.
        rng = random.Random(20261019)
        seen = {"loops": 0, "nonplanar": 0}
        for _ in range(300):
            q = rng.randint(3, 12)
            points = [v for v in range(1, 2 * q + 1) for _ in range(3)]
            rng.shuffle(points)
            pairs = sorted(
                (min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])
            )
            if not nx.is_connected(nx.MultiGraph(pairs)):
                continue
            k = KernelMultigraph(
                vertices=tuple(range(1, 2 * q + 1)),
                edges=tuple(KernelEdge(u, v, 1, ()) for u, v in pairs),
            )
            want = subdivided_planar(k)
            assert is_planar(k) == want, pairs
            seen["loops"] += any(u == v for u, v in pairs)
            seen["nonplanar"] += not want
        assert seen["loops"] >= 50 and seen["nonplanar"] >= 50, seen

    def test_simple_graph_agrees_with_subdivision_on_samples(self):
        ds = parse_degree_set("1,3,5,7")
        kernels = []
        for mu in (0.0, 2.0):
            m, _ = edges_for_mu(ds, 1000, mu)
            dp = build_dp(ds, 1000, 2 * m)
            graphs, _ = sample_batch(ds, dp, [trial_generator(9, t) for t in range(12)])
            kernels += [k for g in graphs for k in kernels_of(g)]
        assert sum(not subdivided_planar(k) for k in kernels) >= 3
        for k in kernels:
            assert is_planar(k) == subdivided_planar(k)

    def test_large_prism_kernel(self):
        # The prism C_2501 x K_2 (5002 corners, length-1 chains) is planar;
        # a K5 on five of its corners makes it non-planar.
        r = 2501
        edges = [KernelEdge(i, i % r + 1, 1, ()) for i in range(1, r + 1)]
        edges += [KernelEdge(i + r, i % r + 1 + r, 1, ()) for i in range(1, r + 1)]
        edges += [KernelEdge(i, i + r, 1, ()) for i in range(1, r + 1)]
        prism = KernelMultigraph(vertices=tuple(range(1, 2 * r + 1)), edges=tuple(edges))
        assert is_planar(prism)
        k5 = [KernelEdge(u, v, 1, ()) for u, v in itertools.combinations((1, 3, 5, 7, 9), 2)]
        assert len(k5) == 10
        assert not is_planar(
            KernelMultigraph(vertices=prism.vertices, edges=prism.edges + tuple(k5))
        )


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
