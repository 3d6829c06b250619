"""Exact extremal statistics of the complex part.

Diameter is computed exactly on the complex part itself, by iFUB (a few
BFS passes ordered by level from a central vertex).  Longest path and
circumference are exact but computed on the kernel: a simple path in a
complex component decomposes into fully traversed kernel chains between
distinct corners plus end extensions (deepest sprouting tree at a terminal
corner, a partial entry into an unused incident chain, gaining position +
tree bonus, or a double entry into one chain from both of its ends), with
two extra families — both endpoints interior to one chain, scanned once per
chain, and paths confined to the sprouting trees of one 2-core vertex,
which the kernel carries as one number, ``tree_path``.  In-chain
pairs that touch a corner, and a loop's wrap-around pairs, are kernel paths
of zero chains or one chain and are left to the kernel-path search.  Cycles
are kernel cycles with no tree bonuses.  Planarity is decided on the kernel
alone, at any size: the graph is planar iff all complex components' kernels
are.

``summarize`` splits the graph into components once, builds the adjacency
of the complex part once, and hands the adjacency to the peel and the
kernels and the per-component vertex lists to the kernels and the diameter.

All lengths are counted in edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .graph import (
    Graph,
    KernelMultigraph,
    adjacency,
    component_labels,
    kernel,
    sprout_data,
    two_core,
)

MAX_KERNEL_EXCESS = 12


@dataclass(frozen=True)
class GraphSummary:
    """Per-graph structure summary, under the names of its CSV columns.

    ``attempts`` counts the configuration-model attempts the graph took
    (``harness.TrialRow`` puts the sweep point and trial in front).
    Sentinels when the complex part is empty: sizes 0, lengths -1, planar
    True.  A nonempty complex part whose excess lies beyond the exhaustive
    path-search guard also reports longest path and circumference as -1
    (not computed); diameter and planarity are exact at any excess.
    total_excess is the summed excess over complex components only (the
    summed excess over all components is always m - n and carries no
    information).
    """

    attempts: int
    largest_component: int
    largest_excess: int
    total_excess: int
    complex_size: int
    complex_diameter: int
    complex_longest_path: int
    complex_circumference: int
    planar: bool

    def validate(self) -> None:
        if self.complex_size == 0:
            ok = (
                self.total_excess == 0
                and self.complex_diameter == -1
                and self.complex_longest_path == -1
                and self.complex_circumference == -1
                and self.planar
                and self.largest_excess <= 0
            )
            if not ok:
                raise ValueError(f"inconsistent empty-complex summary: {self}")
        elif self.complex_longest_path == -1:
            ok = (
                1 <= self.largest_excess <= self.total_excess
                and self.complex_circumference == -1
                and self.complex_diameter >= 1
            )
            if not ok:
                raise ValueError(f"inconsistent refused-lengths summary: {self}")
        else:
            ok = (
                1 <= self.largest_excess <= self.total_excess
                and 0 <= self.complex_diameter <= self.complex_longest_path
                and 3 <= self.complex_circumference
                and self.complex_circumference <= self.complex_longest_path + 1
                and self.complex_longest_path < self.complex_size
            )
            if not ok:
                raise ValueError(f"inconsistent complex summary: {self}")


def diameter(g: Graph, components: Sequence[Sequence[int]]) -> int:
    """Exact maximum (per component) of shortest-path distances.

    ``components`` are the vertex lists of the components of an induced
    subgraph of ``g``; returns -1 when there are none.  Each component is
    solved by iFUB (Crescenzi et al., TCS 2013): after a double sweep from
    its first vertex picks a central start c, the vertices are visited by
    decreasing BFS level from c, and once the largest eccentricity found
    reaches 2i no pair of vertices at levels <= i can beat it.  The result
    equals the all-pairs maximum; on the tree-like complex part it needs
    only a handful of BFS passes.
    """
    from scipy.sparse import csr_matrix

    if not components:
        return -1
    verts = np.sort(np.concatenate(components))
    index = np.full(g.n + 1, -1, dtype=np.int64)
    index[verts] = np.arange(verts.size)
    iu, iv = index[g.u], index[g.v]
    keep = (iu >= 0) & (iv >= 0)
    iu, iv = iu[keep], iv[keep]
    a = csr_matrix(
        (np.ones(2 * iu.size), (np.concatenate((iu, iv)), np.concatenate((iv, iu)))),
        shape=(verts.size, verts.size),
    )
    return max(
        _component_diameter(a, int(index[vs[0]]), len(vs)) for vs in components
    )


def _bfs(a, source: int) -> tuple[list[int], np.ndarray]:
    """BFS order from ``source`` and the BFS-tree parent of each vertex."""
    from scipy.sparse.csgraph import breadth_first_order

    order, parent = breadth_first_order(
        a, source, directed=True, return_predecessors=True
    )
    return order.tolist(), parent


def _eccentricity(a, source: int) -> tuple[int, int, np.ndarray]:
    """(eccentricity, a farthest vertex, BFS parents) of ``source``."""
    order, parent = _bfs(a, source)
    far = v = order[-1]
    ecc = 0
    while v != source:
        v = parent[v]
        ecc += 1
    return ecc, far, parent


def _component_diameter(a, start: int, size: int) -> int:
    """iFUB on the component of ``start``, which has ``size`` vertices."""
    if size <= 2:
        return size - 1
    _, x, _ = _eccentricity(a, start)
    lower, centre, parent = _eccentricity(a, x)
    for _ in range(lower - lower // 2):
        centre = parent[centre]
    order, parent = _bfs(a, int(centre))
    parent = parent.tolist()
    level = {order[0]: 0}
    for w in order[1:]:
        level[w] = level[parent[w]] + 1
    fringes: list[list[int]] = [[] for _ in range(level[order[-1]] + 1)]
    for w in order:
        fringes[level[w]].append(w)
    for i in range(len(fringes) - 1, 0, -1):
        if lower >= 2 * i:
            break
        for w in fringes[i]:
            lower = max(lower, _eccentricity(a, w)[0])
    return lower


def _kernel_index(k: KernelMultigraph):
    """The index both exhaustive kernel searches walk.

    Returns the sorted corners, their index, the non-loop chains at each
    corner index as (edge index, other corner index, length), longest first,
    and the prefix sums of the non-loop chain lengths sorted longest first.
    Refuses kernels beyond the exhaustive-search guard.
    """
    q = k.excess
    if q > MAX_KERNEL_EXCESS:
        raise ValueError(
            f"kernel excess {q} exceeds exhaustive-search guard "
            f"{MAX_KERNEL_EXCESS}"
        )
    corners = sorted(k.vertices)
    cidx = {c: i for i, c in enumerate(corners)}
    adj: list[list[tuple[int, int, int]]] = [[] for _ in corners]
    lengths = []
    for i, e in enumerate(k.edges):
        if e.u != e.v:
            ui, vi = cidx[e.u], cidx[e.v]
            adj[ui].append((i, vi, e.length))
            adj[vi].append((i, ui, e.length))
            lengths.append(e.length)
    for lst in adj:
        lst.sort(key=lambda item: -item[2])
    prefix = list(accumulate(sorted(lengths, reverse=True), initial=0))
    return corners, cidx, adj, prefix


def _pair_max(a: Sequence[int], b: Sequence[int]) -> int | None:
    """max over i < j of a[i] + b[j], or None for fewer than two entries."""
    return max((x + y for x, y in zip(accumulate(a[:-1], max), b[1:])), default=None)


def longest_path(k: KernelMultigraph) -> int:
    """Exact longest simple path (in edges) of one complex component."""
    corners, cidx, adj, prefix = _kernel_index(k)
    h1 = k.tree_height
    # Paths confined to the sprouting trees of one 2-core vertex, two
    # branches at a corner among them.  So a corner's only tree end option
    # is its tallest tree h1: a second-tallest one would pair with the same
    # partners as h1, or with h1 itself inside tree_path.
    best = k.tree_path
    # Per chain, with t the tree heights along it and positions 0..L:
    # up[i] = t[i] + i and down[i] = t[i] + L - i are the gains of entering
    # the chain from u or from v and ending at i; back[i] + up[j] =
    # t[i] + (j - i) + t[j].  Only interior positions are scanned.  A pair
    # with an end at a corner is a kernel path of no chain, or of the whole
    # chain, with end options at its corners (tree h1, partial entry pe, or
    # dd for a loop's two sides), which the search below closes at L = 0 or
    # after one chain; each such option is at most max_end_single, so the
    # cap_pair pruning never hides it.  A loop's wrap-around pairs are dd
    # (both ends interior) or h1(corner) + pe (one end at the corner).
    pe: list[tuple[int | None, int | None]] = []
    dd: list[int | None] = []
    for e in k.edges:
        L = e.length
        if len(e.interior) != L - 1:
            raise ValueError(f"kernel edge interior inconsistent with length: {e}")
        t = [h1.get(x, 0) for x in (e.u,) + e.interior + (e.v,)]
        up = [t[i] + i for i in range(1, L)]
        down = [t[i] + L - i for i in range(1, L)]
        back = [t[i] - i for i in range(1, L)]
        inner = _pair_max(back, up)
        if inner is not None and inner > best:
            best = inner
        pe.append((max(up, default=None), max(down, default=None)))
        dd.append(_pair_max(up, down))
    # Kernel-path family: fully traversed chains between distinct corners
    # plus end extensions.  Exhaustive over kernel simple paths, with two
    # exact prunings: each path is closed only from its smaller-index end,
    # and a branch is cut when even the sum of the longest conceivable
    # remaining non-loop chains plus the largest possible end bonuses cannot
    # beat the current best (a path between distinct corners never
    # traverses a loop; loop entries are end bonuses).
    vcount = len(corners)
    n_nonloop = len(prefix) - 1
    incident_halves: list[list[tuple[int, int]]] = [[] for _ in range(vcount)]
    chords: dict[tuple[int, int], list[int]] = {}
    is_loop_edge = [e.u == e.v for e in k.edges]
    for i, e in enumerate(k.edges):
        ui, vi = cidx[e.u], cidx[e.v]
        incident_halves[ui].append((i, 0))
        incident_halves[vi].append((i, 1))
        if ui != vi:
            a, b = (ui, vi) if ui < vi else (vi, ui)
            chords.setdefault((a, b), []).append(i)

    def end_options(ci: int, used: int) -> list[tuple[int, object]]:
        c = corners[ci]
        opts: list[tuple[int, object]] = [(0, None)]
        hc = h1.get(c, 0)
        if hc:
            opts.append((hc, ("t", ci)))
        for i, side in incident_halves[ci]:
            if used >> i & 1:
                continue
            gain = pe[i][side]
            if gain is not None:
                opts.append((gain, ("e", i)))
        return opts

    max_end_single = max(
        max(gain for gain, _ in end_options(ci, 0)) for ci in range(vcount)
    )
    cap_pair = 2 * max_end_single

    def combine(a: list[tuple[int, object]], b: list[tuple[int, object]]) -> int:
        out = 0
        for ga, ra in a:
            for gb, rb in b:
                if ra is not None and ra == rb:
                    continue
                if ga + gb > out:
                    out = ga + gb
        return out

    def close_candidates(c0: int, ck: int, used: int, L: int):
        nonlocal best
        opts0 = end_options(c0, used)
        optsk = opts0 if ck == c0 else end_options(ck, used)
        best = max(best, L + combine(opts0, optsk))
        if c0 == ck:
            # both ends may enter the same loop from its two sides
            for i, side in incident_halves[c0]:
                if side == 0 and not (used >> i & 1) and is_loop_edge[i]:
                    if dd[i] is not None:
                        best = max(best, L + dd[i])
        else:
            key = (c0, ck) if c0 < ck else (ck, c0)
            for i in chords.get(key, ()):
                if not (used >> i & 1) and dd[i] is not None:
                    best = max(best, L + dd[i])

    def dfs(c0: int, cur: int, vis: int, cnt: int, used: int, L: int):
        if cur >= c0 and L + cap_pair > best:
            close_candidates(c0, cur, used, L)
        rem = vcount - cnt - 1
        allow = prefix[rem if rem < n_nonloop else n_nonloop] + cap_pair
        for i, w, Li in adj[cur]:
            if used >> i & 1 or vis >> w & 1:
                continue
            nl = L + Li
            if nl + allow <= best:
                continue
            dfs(c0, w, vis | 1 << w, cnt + 1, used | 1 << i, nl)

    for c0 in range(vcount):
        dfs(c0, c0, 1 << c0, 1, 0, 0)
    return best


def circumference(k: KernelMultigraph) -> int:
    """Exact longest simple cycle (in edges) of one complex component."""
    corners, _, adj, prefix = _kernel_index(k)
    best = max((e.length for e in k.edges if e.u == e.v), default=0)
    vcount = len(corners)
    n_nonloop = len(prefix) - 1

    # Each cycle is enumerated from its smallest corner only; a branch is cut
    # when even the longest conceivable remaining chains cannot beat best.
    def dfs(s: int, cur: int, vis: int, cnt: int, used: int, L: int):
        nonlocal best
        # after stepping once more the cycle can add at most vcount - cnt
        # further edges (new corners plus the closing edge)
        rem = vcount - cnt
        allow = prefix[rem if rem < n_nonloop else n_nonloop]
        for i, w, Li in adj[cur]:
            if used >> i & 1:
                continue
            if w == s:
                if L > 0 and L + Li > best:
                    best = L + Li
                continue
            if vis >> w & 1 or w < s:
                continue
            if L + Li + allow <= best:
                continue
            dfs(s, w, vis | 1 << w, cnt + 1, used | 1 << i, L + Li)

    for s in range(vcount):
        dfs(s, s, 1 << s, 1, 0, 0)
    return best


def is_planar(k: KernelMultigraph) -> bool:
    """Planarity of the kernel multigraph.

    Loops and parallel chains never change planarity, so the left-right
    planarity test runs on the underlying simple graph of the corners, after
    an Euler-bound prefilter on the same edge set.
    """
    if k.excess <= 2:
        # A non-planar graph contains a subdivided K3,3 or K5 (excess 3 and
        # 5); a kernel is connected, and a connected graph has at least the
        # excess of any connected subgraph.
        return True
    simple_pairs = {(e.u, e.v) for e in k.edges if e.u != e.v}
    v0 = len(k.vertices)
    if v0 >= 3 and len(simple_pairs) > 3 * v0 - 6:
        return False
    import networkx as nx

    ok, _ = nx.check_planarity(nx.Graph(simple_pairs), counterexample=False)
    return bool(ok)


def summarize(g: Graph, attempts: int = 0) -> GraphSummary:
    """Full structural summary of a graph."""
    labels, sizes, edge_counts = component_labels(g)
    excess = edge_counts - sizes
    largest = int(sizes.max())
    largest_excess = int(excess.max())
    complex_ids = np.flatnonzero(excess >= 1)
    if not complex_ids.size:
        return GraphSummary(
            attempts=attempts,
            largest_component=largest,
            largest_excess=largest_excess,
            total_excess=0,
            complex_size=0,
            complex_diameter=-1,
            complex_longest_path=-1,
            complex_circumference=-1,
            planar=True,
        )
    comp_vertices = [np.flatnonzero(labels == c).tolist() for c in complex_ids]
    adj = adjacency(g, [v for vs in comp_vertices for v in vs])
    peel = two_core(adj)
    sprouts = sprout_data(peel)
    lp = circ = 0
    planar = True
    lengths_exact = True
    for vs in comp_vertices:
        kern = kernel(adj, vs, peel, sprouts)
        if kern.excess > MAX_KERNEL_EXCESS:
            # Exhaustive path search is refused far above the window; the
            # lengths are reported as the not-computed sentinel -1 (planarity
            # and diameter stay exact at any excess).
            lengths_exact = False
        else:
            lp = max(lp, longest_path(kern))
            circ = max(circ, circumference(kern))
        planar = planar and is_planar(kern)
    diam = diameter(g, comp_vertices)
    if not lengths_exact:
        lp = circ = -1
    return GraphSummary(
        attempts=attempts,
        largest_component=largest,
        largest_excess=largest_excess,
        total_excess=int(excess[complex_ids].sum()),
        complex_size=len(adj),
        complex_diameter=diam,
        complex_longest_path=lp,
        complex_circumference=circ,
        planar=planar,
    )
