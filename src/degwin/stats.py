"""Exact extremal statistics of the complex part.

Diameter is computed exactly on the complex part itself, by iFUB (a few
BFS passes ordered by level from a central vertex).  Longest path and
circumference are exact but computed on the kernel: a simple path in a
complex component decomposes into fully traversed kernel chains between
distinct corners plus end extensions (deepest sprouting tree at a terminal
corner, or a partial entry into an unused incident chain, gaining position +
tree bonus), with two extra families — both endpoints inside one chain, and
paths confined to a single sprouting tree.  Cycles are kernel cycles with no
tree bonuses.  Planarity is decided on the kernel alone: the graph is planar
iff all complex components' kernels are.

All lengths are counted in edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

import networkx as nx

from .graph import (
    Component,
    Graph,
    KernelMultigraph,
    component_labels,
    kernel,
    sprout_data,
    two_core,
)

MAX_KERNEL_EXCESS = 12
MAX_KERNEL_VERTICES = 5000


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


def diameter(g: Graph, vertices: Iterable[int]) -> int:
    """Exact maximum (per component) of shortest-path distances.

    Works on the subgraph induced by ``vertices``; returns -1 for an empty
    vertex set.  Each component is solved by iFUB (Crescenzi et al., TCS
    2013): after a double sweep picks a central start c, the vertices are
    visited by decreasing BFS level from c, and once the largest
    eccentricity found reaches 2i no pair of vertices at levels <= i can
    beat it.  The result equals the all-pairs maximum; on the tree-like
    complex part it needs only a handful of BFS passes.
    """
    verts = np.array(sorted(set(vertices)), dtype=np.int64)
    if not verts.size:
        return -1
    index = np.full(g.n + 1, -1, dtype=np.int64)
    index[verts] = np.arange(verts.size)
    u, v = g.endpoints()
    iu, iv = index[u], index[v]
    keep = (iu >= 0) & (iv >= 0)
    iu, iv = iu[keep], iv[keep]
    a = csr_matrix(
        (np.ones(2 * iu.size), (np.concatenate((iu, iv)), np.concatenate((iv, iu)))),
        shape=(verts.size, verts.size),
    )
    _, labels = connected_components(a, directed=True, connection="strong")
    best = 0
    for members in np.split(
        np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1]
    ):
        best = max(best, _component_diameter(a, members))
    return best


def _bfs(a, source: int) -> tuple[list[int], np.ndarray]:
    """BFS order from ``source`` and the BFS-tree parent of each vertex."""
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


def _component_diameter(a, members: np.ndarray) -> int:
    if members.size <= 2:
        return members.size - 1
    _, x, _ = _eccentricity(a, int(members[0]))
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


def _edge_tables(k: KernelMultigraph):
    """Per-edge position/tree tables used by the exact path scorer."""
    h1 = k.tree_height
    tables = []
    for e in k.edges:
        if e.interior is None:
            raise ValueError(
                "longest_path/circumference need a kernel built in detail mode"
            )
        verts = (e.u,) + e.interior + (e.v,)
        if len(verts) != e.length + 1:
            raise ValueError(f"kernel edge interior inconsistent with length: {e}")
        t = [h1.get(x, 0) for x in verts]
        tables.append((e, verts, t))
    return tables


def _partial_entry(t: Sequence[int], length: int, from_u: bool) -> int | None:
    """Best gain from entering a chain part-way: max position + tree bonus."""
    if length < 2:
        return None
    best = None
    for p in range(1, length):
        gain = (p if from_u else length - p) + t[p]
        if best is None or gain > best:
            best = gain
    return best


def _double_entry(t: Sequence[int], length: int) -> int | None:
    """Best combined gain entering one chain from both of its ends at
    disjoint interior positions i < j."""
    if length < 3:
        return None
    best = None
    prefix = None  # max over i < j of (i + t[i]), interior only
    for j in range(2, length):
        cand_i = (j - 1) + t[j - 1]
        prefix = cand_i if prefix is None else max(prefix, cand_i)
        gain = prefix + (length - j) + t[j]
        if best is None or gain > best:
            best = gain
    return best


def longest_path(k: KernelMultigraph) -> int:
    """Exact longest simple path (in edges) of one complex component."""
    q = k.excess
    if q > MAX_KERNEL_EXCESS:
        raise ValueError(
            f"kernel excess {q} exceeds exhaustive-search guard "
            f"{MAX_KERNEL_EXCESS}"
        )
    tables = _edge_tables(k)
    h1 = k.tree_height
    h2 = k.tree_height2
    best = 0
    # Paths confined to a single sprouting tree.
    if k.tree_diameter_bonus:
        best = max(best, max(k.tree_diameter_bonus.values()))
    # Both endpoints inside (or at the ends of) a single chain.
    for e, verts, t in tables:
        L = e.length
        is_loop = e.u == e.v
        for x in verts:
            best = max(best, h1.get(x, 0) + h2.get(x, 0))
        # direct: i < j along the chain, gain t[i] + (j - i) + t[j]
        pref_all = t[0] - 0
        pref_in = None  # excluding i = 0
        for j in range(1, L + 1):
            if is_loop and j == L:
                if pref_in is not None:
                    best = max(best, t[j] + j + pref_in)
            else:
                best = max(best, t[j] + j + pref_all)
            cand = t[j] - j
            pref_all = max(pref_all, cand)
            pref_in = cand if pref_in is None else max(pref_in, cand)
        if is_loop:
            # wrap-around: v_i -> corner -> v_j the other way, gain
            # (t[i] + i) + (L - j + t[j]), (i, j) != (0, L)
            pref_all = t[0] + 0
            pref_in = None
            for j in range(1, L + 1):
                if j == L:
                    if pref_in is not None:
                        best = max(best, pref_in + (L - j) + t[j])
                else:
                    best = max(best, pref_all + (L - j) + t[j])
                cand = t[j] + j
                pref_all = max(pref_all, cand)
                pref_in = cand if pref_in is None else max(pref_in, cand)
    # Kernel-path family: fully traversed chains between distinct corners
    # plus end extensions.  Exhaustive over kernel simple paths, with two
    # exact prunings: each path is closed only from its smaller-index end,
    # and a branch is cut when even the sum of the longest conceivable
    # remaining chains plus the largest possible end bonuses cannot beat the
    # current best.
    corners = sorted(k.vertices)
    cidx = {c: i for i, c in enumerate(corners)}
    vcount = len(corners)
    n_edges = len(k.edges)
    pe = [
        (
            _partial_entry(t, e.length, True),
            _partial_entry(t, e.length, False),
        )
        for e, verts, t in tables
    ]
    dd = [_double_entry(t, e.length) for e, verts, t in tables]
    lengths = [e.length for e in k.edges]
    by_len = sorted(lengths, reverse=True)
    prefix = [0] * (n_edges + 1)
    for r in range(n_edges):
        prefix[r + 1] = prefix[r] + by_len[r]
    incident_halves: list[list[tuple[int, int]]] = [[] for _ in range(vcount)]
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(vcount)]
    chords: dict[tuple[int, int], list[int]] = {}
    is_loop_edge = [e.u == e.v for e in k.edges]
    for i, e in enumerate(k.edges):
        ui, vi = cidx[e.u], cidx[e.v]
        if ui == vi:
            incident_halves[ui].append((i, 0))
            incident_halves[ui].append((i, 1))
        else:
            incident_halves[ui].append((i, 0))
            incident_halves[vi].append((i, 1))
            adj[ui].append((i, vi, e.length))
            adj[vi].append((i, ui, e.length))
            a, b = (ui, vi) if ui < vi else (vi, ui)
            chords.setdefault((a, b), []).append(i)
    for lst in adj:
        lst.sort(key=lambda item: -item[2])

    def end_options(ci: int, used: int) -> list[tuple[int, object]]:
        c = corners[ci]
        opts: list[tuple[int, object]] = [(0, None)]
        hc = h1.get(c, 0)
        if hc:
            opts.append((hc, ("t", ci, 0)))
        hc2 = h2.get(c, 0)
        if hc2:
            opts.append((hc2, ("t", ci, 1)))
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
        allow = prefix[rem if rem < n_edges else n_edges] + cap_pair
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
    q = k.excess
    if q > MAX_KERNEL_EXCESS:
        raise ValueError(
            f"kernel excess {q} exceeds exhaustive-search guard "
            f"{MAX_KERNEL_EXCESS}"
        )
    best = 0
    corners = sorted(k.vertices)
    cidx = {c: i for i, c in enumerate(corners)}
    vcount = len(corners)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(vcount)]
    nonloop_lengths = []
    for i, e in enumerate(k.edges):
        if e.u == e.v:
            best = max(best, e.length)
        else:
            ui, vi = cidx[e.u], cidx[e.v]
            adj[ui].append((i, vi, e.length))
            adj[vi].append((i, ui, e.length))
            nonloop_lengths.append(e.length)
    for lst in adj:
        lst.sort(key=lambda item: -item[2])
    n_nonloop = len(nonloop_lengths)
    by_len = sorted(nonloop_lengths, reverse=True)
    prefix = [0] * (n_nonloop + 1)
    for r in range(n_nonloop):
        prefix[r + 1] = prefix[r] + by_len[r]

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

    Loops get two subdivision points and every other edge one, yielding a
    simple graph on which planarity is unchanged; an Euler-bound prefilter on
    the underlying simple graph short-circuits clear rejections before the
    left-right planarity test runs.
    """
    if len(k.vertices) > MAX_KERNEL_VERTICES:
        raise ValueError(
            f"kernel has {len(k.vertices)} vertices, beyond the planarity "
            f"guard {MAX_KERNEL_VERTICES}"
        )
    if k.excess <= 2:
        # A non-planar graph contains a subdivided K3,3 or K5 (excess 3 and
        # 5); a kernel is connected, and a connected graph has at least the
        # excess of any connected subgraph.
        return True
    simple_pairs = {(e.u, e.v) for e in k.edges if e.u != e.v}
    v0 = len(k.vertices)
    if v0 >= 3 and len(simple_pairs) > 3 * v0 - 6:
        return False
    gx = nx.Graph()
    gx.add_nodes_from(k.vertices)
    for i, e in enumerate(k.edges):
        if e.u == e.v:
            a, b = ("m", i, 0), ("m", i, 1)
            gx.add_edge(e.u, a)
            gx.add_edge(a, b)
            gx.add_edge(b, e.v)
        else:
            a = ("m", i, 0)
            gx.add_edge(e.u, a)
            gx.add_edge(a, e.v)
    ok, _ = nx.check_planarity(gx, counterexample=False)
    return bool(ok)


def summarize(g: Graph, attempts: int = 0) -> GraphSummary:
    """Full structural summary of a graph."""
    labels, sizes, edge_counts = component_labels(g)
    excess = edge_counts - sizes
    largest = int(sizes.max())
    largest_excess = int(excess.max())
    complex_comps = [
        Component(
            vertices=tuple(np.flatnonzero(labels == c).tolist()),
            edge_count=int(edge_counts[c]),
        )
        for c in np.flatnonzero(excess >= 1)
    ]
    if not complex_comps:
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
    complex_vertices = [v for comp in complex_comps for v in comp.vertices]
    peel = two_core(g, vertices=complex_vertices)
    sprouts = sprout_data(g, peel)
    total_excess = 0
    diam = lp = circ = 0
    planar = True
    lengths_exact = True
    for comp in complex_comps:
        total_excess += comp.excess
        kern = kernel(g, comp, peel, sprouts, detail=True)
        if kern.excess > MAX_KERNEL_EXCESS:
            # Exhaustive path search is refused far above the window; the
            # lengths are reported as the not-computed sentinel -1 (planarity
            # and diameter stay exact at any excess).
            lengths_exact = False
        else:
            lp = max(lp, longest_path(kern))
            circ = max(circ, circumference(kern))
        planar = planar and is_planar(kern)
    diam = diameter(g, complex_vertices)
    if not lengths_exact:
        lp = circ = -1
    return GraphSummary(
        attempts=attempts,
        largest_component=largest,
        largest_excess=largest_excess,
        total_excess=total_excess,
        complex_size=len(complex_vertices),
        complex_diameter=diam,
        complex_longest_path=lp,
        complex_circumference=circ,
        planar=planar,
    )
