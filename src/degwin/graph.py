"""Simple labeled graphs and their structural decomposition.

Vertices are labeled 1..n.  The decomposition chain used everywhere below:

  component_labels  ->  2-core (peel degree <= 1)  ->  kernel (contract
  the degree-2 chains of the 2-core into weighted multigraph edges)

A component's excess is edges - vertices: trees have -1, unicycles 0, and
"complex" components have excess >= 1.  Only complex components own a kernel;
every kernel vertex ("corner") has multigraph degree >= 3 there.  The peel
also records, per 2-core vertex, the sprouting trees pruned off it (their
heights and internal diameters), which the exact path statistics need.

compensation_factor is the multigraph symmetry weight
1 / prod_x (2^{loops at x} prod_{y >= x} multiplicity(x,y)!).

The JSONL wire format is one object per line: {"n": int, "edges": [[u, v],
...]} with 1-based endpoints and u < v.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


class Graph:
    """Immutable simple graph on vertices 1..n with an adjacency index.

    The canonical edges (u < v, sorted by (u, v)) are stored once, as the
    int64 arrays ``u`` and ``v``.  The edge tuple ``edges`` and the
    adjacency lists are built from them on first use: most sampled graphs
    only need their component sizes.
    """

    __slots__ = ("n", "u", "v", "_edges", "_adj")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"graph needs n >= 1 vertices, got {n}")
        canon = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed in a simple graph")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        ends = np.array(canon, dtype=np.int64).reshape(-1, 2)
        self._init(n, ends[:, 0], ends[:, 1])

    @classmethod
    def from_simple_arrays(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Graph from endpoint arrays already known to be simple.

        The caller guarantees 1 <= u < v <= n elementwise and no repeated
        pair; only the canonical edge order is established here.
        """
        order = np.lexsort((v, u))
        g = cls.__new__(cls)
        g._init(n, u[order], v[order])
        return g

    def _init(self, n: int, u: np.ndarray, v: np.ndarray) -> None:
        self.n, self.u, self.v = n, u, v
        self._edges = self._adj = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(zip(self.u.tolist(), self.v.tolist()))
        return self._edges

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each vertex in ascending order (index 0 unused)."""
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n + 1)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = tuple(tuple(a) for a in adj)
        return self._adj

    @property
    def m(self) -> int:
        return self.u.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Component:
    """A connected component with its edge count and excess."""

    vertices: tuple[int, ...]
    edge_count: int

    @property
    def excess(self) -> int:
        return self.edge_count - len(self.vertices)


def component_labels(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component label per vertex plus per-component sizes and edge counts.

    ``labels[v]`` for v in 1..n (entry 0 is unused); labels number the
    components in order of their smallest vertex.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    u, v = g.u, g.v
    a = csr_matrix(
        (np.ones(u.size, dtype=np.int8), (u - 1, v - 1)), shape=(g.n, g.n)
    )
    _, raw = connected_components(a, directed=False)
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    labels = np.concatenate(([-1], rank[raw]))
    sizes = np.bincount(labels[1:], minlength=first.size)
    edge_counts = np.bincount(labels[u], minlength=first.size)
    return labels, sizes, edge_counts


@dataclass(frozen=True)
class PeelResult:
    """2-core of a graph plus the pruning record.

    ``parent[v]`` is the neighbour v was attached to at the moment it was
    peeled (None for a vertex peeled at degree 0); following parents leads
    into the 2-core for components that have one.  ``order`` lists peeled
    vertices in removal order (children always precede their parent target).
    """

    core_vertices: frozenset[int]
    parent: dict[int, int | None]
    order: tuple[int, ...]


def two_core(g: Graph, vertices: Iterable[int] | None = None) -> PeelResult:
    """Peel vertices of degree <= 1 until only the 2-core remains.

    The peel is first in, first out, seeded lowest vertex first.
    ``vertices`` restricts it to a union of components (default: the whole
    graph); it then removes the vertices in it in the same order, with the
    same parents, as the whole-graph peel does.
    """
    adj = g.adj
    verts = range(1, g.n + 1) if vertices is None else sorted(vertices)
    deg = [len(a) for a in adj]
    queue = deque(v for v in verts if deg[v] <= 1)
    removed = bytearray(g.n + 1)
    parent: dict[int, int | None] = {}
    order = []
    while queue:
        v = queue.popleft()
        if removed[v] or deg[v] > 1:
            continue
        removed[v] = 1
        order.append(v)
        live = [w for w in adj[v] if not removed[w]]
        parent[v] = live[0] if live else None
        for w in live:
            deg[w] -= 1
            if deg[w] <= 1:
                queue.append(w)
    core = frozenset(v for v in verts if not removed[v])
    return PeelResult(core_vertices=core, parent=parent, order=tuple(order))


@dataclass(frozen=True)
class SproutData:
    """Sprouting-tree summary per 2-core vertex.

    ``height1``/``height2`` give the two tallest tree heights rooted at each
    core vertex (0 when absent); ``tree_diameter`` maps each tree root (the
    peeled neighbour of a core vertex) to the longest path inside that tree.
    """

    height1: dict[int, int]
    height2: dict[int, int]
    tree_diameter: dict[int, int]


def sprout_data(g: Graph, peel: PeelResult) -> SproutData:
    """Heights and internal diameters of the pruned trees."""
    children: dict[int, list[int]] = {}
    for v in peel.order:
        p = peel.parent[v]
        if p is not None:
            children.setdefault(p, []).append(v)
    height_below: dict[int, int] = {}
    diam_in: dict[int, int] = {}
    # Children are always peeled before the vertex they point to, so a single
    # pass in removal order sees every subtree bottom-up.
    for v in peel.order:
        kids = children.get(v)
        if kids is None:
            height_below[v] = diam_in[v] = 0
            continue
        branches = sorted((1 + height_below[c] for c in kids), reverse=True)
        height_below[v] = branches[0]
        through = sum(branches[:2])
        diam_in[v] = max([through] + [diam_in[c] for c in kids])
    height1: dict[int, int] = {}
    height2: dict[int, int] = {}
    tree_diameter: dict[int, int] = {}
    for x in peel.core_vertices:
        roots = children.get(x, ())
        if not roots:
            continue
        hs = sorted((1 + height_below[r] for r in roots), reverse=True)
        height1[x] = hs[0]
        height2[x] = hs[1] if len(hs) > 1 else 0
        for r in roots:
            tree_diameter[r] = diam_in[r]
    return SproutData(height1=height1, height2=height2, tree_diameter=tree_diameter)


@dataclass(frozen=True)
class KernelEdge:
    """A contracted degree-2 chain of the 2-core.

    ``length`` counts original edges; ``interior`` holds the chain's internal
    vertices in order from u to v.  u == v marks a loop.
    """

    u: int
    v: int
    length: int
    interior: tuple[int, ...]


@dataclass(frozen=True)
class KernelMultigraph:
    """The kernel (3-core) of one complex component.

    Corner vertices keep their original labels.  ``tree_height`` /
    ``tree_height2`` / ``tree_diameter_bonus`` carry the sprouting-tree data
    for every 2-core vertex of the component (corners and chain interiors),
    keyed as in SproutData.
    """

    vertices: tuple[int, ...]
    edges: tuple[KernelEdge, ...]
    tree_height: dict[int, int] = field(default_factory=dict)
    tree_height2: dict[int, int] = field(default_factory=dict)
    tree_diameter_bonus: dict[int, int] = field(default_factory=dict)

    @property
    def excess(self) -> int:
        return len(self.edges) - len(self.vertices)


def kernel(
    g: Graph, comp: Component, peel: PeelResult, sprouts: SproutData
) -> KernelMultigraph:
    """Contract the degree-2 chains of a complex component's 2-core.

    Requires comp.excess >= 1 (only complex components have corners).  The
    chain interiors and the sprouting-tree data of the component's 2-core
    vertices are kept for the exact path statistics.
    """
    if comp.excess < 1:
        raise ValueError(
            f"kernel defined only for complex components, got excess {comp.excess}"
        )
    core = [v for v in comp.vertices if v in peel.core_vertices]
    core_set = set(core)
    core_adj = {v: [w for w in g.adj[v] if w in core_set] for v in core}
    corners = sorted(v for v in core if len(core_adj[v]) >= 3)
    if not corners:
        raise ValueError(
            "complex component's 2-core has no corner vertex; "
            "this cannot happen for excess >= 1"
        )
    corner_set = set(corners)
    used: set[tuple[int, int]] = set()
    edges: list[KernelEdge] = []

    def mark(a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        if key in used:
            return False
        used.add(key)
        return True

    for c in corners:
        for first in core_adj[c]:
            if not mark(c, first):
                continue
            prev, cur = c, first
            interior = []
            while cur not in corner_set:
                interior.append(cur)
                nxt = next(w for w in core_adj[cur] if w != prev)
                mark(cur, nxt)
                prev, cur = cur, nxt
            u, v, inner = c, cur, tuple(interior)
            if u > v:
                u, v, inner = v, u, inner[::-1]
            edges.append(KernelEdge(u=u, v=v, length=len(interior) + 1, interior=inner))
    edges.sort(key=lambda e: (e.u, e.v, e.length, e.interior))
    return KernelMultigraph(
        vertices=tuple(corners),
        edges=tuple(edges),
        tree_height={v: h for v, h in sprouts.height1.items() if v in core_set},
        tree_height2={v: h for v, h in sprouts.height2.items() if v in core_set},
        tree_diameter_bonus={
            r: d
            for r, d in sprouts.tree_diameter.items()
            if peel.parent.get(r) in core_set
        },
    )


def compensation_factor(k: KernelMultigraph) -> Fraction:
    """Multigraph symmetry weight 1/prod(2^loops * multiplicity!)."""
    loops: dict[int, int] = {}
    mult: dict[tuple[int, int], int] = {}
    for e in k.edges:
        if e.u == e.v:
            loops[e.u] = loops.get(e.u, 0) + 1
        key = (e.u, e.v)
        mult[key] = mult.get(key, 0) + 1
    denom = 1
    for c in loops.values():
        denom *= 2**c
    for c in mult.values():
        denom *= math.factorial(c)
    return Fraction(1, denom)


def to_jsonl_line(g: Graph) -> str:
    """Serialise one graph to the JSONL wire format."""
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges]})


def from_jsonl_line(line: str) -> Graph:
    """Parse one JSONL line back into a Graph."""
    obj = json.loads(line)
    return Graph(int(obj["n"]), [(int(u), int(v)) for u, v in obj["edges"]])
