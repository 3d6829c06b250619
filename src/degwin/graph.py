"""Simple labeled graphs and their structural decomposition.

Vertices are labeled 1..n.  The decomposition chain used everywhere below:

  component_labels  ->  adjacency of the complex part  ->  2-core (peel
  degree <= 1)  ->  kernel (contract the degree-2 chains of the 2-core into
  weighted multigraph edges)

A component's excess is edges - vertices: trees have -1, unicycles 0, and
"complex" components have excess >= 1.  Only complex components own a kernel;
every kernel vertex ("corner") has multigraph degree >= 3 there.  The
adjacency is built once, for the complex part only, and the peel and the
kernel both read it.  From the peel, sprout_data keeps two facts per 2-core
vertex about the sprouting trees pruned off it: their height, and the
longest path that stays inside them.  The exact path statistics need nothing
else of the trees.

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
    """Immutable simple graph on vertices 1..n.

    The canonical edges (u < v, sorted by (u, v)) are stored once, as the
    int64 arrays ``u`` and ``v``.  The edge tuple ``edges`` is built from
    them on first use: most sampled graphs only need their component sizes.
    """

    __slots__ = ("n", "u", "v", "_edges")

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
        self._edges = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(zip(self.u.tolist(), self.v.tolist()))
        return self._edges

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


def component_labels(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component label per vertex plus per-component sizes and edge counts.

    ``labels[v]`` for v in 1..n (entry 0 is unused) is the index of v's
    component into ``sizes`` and ``edge_counts``.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    u, v = g.u, g.v
    a = csr_matrix(
        (np.ones(u.size, dtype=np.int8), (u - 1, v - 1)), shape=(g.n, g.n)
    )
    count, raw = connected_components(a, directed=False)
    labels = np.concatenate(([-1], raw))
    sizes = np.bincount(raw, minlength=count)
    edge_counts = np.bincount(labels[u], minlength=count)
    return labels, sizes, edge_counts


def adjacency(g: Graph, vertices: Iterable[int]) -> dict[int, list[int]]:
    """Neighbour lists of the subgraph of ``g`` induced by ``vertices``.

    The keys are in ascending order, and so is each list: the canonical edge
    order gives it.
    """
    keep = np.zeros(g.n + 1, dtype=bool)
    keep[list(vertices)] = True
    adj: dict[int, list[int]] = {v: [] for v in np.flatnonzero(keep).tolist()}
    both = keep[g.u] & keep[g.v]
    for u, v in zip(g.u[both].tolist(), g.v[both].tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


@dataclass(frozen=True)
class PeelResult:
    """2-core of a graph plus the pruning record.

    ``order`` lists the peeled vertices in removal order.  ``children[w]``
    lists, in removal order, the vertices peeled while w was their one live
    neighbour; a vertex peeled at degree 0 is listed under no one.  Children
    always precede the vertex they are listed under, and following them
    down from a 2-core vertex walks the trees that sprout there.
    """

    core_vertices: frozenset[int]
    children: dict[int, list[int]]
    order: tuple[int, ...]


def two_core(adj: dict[int, list[int]]) -> PeelResult:
    """Peel vertices of degree <= 1 until only the 2-core remains.

    ``adj`` maps each vertex, in ascending order, to its neighbours, as
    ``adjacency`` builds it.  The peel is first in, first out, seeded lowest
    vertex first.
    """
    deg = {v: len(a) for v, a in adj.items()}
    queue = deque(v for v, d in deg.items() if d <= 1)
    children: dict[int, list[int]] = {}
    order = []
    while queue:
        v = queue.popleft()
        # A vertex is queued at degree 1 and again at 0; a peeled one is
        # gone from deg.
        if deg.get(v, 2) > 1:
            continue
        del deg[v]
        order.append(v)
        # At most one neighbour is still live: the one v hangs from.
        for w in adj[v]:
            if w in deg:
                children.setdefault(w, []).append(v)
                deg[w] -= 1
                if deg[w] <= 1:
                    queue.append(w)
    return PeelResult(
        core_vertices=frozenset(deg), children=children, order=tuple(order)
    )


@dataclass(frozen=True)
class SproutData:
    """Sprouting-tree summary per 2-core vertex x that has trees.

    ``height1[x]`` is the height of the tallest tree rooted at x.
    ``tree_path[x]`` is the longest path that stays inside the trees at x:
    two branches joined at x, or the inside of one tree.
    """

    height1: dict[int, int]
    tree_path: dict[int, int]


def sprout_data(peel: PeelResult) -> SproutData:
    """Heights and tree-only longest paths of the pruned trees."""
    children = peel.children
    sprouting = [x for x in peel.core_vertices if x in children]
    height: dict[int, int] = {}
    inside: dict[int, int] = {}
    # Children are always peeled before the vertex they are listed under,
    # and the 2-core vertices come last, so a single pass sees every subtree
    # bottom-up.
    for v in (*peel.order, *sprouting):
        kids = children.get(v)
        if kids is None:
            height[v] = inside[v] = 0
            continue
        branches = sorted((1 + height[c] for c in kids), reverse=True)
        height[v] = branches[0]
        inside[v] = max([sum(branches[:2])] + [inside[c] for c in kids])
    return SproutData(
        height1={x: height[x] for x in sprouting},
        tree_path={x: inside[x] for x in sprouting},
    )


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

    Corner vertices keep their original labels.  ``tree_height`` is
    SproutData's ``height1`` for the component's 2-core vertices (corners
    and chain interiors); ``tree_path`` is the longest path that stays
    inside the trees at one of them.
    """

    vertices: tuple[int, ...]
    edges: tuple[KernelEdge, ...]
    tree_height: dict[int, int] = field(default_factory=dict)
    tree_path: int = 0

    @property
    def excess(self) -> int:
        return len(self.edges) - len(self.vertices)


def kernel(
    adj: dict[int, list[int]],
    vertices: Iterable[int],
    peel: PeelResult,
    sprouts: SproutData,
) -> KernelMultigraph:
    """Contract the degree-2 chains of a complex component's 2-core.

    ``adj`` is the adjacency the peel ran on, and ``vertices`` are the
    component's vertices.  A tree or a unicycle has no corner and is
    refused.  Each chain is walked from both of its ends and kept from the
    end whose (corner, first step) pair is smaller, so it runs from its
    smaller corner, and a loop from its smaller first step.  The chain
    interiors and the sprouting-tree data of the component's 2-core vertices
    are kept for the exact path statistics.
    """
    in_core = peel.core_vertices
    core = [v for v in vertices if v in in_core]
    core_adj = {v: [w for w in adj[v] if w in in_core] for v in core}
    corners = [v for v in core if len(core_adj[v]) >= 3]
    if not corners:
        raise ValueError(
            "kernel defined only for complex components: "
            "the 2-core has no corner vertex"
        )
    edges: list[KernelEdge] = []
    for c in corners:
        for first in core_adj[c]:
            prev, cur = c, first
            interior = []
            # A 2-core vertex that is not a corner has exactly two neighbours.
            while len(core_adj[cur]) == 2:
                interior.append(cur)
                a, b = core_adj[cur]
                prev, cur = cur, b if a == prev else a
            if (c, first) < (cur, prev):
                length = len(interior) + 1
                edges.append(KernelEdge(c, cur, length, tuple(interior)))
    edges.sort(key=lambda e: (e.u, e.v, e.length, e.interior))
    return KernelMultigraph(
        vertices=tuple(sorted(corners)),
        edges=tuple(edges),
        tree_height={v: sprouts.height1[v] for v in core if v in sprouts.height1},
        tree_path=max(sprouts.tree_path.get(v, 0) for v in core),
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
