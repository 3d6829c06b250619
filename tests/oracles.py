"""Independent brute-force oracles used to freeze expected test values.

The graph and sequence oracles work directly on vertex/edge lists with
exponential or exhaustive algorithms, or with networkx, and deliberately
share no logic with the package's kernel-based pipeline or its log-space DP:
these are the refereeing implementations, kept slow and obvious.  The only
package code they touch is the ``Graph`` record (its edge list: they build
their own adjacency from it), and the JSONL wire format they read and
write.  The window-function helpers at the end are the exception: ``bigB``
and ``printed_window_form`` are built from the package's own series
evaluator, so they record the paper's printed forms rather than referee the
series.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np

from degwin.graph import Graph, KernelMultigraph, from_jsonl_line, to_jsonl_line


def nx_components(g: Graph) -> list[tuple[list[int], int]]:
    """Connected components by networkx, ordered by smallest vertex, as
    (sorted vertices, edge count) pairs."""
    gx = nx.Graph()
    gx.add_nodes_from(range(1, g.n + 1))
    gx.add_edges_from(g.edges)
    return [
        (verts, gx.subgraph(verts).number_of_edges())
        for verts in sorted(sorted(c) for c in nx.connected_components(gx))
    ]


def induced_adjacency(g: Graph, verts) -> dict[int, set[int]]:
    """Neighbour sets of the subgraph induced by ``verts``, from ``g.edges``."""
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for u, v in g.edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def brute_longest_path(g: Graph, verts) -> int:
    """Longest simple path (edge count) inside the induced subgraph."""
    adj = induced_adjacency(g, verts)
    best = 0

    def dfs(v, visited, length):
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                dfs(w, visited, length + 1)
                visited.remove(w)

    for v in sorted(adj):
        dfs(v, {v}, 0)
    return best


def brute_circumference(g: Graph, verts) -> int:
    """Longest simple cycle (edge count) inside the induced subgraph."""
    adj = induced_adjacency(g, verts)
    best = 0

    def dfs(start, v, visited, length):
        nonlocal best
        for w in adj[v]:
            if w == start and length >= 2:
                best = max(best, length + 1)
            elif w not in visited and w > start:
                visited.add(w)
                dfs(start, w, visited, length + 1)
                visited.remove(w)

    for v in sorted(adj):
        dfs(v, v, {v}, 0)
    return best


def brute_diameter(g: Graph, verts) -> int:
    """Largest BFS eccentricity over the induced subgraph; -1 if empty."""
    adj = induced_adjacency(g, verts)
    best = -1
    for s in adj:
        dist = {s: 0}
        queue = [s]
        for v in queue:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


def contract_chains(g: Graph, verts) -> tuple[list[int], list[tuple]]:
    """Corners and chains of the 2-core of the subgraph induced by ``verts``,
    by networkx.

    The 2-core is ``nx.k_core``, the corners are its vertices of degree >= 3,
    and a chain is either an edge between two corners or one component of
    the 2-core with the corners taken out: a path whose two ends hang from
    corners.  Chains are sorted (u, v, length, interior) tuples with u <= v
    and the interior listed from u; a loop (u == v) lists its interior from
    its smaller end.  Components of the 2-core without a corner (cycles)
    have no chains.
    """
    verts = set(verts)
    gx = nx.Graph((u, v) for u, v in g.edges if u in verts and v in verts)
    core = nx.k_core(gx, 2)
    corners = sorted(v for v in core if core.degree(v) >= 3)
    corner_set = set(corners)
    chains = [
        (min(u, v), max(u, v), 1, ())
        for u, v in core.edges
        if u in corner_set and v in corner_set
    ]
    inner = core.subgraph(set(core) - corner_set)
    for comp in nx.connected_components(inner):
        path = inner.subgraph(comp)
        ends = [v for v in comp if path.degree(v) <= 1]
        if not ends:
            continue
        seq = nx.shortest_path(path, ends[0], ends[-1])
        if len(seq) == 1:
            head, tail = sorted(core[seq[0]])
        else:
            (head,) = (w for w in core[seq[0]] if w not in comp)
            (tail,) = (w for w in core[seq[-1]] if w not in comp)
        if (head, seq[0]) > (tail, seq[-1]):
            head, tail, seq = tail, head, seq[::-1]
        chains.append((head, tail, len(seq) + 1, tuple(seq)))
    return corners, sorted(chains)


def brute_planar(g: Graph, verts) -> bool:
    """Planarity of the induced subgraph via the library planarity test."""
    verts = set(verts)
    G = nx.Graph()
    G.add_nodes_from(verts)
    G.add_edges_from((u, v) for u, v in g.edges if u in verts and v in verts)
    return nx.check_planarity(G)[0]


def subdivided_planar(k: KernelMultigraph) -> bool:
    """Planarity of a kernel multigraph by the library test on its
    subdivision: two new vertices on every loop and one on every other edge,
    which makes it a simple graph with the same planarity."""
    gx = nx.Graph()
    gx.add_nodes_from(k.vertices)
    for i, e in enumerate(k.edges):
        a, b = ("m", i, 0), ("m", i, 1)
        if e.u == e.v:
            nx.add_path(gx, [e.u, a, b, e.v])
        else:
            nx.add_path(gx, [e.u, a, e.v])
    return nx.check_planarity(gx)[0]


def complex_vertices(g: Graph) -> set[int]:
    """Vertices of all components with excess >= 1."""
    out: set[int] = set()
    for verts, edge_count in nx_components(g):
        if edge_count > len(verts):
            out.update(verts)
    return out


def random_simple_graph(rng: random.Random, n: int, m: int) -> Graph:
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    return Graph(n, rng.sample(all_pairs, m))


def random_complex_graph(rng: random.Random, n_lo: int = 4, n_hi: int = 12) -> Graph:
    """A random simple graph guaranteed to contain a complex part."""
    while True:
        n = rng.randint(n_lo, n_hi)
        m = min(rng.randint(n + 1, n + 5), n * (n - 1) // 2)
        g = random_simple_graph(rng, n, m)
        if complex_vertices(g):
            return g


def write_jsonl(path: str, graphs) -> None:
    """One graph per line in the package's JSONL wire format."""
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            fh.write(to_jsonl_line(g))
            fh.write("\n")


def read_jsonl(path: str):
    """The graphs of a JSONL file, skipping blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield from_jsonl_line(line)


def enumerate_sequences(degrees, n: int):
    """All degree sequences over `degrees` of length n, bucketed by their sum,
    with their sampling weights prod 1/d_i! as exact rationals."""
    buckets: dict[int, dict[tuple[int, ...], Fraction]] = {}
    inv_fact = {d: Fraction(1, math.factorial(d)) for d in degrees}
    for seq in itertools.product(sorted(degrees), repeat=n):
        w = Fraction(1)
        for d in seq:
            w *= inv_fact[d]
        buckets.setdefault(sum(seq), {})[seq] = w
    return buckets


def sequence_marginals(degrees, n: int, two_m: int) -> dict[int, Fraction]:
    """P(first drawn degree = d), for each d, by exhaustive enumeration."""
    table = enumerate_sequences(degrees, n).get(two_m, {})
    total = sum(table.values(), Fraction(0))
    if total == 0:
        return {}
    by_first: dict[int, Fraction] = {}
    for seq, w in table.items():
        by_first[seq[0]] = by_first.get(seq[0], Fraction(0)) + w
    return {d: w / total for d, w in by_first.items()}


def logaddexp_table(degrees, n: int, two_m: int) -> np.ndarray:
    """The log-space prefix-weight table, row by row as a chain of one
    ``np.logaddexp`` per degree: row i accumulates row i-1 shifted right by
    d and lowered by log d!, each cell rounded once per degree.  Cells no
    sequence reaches stay -inf."""
    from scipy.special import gammaln

    logw = np.full((n + 1, two_m + 1), -np.inf)
    logw[0, 0] = 0.0
    for i in range(1, n + 1):
        prev, row = logw[i - 1], logw[i]
        for d in degrees:
            if d <= two_m:
                lf = float(gammaln(d + 1.0))
                np.logaddexp(row[d:], prev[: two_m + 1 - d] - lf, out=row[d:])
    return logw


def full_table_walk(logw, degs, logfact, u_block) -> np.ndarray:
    """The sequence walk over a full (n+1) x (2m+1) table indexed by the
    stub sum j itself: row t of ``u_block`` draws d_n, ..., d_1 in turn with
    weights exp(log S[i-1][j-d] - log d! - log S[i][j]), a step below j = 0
    having weight zero.  The float operations per step are the sampler's,
    so on the same cells it draws the same sequences."""
    t_count, n = u_block.shape
    j = np.full(t_count, logw.shape[1] - 1, dtype=np.int64)
    seq = np.empty((t_count, n), dtype=np.int64)
    for i in range(n, 0, -1):
        idx = j[:, None] - degs
        ok = idx >= 0
        lw = np.where(ok, logw[i - 1][np.where(ok, idx, 0)], -np.inf)
        lw -= logfact
        lw -= logw[i, j][:, None]
        cum = np.cumsum(np.exp(lw), axis=1)
        k = (cum <= (u_block[:, n - i] * cum[:, -1])[:, None]).sum(axis=1)
        chosen = degs[np.minimum(k, len(degs) - 1)]
        seq[:, i - 1] = chosen
        j -= chosen
    assert not np.any(j), "walk did not end at j = 0"
    return seq


def h_eval(degrees, z: complex, r: float) -> complex:
    """Saddle exponent h(z; r) = r log(omega'(z) / z) + (1 - r) log(2 omega(z)
    - z omega'(z)) with principal-branch logarithms, omega summed term by
    term over ``degrees`` in complex floats."""
    if z == 0:
        raise ValueError("h_eval undefined at z = 0")
    w0 = sum(z**d / math.factorial(d) for d in degrees)
    w1 = sum(z ** (d - 1) / math.factorial(d - 1) for d in degrees if d >= 1)
    tail = 2.0 * w0 - z * w1
    if w1 == 0 or tail == 0:
        raise ValueError(f"log argument vanishes at z = {z}")
    return r * (cmath.log(w1) - cmath.log(z)) + (1.0 - r) * cmath.log(tail)


def phi1(ds, z: float) -> float:
    """Branching ratio z omega''(z) / omega'(z), with omega' and omega''
    summed term by term over ``ds.degrees`` in floats."""
    w1 = math.fsum(z ** (d - 1) / math.factorial(d - 1) for d in ds.degrees if d >= 1)
    w2 = math.fsum(z ** (d - 2) / math.factorial(d - 2) for d in ds.degrees if d >= 2)
    return z * w2 / w1


def enumerate_matchings(owners: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of the given stub-owner list, as sorted edge
    tuples (u <= v vertex pairs, one per matched stub pair)."""
    if len(owners) % 2:
        raise ValueError("odd number of stubs")

    def rec(idx: tuple[int, ...]):
        if not idx:
            yield ()
            return
        first, rest = idx[0], idx[1:]
        for k, j in enumerate(rest):
            u, v = owners[first], owners[j]
            edge = (min(u, v), max(u, v))
            for tail in rec(rest[:k] + rest[k + 1:]):
                yield (edge,) + tail

    return [tuple(sorted(m)) for m in rec(tuple(range(len(owners))))]


def enumerate_simple_graphs(seq: tuple[int, ...]) -> list[frozenset[tuple[int, int]]]:
    """All simple graphs (edge sets) on 1..len(seq) with the given degrees."""
    n = len(seq)
    m = sum(seq) // 2
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    found = []
    for chosen in itertools.combinations(pairs, m):
        deg = [0] * (n + 1)
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        if tuple(deg[1:]) == tuple(seq):
            found.append(frozenset(chosen))
    return found


def oracle_window_series(c2: float, c3: float, y: float, mu: float):
    """Direct high-precision sum of the window series.

    Same series as the library's adaptive evaluator, summed the obvious way
    with no incremental coefficient updates and no precision negotiation; the
    working precision is simply twice the worst-case cancellation (terms peak
    near exp((4/27)|x|^3)) plus slack.  Returns an mpf.
    """
    import mpmath as mp

    x_abs = abs(c2 * c3 ** (-2.0 / 3.0) * mu)
    dps = 60 + int(0.15 * x_abs**3)
    with mp.workdps(dps):
        x = mp.mpf(c2) * mp.mpf(c3) ** (mp.mpf(-2) / 3) * mp.mpf(mu)
        total = mp.mpf(0)
        peak = mp.mpf(0)
        quiet = 0
        for k in range(30000):
            term = x**k / mp.factorial(k) * mp.rgamma((mp.mpf(y) + 1 - 2 * k) / 3)
            total += term
            peak = max(peak, abs(term))
            # Terms this far below the peak are beneath the cancellation noise
            # floor the precision was budgeted for; the tail cannot matter.
            if peak > 0 and abs(term) < peak * mp.mpf(10) ** (20 - dps):
                quiet += 1
                if quiet >= 8:
                    break
            else:
                quiet = 0
        else:
            raise RuntimeError("oracle series did not settle")
        return mp.mpf(c3) ** ((mp.mpf(y) - 2) / 3) / 3 * total


def bigB(cp, y: float, mu: float) -> float:
    """The degree-constrained window series bigB(y, mu) at the constants of
    ``cp``, as a float: one entry of the package's ``_bigB_mp`` column."""
    from degwin.asymptotics import _bigB_mp

    return float(_bigB_mp(cp.c2, cp.c3, y, mu)[0])


def printed_window_form(cp, y: float, mu: float, form: str) -> float:
    """The degree-constrained window function A_Delta(y, mu) in one of the two
    closed forms the source paper prints, built from public functions.

    "scaled" is (t3 zhat)^{1-y} (3 c3)^{(y-2)/3} A(y, xi), the classical window
    function at xi = 2 c2 (3 c3)^{-2/3} mu; "plain" is
    e^{-mu^3/6} (t3 zhat)^{1-y} bigB(y, mu).  The two differ by the factor
    e^{(mu^3 - xi^3)/6}, which does not depend on y.
    """
    from degwin.asymptotics import bigA_classical

    zt = cp.t3 * cp.zhat
    if form == "scaled":
        xi = 2.0 * cp.c2 * (3.0 * cp.c3) ** (-2.0 / 3.0) * mu
        return zt ** (1.0 - y) * (3.0 * cp.c3) ** ((y - 2.0) / 3.0) * bigA_classical(y, xi)
    if form == "plain":
        return math.exp(-(mu**3) / 6.0) * zt ** (1.0 - y) * bigB(cp, y, mu)
    raise ValueError(f"unknown printed form {form!r}")


def oracle_series_sum(x, y, max_terms: int = 20000):
    """The window series S(y) = sum_k x^k / (k! Gamma((y+1-2k)/3)) term by
    term in mpmath, at the caller's working precision.

    The package's mpf loop before its integer kernel, kept as that kernel's
    reference: the same stopping rule (five terms in a row below 1e-16 of
    the running sum) and the same ConvergenceError after max_terms terms.
    Returns (sum, max |term|, index of the last term summed).
    """
    import mpmath as mp

    from degwin.errors import ConvergenceError

    s = mp.mpf(0)
    max_term = mp.mpf(0)
    below = 0
    term_scale = mp.mpf(10) ** (-16)
    coeff = mp.mpf(1)  # x^k / k!, updated incrementally
    rgam = [None, None, None]  # 1/Gamma of the argument, per residue class of k
    for k in range(max_terms):
        a = mp.mpf(y + 1 - 2 * k) / 3
        if k < 3:
            rgam[k] = mp.rgamma(a)
        else:
            rgam[k % 3] *= (a + 1) * a  # 1/Gamma(a) = (a+1) a / Gamma(a+2)
        t = coeff * rgam[k % 3]
        s += t
        at = abs(t)
        if at > max_term:
            max_term = at
        if s != 0 and at < term_scale * abs(s):
            below += 1
            if below >= 5:
                return s, max_term, k
        else:
            below = 0
        coeff = coeff * x / (k + 1)
    raise ConvergenceError(f"oracle series did not converge within {max_terms} terms")


def wright_e(q: int) -> Fraction:
    """Total compensation weight of the cubic multigraphs with excess q, by
    its factorial closed form e_{q,0} = (6q)! / (2^{5q} 3^{2q} (3q)! (2q)!):
    the reference for the exact running ratio the package sums."""
    return Fraction(
        math.factorial(6 * q),
        (2 ** (5 * q)) * (3 ** (2 * q)) * math.factorial(3 * q) * math.factorial(2 * q),
    )


@dataclass(frozen=True)
class LadderFit:
    """Weighted least-squares fit r(n) = r_inf + slope * n^(-1/3)."""

    r_inf: float
    sigma: float
    slope: float
    chi2: float
    weights: tuple[float, ...]


def ladder_fit(ns, counts, trials) -> LadderFit:
    """Extrapolate binomial rates k/T sampled at sizes n to n -> infinity.

    Each rate is weighted by its inverse binomial variance p(1-p)/T, with p
    the Jeffreys rate (k + 1/2)/(T + 1) so that rates of 0 or 1 still carry
    finite weight.  sigma is the standard error of r_inf from those
    variances (the closed-form 2x2 weighted normal equations, not rescaled
    by the residual); chi2 is the weighted residual sum of squares, with
    len(ns) - 2 degrees of freedom.  A rung with no trials carries no
    weight; with fewer than two rungs that have trials the line is not
    determined, and r_inf is NaN with infinite sigma.
    """
    xs, ys, ws = [], [], []
    for n, k, t in zip(ns, counts, trials):
        p = (k + 0.5) / (t + 1.0)
        xs.append(n ** (-1.0 / 3.0))
        ys.append(k / t if t else p)
        ws.append(t / (p * (1.0 - p)))
    if sum(1 for w in ws if w > 0) < 2:
        return LadderFit(math.nan, math.inf, math.nan, math.nan, tuple(ws))
    s = math.fsum(ws)
    sx = math.fsum(w * x for w, x in zip(ws, xs))
    sxx = math.fsum(w * x * x for w, x in zip(ws, xs))
    sy = math.fsum(w * y for w, y in zip(ws, ys))
    sxy = math.fsum(w * x * y for w, x, y in zip(ws, xs, ys))
    det = s * sxx - sx * sx
    r_inf = (sxx * sy - sx * sxy) / det
    slope = (s * sxy - sx * sy) / det
    chi2 = math.fsum(
        w * (y - r_inf - slope * x) ** 2 for w, x, y in zip(ws, xs, ys)
    )
    return LadderFit(
        r_inf=r_inf,
        sigma=math.sqrt(sxx / det),
        slope=slope,
        chi2=chi2,
        weights=tuple(ws),
    )
