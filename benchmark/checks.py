"""Checks of the program's outputs that do not run the program's own code.

Each check returns a list of problems (empty when the output is right).
Graph statistics are recomputed with networkx and brute force, thresholds
with a bisection written here, and predictions against identities and the
classical limits of Janson, Knuth, Luczak and Pittel (*The birth of the
giant component*, RSA 1993).
"""

from __future__ import annotations

import math

import networkx as nx

# The program's truncation criterion for the excess distribution.
TAIL_LIMIT = 1e-6
# Brute-force path and cycle search is run on complex parts this small.
BRUTE_MAX_VERTICES = 120
BRUTE_MAX_EXCESS = 4
# Published thresholds, truncated to three decimals as printed in the paper.
PAPER_ALPHA_MILLI = {"0,1,4,5": 381, "pow2:64": 795}
EXACT = {"all:60": {"alpha": 0.5}, "1,3": {"alpha": 0.75, "zhat": math.sqrt(2.0)}}
JKLP_SURVIVAL = math.sqrt(2.0 / 3.0)
JKLP_RATIO = 5.0 / 36.0


# ---------------------------------------------------------------- graphs


def _brute_lengths(g: nx.Graph, verts) -> tuple[int, int]:
    """Longest simple path and longest simple cycle, in edges, by DFS over
    every simple path from every start vertex."""
    best_path = best_cycle = 0
    for s in verts:
        on_path = {s}
        stack = [(s, iter(g[s]), 0)]
        while stack:
            v, it, depth = stack[-1]
            if depth > best_path:
                best_path = depth
            for w in it:
                if w == s and depth >= 2:
                    best_cycle = max(best_cycle, depth + 1)
                elif w not in on_path:
                    on_path.add(w)
                    stack.append((w, iter(g[w]), depth + 1))
                    break
            else:
                stack.pop()
                on_path.discard(v)
    return best_path, best_cycle


def check_trial(row, edges, n: int, m: int, degrees, length_guard: int) -> list[str]:
    """Recompute one trial's row from its graph.

    ``row`` has the CSV fields of one trial; ``edges`` is the regenerated
    graph's edge list; ``length_guard`` is the kernel excess above which the
    program reports the -1 length sentinel.
    """
    problems = []
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    if any(u == v for u, v in edges) or g.number_of_edges() != len(edges):
        problems.append("graph is not simple")
    if len(edges) != m or g.number_of_nodes() != n:
        problems.append(f"graph has {g.number_of_nodes()} vertices and {len(edges)} edges, "
                        f"expected {n} and {m}")
    allowed = set(degrees)
    bad = sorted({d for _, d in g.degree() if d not in allowed})
    if bad:
        problems.append(f"degrees {bad} outside the degree set")
    comps = [(c, g.subgraph(c).number_of_edges() - len(c)) for c in nx.connected_components(g)]
    complex_comps = [(c, q) for c, q in comps if q >= 1]
    complex_size = sum(len(c) for c, _ in complex_comps)
    expected = {
        "largest_component": max(len(c) for c, _ in comps),
        "largest_excess": max(q for _, q in comps),
        "total_excess": sum(q for _, q in complex_comps),
        "complex_size": complex_size,
        "complex_diameter": max((nx.diameter(g.subgraph(c)) for c, _ in complex_comps), default=-1),
        "planar": nx.check_planarity(g)[0],
    }
    refused = any(q > length_guard for _, q in complex_comps)
    if not complex_comps or refused:
        expected["complex_longest_path"] = expected["complex_circumference"] = -1
    elif complex_size <= BRUTE_MAX_VERTICES and expected["total_excess"] <= BRUTE_MAX_EXCESS:
        lp, circ = _brute_lengths(g, sorted(v for c, _ in complex_comps for v in c))
        expected["complex_longest_path"] = lp
        expected["complex_circumference"] = circ
    else:
        lp, circ = row.complex_longest_path, row.complex_circumference
        if not (expected["complex_diameter"] <= lp < complex_size and 3 <= circ <= lp + 1):
            problems.append(f"lengths {lp}, {circ} impossible for a complex part of "
                            f"{complex_size} vertices (-1 needs excess > {length_guard})")
    for name, value in expected.items():
        got = getattr(row, name)
        if got != value:
            problems.append(f"{name} = {got}, recomputed {value}")
    return problems


# ------------------------------------------------------------ thresholds


def _egf(degrees, z: float, order: int) -> float:
    return math.fsum(
        math.exp((d - order) * math.log(z) - math.lgamma(d - order + 1))
        for d in degrees
        if d >= order
    )


def own_threshold(degrees) -> tuple[float, float]:
    """(zhat, alpha) by bisection on phi1(z) = z w''(z) / w'(z) = 1."""
    def phi1(z):
        return z * _egf(degrees, z, 2) / _egf(degrees, z, 1)

    lo, hi = 1e-3, 1.0
    while phi1(hi) < 1.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if phi1(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    return z, 0.5 * z * _egf(degrees, z, 1) / _egf(degrees, z, 0)


def check_threshold(family: str, degrees, cp) -> list[str]:
    """``cp`` against the bisection here and the published values."""
    problems = []
    zhat, alpha = own_threshold(degrees)
    if abs(cp.zhat - zhat) > 1e-9 * zhat:
        problems.append(f"{family}: zhat {cp.zhat!r}, bisection gives {zhat!r}")
    if abs(cp.alpha - alpha) > 1e-9 * alpha:
        problems.append(f"{family}: alpha {cp.alpha!r}, bisection gives {alpha!r}")
    if family in PAPER_ALPHA_MILLI and math.floor(1000 * cp.alpha) != PAPER_ALPHA_MILLI[family]:
        problems.append(f"{family}: alpha {cp.alpha!r} is not the published "
                        f"0.{PAPER_ALPHA_MILLI[family]}")
    for name, value in EXACT.get(family, {}).items():
        if abs(getattr(cp, name) - value) > 1e-12:
            problems.append(f"{family}: {name} {getattr(cp, name)!r}, exact value {value!r}")
    return problems


# ----------------------------------------------------------- predictions


def truncated(pred) -> bool:
    """The program's own criterion: the weight at q_max is at most 1e-6."""
    return not pred.excess_dist[pred.q_max] <= TAIL_LIMIT


def check_prediction(family: str, pred, plain=None) -> list[str]:
    """Identities of one ``predict`` result.

    ``plain`` is the ``plain``-variant prediction at the same point, given at
    mu = 0, where the two printed forms of the window function coincide.
    """
    problems = []
    where = f"{family} mu={pred.mu:+g}"
    dist = pred.excess_dist
    if len(dist) != pred.q_max + 1 or any(not 0.0 <= p <= 1.0 for p in dist):
        problems.append(f"{where}: excess distribution is not q_max + 1 probabilities")
    if abs(math.fsum(dist) - 1.0) > 1e-9:
        problems.append(f"{where}: excess distribution sums to {math.fsum(dist)!r}")
    if pred.survival != dist[0]:
        problems.append(f"{where}: survival {pred.survival!r} != P(q=0) {dist[0]!r}")
    if not 0.0 <= pred.planarity <= math.fsum(dist[:5]) * (1 + 1e-12):
        problems.append(f"{where}: planarity {pred.planarity!r} exceeds P(q <= 4)")
    if plain is not None:
        pairs = [("survival", pred.survival, plain.survival),
                 ("planarity", pred.planarity, plain.planarity)]
        pairs += [(f"P({q})", a, b) for q, (a, b) in enumerate(zip(dist, plain.excess_dist))]
        for name, a, b in pairs:
            if abs(a - b) > 1e-9 * max(abs(a), 1e-300):
                problems.append(f"{where}: {name} scaled {a!r} != plain {b!r}")
    if family == "all:60" and pred.mu == 0.0:
        if abs(pred.survival - JKLP_SURVIVAL) > TAIL_LIMIT:
            problems.append(f"{where}: survival {pred.survival!r}, JKLP limit sqrt(2/3)")
        if abs(dist[1] / dist[0] - JKLP_RATIO) > 1e-9 * JKLP_RATIO:
            problems.append(f"{where}: P(1)/P(0) {dist[1] / dist[0]!r}, JKLP limit 5/36")
    return problems


def check_twopath(family: str, mu: float, two) -> list[str]:
    values = (two.b1, two.b2, two.b2_squared, two.second_moment)
    ok = all(math.isfinite(v) for v in values) and two.b1 > 0 and two.b2 >= 0
    if ok and abs(two.b2 ** 2 - two.b2_squared) <= 1e-9 * max(two.b2_squared, 1e-300):
        return []
    return [f"{family} mu={mu:+g}: inconsistent 2-path constants {two}"]
