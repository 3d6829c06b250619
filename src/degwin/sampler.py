"""Random graph generation with constrained degrees at a given edge count.

A degree sequence (d_1, ..., d_n) with all d_v in D and sum 2m is drawn with
probability proportional to prod_v 1/d_v!, coordinate by coordinate, from the
precomputed weight table S[i][j] = sum of those products over length-i prefix
sequences with sum j.  The table is kept in log space and built row by row,
one log-sum-exp over the degrees per cell, so each cell is rounded once; the
step log-ratios the walk reads are within a few 1e-12 of a long-double build
(``build_dp``).  It stores only the cells the walk can reach, in reduced
coordinates: with p the degree period, row i holds j = i*min(D) + p*c for
c = 0 ... (2m - n*min(D))/p, and a degree d moves c by (d - min(D))/p
(``DPTable``).  A uniform random pairing of the half-edge stubs then
produces a multigraph, and pairings are rejected until the result is simple.
Each simple graph with a given degree sequence arises from exactly
prod_v d_v! pairings, so the two factors cancel and accepted graphs are
(asymptotically, over sequences) uniform in the family.

Reproducibility contract: trial t of experiment point k draws from
``trial_generator(seed, t, k)``, and every attempt consumes exactly one
``random(n)`` block followed by one ``permutation(2m)`` block from that
generator.  The trial's graph is its first simple attempt in stream order.
The batch driver may draw attempts ahead of that one; the unused ones are
discarded, and the generator is left exactly after the accepted attempt, as
if the trial had stopped there.  Each trial's private stream is identical
however the trials are batched, so batched and one-at-a-time runs produce
bit-identical graphs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .critical import critical_point
from .degset import DegreeSet, periodicity
from .errors import InfeasibleError, MaxAttemptsError, OutOfRangeError
from .graph import Graph

NEG_INF = float("-inf")
_FLOOR = float(np.finfo(np.float64).min)
DEFAULT_MAX_ATTEMPTS = 10_000
# Rows walked per round of ``sample_batch``, shared among the active trials.
# A round's fixed cost (the n-step loop) is that of roughly 100-200 rows, so
# drawing a few attempts ahead per trial is cheaper than a round per attempt.
_ROUND_ROWS = 64


@dataclass(frozen=True)
class DPTable:
    """Log-space prefix-weight table in reduced coordinates.

    S[i][j] sums prod 1/d_v! over length-i sequences in D with sum j; zero
    weight is the sentinel -inf.  Row i of ``logw`` holds S[i][j] for
    j = i*low + period*c at column pad + c, c = 0 ... C with
    C = (two_m - n*low)/period: every other j of the row either has the
    wrong residue modulo the degree period (zero weight) or lies above
    two_m - (n-i)*low, which no walk from (n, two_m) reaches.  The pad
    columns left of c = 0 are -inf, one per unit of the largest step
    (max(D) - low)/period, so a step below c = 0 reads the zero sentinel.
    Read single cells through ``log_weight``.  Immutable and shared
    read-only across trials.
    """

    n: int
    two_m: int
    logw: np.ndarray
    low: int
    period: int

    @property
    def pad(self) -> int:
        """Columns of -inf left of c = 0 in every row."""
        return self.logw.shape[1] - 1 - (self.two_m - self.n * self.low) // self.period

    def log_weight(self, i: int, j: int) -> float:
        """log S[i][j]; -inf for a j of the wrong residue or below i*low.

        Raises OutOfRangeError for a row outside 0 ... n, and for j above
        two_m - (n-i)*low, a state no walk from (n, two_m) reaches and the
        table does not store.
        """
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"row i={i} outside the table (n={self.n})")
        if j > self.two_m - (self.n - i) * self.low:
            raise OutOfRangeError(
                f"state (i={i}, j={j}) is unreachable from "
                f"(n={self.n}, 2m={self.two_m})"
            )
        c, r = divmod(j - i * self.low, self.period)
        if r or c < 0:
            return NEG_INF
        return float(self.logw[i, self.pad + c])

    @property
    def feasible(self) -> bool:
        return bool(np.isfinite(self.log_weight(self.n, self.two_m)))


def build_dp(ds: DegreeSet, n: int, two_m: int) -> DPTable:
    """Fill the reachable band of the weight table in log space.

    Row i is S[i][j] = sum_d S[i-1][j-d] / d!, taken as one log-sum-exp per
    cell over the degrees: the terms log S[i-1][j-d] - log d! of every cell
    of the row are laid out degree by degree, shifted by their largest
    value, exponentiated, summed and logged, so each cell is rounded once.
    Against a long-double build of the same recurrence the step log-ratios
    log S[i-1][j-d] - log S[i][j] that the walk reads are off by at most
    3e-12 for ``all:60`` at n = 2048, 2m = 2048.

    In the reduced coordinates of ``DPTable`` the recurrence has unit
    stride, S'[i][c] = sum_d S'[i-1][c - (d - min(D))/p] / d!, and only
    c <= min(i*(max(D) - min(D))/p, C) can be finite, so only those cells
    are computed.  The table is (n+1) x (pad + C + 1) floats: for
    ``1,3,5,7`` at n = 1000 (p = 2) 0.6-2.9 MB over mu = -2 ... +2 instead
    of 9.3-13.9 MB for the full (n+1) x (2m+1) table; a set with
    min(D) = 0 and p = 1 such as ``all:60`` keeps the full width.

    Raises InfeasibleError when no sequence over ``ds`` of length n sums to
    ``two_m`` (the corner weight is the zero sentinel), e.g. on parity
    grounds, and OutOfRangeError when the table cannot be allocated.
    """
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    if two_m < 0:
        raise OutOfRangeError(f"two_m must be >= 0, got {two_m}")
    if two_m > n * ds.max_degree:
        raise InfeasibleError(
            f"two_m = {two_m} exceeds n*max(D) = {n * ds.max_degree}"
        )
    low = ds.min_degree
    if two_m < n * low:
        raise InfeasibleError(f"two_m = {two_m} is below n*min(D) = {n * low}")
    p = periodicity(ds)
    cmax, residue = divmod(two_m - n * low, p)
    if residue:
        raise InfeasibleError(
            f"no degree sequence over {ds} of length {n} sums to {two_m}"
        )
    degs, logfact = _degree_arrays(ds, two_m)
    steps = ((degs - low) // p).tolist()
    pad = steps[-1]
    shape = (n + 1, pad + cmax + 1)
    try:
        logw = np.full(shape, NEG_INF)
    except MemoryError:
        gib = shape[0] * shape[1] * 8 / 2**30
        raise OutOfRangeError(
            f"the weight table of shape {shape} ({gib:.3g} GiB) cannot be allocated"
        ) from None
    logw[0, pad] = 0.0
    shifts = [(pad - s, lf) for s, lf in zip(steps, logfact.tolist())]
    terms = np.empty(len(shifts) * (cmax + 1))
    peak = np.empty(cmax + 1)
    with np.errstate(divide="ignore"):
        for i in range(1, n + 1):
            cols = min(i * pad, cmax) + 1
            y = terms[: len(shifts) * cols].reshape(len(shifts), cols)
            prev = logw[i - 1]
            for k, (s, lf) in enumerate(shifts):
                np.subtract(prev[s : s + cols], lf, out=y[k])
            # A finite floor instead of -inf for cells with no finite term:
            # there y - mx stays -inf and the cell comes out log(0) = -inf.
            mx = np.max(y, axis=0, out=peak[:cols], initial=_FLOOR)
            y -= mx
            np.exp(y, out=y)
            row = logw[i, pad : pad + cols]
            np.sum(y, axis=0, out=row)
            np.log(row, out=row)
            row += mx
    dp = DPTable(n=n, two_m=two_m, logw=logw, low=low, period=p)
    if not dp.feasible:
        raise InfeasibleError(
            f"no degree sequence over {ds} of length {n} sums to {two_m}"
        )
    return dp


def _degree_arrays(ds: DegreeSet, two_m: int):
    from scipy.special import gammaln

    degs = np.array([d for d in ds.degrees if d <= two_m], dtype=np.int64)
    return degs, gammaln(degs + 1.0)


def _walk_batch(
    dp: DPTable, degs: np.ndarray, logfact: np.ndarray, u_block: np.ndarray
) -> np.ndarray:
    """Draw one degree sequence per row of uniforms, all rows in lockstep.

    Row t consumes u_block[t, 0], u_block[t, 1], ... for coordinates
    d_n, d_{n-1}, ..., d_1, exactly as the scalar recursion would; its
    sequence does not depend on which other rows share the block.  Each
    row carries its column in ``dp.logw`` (the reduced coordinate c plus
    the pad), which starts at the corner (n, 2m), the last column.
    """
    t_count, n = u_block.shape
    logw = dp.logw
    steps = (degs - dp.low) // dp.period
    col = np.full(t_count, logw.shape[1] - 1, dtype=np.int64)
    seq = np.empty((t_count, n), dtype=np.int64)
    top = len(degs) - 1
    for i in range(n, 0, -1):
        lw = logw[i - 1][col[:, None] - steps]
        # In place, but the same operations in the same order as
        # exp((log S[i-1][j-d] - log d!) - log S[i][j]) followed by a
        # running sum, so the draws are bit-for-bit those of the recursion.
        lw -= logfact
        lw -= logw[i, col][:, None]
        cum = np.cumsum(np.exp(lw, out=lw), axis=1, out=lw)
        total = cum[:, -1]
        if not total.min() > 0:
            raise RuntimeError(
                "no admissible degree at an interior step; weight table corrupt"
            )
        k = (cum <= (u_block[:, n - i] * total)[:, None]).sum(axis=1)
        np.minimum(k, top, out=k)
        seq[:, i - 1] = degs[k]
        col -= steps[k]
    if np.any(col != dp.pad):
        raise RuntimeError("sequence walk failed to consume the stub budget")
    return seq


def step_distribution(dp: DPTable, ds: DegreeSet, i: int, j: int) -> dict[int, float]:
    """Conditional law of coordinate i given remaining stub budget j.

    This is exactly the distribution the sequence walk samples from at that
    step (log-space, renormalized to sum 1 to absorb roundoff).
    """
    if not (1 <= i <= dp.n and 0 <= j <= dp.two_m):
        raise OutOfRangeError(f"step (i={i}, j={j}) outside the table")
    here = dp.log_weight(i, j)
    if not np.isfinite(here):
        raise InfeasibleError(f"state (i={i}, j={j}) has zero weight")
    degs, logfact = _degree_arrays(ds, dp.two_m)
    lw = np.array([dp.log_weight(i - 1, j - d) for d in degs.tolist()]) - logfact
    weights = np.exp(lw - here)
    weights /= weights.sum()
    return {int(d): float(p) for d, p in zip(degs, weights)}


def sample_degree_sequence(
    dp: DPTable, ds: DegreeSet, rng: np.random.Generator
) -> np.ndarray:
    """One degree sequence; consumes a single ``rng.random(n)`` block."""
    degs, logfact = _degree_arrays(ds, dp.two_m)
    return _walk_batch(dp, degs, logfact, rng.random(dp.n)[None, :])[0]


def _stub_pairs(seq: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    stubs = np.repeat(np.arange(1, len(seq) + 1, dtype=np.int64), seq)
    pairs = stubs[perm].reshape(-1, 2)
    return np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])


def _simple_pairs_or_none(seq: np.ndarray, perm: np.ndarray, n: int):
    """Endpoint arrays (u < v) of the pairing, or None on a loop or double edge."""
    u, v = _stub_pairs(seq, perm)
    if np.any(u == v):
        return None
    key = u * np.int64(n + 1) + v
    if np.unique(key).size != key.size:
        return None
    return u, v


def sample_batch(
    ds: DegreeSet,
    dp: DPTable,
    rngs: list[np.random.Generator],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[list[Graph], list[int]]:
    """Rejection-sample one simple graph per generator, trials in rounds.

    Both the degree sequence and the pairing are redrawn on every attempt.
    Each round, every trial still without a graph draws one or more attempts
    ahead (about ``_ROUND_ROWS`` rows in all, never beyond ``max_attempts``),
    and all of them are walked together.  A trial takes its first simple
    attempt; the attempts it drew after that one are discarded and its
    generator is reset to the state right after the accepted attempt, so the
    graphs, the counts and the generators match drawing one attempt at a
    time.  Returns the graphs and per-trial attempt counts; raises
    MaxAttemptsError if any trial exhausts its budget.
    """
    n, two_m = dp.n, dp.two_m
    if not dp.feasible:
        raise InfeasibleError(f"infeasible table (n={n}, two_m={two_m})")
    degs, logfact = _degree_arrays(ds, two_m)
    graphs: list[Graph | None] = [None] * len(rngs)
    attempts = [0] * len(rngs)
    active = list(range(len(rngs))) if max_attempts > 0 else []
    u_block = np.empty((max(_ROUND_ROWS, len(active)), n))
    while active:
        ahead = max(1, _ROUND_ROWS // len(active))
        draws = [min(ahead, max_attempts - attempts[t]) for t in active]
        perms, states = [], []
        row = 0
        for t, k in zip(active, draws):
            rng = rngs[t]
            for _ in range(k):
                rng.random(out=u_block[row])
                perms.append(rng.permutation(two_m))
                states.append(rng.bit_generator.state)
                row += 1
        seqs = _walk_batch(dp, degs, logfact, u_block[:row])
        remaining = []
        row = 0
        for t, k in zip(active, draws):
            for j in range(row, row + k):
                pairs = _simple_pairs_or_none(seqs[j], perms[j], n)
                if pairs is not None:
                    graphs[t] = Graph.from_simple_arrays(n, *pairs)
                    attempts[t] += j - row + 1
                    rngs[t].bit_generator.state = states[j]
                    break
            else:
                attempts[t] += k
                if attempts[t] < max_attempts:
                    remaining.append(t)
            row += k
        active = remaining
    failed = sum(g is None for g in graphs)
    if failed:
        raise MaxAttemptsError(
            f"{failed} of {len(rngs)} trials found no simple graph in "
            f"{max_attempts} attempts (n={n}, m={two_m // 2}, degrees={ds})"
        )
    return graphs, attempts


def sample_simple_graph(
    ds: DegreeSet,
    n: int,
    m: int,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    dp: DPTable | None = None,
) -> tuple[Graph, int]:
    """First simple graph from the rejection loop, with its attempt count."""
    if dp is None:
        dp = build_dp(ds, n, 2 * m)
    elif (dp.n, dp.two_m) != (n, 2 * m):
        raise ValueError(
            f"table is for (n={dp.n}, two_m={dp.two_m}), not (n={n}, m={m})"
        )
    graphs, counts = sample_batch(ds, dp, [rng], max_attempts=max_attempts)
    return graphs[0], counts[0]


def trial_generator(
    seed: int, trial_index: int, point_index: int = 0
) -> np.random.Generator:
    """Trial-local generator, deterministic in (seed, point, trial).

    Streams for distinct (point, trial) pairs are statistically independent,
    so trials can run in any order or thread layout without changing results.
    """
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(point_index, trial_index))
    )


def edges_for_mu(ds: DegreeSet, n: int, mu: float) -> tuple[int, float]:
    """Edge count hitting the critical window at location ``mu``.

    A window point uses an admissible m: n*min(D) < 2m < n*max(D), and the
    degree period p divides 2m - n*min(D).  The target is
    round(alpha * n * (1 + mu * n^(-1/3))); if it is not admissible, the
    admissible m nearest it is used (ties toward larger m) with a warning.
    Returns (m, realized_mu) where realized_mu is recomputed from the
    returned m.
    """
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    if not math.isfinite(mu):
        raise OutOfRangeError(f"mu must be finite, got {mu}")
    cp = critical_point(ds)
    scale = float(n) ** (1.0 / 3.0)
    base = round(cp.alpha * n * (1.0 + mu / scale))
    low, p = ds.min_degree, periodicity(ds)
    lo = n * low // 2 + 1
    hi = (n * ds.max_degree - 1) // 2
    start = min(max(base, lo), hi)  # nearest the target within [lo, hi]
    for delta in range(hi - lo + 1):
        for m in ((start,) if delta == 0 else (start + delta, start - delta)):
            if lo <= m <= hi and (2 * m - n * low) % p == 0:
                if m != base:
                    warnings.warn(
                        f"edge target m={base} is not admissible for {ds}, "
                        f"n={n}; using m={m}",
                        stacklevel=2,
                    )
                return m, (m / (cp.alpha * n) - 1.0) * scale
    raise InfeasibleError(f"no admissible edge count for {ds} with n={n}")
