"""Invariant suite behind `degwin verify`.

Two kinds of sections:

* gated — checks that must hold for any correct build at finite n: closed-form
  critical constants, exact rational constants, the classical-graph identities,
  saddle-profile argmax positions, DP marginals against exact rational
  recursion, small-graph uniformity, the rejection-rate law, and the
  non-planarity rate among graphs of total excess <= 4 (the range the
  planar-kernel prediction covers).  Any gated failure makes the report fail
  (CLI exit code 3).
* informational — the survival/excess comparison against the n -> infinity
  predictions.  At accessible n the empirical survival probability sits above
  the limit by roughly 0.7 * n^(-1/3) (measured +0.072 / +0.057 / +0.039 at
  n = 1000 / 2000 / 4000, reproduced by an independent classical-graph
  simulation), so a slack-less gate would flag every correct build.  The
  numbers are printed with that context instead.

Each section is a function that returns its ``VerifyCheck``s and takes its
generator, case counts and families as arguments; ``run_verify`` chains them
at its own sizes, and the acceptance tests call the same functions at theirs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

import mpmath as mp

from .asymptotics import (
    bigA_asymptotic,
    bigA_classical,
    planar_c,
    rejection_rate,
    wright_e,
)
from .critical import critical_point, petrov_profile, root1
from .degset import parse_degree_set
from .errors import InfeasibleError, OutOfRangeError
from .harness import (
    CHI2_MIN_P,
    ExperimentConfig,
    PointAggregate,
    chi2_pvalue,
    compare_theory,
    run_experiment,
)
from .sampler import (
    _simple_pairs_or_none,
    build_dp,
    sample_degree_sequence,
    step_distribution,
    trial_generator,
)

# Reference thresholds: the first two are printed truncated to three digits
# in the source (the full-precision constants are 0.3815142... and
# 0.7957960...), so the +/-5e-4 band sits on the truncation midpoint.
THRESHOLD_CASES = (
    ("0,1,4,5", 0.3815, 5e-4),
    ("pow2:64", 0.7955, 5e-4),
    ("all:60", 0.5, 1e-6),
)
CLOSED_FORM_13 = {
    "zhat": math.sqrt(2.0),
    "alpha": 0.75,
    "t3": 1.0 / math.sqrt(2.0),
    "c2": 1.5,
    "c3": 0.5,
}
DP_FAMILIES = ("1,3", "1,2,3", "0,1,4,5")
MC_DEGREES = "1,3,5,7"
MC_N = 600


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    gated: bool
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if c.gated)


def _check(name: str, ok: bool, detail: str) -> VerifyCheck:
    return VerifyCheck(name, True, ok, detail)


def _info(name: str, detail: str) -> VerifyCheck:
    return VerifyCheck(name, False, True, detail)


def thresholds() -> list[VerifyCheck]:
    """alpha of each THRESHOLD_CASES entry inside its band, with solve time."""
    checks = []
    for spec, target, tol in THRESHOLD_CASES:
        ds = parse_degree_set(spec)
        t0 = time.perf_counter()
        cp = critical_point(ds)
        ms = (time.perf_counter() - t0) * 1e3
        err = abs(cp.alpha - target)
        checks.append(_check(
            f"threshold {spec}",
            err <= tol,
            f"alpha = {cp.alpha:.9f}, |err| = {err:.2e} (tol {tol:g}), {ms:.2f} ms",
        ))
    return checks


def closed_forms() -> list[VerifyCheck]:
    """The critical constants of {1,3} against their hand-derived values."""
    cp = critical_point(parse_degree_set("1,3"))
    worst = max(abs(getattr(cp, k) - v) for k, v in CLOSED_FORM_13.items())
    return [_check(
        "closed forms {1,3}",
        worst <= 1e-9,
        f"max |err| over (zhat, alpha, t3, c2, c3) = {worst:.2e} (tol 1e-9)",
    )]


def exact_constants() -> list[VerifyCheck]:
    """Exact rational kernel weights e1, e2 and planar c3 < e3."""
    e1, e2, e3 = wright_e(1), wright_e(2), wright_e(3)
    c3 = planar_c(3)
    return [
        _check(
            "connected-kernel weights",
            e1 == Fraction(5, 24) and e2 == Fraction(385, 1152),
            f"e1 = {e1}, e2 = {e2} (exact rational comparison)",
        ),
        _check(
            "planar-kernel weight",
            c3 == Fraction(83933, 82944) and c3 < e3,
            f"c3 = {c3} < e3 = {e3}",
        ),
    ]


def classical_identities() -> list[VerifyCheck]:
    """Survival, partition of unity and both tails of the classical window."""
    root_2pi = math.sqrt(2.0 * math.pi)
    survival = root_2pi * bigA_classical(0.5, 0.0)
    err = abs(survival - math.sqrt(2.0 / 3.0))
    total = root_2pi * math.fsum(
        float(wright_e(q)) * bigA_classical(3 * q + 0.5, 0.0) for q in range(21)
    )
    left = abs(bigA_classical(0.5, -8.0) / bigA_asymptotic(0.5, -8.0, "minus") - 1.0)
    series = bigA_classical(0.5, 8.0)
    two_term = bigA_asymptotic(0.5, 8.0, "plus")
    with mp.workdps(30):
        lead = mp.e ** (-mp.mpf(8) ** 3 / 6) / (mp.mpf(2) ** 0.25 * mp.mpf(8) ** 0.75)
        one_term = float(lead * mp.rgamma(0.25))
    lo, hi = sorted((one_term, two_term))
    return [
        _check(
            "classical survival value",
            err <= 1e-6,
            f"sqrt(2 pi) A(1/2, 0) = {survival:.9f} vs sqrt(2/3), |err| = {err:.2e} "
            f"(tol 1e-6)",
        ),
        _check(
            "classical partition sum",
            abs(total - 1.0) <= 1e-3,
            f"sqrt(2 pi) sum_(q<=20) e_q A(3q+1/2, 0) = {total:.6f}, "
            f"|err| = {abs(total - 1.0):.2e} (tol 1e-3)",
        ),
        _check(
            "left-tail expansion",
            left <= 10.0 * 8.0**-6,
            f"mu = -8: series vs expansion, rel err {left:.2e} (tol {10.0 * 8.0**-6:.2e})",
        ),
        _check(
            "right-tail bracket",
            lo <= series <= hi,
            f"mu = +8: series {series:.4e} inside [{lo:.4e}, {hi:.4e}]",
        ),
    ]


def saddle_profile(rng: np.random.Generator, cases: int) -> list[VerifyCheck]:
    """Circle-profile argmax at the 2 pi k / p positions on random cases."""
    specs = ("1,3", "1,3,5,7", "0,1,4,5", "1,2,3", "1,2,4", "1,4", "pow2:16", "1,3,8")
    worst = 0.0
    for _ in range(cases):
        ds = parse_degree_set(specs[int(rng.integers(len(specs)))])
        cp = critical_point(ds)
        r = float(rng.uniform(0.55, 0.95))
        z0 = float(rng.uniform(0.3, 1.0)) * min(root1(ds, r), cp.zhat)
        prof = petrov_profile(ds, z0, r)
        worst = max(worst, prof.max_cell_offset)
    return [_check(
        f"saddle-profile argmax ({cases} cases)",
        worst <= 1.0,
        f"max grid offset from 2 pi k / p positions = {worst:g} cells "
        f"(tol 1 cell, 4096 grid)",
    )]


def dp_marginals() -> list[VerifyCheck]:
    """First-draw marginals of the float table against exact rationals, n <= 6."""
    worst = 0.0
    cases = 0
    for spec in DP_FAMILIES:
        ds = parse_degree_set(spec)
        for n in range(2, 7):
            for m in range(1, (n * max(ds.degrees)) // 2 + 1):
                try:
                    dp = build_dp(ds, n, 2 * m)
                except InfeasibleError:
                    continue
                dist = step_distribution(dp, ds, n, 2 * m)
                for d, p in dist.items():
                    worst = max(worst, abs(p - float(_exact_marginal(ds, n, m, d))))
                    cases += 1
    return [_check(
        "DP marginals vs exact rationals (n <= 6)",
        worst <= 1e-12,
        f"max |float DP - Fraction recursion| = {worst:.2e} over {cases} marginals "
        f"(tol 1e-12)",
    )]


@lru_cache(maxsize=None)
def _exact_weight_sum(degrees: tuple[int, ...], i: int, j: int) -> Fraction:
    """Sum of prod 1/d_v! over all length-i sequences in ``degrees`` summing to j."""
    if i == 0:
        return Fraction(1) if j == 0 else Fraction(0)
    total = Fraction(0)
    for d in degrees:
        rest = j - d
        if rest < 0 or rest > (i - 1) * degrees[-1]:
            continue
        total += _exact_weight_sum(degrees, i - 1, rest) / math.factorial(d)
    return total


def _exact_marginal(ds, n: int, m: int, d: int) -> Fraction:
    """P(first drawn degree = d) from the exact-rational suffix recursion."""
    total = Fraction(0)
    marg = Fraction(0)
    degrees = tuple(x for x in ds.degrees if x <= 2 * m)
    for dd in degrees:
        w = _exact_weight_sum(degrees, n - 1, 2 * m - dd) / math.factorial(dd)
        total += w
        if dd == d:
            marg += w
    return marg / total if total else Fraction(0)


def pairing_uniformity(rng: np.random.Generator, accepted: int) -> list[VerifyCheck]:
    """Both simple graphs on the sequence (1,1,2,2) equally likely after rejection.

    (1,1,2,2) admits exactly two simple graphs (the two labellings of the
    4-vertex path with the degree-2 vertices inside); conditioned on
    simplicity each must appear with probability 1/2.
    """
    seq = np.array([1, 1, 2, 2])
    counts = [0, 0]
    while sum(counts) < accepted:
        pairs = _simple_pairs_or_none(seq, rng.permutation(6), 4)
        if pairs is not None:
            u, v = pairs
            counts[0 if np.any((u == 1) & (v == 3)) else 1] += 1
    p = chi2_pvalue(counts)
    return [_check(
        "pairing conditional uniformity",
        p > CHI2_MIN_P,
        f"seq (1,1,2,2): counts {counts[0]}/{counts[1]} over {accepted} "
        f"accepted, chi2 p = {p:.3g}",
    )]


def degree_position_uniformity(seed: int, draws: int) -> list[VerifyCheck]:
    """Each slot of {1,3}, n=4, m=3 equally likely to hold the degree 3."""
    ds = parse_degree_set("1,3")
    dp = build_dp(ds, 4, 6)
    counts = np.zeros(4, dtype=int)
    for t in range(draws):
        seq = sample_degree_sequence(dp, ds, trial_generator(seed, t, point_index=303))
        counts[int(np.argmax(seq))] += 1
    p = chi2_pvalue(counts)
    return [_check(
        "degree-position uniformity",
        p > CHI2_MIN_P,
        f"{{1,3}}, n=4, m=3: degree-3 slot counts {counts.tolist()}, chi2 p = {p:.3g}",
    )]


def rejection_law(agg: PointAggregate) -> list[VerifyCheck]:
    """Mean attempts at one point within 10% of e^(3/4), the phi1 = 1 law."""
    target = 1.0 / rejection_rate(1.0)
    ratio = agg.mean_attempts / target
    return [_check(
        "rejection rate",
        abs(ratio - 1.0) <= 0.10,
        f"mean attempts {agg.mean_attempts:.4f} vs e^(3/4) = {target:.4f} "
        f"(ratio {ratio:.3f}, tol 10%) over {agg.trials} trials at n = {agg.n}",
    )]


def window_point(seed: int, trials: int) -> list[VerifyCheck]:
    """A {1,3,5,7} sweep at mu = 0: rejection law, non-planarity, limit laws."""
    cfg = ExperimentConfig(
        degrees=MC_DEGREES, n=MC_N, mus=(0.0,), trials=trials, seed=seed, jobs=1
    )
    rt = run_experiment(cfg)
    cp = critical_point(parse_degree_set(MC_DEGREES))
    pt = compare_theory(rt, cp).points[0]
    bias = 0.7 * MC_N ** (-1.0 / 3.0)
    return rejection_law(rt.aggregates[0]) + [
        _check(
            "non-planarity rate",
            pt.nonplanar_ok,
            f"P(non-planar | excess <= 4) obs {pt.nonplanar_obs:.4f} vs pred "
            f"{pt.nonplanar_pred:.4f} "
            f"(z = {pt.nonplanar_z:+.2f}, gate 3 sigma + 0.02)",
        ),
        _info(
            "survival vs limit law",
            f"obs {pt.survival_obs:.4f} vs n->inf prediction {pt.survival_pred:.4f} "
            f"(gap {pt.survival_obs - pt.survival_pred:+.4f}; finite-size excess "
            f"~0.7 n^(-1/3) = {bias:.4f} at n = {MC_N} — expected, shrinks with n)",
        ),
        _info(
            "excess histogram vs limit law",
            f"chi2 p = {pt.excess_pvalue:.3g} (dominated by the same finite-size "
            f"survival excess; informational at finite n)",
        ),
    ]


def _sections(seed: int, trials: int, monte_carlo: bool):
    yield thresholds()
    yield closed_forms()
    yield exact_constants()
    yield classical_identities()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    yield saddle_profile(rng, cases=6)
    yield dp_marginals()
    if monte_carlo:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(202,)))
        yield pairing_uniformity(rng, accepted=max(2000, 10 * trials))
        yield degree_position_uniformity(seed, draws=max(4000, 10 * trials))
        yield window_point(seed, trials)


def run_verify(
    seed: int, trials: int, monte_carlo: bool, log: Callable[[str], None]
) -> VerifyReport:
    """Run the suite; returns a report whose .ok reflects the gated checks."""
    if trials < 1:
        raise OutOfRangeError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")
    checks = []
    for section in _sections(seed, trials, monte_carlo):
        for c in section:
            tag = ("ok  " if c.ok else "FAIL") if c.gated else "info"
            log(f"{tag} {c.name}: {c.detail}")
        checks.extend(section)
    report = VerifyReport(tuple(checks))
    log(f"{'PASS' if report.ok else 'FAIL'}: "
        f"{sum(1 for c in report.checks if c.gated and c.ok)}/"
        f"{sum(1 for c in report.checks if c.gated)} gated checks passed")
    return report
