"""Invariant suite behind `degwin verify`.

Two kinds of sections:

* gated — checks that must hold for any correct build at finite n: closed-form
  critical constants, exact rational constants, the classical-graph identities,
  variant agreement at mu = 0, saddle-profile argmax positions, DP marginals
  against exact rational recursion, small-graph uniformity, the rejection-rate
  law, and the non-planarity rate among graphs of total excess <= 4 (the
  range the planar-kernel prediction covers).  Any gated failure makes the
  report fail (CLI exit code 3).
* informational — the survival/excess comparison against the n -> infinity
  predictions.  At accessible n the empirical survival probability sits above
  the limit by roughly 0.7 * n^(-1/3) (measured +0.072 / +0.057 / +0.039 at
  n = 1000 / 2000 / 4000, reproduced by an independent classical-graph
  simulation), so a slack-less gate would flag every correct build.  The
  numbers are printed with that context instead.

The variant discrepancy report (the two printed window-function forms at
mu = +/-1 for {1,3}) is emitted here as well: the forms agree at mu = 0 and
demonstrably differ off-centre, which is documented rather than silently
resolved.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import mpmath as mp

from .asymptotics import (
    VARIANTS,
    bigA_asymptotic,
    bigA_classical,
    bigA_delta,
    expected_attempts,
    planar_c,
    predict,
    wright_e,
)
from .critical import critical_point, petrov_profile, root1
from .degset import parse_degree_set
from .errors import InfeasibleError
from .harness import ExperimentConfig, compare_theory, run_experiment
from .sampler import (
    _exact_weight_sum,
    _simple_edges_or_none,
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
CHI2_MIN_P = 1e-3


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


class _Recorder:
    def __init__(self, log: Callable[[str], None]):
        self._log = log
        self.checks: list[VerifyCheck] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(VerifyCheck(name, True, ok, detail))
        self._log(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    def info(self, name: str, detail: str) -> None:
        self.checks.append(VerifyCheck(name, False, True, detail))
        self._log(f"info {name}: {detail}")


def _thresholds(rec: _Recorder) -> None:
    for spec, target, tol in THRESHOLD_CASES:
        ds = parse_degree_set(spec)
        t0 = time.perf_counter()
        cp = critical_point(ds)
        ms = (time.perf_counter() - t0) * 1e3
        err = abs(cp.alpha - target)
        rec.check(
            f"threshold {spec}",
            err <= tol,
            f"alpha = {cp.alpha:.9f}, |err| = {err:.2e} (tol {tol:g}), {ms:.2f} ms",
        )
    cp = critical_point(parse_degree_set("1,3"))
    worst = max(abs(getattr(cp, k) - v) for k, v in CLOSED_FORM_13.items())
    rec.check(
        "closed forms {1,3}",
        worst <= 1e-9,
        f"max |err| over (zhat, alpha, t3, c2, c3) = {worst:.2e} (tol 1e-9)",
    )


def _exact_constants(rec: _Recorder) -> None:
    e1, e2, e3 = wright_e(1), wright_e(2), wright_e(3)
    c3 = planar_c(3)
    rec.check(
        "connected-kernel weights",
        e1 == Fraction(5, 24) and e2 == Fraction(385, 1152),
        f"e1 = {e1}, e2 = {e2} (exact rational comparison)",
    )
    rec.check(
        "planar-kernel weight",
        c3 == Fraction(83933, 82944) and c3 < e3,
        f"c3 = {c3} < e3 = {e3}",
    )


def _classical_identities(rec: _Recorder) -> None:
    root_2pi = math.sqrt(2.0 * math.pi)
    survival = root_2pi * bigA_classical(0.5, 0.0)
    err = abs(survival - math.sqrt(2.0 / 3.0))
    rec.check(
        "classical survival value",
        err <= 1e-6,
        f"sqrt(2 pi) A(1/2, 0) = {survival:.9f} vs sqrt(2/3), |err| = {err:.2e}",
    )
    total = root_2pi * math.fsum(
        float(wright_e(q)) * bigA_classical(3 * q + 0.5, 0.0) for q in range(21)
    )
    rec.check(
        "classical partition sum",
        abs(total - 1.0) <= 1e-3,
        f"sqrt(2 pi) sum_(q<=20) e_q A(3q+1/2, 0) = {total:.6f}, |err| = {abs(total - 1.0):.2e}",
    )
    series = bigA_classical(0.5, -8.0)
    asym = bigA_asymptotic(0.5, -8.0, "minus")
    rel = abs(series / asym - 1.0)
    rec.check(
        "left-tail expansion",
        rel <= 10.0 * 8.0**-6,
        f"mu = -8: series vs expansion, rel err {rel:.2e} (tol {10.0 * 8.0**-6:.2e})",
    )
    series = bigA_classical(0.5, 8.0)
    two_term = bigA_asymptotic(0.5, 8.0, "plus")
    with mp.workdps(30):
        lead = mp.e ** (-mp.mpf(8) ** 3 / 6) / (mp.mpf(2) ** 0.25 * mp.mpf(8) ** 0.75)
        one_term = float(lead * mp.rgamma(0.25))
    lo, hi = sorted((one_term, two_term))
    rec.check(
        "right-tail bracket",
        lo <= series <= hi,
        f"mu = +8: series {series:.4e} inside [{lo:.4e}, {hi:.4e}]",
    )


def _variant_agreement(rec: _Recorder) -> None:
    for spec in DP_FAMILIES + (MC_DEGREES,):
        cp = critical_point(parse_degree_set(spec))
        raw = max(
            abs(bigA_delta(cp, y, 0.0, "scaled") / bigA_delta(cp, y, 0.0, "plain") - 1.0)
            for y in (0.5, 3.5, 6.5, 12.5)
        )
        preds = {v: predict(cp, 0.0, v) for v in VARIANTS}
        norm = max(
            abs(a - b)
            for a, b in zip(
                preds["scaled"].excess_dist + (preds["scaled"].planarity,),
                preds["plain"].excess_dist + (preds["plain"].planarity,),
            )
        )
        rec.check(
            f"variant agreement at mu=0 ({{{spec}}})",
            raw <= 1e-12 and norm <= 1e-12,
            f"raw forms rel diff {raw:.2e}; normalised P(q)/planarity diff {norm:.2e}",
        )
    # Discrepancy report: off-centre the two printed window-function forms
    # disagree by a mu-dependent factor.
    cp = critical_point(parse_degree_set("1,3"))
    rec.info(
        "variant discrepancy",
        "the two printed window-function forms for {1,3} at mu = +/-1:",
    )
    for mu in (-1.0, 1.0):
        ratios = [
            bigA_delta(cp, y, mu, "scaled") / bigA_delta(cp, y, mu, "plain")
            for y in (0.5, 3.5, 6.5)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            s_s = predict(cp, mu, "scaled", q_max=30).survival
            s_p = predict(cp, mu, "plain", q_max=30).survival
        spread = max(ratios) / min(ratios) - 1.0
        rec.info(
            f"variant discrepancy mu={mu:+g}",
            f"scaled/plain ratio = {ratios[0]:.6f} at y = 1/2, 7/2, 13/2 "
            f"(y-spread {spread:.1e}): the forms differ by a mu-dependent "
            f"constant factor; normalised survival {s_s:.6f} vs {s_p:.6f} "
            f"(delta {s_s - s_p:+.2e}) — the factor cancels in every "
            f"normalised ratio; documented, not resolved",
        )


def _petrov(rec: _Recorder, seed: int, cases: int) -> None:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    specs = ("1,3", "1,3,5,7", "0,1,4,5", "1,2,3", "1,2,4", "1,4", "pow2:16", "1,3,8")
    worst = 0.0
    for i in range(cases):
        ds = parse_degree_set(specs[int(rng.integers(len(specs)))])
        cp = critical_point(ds)
        r = float(rng.uniform(0.55, 0.95))
        z0 = float(rng.uniform(0.3, 1.0)) * min(root1(ds, r), cp.zhat)
        prof = petrov_profile(ds, z0, r)
        worst = max(worst, prof.max_cell_offset)
    rec.check(
        f"saddle-profile argmax ({cases} cases)",
        worst <= 1.0,
        f"max grid offset from 2 pi k / p positions = {worst:g} cells (4096 grid)",
    )


def _dp_marginals(rec: _Recorder) -> None:
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
    rec.check(
        "DP marginals vs exact rationals (n <= 6)",
        worst <= 1e-12,
        f"max |float DP - Fraction recursion| = {worst:.2e} over {cases} marginals",
    )


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


def _pairing_uniformity(rec: _Recorder, seed: int, accepted_target: int) -> None:
    # (1,1,2,2) admits exactly two simple graphs (the two labellings of the
    # 4-vertex path with the degree-2 vertices inside); conditioned on
    # simplicity each must appear with probability 1/2.
    seq = np.array([1, 1, 2, 2])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(202,)))
    counts = {0: 0, 1: 0}
    accepted = 0
    while accepted < accepted_target:
        perm = rng.permutation(6)
        edges = _simple_edges_or_none(seq, perm, 4)
        if edges is None:
            continue
        key = 0 if (1, 3) in edges else 1
        counts[key] += 1
        accepted += 1
    from scipy.stats import chisquare  # here: most of a second of import time

    chi2, p = chisquare([counts[0], counts[1]])
    rec.check(
        "pairing conditional uniformity",
        p > CHI2_MIN_P,
        f"seq (1,1,2,2): counts {counts[0]}/{counts[1]} over {accepted_target} "
        f"accepted, chi2 p = {p:.3g}",
    )


def _degree_position_uniformity(rec: _Recorder, seed: int, draws: int) -> None:
    ds = parse_degree_set("1,3")
    dp = build_dp(ds, 4, 6)
    counts = np.zeros(4, dtype=int)
    for t in range(draws):
        seq = sample_degree_sequence(dp, ds, trial_generator(seed, t, point_index=303))
        counts[int(np.argmax(seq))] += 1
    from scipy.stats import chisquare  # here: most of a second of import time

    chi2, p = chisquare(counts)
    rec.check(
        "degree-position uniformity",
        p > CHI2_MIN_P,
        f"{{1,3}}, n=4, m=3: degree-3 slot counts {counts.tolist()}, chi2 p = {p:.3g}",
    )


def _monte_carlo(rec: _Recorder, seed: int, trials: int) -> None:
    cfg = ExperimentConfig(
        degrees=MC_DEGREES, n=MC_N, mus=(0.0,), trials=trials, seed=seed, jobs=1
    )
    rt = run_experiment(cfg)
    cp = critical_point(parse_degree_set(MC_DEGREES))
    report = compare_theory(rt, cp)
    pt = report.points[0]
    agg = rt.aggregates[0]
    target = expected_attempts(1.0)
    ratio = agg.mean_attempts / target
    rec.check(
        "rejection rate",
        abs(ratio - 1.0) <= 0.10,
        f"mean attempts {agg.mean_attempts:.4f} vs e^(3/4) = {target:.4f} "
        f"(ratio {ratio:.3f}, tol 10%) over {trials} trials at n = {MC_N}",
    )
    rec.check(
        "non-planarity rate",
        pt.nonplanar_ok,
        f"P(non-planar | excess <= 4) obs {pt.nonplanar_obs:.4f} vs pred "
        f"{pt.nonplanar_pred:.4f} "
        f"(z = {pt.nonplanar_z:+.2f}, gate 3 sigma + 0.02)",
    )
    bias = 0.7 * MC_N ** (-1.0 / 3.0)
    rec.info(
        "survival vs limit law",
        f"obs {pt.survival_obs:.4f} vs n->inf prediction {pt.survival_pred:.4f} "
        f"(gap {pt.survival_obs - pt.survival_pred:+.4f}; finite-size excess "
        f"~0.7 n^(-1/3) = {bias:.4f} at n = {MC_N} — expected, shrinks with n)",
    )
    rec.info(
        "excess histogram vs limit law",
        f"chi2 p = {pt.excess_pvalue:.3g} (dominated by the same finite-size "
        f"survival excess; informational at finite n)",
    )


def run_verify(
    seed: int = 0,
    trials: int = 400,
    monte_carlo: bool = True,
    log: Callable[[str], None] = print,
) -> VerifyReport:
    """Run the suite; returns a report whose .ok reflects the gated checks."""
    rec = _Recorder(log)
    _thresholds(rec)
    _exact_constants(rec)
    _classical_identities(rec)
    _variant_agreement(rec)
    _petrov(rec, seed, cases=6)
    _dp_marginals(rec)
    if monte_carlo:
        _pairing_uniformity(rec, seed, accepted_target=max(2000, 10 * trials))
        _degree_position_uniformity(rec, seed, draws=max(4000, 10 * trials))
        _monte_carlo(rec, seed, trials)
    report = VerifyReport(tuple(rec.checks))
    log(f"{'PASS' if report.ok else 'FAIL'}: "
        f"{sum(1 for c in report.checks if c.gated and c.ok)}/"
        f"{sum(1 for c in report.checks if c.gated)} gated checks passed")
    return report
