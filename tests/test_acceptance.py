"""Acceptance gate: one test per primary criterion, one verdict line each.

Every test prints ``PASS criterion N: ...`` or ``FAIL criterion N: ...``
(visible under ``pytest -s``; the verdict also carries the assertion), and
checks its stated tolerance — tolerances are asserted as written, never
loosened to fit the implementation.

Two criteria compare finite-n Monte Carlo rates with n -> infinity limit
laws.  The empirical rates approach their limits like n^(-1/3) (the
survival gap measures +0.072 / +0.057 / +0.039 at n = 1000 / 2000 / 4000;
the classical analogue is Janson-Knuth-Luczak-Pittel, RSA 1993), so
criterion 7 samples a ladder n = 1000, 2000, 4000, extrapolates each rate
to n -> infinity by a weighted least-squares fit in n^(-1/3), and gates the
extrapolate against the limit with the fit's own 3 sigma and no slack.  The
ladder starts at n = 1000 because smaller sizes bias that fit.  At mu = -2
the limit P(complex) of about 0.002 is not approached at any sampled n, so
the mu = -2 survival and excess sub-checks stay gated and are expected to
fail.  At mu = +2 no sampled graph has total excess <= 4, so the
conditional non-planarity sub-check there has no data and fails rather
than passing vacuously.  The verdict line names each red sub-check and its
cause.  The diameter-scaling band
of criterion 9 is wide enough to absorb the same kind of correction for the
unconstrained family, and that run passes.

The heavy fixtures (10^4-trial window sweep and its n = 2000 / 4000 ladder,
the two-size diameter-scaling run) are module-scoped and deterministic: the
per-trial generator contract makes every number here bit-identical across
runs and process counts.
"""

import math
import os
import random
import time
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from degwin import verify
from degwin.asymptotics import PLANAR_KERNEL_WEIGHTS, PLANAR_Q_MAX, predict
from degwin.critical import critical_point
from degwin.degset import parse_degree_set
from degwin.harness import (
    CHI2_MIN_P,
    EXCESS_CHI2_RANGE,
    ExperimentConfig,
    compare_theory,
    run_experiment,
)
from degwin.sampler import build_dp, step_distribution
from degwin.stats import summarize

from oracles import (
    brute_circumference,
    brute_diameter,
    brute_longest_path,
    brute_planar,
    complex_vertices,
    enumerate_sequences,
    ladder_fit,
    printed_window_form,
    random_complex_graph,
    wright_e,
)

SEED = 20260825
# Rows do not depend on the process count; more workers than CPUs only
# multiplies the per-worker DP tables.
JOBS = min(8, os.cpu_count() or 1)
WINDOW_DEGREES = "1,3,5,7"
WINDOW_MUS = (-2.0, 0.0, 2.0)
LADDER_NS = (2000, 4000)
LADDER_TRIALS = {-2.0: 10_000, 0.0: 10_000, 2.0: 1_000}

FROZEN_ALPHA = {
    "0,1,4,5": 0.38151424114667153,
    "pow2:64": 0.79579608806563158,
}
# The targets that the shared verify checks read, pinned here so that the
# paper's numbers stay fixed by this module and not by verify alone.
CLOSED_FORM_13 = {
    "zhat": math.sqrt(2.0),
    "alpha": 0.75,
    "t3": 1.0 / math.sqrt(2.0),
    "c2": 1.5,
    "c3": 0.5,
}


def verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def checks_verdict(criterion: int, checks, ok=True, note="", pins=()) -> None:
    """Verdict over ``degwin verify`` checks: all of them, and ``ok``, must hold.

    Each string in ``pins`` (a tolerance or an exact target as the criterion
    states it) must appear in the details the checks report, so a check whose
    bound is moved in verify fails here.
    """
    detail = "; ".join(f"{c.name}: {c.detail}" for c in checks)
    missing = [pin for pin in pins if pin not in detail]
    if missing:
        note += f"; not reported: {missing}"
    verdict(criterion, ok and not missing and all(c.ok for c in checks), detail + note)


@pytest.fixture(scope="module")
def window_sweep():
    """{1,3,5,7} at n = 1000, mu in {-2, 0, 2}, 10^4 trials per point."""
    cfg = ExperimentConfig(
        degrees=WINDOW_DEGREES,
        n=1000,
        mus=WINDOW_MUS,
        trials=10_000,
        seed=SEED,
        jobs=JOBS,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def window_ladder(window_sweep):
    """Trial rows per (n, nominal mu) for n = 1000, 2000, 4000.

    n = 1000 reuses window_sweep; the larger rungs draw 10^4 trials at
    mu = -2 and 0 and 10^3 at mu = +2, each rung from its own seed so that
    no two rungs share a generator stream.
    """
    ladder = {
        (1000, mu): [r for r in window_sweep.rows if r.m == agg.m]
        for mu, agg in zip(WINDOW_MUS, window_sweep.aggregates)
    }
    rungs = [(n, mu) for n in LADDER_NS for mu in WINDOW_MUS]
    for offset, (n, mu) in enumerate(rungs, start=1):
        cfg = ExperimentConfig(
            degrees=WINDOW_DEGREES,
            n=n,
            mus=(mu,),
            trials=LADDER_TRIALS[mu],
            seed=SEED + offset,
            jobs=JOBS,
        )
        ladder[n, mu] = run_experiment(cfg).rows
    return ladder


@pytest.fixture(scope="module")
def diameter_scaling():
    """Unconstrained family at n = 512 and 4096, mu = 0, 6000 trials each."""
    table = run_experiment(
        ExperimentConfig(
            "all:60", n=(512, 4096), mus=(0.0,), trials=6000, seed=SEED, jobs=JOBS
        )
    )
    report = compare_theory(table, critical_point(parse_degree_set("all:60")))
    return table, report


def test_criterion_01_thresholds():
    checks = []
    slowest = 0.0
    for spec, band_centre, band_tol, pin in (
        ("0,1,4,5", 0.3815, 5e-4, FROZEN_ALPHA["0,1,4,5"]),
        ("pow2:64", 0.7955, 5e-4, FROZEN_ALPHA["pow2:64"]),
        ("all:60", 0.5, 1e-6, None),
    ):
        ds = parse_degree_set(spec)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            cp = critical_point.__wrapped__(ds)
            best = min(best, time.perf_counter() - t0)
        slowest = max(slowest, best)
        ok = abs(cp.alpha - band_centre) <= band_tol and best < 0.010
        if pin is not None:
            ok = ok and abs(cp.alpha - pin) <= 1e-9
        checks.append(ok)
    verdict(
        1,
        all(checks),
        "alpha({0,1,4,5}), alpha(pow2:64), alpha(all:60) inside their bands "
        f"(truncation midpoints +/- 5e-4, 0.5 +/- 1e-6; frozen 40-digit "
        f"bisection pins to 1e-9), each solve < 10 ms uncached "
        f"(slowest best-of-3: {slowest * 1e3:.2f} ms)",
    )


def test_criterion_02_closed_form_point():
    checks_verdict(
        2,
        verify.closed_forms(),
        verify.CLOSED_FORM_13 == CLOSED_FORM_13,
        pins=("(tol 1e-9)",),
    )


def test_criterion_03_exact_constants():
    checks_verdict(
        3,
        verify.exact_constants(),
        pins=("e1 = 5/24, e2 = 385/1152", "c3 = 83933/82944 <"),
    )


def test_criterion_04_classical_consistency():
    t0 = time.perf_counter()
    checks = verify.classical_identities()
    elapsed = time.perf_counter() - t0
    checks_verdict(
        4,
        checks,
        elapsed < 1.0,
        f"; {elapsed * 1e3:.0f} ms (< 1 s)",
        pins=("(tol 1e-6)", "(tol 1e-3)", f"(tol {10.0 * 8.0**-6:.2e})"),
    )


def test_criterion_05_sampler_exactness():
    worst = 0.0
    cells = 0
    for spec in ("1,3", "1,2,3", "0,1,4,5"):
        ds = parse_degree_set(spec)
        for n in range(2, 9):
            buckets = enumerate_sequences(ds.degrees, n)
            for two_m, bucket in sorted(buckets.items()):
                if two_m % 2:
                    continue
                total = sum(bucket.values())
                dist = step_distribution(build_dp(ds, n, two_m), ds, n, two_m)
                for d in ds.degrees:
                    exact = (
                        sum(w for seq, w in bucket.items() if seq[0] == d) / total
                    )
                    worst = max(worst, abs(dist.get(d, 0.0) - float(exact)))
                cells += 1
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(505,)))
    checks_verdict(
        5,
        verify.pairing_uniformity(rng, accepted=100_000),
        worst <= 1e-12 and verify.CHI2_MIN_P == 1e-3,
        f"; DP first-draw marginals vs exhaustive enumeration over {cells} "
        f"(family, n <= 8, m) cells: max |diff| = {worst:.2e} (tol 1e-12)",
    )


def test_criterion_06_rejection_rate(window_sweep):
    centre = min(window_sweep.aggregates, key=lambda a: abs(a.realized_mu))
    checks_verdict(6, verify.rejection_law(centre), pins=("e^(3/4)", "tol 10%"))


def _ladder_fit(ladder, mu, hit, within=lambda row: True):
    """Extrapolate the rate of hit(row) among rows passing within(row).

    Returns the fit and the number of rows passing within(row) per rung.
    """
    ns = sorted(n for n, m in ladder if m == mu)
    counts, trials = [], []
    for n in ns:
        rows = [r for r in ladder[n, mu] if within(r)]
        counts.append(sum(1 for r in rows if hit(r)))
        trials.append(len(rows))
    return ladder_fit(ns, counts, trials), trials


def _z(fit, pred: float) -> float:
    return (fit.r_inf - pred) / fit.sigma


def test_criterion_07_monte_carlo_vs_theory(window_ladder):
    cp = critical_point(parse_degree_set(WINDOW_DEGREES))
    lines, causes, failed = [], [], 0
    for mu in WINDOW_MUS:
        with warnings.catch_warnings():
            # At mu = +2 the predictor notes its truncated tail; the gated
            # quantities below live at q <= 4, where it is immaterial.
            warnings.filterwarnings("ignore", message=".*tail weight.*")
            pred = predict(cp, mu, "scaled", 20)
        excess = [
            _ladder_fit(window_ladder, mu, lambda r, q=q: r.total_excess == q)[0]
            for q in range(EXCESS_CHI2_RANGE)
        ]
        excess_z = [_z(fit, pred.excess_dist[q]) for q, fit in enumerate(excess)]
        survival, survival_z = excess[0], excess_z[0]
        excess_p = float(
            scipy_stats.chi2.sf(math.fsum(z * z for z in excess_z), len(excess_z))
        )
        nonplanar, low_trials = _ladder_fit(
            window_ladder,
            mu,
            lambda r: not r.planar,
            within=lambda r: r.total_excess <= PLANAR_Q_MAX,
        )
        nonplanar_z = _z(nonplanar, pred.nonplanar_low_excess)
        checks = {
            "survival": abs(survival_z) <= 3.0,
            "excess": excess_p > CHI2_MIN_P,
            "nonplanar": abs(nonplanar_z) <= 3.0,
        }
        flag = {name: "ok" if ok else "FAIL" for name, ok in checks.items()}
        lines.append(
            f"mu={mu:+g}: survival {survival.r_inf:.4f} +/- {survival.sigma:.4f} "
            f"vs {pred.survival:.4f} (z={survival_z:+.2f}, fit chi2 "
            f"{survival.chi2:.2f}) {flag['survival']}; excess q=0..4 z=("
            f"{', '.join(f'{z:+.2f}' for z in excess_z)}), chi2_5 p={excess_p:.2g}, "
            f"fit chi2 {math.fsum(f.chi2 for f in excess):.2f} {flag['excess']}; "
            f"nonplanar|q<=4 {nonplanar.r_inf:.5f} +/- {nonplanar.sigma:.5f} vs "
            f"{pred.nonplanar_low_excess:.5f} (z={nonplanar_z:+.2f}, fit chi2 "
            f"{nonplanar.chi2:.2f}, {'/'.join(map(str, low_trials))} trials "
            f"with q<=4) {flag['nonplanar']}"
        )
        failed += sum(not ok for ok in checks.values())
        if mu < 0 and not (checks["survival"] and checks["excess"]):
            complex_counts = "/".join(
                str(sum(1 for r in window_ladder[n, mu] if r.total_excess > 0))
                for n in sorted(n for n, m in window_ladder if m == mu)
            )
            causes.append(
                f"mu={mu:+g} survival/excess red: the limit P(complex) = "
                f"{1.0 - pred.survival:.4f} is not approached at the sampled n "
                f"({complex_counts} complex graphs per ladder rung)"
            )
        if not checks["nonplanar"] and math.isinf(nonplanar.sigma):
            causes.append(
                f"mu={mu:+g} nonplanar red: fewer than two rungs have a trial "
                f"with q<=4 (P(q<=4) = "
                f"{math.fsum(pred.excess_dist[: PLANAR_Q_MAX + 1]):.2g} at q_max = 20, "
                f"not converged)"
            )
    verdict(
        7,
        failed == 0,
        f"{{{WINDOW_DEGREES}}} n -> infinity extrapolates of the rates at "
        f"n = 1000/2000/4000 (weighted fit in n^(-1/3)) vs the limit laws, "
        f"3 sigma / chi2 p > {CHI2_MIN_P:g}, no slack: {failed} sub-check(s) "
        f"outside the gates [{'; '.join(lines)}]"
        + (f" — {'; '.join(causes)}" if causes else ""),
    )


def test_criterion_08_extremal_exactness():
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(500):
        g = random_complex_graph(rng, n_lo=4, n_hi=12)
        cv = complex_vertices(g)
        s = summarize(g)
        exact = (
            s.complex_diameter == brute_diameter(g, cv)
            and s.complex_longest_path == brute_longest_path(g, cv)
            and s.complex_circumference == brute_circumference(g, cv)
            and s.planar == brute_planar(g, cv)
        )
        mismatches += not exact
    verdict(
        8,
        mismatches == 0,
        f"kernel-based diameter/longest path/circumference/planarity vs "
        f"exponential brute force on 500 random complex graphs (n <= 12): "
        f"{mismatches} mismatches",
    )


def test_criterion_09_scaling_law(diameter_scaling):
    table, report = diameter_scaling
    (scaling,) = report.scalings
    small = min(table.aggregates, key=lambda a: a.n)
    large = max(table.aggregates, key=lambda a: a.n)
    assert (scaling.n_small, scaling.n_large) == (512, 4096)
    assert small.trials >= 2000 and large.trials >= 2000
    err = abs(scaling.ratio - 2.0)
    verdict(
        9,
        err <= 0.35,
        f"mean complex-part diameter ratio n=4096/n=512 at mu = 0: "
        f"{scaling.ratio:.4f} (|ratio - 2| = {err:.4f}, tol 0.35; cube-root "
        f"growth predicts {scaling.expected_ratio:.0f}), conditioned on a "
        f"nonempty complex part ({small.complex_trials} and "
        f"{large.complex_trials} of {small.trials} trials per size)",
    )


def test_criterion_10_saddle_profile_argmax():
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(909,)))
    checks_verdict(
        10, verify.saddle_profile(rng, cases=20), pins=("(tol 1 cell, 4096 grid)",)
    )


def test_criterion_11_variant_adjudication():
    # The paper prints two forms of A_Delta (tests/oracles.py).  Each must give
    # predict's normalised numbers, and they must differ by exactly the factor
    # e^{(mu^3 - xi^3)/6}, which does not depend on y.
    worst_pred = worst_ratio = 0.0
    record = []
    for spec in ("1,3", "1,2,3", "0,1,4,5", "1,3,5,7", "all:60"):
        cp = critical_point(parse_degree_set(spec))
        for mu in (-1.0, 0.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pred = predict(cp, mu)
            got = pred.excess_dist + (pred.planarity,)
            for form in ("scaled", "plain"):
                window = [
                    cp.t3 ** (2 * q) * printed_window_form(cp, 3 * q + 0.5, mu, form)
                    for q in range(pred.q_max + 1)
                ]
                weights = [float(wright_e(q)) * a for q, a in enumerate(window)]
                planar = math.fsum(
                    float(PLANAR_KERNEL_WEIGHTS[q]) * window[q]
                    for q in range(PLANAR_Q_MAX + 1)
                )
                total = math.fsum(weights)
                want = tuple(w / total for w in weights) + (planar / total,)
                worst_pred = max(worst_pred, *(abs(g / w - 1.0) for g, w in zip(got, want)))
            xi = 2.0 * cp.c2 * (3.0 * cp.c3) ** (-2.0 / 3.0) * mu
            factor = math.exp((mu**3 - xi**3) / 6.0)
            for y in (0.5, 3.5, 6.5, 12.5):
                ratio = printed_window_form(cp, y, mu, "scaled") / printed_window_form(
                    cp, y, mu, "plain"
                )
                worst_ratio = max(worst_ratio, abs(ratio / factor - 1.0))
            if spec == "1,3" and mu != 0.0:
                record.append(f"{ratio:.6f} at mu = {mu:+g}")
    verdict(
        11,
        worst_pred <= 1e-12 and worst_ratio <= 1e-12,
        f"predict's P(q) and planarity vs e_q t3^(2q) A(3q+1/2) under each printed "
        f"form, max rel diff {worst_pred:.2e}; scaled/plain vs e^((mu^3 - xi^3)/6) "
        f"at y = 1/2, 7/2, 13/2, 25/2, max rel diff {worst_ratio:.2e} (tol 1e-12), "
        f"over 5 families at mu = -1, 0, +1; scaled/plain for {{1,3}} = "
        + ", ".join(record),
    )
