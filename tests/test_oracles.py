"""Checks of the oracles themselves, and of the package against them: the
finite-size ladder fit used by acceptance criterion 7 and the saddle
exponent that petrov_profile samples."""

import cmath
import math

import numpy as np
import pytest

from degwin.critical import critical_point, petrov_profile, root1
from degwin.degset import parse_degree_set
from oracles import h_eval, ladder_fit

# Perfect cubes, so n^(-1/3) = 0.1, 0.05, 0.025.
NS = (1000, 8000, 64000)


def test_rates_on_the_line_return_the_intercept():
    # r(n) = 0.8 + n^(-1/3) at T = 1000 trials: 900, 850, 825 successes.
    fit = ladder_fit(NS, (900, 850, 825), (1000, 1000, 1000))
    assert fit.r_inf == pytest.approx(0.8, abs=1e-12)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)
    assert fit.chi2 == pytest.approx(0.0, abs=1e-18)


def test_sigma_is_the_weighted_least_squares_standard_error():
    counts, trials = (8870, 4300, 1710), (10_000, 5_000, 2_000)
    fit = ladder_fit(NS, counts, trials)
    weights = np.array(fit.weights)
    design = np.column_stack([np.ones(3), np.array(NS, dtype=float) ** (-1.0 / 3.0)])
    rates = np.array(counts) / np.array(trials)
    normal = design.T @ (weights[:, None] * design)
    cov = np.linalg.inv(normal)
    beta = cov @ design.T @ (weights * rates)
    assert fit.sigma == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
    assert fit.r_inf == pytest.approx(beta[0], rel=1e-12)
    assert fit.slope == pytest.approx(beta[1], rel=1e-10)
    resid = rates - design @ beta
    assert fit.chi2 == pytest.approx(float(weights @ resid**2), rel=1e-9)


def test_zero_count_gets_the_jeffreys_weight():
    fit = ladder_fit(NS, (0, 3, 10_000), (10_000, 10_000, 10_000))
    jeffreys = 0.5 / 10_001
    assert fit.weights[0] == pytest.approx(10_000 / (jeffreys * (1.0 - jeffreys)), rel=1e-15)
    # All-success and all-failure rates weigh the same.
    assert fit.weights[2] == pytest.approx(fit.weights[0], rel=1e-12)
    assert all(math.isfinite(w) and w > 0 for w in fit.weights)


def test_empty_rungs_carry_no_weight():
    full = ladder_fit(NS[1:], (850, 825), (1000, 1000))
    fit = ladder_fit(NS, (0, 850, 825), (0, 1000, 1000))
    assert fit.weights[0] == 0.0
    assert fit.r_inf == pytest.approx(full.r_inf, rel=1e-12)
    assert fit.sigma == pytest.approx(full.sigma, rel=1e-12)
    undetermined = ladder_fit(NS, (0, 0, 825), (0, 0, 1000))
    assert math.isnan(undetermined.r_inf) and undetermined.sigma == math.inf


def test_exponent_value_unbounded_set():
    # At r = 1/2 and z = 1 the truncated-exponential family gives
    # h = 0.5 log(omega'/z) + 0.5 log(2 omega - z omega') = 1.
    val = h_eval(parse_degree_set("all:60").degrees, 1.0 + 0.0j, 0.5)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(1.0, abs=1e-9)


def test_exponent_rejects_origin():
    with pytest.raises(ValueError):
        h_eval(parse_degree_set("1,3").degrees, 0.0, 0.5)


@pytest.mark.parametrize("spec", ["1,3", "1,3,5,7", "0,1,4,5", "pow2:16", "all:60"])
@pytest.mark.parametrize("r, frac", [(0.7, 0.9), (0.6, 0.5), (0.9, 0.3)])
def test_profile_values_are_the_exponent(spec, r, frac):
    # petrov_profile's grid value j is Re h at z0 e^{2 pi i j / grid_size}.
    ds = parse_degree_set(spec)
    z0 = frac * min(root1(ds, r), critical_point(ds).zhat)
    grid = 512
    values = petrov_profile(ds, z0, r, grid_size=grid).values
    for j in range(0, grid, 37):
        h = h_eval(ds.degrees, z0 * cmath.exp(2j * math.pi * j / grid), r)
        assert abs(values[j] - h.real) <= 1e-12 * max(1.0, abs(h))
