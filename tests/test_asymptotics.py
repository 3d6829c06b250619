"""Window-function series, kernel weights, and structure predictions."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from degwin.asymptotics import (
    MU_SERIES_LIMIT,
    VARIANTS,
    bigA_asymptotic,
    bigA_classical,
    bigA_delta,
    bigB,
    expected_attempts,
    planar_c,
    predict,
    rejection_rate,
    twopath_constants,
    wright_e,
)
from degwin.critical import critical_point
from degwin.degset import parse_degree_set
from degwin.errors import ConvergenceError

from oracles import oracle_window_series

FAMILIES = ("1,3", "1,2,3", "0,1,4,5", "1,3,5,7")

# Frozen from the direct high-precision oracle (oracle_window_series) on the
# {1,3} window constants; the two large-|mu| points exercise the adaptive
# precision against ~190 digits of series cancellation.
WINDOW_ANCHORS_13 = {
    (0.5, -1.0): 4.3535835663680976e-2,
    (3.5, 2.0): 1.2715299587418682,
    (0.5, -6.0): 7.899751460817794e-189,
    (0.5, 6.0): 2.6977616124800481e-2,
}

# Frozen from predict() itself after validating the underlying series against
# the oracle: regression anchors, not independent derivations.
PREDICT_ANCHORS = {
    ("1,3", 0.0): (0.8735390594303712, 0.9985128525424461),
    ("1,3,5,7", -3.0): (0.9993551609111467, 0.9999999995968947),
    ("1,3,5,7", 0.0): (0.8166148859731711, 0.9934141703244127),
}


def _cp(spec):
    return critical_point(parse_degree_set(spec))


class TestKernelWeights:
    def test_known_values(self):
        assert wright_e(0) == 1
        assert wright_e(1) == Fraction(5, 24)
        assert wright_e(2) == Fraction(385, 1152)
        assert wright_e(3) == Fraction(85085, 82944)

    def test_domain(self):
        assert wright_e(30) > 0
        with pytest.raises(ValueError, match="0 <= q <= 30"):
            wright_e(-1)
        with pytest.raises(ValueError, match="0 <= q <= 30"):
            wright_e(31)

    def test_planar_matches_connected_through_excess_two(self):
        for q in range(3):
            assert planar_c(q) == wright_e(q)

    @pytest.mark.parametrize("q", [3, 4])
    def test_planar_strictly_smaller_beyond(self, q):
        assert 0 < planar_c(q) < wright_e(q)
        assert planar_c(3) == Fraction(83933, 82944)
        assert planar_c(4) == Fraction(35002561, 7962624)

    def test_planar_tabulation_ends(self):
        with pytest.raises(LookupError, match="q <= 4"):
            planar_c(5)


class TestWindowSeries:
    @pytest.mark.parametrize("spec", FAMILIES[:3])
    def test_matches_direct_summation(self, spec):
        cp = _cp(spec)
        for y in (0.5, 2.5, 3.5, 6.5):
            for mu in (-3.0, -1.0, 0.0, 1.0, 3.0):
                want = float(oracle_window_series(cp.c2, cp.c3, y, mu))
                assert bigB(cp, y, mu) == pytest.approx(want, rel=1e-12)

    def test_extreme_mu_anchors(self):
        cp = _cp("1,3")
        for (y, mu), want in WINDOW_ANCHORS_13.items():
            assert bigB(cp, y, mu) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", ["1,3", "1,3,5,7"])
    def test_centre_closed_form(self, spec):
        # At mu = 0 only the k = 0 term survives: c3^((y-2)/3) / (3 Gamma((y+1)/3)).
        cp = _cp(spec)
        for y in (0.5, 3.5, 6.5):
            closed = cp.c3 ** ((y - 2.0) / 3.0) / (3.0 * math.gamma((y + 1.0) / 3.0))
            assert bigB(cp, y, 0.0) == pytest.approx(closed, rel=1e-13)

    def test_argument_domain(self):
        cp = _cp("1,3")
        with pytest.raises(ValueError, match="y must be"):
            bigB(cp, 0.25, 0.0)
        with pytest.raises(ValueError, match="bigA_asymptotic"):
            bigB(cp, 0.5, MU_SERIES_LIMIT + 1.0)

    def test_cancellation_beyond_precision_budget(self):
        with pytest.raises(ConvergenceError, match="precision"):
            bigA_classical(0.5, -20.0)

    @settings(max_examples=25, deadline=None)
    @given(
        y=st.floats(min_value=0.5, max_value=8.0),
        mu=st.floats(min_value=-4.0, max_value=3.0),
    )
    def test_classical_positive_and_matches_oracle(self, y, mu):
        got = bigB(_cp("all:60"), y, mu)
        want = float(oracle_window_series(0.5, 1.0 / 3.0, y, mu))
        assert got > 0
        assert got == pytest.approx(want, rel=1e-10)


class TestClassicalWindow:
    def test_survival_constant(self):
        got = math.sqrt(2.0 * math.pi) * bigA_classical(0.5, 0.0)
        assert got == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize(
        "mu, q_max, tol",
        [(-2.0, 20, 1e-12), (0.0, 20, 1e-6), (1.0, 30, 1e-5)],
    )
    def test_partition_of_unity(self, mu, q_max, tol):
        total = math.sqrt(2.0 * math.pi) * math.fsum(
            float(wright_e(q)) * bigA_classical(3 * q + 0.5, mu)
            for q in range(q_max + 1)
        )
        assert total == pytest.approx(1.0, abs=tol)

    def test_left_tail_expansion(self):
        for y, tol in ((0.5, 10.0 * 8.0**-6), (3.5, 1e-3)):
            series = bigA_classical(y, -8.0)
            asym = bigA_asymptotic(y, -8.0, "minus")
            assert series == pytest.approx(asym, rel=tol)

    def test_right_tail_bracket(self):
        series = bigA_classical(0.5, 8.0)
        two_term = bigA_asymptotic(0.5, 8.0, "plus")
        with mp.workdps(30):
            lead = mp.e ** (-mp.mpf(8) ** 3 / 6) / (
                mp.mpf(2) ** 0.25 * mp.mpf(8) ** 0.75
            )
            one_term = float(lead * mp.rgamma(0.25))
        lo, hi = sorted((one_term, two_term))
        assert lo <= series <= hi
        # Higher y: the second-order term is no longer a strict bracket, but
        # the expansion still lands within 1e-3 relatively.
        assert bigA_classical(3.5, 8.0) == pytest.approx(
            bigA_asymptotic(3.5, 8.0, "plus"), rel=1e-3
        )

    def test_expansion_domain(self):
        with pytest.raises(ValueError, match="mu <= -3"):
            bigA_asymptotic(0.5, -2.9, "minus")
        with pytest.raises(ValueError, match="mu >= 3"):
            bigA_asymptotic(0.5, 2.9, "plus")
        with pytest.raises(ValueError, match="direction"):
            bigA_asymptotic(0.5, 8.0, "sideways")


class TestDegreeWindow:
    @pytest.mark.parametrize("spec", FAMILIES)
    def test_variants_agree_at_centre(self, spec):
        cp = _cp(spec)
        for y in (0.5, 3.5, 6.5, 12.5):
            scaled = bigA_delta(cp, y, 0.0, "scaled")
            plain = bigA_delta(cp, y, 0.0, "plain")
            assert scaled == pytest.approx(plain, rel=1e-12)

    def test_variants_differ_off_centre_by_constant_factor(self):
        cp = _cp("1,3")
        ratios = [
            bigA_delta(cp, y, 1.0, "scaled") / bigA_delta(cp, y, 1.0, "plain")
            for y in (0.5, 3.5, 6.5)
        ]
        assert abs(ratios[0] - 1.0) > 0.1
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-10)

    def test_unbounded_family_matches_classical(self):
        cp = _cp("all:60")
        for y in (0.5, 3.5):
            for mu in (-2.0, 0.0, 1.0):
                for variant in VARIANTS:
                    assert bigA_delta(cp, y, mu, variant) == pytest.approx(
                        bigA_classical(y, mu), rel=1e-12
                    )

    def test_unknown_variant(self):
        cp = _cp("1,3")
        with pytest.raises(ValueError, match="variant"):
            bigA_delta(cp, 0.5, 0.0, "fancy")
        with pytest.raises(ValueError, match="variant"):
            predict(cp, 0.0, variant="fancy")


class TestPredictions:
    @pytest.mark.parametrize("spec", FAMILIES)
    @pytest.mark.parametrize("mu", [-2.0, 0.0, 1.0])
    def test_distribution_normalised(self, spec, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            p = predict(_cp(spec), mu)
        assert math.fsum(p.excess_dist) == pytest.approx(1.0, abs=1e-12)
        assert p.survival == p.excess_dist[0]
        assert all(0.0 <= x <= 1.0 for x in p.excess_dist)

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_tail_negligible_at_and_below_centre(self, spec):
        for mu in (-2.0, 0.0):
            assert predict(_cp(spec), mu).tail_weight <= 1e-6

    def test_truncation_warning(self):
        with pytest.warns(RuntimeWarning, match="tail weight"):
            predict(_cp("1,3,5,7"), 2.0)

    def test_survival_decreasing_in_mu(self):
        for spec in ("0,1,4,5", "1,3,5,7"):
            cp = _cp(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                survivals = [
                    predict(cp, mu, q_max=30).survival
                    for mu in (-3.0, -1.0, 0.0, 1.0, 2.0)
                ]
            assert survivals == sorted(survivals, reverse=True)
            assert survivals[0] > 0.99
            assert survivals[-1] < 0.6

    @pytest.mark.parametrize("spec", FAMILIES)
    @pytest.mark.parametrize("mu", [-1.0, 0.0])
    def test_probability_ordering(self, spec, mu):
        p = predict(_cp(spec), mu)
        assert p.survival <= p.planarity <= 1.0
        assert p.planarity <= math.fsum(p.excess_dist[:5]) + 1e-12

    def test_anchor_values(self):
        for (spec, mu), (survival, planarity) in PREDICT_ANCHORS.items():
            p = predict(_cp(spec), mu)
            assert p.survival == pytest.approx(survival, rel=1e-9)
            assert p.planarity == pytest.approx(planarity, rel=1e-9)

    def test_qmax_domain(self):
        with pytest.raises(ValueError, match="q_max"):
            predict(_cp("1,3"), 0.0, q_max=3)


class TestTwoPath:
    @pytest.mark.parametrize("spec", ["1,3", "all:60"])
    @pytest.mark.parametrize("q", [0, 1])
    def test_centre_closed_form(self, spec, q):
        # b1 = B(y+1, 0) / B(y, 0) collapses to a Gamma ratio at mu = 0.
        cp = _cp(spec)
        y = 3 * q + 0.5
        closed = (
            cp.c3 ** (1.0 / 3.0)
            * math.gamma((y + 1.0) / 3.0)
            / math.gamma((y + 2.0) / 3.0)
        )
        assert twopath_constants(cp, 0.0, q).b1 == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("spec", ["1,3", "0,1,4,5", "1,3,5,7"])
    def test_variance_constant_nonnegative(self, spec):
        cp = _cp(spec)
        for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for q in (0, 1, 2, 3):
                tc = twopath_constants(cp, mu, q)
                assert tc.b1 > 0
                assert tc.b2_squared >= 0
                assert tc.b2 == pytest.approx(math.sqrt(tc.b2_squared), abs=1e-15)
                assert tc.b2_squared == pytest.approx(
                    2.0 * tc.second_moment - tc.b1**2, abs=1e-10
                )

    def test_domain(self):
        with pytest.raises(ValueError, match="q must be"):
            twopath_constants(_cp("1,3"), 0.0, q=-1)


class TestPairingRejection:
    def test_values(self):
        assert rejection_rate(0.0) == 1.0
        assert rejection_rate(1.0) == pytest.approx(math.exp(-0.75), rel=1e-15)
        assert expected_attempts(1.0) == pytest.approx(math.exp(0.75), rel=1e-15)

    def test_monotone_and_domain(self):
        assert rejection_rate(2.0) < rejection_rate(1.0) < rejection_rate(0.5)
        with pytest.raises(ValueError, match=">= 0"):
            rejection_rate(-0.1)
