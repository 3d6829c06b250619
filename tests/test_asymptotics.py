"""Window-function series, kernel weights, and structure predictions."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from degwin import asymptotics
from degwin.asymptotics import (
    MU_SERIES_LIMIT,
    PLANAR_KERNEL_WEIGHTS,
    _bigB_mp,
    _series_sum,
    _window_sums,
    _window_x,
    _wright_e_series,
    bigA_asymptotic,
    bigA_classical,
    predict,
    rejection_rate,
    twopath_constants,
)
from degwin.critical import critical_point
from degwin.degset import parse_degree_set
from degwin.errors import ConvergenceError, OutOfRangeError

from oracles import (
    bigB,
    oracle_series_sum,
    oracle_window_series,
    printed_window_form,
    wright_e,
)

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

# float.hex of predict()'s (survival, excess_dist[1], planarity) at q_max = 20.
PREDICT_BITS = {
    ("1,3,5,7", -2.0): ("0x1.feee3ca8668a5p-1", "0x1.0db2077b95f61p-9", "0x1.ffffff896be4dp-1"),
    ("1,3,5,7", 0.0): ("0x1.a21b58a95cf2bp-1", "0x1.d05823cc83e6ap-4", "0x1.fca0c839da477p-1"),
    ("1,3,5,7", 2.0): ("0x1.1170e3163d7adp-16", "0x1.70c9d97671fb9p-15", "0x1.bafb1eab7d58ap-11"),
    ("0,1,4,5", 0.0): ("0x1.da1814ebbe4d0p-1", "0x1.f4cc216c6874dp-5", "0x1.ffea6d6e7f3b0p-1"),
    ("pow2:64", 1.0): ("0x1.2c7f8eead4be0p-4", "0x1.3e872acfe532ep-4", "0x1.b12249e896634p-2"),
    ("1,3", -1.0): ("0x1.fb4dc90f0cc9fp-1", "0x1.1d3100e4ae223p-7", "0x1.ffffdd98883d0p-1"),
}


def _cp(spec):
    return critical_point(parse_degree_set(spec))


class TestKernelWeights:
    def test_known_values(self):
        series = _wright_e_series()
        assert [next(series) for _ in range(4)] == [
            1,
            Fraction(5, 24),
            Fraction(385, 1152),
            Fraction(85085, 82944),
        ]

    def test_domain(self):
        # e_q = (6q-1)!! / ((2q)! 6^{2q}): the weighted count of cubic
        # configuration pairings on 2q vertices.
        double_factorial = 1
        series = _wright_e_series()
        for q in range(201):
            if q:
                for odd in range(6 * q - 5, 6 * q, 2):
                    double_factorial *= odd
            want = Fraction(double_factorial, math.factorial(2 * q) * 6 ** (2 * q))
            assert next(series) == want

    def test_running_ratio_is_the_closed_form(self):
        # predict carries e_q by its exact ratio to e_{q-1}.
        series = _wright_e_series()
        assert [next(series) for _ in range(201)] == [wright_e(q) for q in range(201)]

    def test_planar_matches_connected_through_excess_two(self):
        for q in range(3):
            assert PLANAR_KERNEL_WEIGHTS[q] == wright_e(q)

    @pytest.mark.parametrize("q", [3, 4])
    def test_planar_strictly_smaller_beyond(self, q):
        assert 0 < PLANAR_KERNEL_WEIGHTS[q] < wright_e(q)
        assert PLANAR_KERNEL_WEIGHTS[3] == Fraction(83933, 82944)
        assert PLANAR_KERNEL_WEIGHTS[4] == Fraction(35002561, 7962624)


class TestWindowSeries:
    @pytest.mark.parametrize("spec", FAMILIES[:3])
    def test_matches_direct_summation(self, spec):
        # At integer y every third Gamma argument is a non-positive integer
        # from some term on, and those terms vanish.
        cp = _cp(spec)
        for y in (0.5, 2.0, 2.5, 3.5, 5.0, 6.5, 8.0):
            for mu in (-3.0, -1.0, 0.0, 1.0, 3.0):
                want = float(oracle_window_series(cp.c2, cp.c3, y, mu))
                assert bigB(cp, y, mu) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", ["1,3,5,7", "pow2:64"])
    def test_series_argument_at_full_precision(self, spec):
        # x = c2 c3^{-2/3} mu rounded to 53 bits moves the sum by ~1e-14 at
        # mu = -4; formed at the working precision it agrees to rounding.
        cp = _cp(spec)
        for y in (0.5, 3.5):
            want = float(oracle_window_series(cp.c2, cp.c3, y, -4.0))
            assert bigB(cp, y, -4.0) == pytest.approx(want, rel=1e-15, abs=0)

    def test_extreme_mu_anchors(self):
        cp = _cp("1,3")
        for (y, mu), want in WINDOW_ANCHORS_13.items():
            assert bigB(cp, y, mu) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", ["1,3", "1,3,5,7"])
    def test_centre_closed_form(self, spec):
        # At mu = 0 only the k = 0 term survives: c3^((y-2)/3) / (3 Gamma((y+1)/3)).
        cp = _cp(spec)
        for y in (0.5, 3.5, 6.5):
            closed = cp.c3 ** ((y - 2.0) / 3.0) / (3.0 * math.gamma((y + 1.0) / 3.0))
            assert bigB(cp, y, 0.0) == pytest.approx(closed, rel=1e-13, abs=0)

    def test_argument_domain(self):
        with pytest.raises(ValueError, match="y must be"):
            bigA_classical(0.25, 0.0)
        # The refusal states the limit and nothing else.
        limit = r"\|mu\| <= 20\.0 required for series evaluation \(got 21\.0\)$"
        with pytest.raises(ValueError, match=limit):
            bigA_classical(0.5, MU_SERIES_LIMIT + 1.0)

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
        assert got == pytest.approx(want, rel=1e-10, abs=0)


class TestSeriesKernel:
    """The integer kernel ``_series_sum`` against the mpf term loop it
    replaced (``oracle_series_sum``): the same sum and largest term as
    floats, and the same last summed term."""

    @staticmethod
    def _settled_dps(x, y) -> int:
        # The precision _window_sums settles on: 25 digits beyond the loss to
        # cancellation.
        dps = 40
        while True:
            with mp.workdps(dps):
                s, peak, _ = oracle_series_sum(x, y)
                lost = float(mp.log10(peak / abs(s)))
            if lost <= dps - 25:
                return dps
            dps = int(lost) + 40

    @pytest.mark.parametrize(
        "x, y",
        [
            (0.0, 0.5),
            (-6.0, 0.5),  # heavy cancellation
            (-4.7, 3.5),
            (6.0, 0.5),
            (-2.5, 2.0),  # poles: one residue class vanishes
            (1.5, 5.0),
            (-4.7, 2.3),  # y not a half-integer
            (-6.0, 60.5),
            (2.0, 60.5),
            (-4.7, 360.5),
            (1.0, 360.5),
            ("pow2:64", 0.5),  # the benchmark's slowest series, x = -6.03
        ],
    )
    def test_matches_mpf_loop(self, x, y, monkeypatch):
        with mp.workdps(40):
            if isinstance(x, str):
                cp = _cp(x)
                x = _window_x(cp.c2, cp.c3, -2.0)
            x, y = mp.mpf(x), mp.mpf(y)
        with mp.workdps(self._settled_dps(x, y)):
            want, want_peak, last = oracle_series_sum(x, y)
            got, got_peak = _series_sum(x, y)
            assert float(got) == float(want)
            assert float(got_peak) == float(want_peak)
            # The kernel needs exactly last + 1 terms, as the loop did.
            monkeypatch.setattr(asymptotics, "_MAX_TERMS", last + 1)
            assert _series_sum(x, y) == (got, got_peak)
            monkeypatch.setattr(asymptotics, "_MAX_TERMS", last)
            with pytest.raises(ConvergenceError, match=f"within {last} terms"):
                _series_sum(x, y)

    def test_term_budget(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_MAX_TERMS", 10)
        with mp.workdps(80):
            with pytest.raises(ConvergenceError, match="within 10 terms"):
                _series_sum(mp.mpf(-6), mp.mpf(0.5))


class TestWindowRecurrence:
    """The table of sums S(y) behind ``predict`` and ``twopath_constants``,
    filled in by (y+1) S(y+3) = 3 S(y) + 2x S(y+1), against direct series."""

    @pytest.mark.parametrize("spec", ["1,3", "pow2:64", "1,3,5,7"])
    def test_column_matches_direct_series(self, spec):
        # mu < 0 runs the recurrence downward, mu >= 0 upward.
        cp = _cp(spec)
        q_max = 30
        for mu in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            column = [float(b) for b in _bigB_mp(cp.c2, cp.c3, 0.5, mu, q_max + 1, step=3)]
            for q, got in enumerate(column):
                want = bigB(cp, 3 * q + 0.5, mu)
                assert got == pytest.approx(want, rel=1e-13, abs=0), (mu, q)

    @pytest.mark.parametrize("mu", [-2.0, 2.0])
    def test_far_end_matches_high_precision_series(self, mu):
        cp = _cp("1,3,5,7")
        with mp.workdps(40):
            x = _window_x(cp.c2, cp.c3, mu)
            sums = _window_sums(x, mp.mpf(1) / 2, 3 * 120 + 1)
        for q in (40, 80, 120):
            y = mp.mpf(3 * q) + mp.mpf(1) / 2
            with mp.workdps(190):
                want = mp.mpf(0)
                peak = mp.mpf(0)
                for k in range(4000):
                    term = x**k / mp.factorial(k) * mp.rgamma((y + 1 - 2 * k) / 3)
                    want += term
                    peak = max(peak, abs(term))
                    if k > y and abs(term) < peak * mp.mpf(10) ** -180:
                        break
                else:
                    raise AssertionError("direct series did not settle")
                assert float(sums[3 * q]) == pytest.approx(float(want), rel=1e-13, abs=0), q

    def test_recurrence_on_oracle_values(self):
        cp = _cp("1,3")
        for mu in (-3.0, -1.0, 0.0, 1.0, 3.0):
            for y in (0.5, 2.0, 3.5, 7.0):
                with mp.workdps(60):
                    x = _window_x(cp.c2, cp.c3, mu)
                    c3 = mp.mpf(cp.c3)

                    def S(z):
                        oracle = oracle_window_series(cp.c2, cp.c3, z, mu)
                        return 3 * oracle / c3 ** ((mp.mpf(z) - 2) / 3)

                    lhs = (y + 1) * S(y + 3)
                    parts = (3 * S(y), 2 * x * S(y + 1))
                    scale = max(abs(lhs), *(abs(p) for p in parts))
                    assert abs(lhs - sum(parts)) <= mp.mpf(10) ** -40 * scale, (y, mu)


class TestClassicalWindow:
    def test_survival_constant(self):
        got = math.sqrt(2.0 * math.pi) * bigA_classical(0.5, 0.0)
        assert got == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12, abs=0)

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
            assert series == pytest.approx(asym, rel=tol, abs=0)

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
            bigA_asymptotic(3.5, 8.0, "plus"), rel=1e-3, abs=0
        )

    def test_expansion_domain(self):
        with pytest.raises(ValueError, match="mu <= -3"):
            bigA_asymptotic(0.5, -2.9, "minus")
        with pytest.raises(ValueError, match="mu >= 3"):
            bigA_asymptotic(0.5, 2.9, "plus")
        with pytest.raises(ValueError, match="direction"):
            bigA_asymptotic(0.5, 8.0, "sideways")


class TestDegreeWindow:
    """The two printed forms of A_Delta (the oracle ``printed_window_form``)."""

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_variants_agree_at_centre(self, spec):
        cp = _cp(spec)
        for y in (0.5, 3.5, 6.5, 12.5):
            scaled = printed_window_form(cp, y, 0.0, "scaled")
            plain = printed_window_form(cp, y, 0.0, "plain")
            assert scaled == pytest.approx(plain, rel=1e-12, abs=0)

    def test_variants_differ_off_centre_by_constant_factor(self):
        cp = _cp("1,3")
        ratios = [
            printed_window_form(cp, y, 1.0, "scaled") / printed_window_form(cp, y, 1.0, "plain")
            for y in (0.5, 3.5, 6.5)
        ]
        assert abs(ratios[0] - 1.0) > 0.1
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-10, abs=0)

    def test_unbounded_family_matches_classical(self):
        cp = _cp("all:60")
        for y in (0.5, 3.5):
            for mu in (-2.0, 0.0, 1.0):
                for form in ("scaled", "plain"):
                    assert printed_window_form(cp, y, mu, form) == pytest.approx(
                        bigA_classical(y, mu), rel=1e-12, abs=0
                    )

    def test_unknown_variant(self):
        cp = _cp("1,3")
        # Off-centre, where the two printed forms differ by a factor 6.25.
        assert predict(cp, -1.0, "scaled", 20) == predict(cp, -1.0, "plain", 20)
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
            assert predict(_cp(spec), mu).excess_dist[-1] <= 1e-6

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
            assert p.survival == pytest.approx(survival, rel=1e-9, abs=0)
            assert p.planarity == pytest.approx(planarity, rel=1e-9, abs=0)

    def test_bit_pins(self):
        # float.hex of (survival, P(1), planarity): the bits of the window
        # series and the weight formula together.
        for (spec, mu), want in PREDICT_BITS.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # 1,3,5,7 at mu = +2
                p = predict(_cp(spec), mu)
            got = tuple(float.hex(v) for v in (p.survival, p.excess_dist[1], p.planarity))
            assert got == want, (spec, mu)

    def test_qmax_domain(self):
        with pytest.raises(ValueError, match="q_max"):
            predict(_cp("1,3"), 0.0, q_max=3)
        with pytest.raises(OutOfRangeError, match="q_max must be <= 1200, got 1201"):
            predict(_cp("1,3"), 0.0, q_max=1201)


class TestTwoPath:
    @pytest.mark.parametrize("spec", ["1,3", "all:60"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_centre_closed_form(self, spec, q):
        # b1 = B(y+1, 0) / B(y, 0) collapses to a Gamma ratio at mu = 0.
        cp = _cp(spec)
        y = 3 * q + 0.5
        closed = (
            cp.c3 ** (1.0 / 3.0)
            * math.gamma((y + 1.0) / 3.0)
            / math.gamma((y + 2.0) / 3.0)
        )
        assert twopath_constants(cp, 0.0, q).b1 == pytest.approx(closed, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", ["1,3", "0,1,4,5", "1,3,5,7"])
    def test_variance_constant_nonnegative(self, spec):
        cp = _cp(spec)
        for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
            with pytest.raises(OutOfRangeError, match="q must be >= 1"):
                twopath_constants(cp, mu, 0)
            for q in (1, 2, 3):
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
        assert rejection_rate(1.0) == pytest.approx(math.exp(-0.75), rel=1e-15, abs=0)

    def test_monotone_and_domain(self):
        assert rejection_rate(2.0) < rejection_rate(1.0) < rejection_rate(0.5)
        with pytest.raises(ValueError, match=">= 0"):
            rejection_rate(-0.1)
