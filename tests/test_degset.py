"""Degree-set parsing, generating-function evaluation, and admissibility."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degwin.critical import critical_point
from degwin.degset import (
    DegreeSet,
    _power_arrays,
    egf_eval,
    egf_eval_complex,
    parse_degree_set,
    periodicity,
    phi0,
)
from degwin.errors import DegreeSetError, InfeasibleError
from degwin.sampler import edges_for_mu

from oracles import phi1

FAMILIES = ["1,3", "1,3,5,7", "0,1,4,5", "1,2,3", "all:60", "pow2:64"]


def family_sets():
    return [parse_degree_set(s) for s in FAMILIES]


class TestParsing:
    def test_explicit_list(self):
        ds = parse_degree_set("1,3,5,7")
        assert ds.degrees == (1, 3, 5, 7)
        assert ds.rule is None

    def test_list_is_sorted_and_deduplicated(self):
        assert parse_degree_set("7,1,3,3,5").degrees == (1, 3, 5, 7)

    def test_range_form(self):
        assert parse_degree_set("0..4").degrees == (0, 1, 2, 3, 4)

    def test_rule_with_bound(self):
        ds = parse_degree_set("pow2:64")
        assert ds.degrees == (1, 2, 4, 8, 16, 32, 64)
        assert (ds.rule, ds.bound) == ("pow2", 64)

    def test_rule_default_bound(self):
        ds = parse_degree_set("all")
        assert ds.degrees == tuple(range(61))

    def test_str_roundtrip(self):
        for ds in family_sets():
            assert parse_degree_set(str(ds)) == ds

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "2,4", "1,2", "1", "nosuchrule:10", "even", "3..1", "1,-3", "1,x"],
    )
    def test_rejects_invalid_specifications(self, bad):
        with pytest.raises(DegreeSetError):
            parse_degree_set(bad)

    def test_requires_pendant_degree(self):
        with pytest.raises(DegreeSetError, match="contain 1"):
            DegreeSet((0, 3, 4))

    def test_requires_degree_three(self):
        with pytest.raises(DegreeSetError, match=">= 3"):
            DegreeSet((1, 2))


class TestEgf:
    def test_hand_values_13(self):
        # omega(z) = z + z^3/6 for degrees {1,3}
        ds = parse_degree_set("1,3")
        assert egf_eval(ds, 2.0) == pytest.approx(2 + 8 / 6, abs=1e-12)
        assert egf_eval(ds, 2.0, 1) == pytest.approx(1 + 4 / 2, abs=1e-12)
        assert egf_eval(ds, 2.0, 2) == pytest.approx(2.0, abs=1e-12)
        assert egf_eval(ds, 2.0, 3) == pytest.approx(1.0, abs=1e-12)
        assert egf_eval(ds, 2.0, 4) == 0.0

    def test_zero_argument(self):
        ds = parse_degree_set("0,1,4,5")
        assert egf_eval(ds, 0.0) == 1.0  # the d=0 term
        assert egf_eval(ds, 0.0, 1) == 1.0  # the d=1 term
        assert egf_eval(ds, 0.0, 2) == 0.0

    def test_unbounded_set_matches_exponential(self):
        ds = parse_degree_set("all:60")
        for z in (0.5, 1.0, 2.0):
            for order in (0, 1, 2):
                assert egf_eval(ds, z, order) == pytest.approx(math.exp(z), rel=1e-12)

    def test_invalid_arguments(self):
        ds = parse_degree_set("1,3")
        with pytest.raises(ValueError):
            egf_eval(ds, -1.0)
        with pytest.raises(ValueError):
            egf_eval(ds, math.inf)
        with pytest.raises(ValueError):
            egf_eval(ds, 1.0, -1)

    @given(
        spec=st.sampled_from(FAMILIES),
        x=st.floats(0.05, 2.5),
        y=st.floats(0.05, 2.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_complex_evaluation_agrees_on_real_axis(self, spec, x, y):
        ds = parse_degree_set(spec)
        z = min(x, y)
        for order in (0, 1, 2):
            real = egf_eval(ds, z, order)
            cplx = egf_eval_complex(ds, complex(z, 0.0), order)
            assert cplx.imag == 0.0
            assert cplx.real == pytest.approx(real, rel=1e-9)

    @pytest.mark.parametrize("spec", ["1,3", "1,3,5,7", "all:60"])
    def test_array_evaluation_matches_scalar_calls(self, spec):
        # An array of z gives the scalar values, summed in another order.
        ds = parse_degree_set(spec)
        zs = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 12)).reshape(3, 4)
        for order in (0, 1, 2):
            got = egf_eval_complex(ds, zs, order)
            assert got.shape == zs.shape
            for z, value in zip(zs.ravel(), got.ravel()):
                want = egf_eval_complex(ds, z, order)
                assert value == pytest.approx(want, rel=1e-14, abs=0)


class TestEgfPastDirectOverflow:
    """z**p overflows for z above about 113 at p = 150 although z**p / p!
    is finite; such terms go through the log-gamma form instead."""

    @staticmethod
    def _mp_sum(ds, z, order):
        with mpmath.workdps(40):
            return mpmath.fsum(
                mpmath.mpf(z) ** (d - order) / mpmath.factorial(d - order)
                for d in ds.degrees
                if d >= order
            )

    @pytest.mark.parametrize("order", [0, 1])
    def test_matches_exact_sum(self, order):
        ds = parse_degree_set("all:150")
        want = self._mp_sum(ds, 150.0, order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = egf_eval(ds, 150.0, order)
            got_complex = egf_eval_complex(ds, complex(150.0, 0.0), order)
        assert abs(got - want) <= 1e-13 * want
        assert abs(got_complex.real - want) <= 1e-13 * want
        assert got_complex.imag == 0.0

    def test_array_mixes_both_forms(self):
        # Rows below the cutoff keep the direct-power bits of a scalar call.
        ds = parse_degree_set("all:150")
        zs = np.array([2.0, 150.0, 60.0, 120.0 + 1.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = egf_eval_complex(ds, zs)
            for z, value in zip(zs, got):
                assert value == pytest.approx(egf_eval_complex(ds, z), rel=1e-14, abs=0)
        assert got[0] == egf_eval_complex(ds, zs[:1])[0]
        assert got[2] == egf_eval_complex(ds, zs[2:3])[0]
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("order", [0, 1])
    def test_both_sides_of_the_cutoff(self, order):
        # The cutoff is the largest z whose direct powers stay finite: at it
        # the direct form runs without an overflow, one float above it the
        # log-gamma form takes over.
        ds = parse_degree_set("all:150")
        z_direct = _power_arrays(ds.degrees, order)[3]
        for z in (z_direct, math.nextafter(z_direct, math.inf)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = egf_eval(ds, z, order)
            want = self._mp_sum(ds, z, order)
            assert abs(got - want) <= 1e-13 * want


class TestCharacteristicFunctions:
    @given(
        spec=st.sampled_from(FAMILIES),
        a=st.floats(0.05, 2.5),
        b=st.floats(0.05, 2.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_on_positive_axis(self, spec, a, b):
        ds = parse_degree_set(spec)
        lo, hi = sorted((a, b))
        assert phi0(ds, lo) <= phi0(ds, hi) + 1e-12
        assert phi1(ds, lo) <= phi1(ds, hi) + 1e-12

    def test_known_values_13(self):
        ds = parse_degree_set("1,3")
        z = math.sqrt(2.0)
        assert phi1(ds, z) == pytest.approx(1.0, abs=1e-12)
        assert phi0(ds, z) == pytest.approx(1.5, abs=1e-12)

    def test_requires_positive_argument(self):
        ds = parse_degree_set("1,3")
        with pytest.raises(ValueError):
            phi0(ds, 0.0)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "spec, expected",
        [("1,3", 2), ("1,3,5,7", 2), ("0,1,4,5", 1), ("1,4", 3), ("all:60", 1)],
    )
    def test_periodicity(self, spec, expected):
        assert periodicity(parse_degree_set(spec)) == expected

    # In 1,4 (p = 3) and 1,5,9 (p = 4) admissible m are 3 and 2 apart, so
    # targets fall between two of them, and 1,5,9 has ties.
    @pytest.mark.parametrize("spec", [*FAMILIES, "1,4", "1,5,9"])
    def test_edges_for_mu_is_the_nearest_admissible_count(self, spec):
        # Condition C, written out: n*min(D) < 2m < n*max(D), and the gcd
        # of the degree differences divides 2m - n*min(D).
        ds = parse_degree_set(spec)
        low, high = ds.degrees[0], ds.degrees[-1]
        p = 0
        for d in ds.degrees:
            p = math.gcd(p, d - low)
        alpha = critical_point(ds).alpha
        for n in range(1, 41):
            admissible = [
                m for m in range(n * high)
                if n * low < 2 * m < n * high and (2 * m - n * low) % p == 0
            ]
            scale = float(n) ** (1.0 / 3.0)
            for mu in (-1e3, -20.0, -2.5, -0.7, 0.0, 0.3, 1.9, 20.0, 1e3):
                target = round(alpha * n * (1.0 + mu / scale))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    if not admissible:
                        with pytest.raises(InfeasibleError):
                            edges_for_mu(ds, n, mu)
                        continue
                    m, realized = edges_for_mu(ds, n, mu)
                assert m in admissible, (n, mu, m)
                # Nearest the target; of two at equal distance, the larger.
                assert m == min(admissible, key=lambda k: (abs(k - target), -k)), (n, mu)
                assert realized == (m / (alpha * n) - 1.0) * scale
                assert len(caught) == (m != target), (n, mu, m, target)
