"""Critical point, the phi0 root, and angular profiles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degwin import critical
from degwin.critical import CriticalPoint, critical_point, petrov_profile, root1
from degwin.degset import DegreeSet, egf_eval, parse_degree_set, periodicity, phi0
from degwin.errors import OutOfRangeError

from oracles import phi1

# omega = e^z limit (all degrees allowed): the classical random-graph values.
ER_CRITICAL_POINT = CriticalPoint(
    zhat=1.0, alpha=0.5, t3=1.0, c2=0.5, c3=1.0 / 3.0, rho=math.exp(-1.0)
)

# Frozen by an independent 40-digit bisection on phi1(z) = 1.
FROZEN_ALPHA = {
    "0,1,4,5": 0.38151424114667153,
    "pow2:64": 0.79579608806563158,
    "all:60": 0.5,
}

# float.hex of every CriticalPoint field (zhat, alpha, t3, c2, c3, rho).
# all:150 is the largest set whose exponents are all computed as z^p / p!;
# pow2:256 also takes the exp(p log z - log p!) path for p > 150.
PINNED_CRITICAL_POINTS = {
    "0,1,4,5": (
        "0x1.4457f574ddc72p+0",
        "0x1.86abab52bb9bep-2",
        "0x1.d01c459c28183p+0",
        "0x1.6ab783d9716f7p-1",
        "0x1.2b1d15bc8babfp-1",
        "0x1.c08250d53082fp-1",
    ),
    "pow2:64": (
        "0x1.6f5ed530bb206p+0",
        "0x1.977295b90da19p-1",
        "0x1.74911970cf48cp-1",
        "0x1.0471f03b9e5c5p+1",
        "0x1.1ba5c14260ffbp-1",
        "0x1.f584a038601cdp-2",
    ),
    "all:60": (
        "0x1.0000000000000p+0",
        "0x1.0000000000000p-1",
        "0x1.0000000000000p+0",
        "0x1.0000000000000p-1",
        "0x1.5555555555555p-2",
        "0x1.78b56362cef38p-2",
    ),
    "1,3,5,7": (
        "0x1.33352287847ddp+0",
        "0x1.707c06c3ac518p-1",
        "0x1.3280f84a5f30cp+0",
        "0x1.d83101fe497c6p+0",
        "0x1.60f3bbe001438p-1",
        "0x1.53584ce08eb56p-1",
    ),
    "1,3": (
        "0x1.6a09e667f3bcdp+0",
        "0x1.8000000000000p-1",
        "0x1.6a09e667f3bcdp-1",
        "0x1.8000000000001p+0",
        "0x1.0000000000001p-1",
        "0x1.6a09e667f3bcdp-1",
    ),
    "1,2,3": (
        "0x1.6a09e667f3bcep+0",
        "0x1.ac5ba047a3c1fp-1",
        "0x1.a827999fcef32p-2",
        "0x1.8000000000002p+0",
        "0x1.4e917ee170f85p-2",
        "0x1.a827999fcef32p-2",
    ),
    "1,4": (
        "0x1.7137449123ef6p+0",
        "0x1.5555555555555p-1",
        "0x1.63003fbb4c375p+0",
        "0x1.fffffffffffffp+0",
        "0x1.c71c71c71c71cp-1",
        "0x1.ec49b0c1853f3p-1",
    ),
    "pow2:16": (
        "0x1.6f5ed530bb206p+0",
        "0x1.977295b90da19p-1",
        "0x1.74911970cf48cp-1",
        "0x1.0471f03b9e5c5p+1",
        "0x1.1ba5c14260ffbp-1",
        "0x1.f584a038601cdp-2",
    ),
    "all:150": (
        "0x1.0000000000000p+0",
        "0x1.0000000000000p-1",
        "0x1.0000000000000p+0",
        "0x1.0000000000000p-1",
        "0x1.5555555555555p-2",
        "0x1.78b56362cef38p-2",
    ),
    "pow2:256": (
        "0x1.6f5ed530bb206p+0",
        "0x1.977295b90da19p-1",
        "0x1.74911970cf48cp-1",
        "0x1.0471f03b9e5c5p+1",
        "0x1.1ba5c14260ffbp-1",
        "0x1.f584a038601cdp-2",
    ),
}
PINNED_ROOT1_1357 = {
    0.6: "0x1.94a0da2ebfabap-1",
    0.75: "0x1.49bb3f1c9e190p+0",
    0.9: "0x1.ae0f2e2d2fa8dp+0",
}
CP_FIELDS = ("zhat", "alpha", "t3", "c2", "c3", "rho")


def _solved_hex():
    """The pinned quantities, solved afresh, as float.hex."""
    critical_point.cache_clear()
    cps = {
        spec: tuple(getattr(critical_point(parse_degree_set(spec)), f).hex() for f in CP_FIELDS)
        for spec in PINNED_CRITICAL_POINTS
    }
    ds = parse_degree_set("1,3,5,7")
    roots = {r: root1(ds, r).hex() for r in PINNED_ROOT1_1357}
    critical_point.cache_clear()
    return cps, roots


@pytest.fixture
def egf_calls(monkeypatch):
    """Arguments of every egf_eval call made through ``critical``."""
    calls = []

    def counted(*args):
        calls.append(args)
        return egf_eval(*args)

    monkeypatch.setattr(critical, "egf_eval", counted)
    return calls


class TestBitPins:
    def test_values_are_pinned(self):
        assert _solved_hex() == (PINNED_CRITICAL_POINTS, PINNED_ROOT1_1357)

    def test_bisection_ends_when_the_bracket_does(self, monkeypatch):
        # More steps change nothing: the loop stops once the bracket is two
        # adjacent floats, well before the cap.
        monkeypatch.setattr(critical, "_BISECT_STEPS", 200)
        assert _solved_hex() == (PINNED_CRITICAL_POINTS, PINNED_ROOT1_1357)

    @pytest.mark.parametrize("spec, budget", [("1,3,5,7", 125), ("all:60", 130)])
    def test_evaluation_budget(self, spec, budget, egf_calls):
        critical_point.__wrapped__(parse_degree_set(spec))
        assert 0 < len(egf_calls) <= budget


class TestCriticalPoint:
    def test_closed_forms_13(self):
        cp = critical_point(parse_degree_set("1,3"))
        assert cp.zhat == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert cp.alpha == pytest.approx(0.75, abs=1e-9)
        assert cp.t3 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert cp.c2 == pytest.approx(1.5, abs=1e-9)
        assert cp.c3 == pytest.approx(0.5, abs=1e-9)
        assert cp.rho == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)

    @pytest.mark.parametrize("spec, alpha", sorted(FROZEN_ALPHA.items()))
    def test_frozen_thresholds(self, spec, alpha):
        cp = critical_point(parse_degree_set(spec))
        tol = 1e-6 if spec == "all:60" else 1e-9
        assert cp.alpha == pytest.approx(alpha, abs=tol)

    def test_truncated_exponential_approaches_classical_constants(self):
        cp = critical_point(parse_degree_set("all:60"))
        ref = ER_CRITICAL_POINT
        for name in ("zhat", "alpha", "t3", "c2", "c3", "rho"):
            assert getattr(cp, name) == pytest.approx(getattr(ref, name), abs=1e-6)

    @given(spec=st.sampled_from(["1,3", "1,3,5,7", "0,1,4,5", "1,2,3", "pow2:64"]))
    @settings(max_examples=20, deadline=None)
    def test_defining_relations(self, spec):
        ds = parse_degree_set(spec)
        cp = critical_point(ds)
        assert phi1(ds, cp.zhat) == pytest.approx(1.0, abs=1e-12)
        assert cp.alpha == pytest.approx(phi0(ds, cp.zhat) / 2.0, abs=1e-12)
        w1 = egf_eval(ds, cp.zhat, 1)
        assert cp.t3 == pytest.approx(cp.zhat * egf_eval(ds, cp.zhat, 3) / w1, rel=1e-12)
        assert cp.c2 == pytest.approx(
            cp.t3 * cp.alpha * cp.zhat / (2.0 * (1.0 - cp.alpha)), rel=1e-12
        )
        assert cp.c3 == pytest.approx(2.0 * cp.t3 * cp.alpha * cp.zhat / 3.0, rel=1e-12)
        assert cp.rho == pytest.approx(cp.zhat / w1, rel=1e-12)

    @pytest.mark.parametrize(
        "rule, degrees",
        [
            ("pow2:4", (1, 2, 4)),
            ("all:5", tuple(range(6))),
            ("pow2:16", (1, 2, 4, 8, 16)),
            ("all:60", tuple(range(61))),
            ("pow2:64", (1, 2, 4, 8, 16, 32, 64)),
        ],
    )
    def test_rule_set_is_its_degree_list(self, rule, degrees):
        # A rule set names a finite set: its constants and its EGF are those
        # of the explicit list, bit for bit, also where the tail would matter.
        ruled, listed = parse_degree_set(rule), DegreeSet(degrees)
        assert ruled.degrees == degrees
        assert critical_point(ruled) == critical_point(listed)
        for z in (0.5, 3.0, 20.0):
            for order in range(4):
                assert egf_eval(ruled, z, order) == egf_eval(listed, z, order)

    def test_deterministic_and_cached(self):
        ds = parse_degree_set("1,3,5,7")
        assert critical_point(ds) is critical_point(parse_degree_set("1,3,5,7"))

    def test_cache_clear_empties_the_cache(self):
        ds = parse_degree_set("1,3,5,7")
        first = critical_point(ds)
        critical_point.cache_clear()
        again = critical_point(ds)
        assert again == first and again is not first


class TestSaddleGeometry:
    def test_root_solves_mean_degree_equation(self):
        ds = parse_degree_set("1,3,5,7")
        for r in (0.6, 0.75, 0.9):
            z = root1(ds, r)
            assert phi0(ds, z) == pytest.approx(2.0 * r, abs=1e-10)

    def test_root_at_alpha_is_critical(self):
        ds = parse_degree_set("1,3")
        cp = critical_point(ds)
        assert root1(ds, cp.alpha) == pytest.approx(cp.zhat, abs=1e-8)

    def test_out_of_range(self):
        ds = parse_degree_set("1,3")
        with pytest.raises(OutOfRangeError):
            root1(ds, 0.5)  # 2r = min degree, attained only as z -> 0
        with pytest.raises(OutOfRangeError):
            root1(ds, 1.5)  # 2r = max degree, attained only as z -> inf

    @pytest.mark.parametrize(
        "spec, r",
        [("1,3", 1.5), ("1,3", 0.4), ("1,2,3", 1.5), ("pow2:64", 32.0), ("all:60", 30.0)],
    )
    def test_target_outside_phi0_range_is_not_evaluated(self, spec, r, egf_calls):
        # phi0 lies strictly between min(D) and max(D); a target at or past
        # either end is refused before phi0 is evaluated.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match="never"):
                root1(parse_degree_set(spec), r)
        assert egf_calls == []

    @pytest.mark.parametrize("r", [29.999999999, 29.99999999999997])
    def test_unreachable_target_is_a_package_error(self, r):
        # 2r is below max(D) = 60, but the EGF overflows long before phi0
        # gets there: the overflow ends the solve, not a numpy warning.
        ds = parse_degree_set("all:60")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match="overflow"):
                root1(ds, r)
            assert root1(ds, 29.0) > 0.0

    @pytest.mark.parametrize("r", [90.0, 110.0])
    def test_root_past_the_direct_power_range(self, r):
        # omega' has the direct exponent 150, which overflows as z**150 near
        # z = 113.5 while omega'(z) is finite; the root lies beyond that.
        ds = parse_degree_set("0,1,2,151,300")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = root1(ds, r)
            assert z > 113.6
            assert phi0(ds, z) == pytest.approx(2.0 * r, rel=1e-12)


class TestAngularProfile:
    def test_aperiodic_peak_at_zero(self):
        ds = parse_degree_set("0,1,4,5")  # period 1
        cp = critical_point(ds)
        prof = petrov_profile(ds, 0.8 * cp.zhat, 0.7)
        assert periodicity(ds) == 1
        assert int(np.argmax(prof.values)) == 0
        assert prof.max_cell_offset <= 1.0
        # The peak stands clear: every grid value more than one cell from
        # angle 0 lies strictly below it.
        grid = len(prof.values)
        assert prof.values[0] > prof.values[2 : grid - 1].max()

    def test_periodic_peaks_at_rational_angles(self):
        ds = parse_degree_set("1,3")  # period 2
        cp = critical_point(ds)
        prof = petrov_profile(ds, 0.9 * min(root1(ds, 0.7), cp.zhat), 0.7)
        assert periodicity(ds) == 2
        assert prof.max_cell_offset <= 1.0
        half = len(prof.values) // 2
        top = prof.values.max()
        assert prof.values[half] == pytest.approx(top, abs=1e-9 * max(1.0, abs(top)))

    def test_rejects_radius_beyond_bound(self):
        ds = parse_degree_set("1,3")
        with pytest.raises(ValueError):
            petrov_profile(ds, 10.0, 0.7)

    def test_profile_values_finite(self):
        ds = parse_degree_set("1,3,5,7")
        prof = petrov_profile(ds, 0.5, 0.8, grid_size=512)
        assert np.isfinite(prof.values).all()
