"""Critical point, window constants, and the angular profile of the saddle exponent.

For a degree set D with EGF omega, the critical edge density and the constants
of the scaling window come from the branching-ratio equation phi1(zhat) = 1:

    alpha = phi0(zhat) / 2          (critical edge density m/n)
    t3    = zhat omega'''(zhat) / omega'(zhat)
    c2    = t3 alpha zhat / (2 (1 - alpha))
    c3    = 2 t3 alpha zhat / 3
    rho   = zhat / omega'(zhat)     (singularity of the rooted-tree series)

petrov_profile samples Re h on a circle |z| = z0, where h is the saddle
exponent of contour estimates at edge density r:

    h(z; r) = r log omega'(z) - r log z + (1 - r) log(2 omega(z) - z omega'(z))

Its z-derivative has the sign of (phi0 - 2r)(phi1 - 1)/(phi0 - 2), with
interior roots where phi0(z) = 2r (root1) and phi1(z) = 1 (zhat).  For z0 at
or below min(root1(r), zhat) the maxima over the angle sit exactly at the
multiples of 2 pi / p where p is the degree period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .degset import DegreeSet, egf_eval, egf_eval_complex, periodicity, phi0
from .errors import NoCriticalPointError, OutOfRangeError

_BISECT_STEPS = 80
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class CriticalPoint:
    """The critical point and window constants of a degree set."""

    zhat: float
    alpha: float
    t3: float
    c2: float
    c3: float
    rho: float


def _phi_root(ds: DegreeSet, k: int, target: float, error: type[Exception]) -> float:
    """Solve phi_k(z) = z omega^(k+1)(z) / omega^(k)(z) = target for z > 0.

    phi_k is non-decreasing on the positive axis and lies strictly between
    min{d in D : d >= k} - k and max(D) - k; a target outside that interval
    raises ``error`` before any evaluation.  The root is bracketed by halving
    and doubling from 1, narrowed by bisection until the bracket is two
    adjacent floats (at most 80 steps), and polished by at most three Newton
    steps that stay inside the bracket, with
    phi_k' = (w_{k+1} + z w_{k+2}) / w_k - z (w_{k+1} / w_k)^2.  Raises
    ``error`` when the brackets do not reach the target, or when evaluating
    phi_k fails on the way, an overflow included.
    """
    too_low = f"phi{k} never drops below {target} near 0 for {ds}"
    too_high = f"phi{k} never exceeds {target} for {ds} on the materialised degree range"
    if not target > min(d for d in ds.degrees if d >= k) - k:
        raise error(too_low)
    if not target < ds.max_degree - k:
        raise error(too_high)

    def phi(z: float) -> float:
        try:
            value = z * egf_eval(ds, z, k + 1) / egf_eval(ds, z, k)
        except ArithmeticError as exc:
            raise error(f"phi{k} fails at z = {z} for {ds}: {exc}") from None
        if math.isnan(value):
            raise error(
                f"phi{k} fails at z = {z} for {ds}: omega^({k}) and omega^({k + 1}) overflow"
            )
        return value

    # Overflow ends the solve only through phi: a NaN (both EGF values
    # infinite) is refused above, while an infinite phi over a finite
    # denominator still brackets the root from above.
    with np.errstate(over="ignore"):
        at_one = phi(1.0)
        lo = hi = 1.0
        for _ in range(200):
            if (phi(lo) if lo < 1.0 else at_one) < target:
                break
            lo /= 2.0
        else:
            raise error(too_low)
        for _ in range(200):
            if (phi(hi) if hi > 1.0 else at_one) > target:
                break
            hi *= 2.0
        else:
            raise error(too_high)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if phi(mid) < target:
                lo = mid
            else:
                hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        w0 = egf_eval(ds, z, k)
        w1 = egf_eval(ds, z, k + 1)
        w2 = egf_eval(ds, z, k + 2)
        f = z * w1 / w0 - target
        df = (w1 + z * w2) / w0 - z * (w1 / w0) ** 2
        if df <= 0.0:
            break
        z_new = z - f / df
        if not (lo <= z_new <= hi):
            break
        z = z_new
    return z


@lru_cache(maxsize=128)
def critical_point(ds: DegreeSet) -> CriticalPoint:
    """Solve phi1(zhat) = 1 over the finite set ``ds.degrees`` and assemble
    the window constants.

    Bracketing by doubling/halving, bisection until the bracket is two
    adjacent floats (at most 80 steps), then a short Newton polish.
    Deterministic: same inputs give bitwise-identical results.
    Results are cached per degree set; ``critical_point.cache_clear()``
    empties the cache and ``critical_point.__wrapped__`` is the uncached solve.
    """
    zhat = _phi_root(ds, 1, 1.0, NoCriticalPointError)
    alpha = phi0(ds, zhat) / 2.0
    w1 = egf_eval(ds, zhat, 1)
    w3 = egf_eval(ds, zhat, 3)
    t3 = zhat * w3 / w1
    c2 = t3 * alpha * zhat / (2.0 * (1.0 - alpha))
    c3 = 2.0 * t3 * alpha * zhat / 3.0
    rho = zhat / w1
    return CriticalPoint(zhat=zhat, alpha=alpha, t3=t3, c2=c2, c3=c3, rho=rho)


def root1(ds: DegreeSet, r: float) -> float:
    """Solve phi0(z) = 2r on the positive axis.

    Raises OutOfRangeError when 2r is outside the open range of phi0 (for
    example r = min(D)/2, attained only in the z -> 0 limit).  At r = alpha
    the root coincides with zhat, making the saddle of h a double root.
    """
    return _phi_root(ds, 0, 2.0 * r, OutOfRangeError)


@dataclass(frozen=True)
class PetrovProfile:
    """Re h sampled on a circle, and how far its maxima sit from the
    angles 2 pi k / p, in grid cells."""

    values: np.ndarray
    max_cell_offset: float


def petrov_profile(
    ds: DegreeSet, z0: float, r: float, grid_size: int = 4096
) -> PetrovProfile:
    """Sample Phi(theta) = Re h(z0 e^{i theta}; r) on a uniform angle grid.

    Precondition: 0 < z0 <= min(root1(r), zhat).  The profile's global maxima
    then sit exactly at the angles 2 pi k / p (p the degree period).  The
    profile holds the grid values, value j at angle 2 pi j / grid_size, and
    the largest offset in grid cells between a grid point within 1e-12
    (relative) of the top value and the nearest of those angles.
    """
    cp = critical_point(ds)
    bound = min(root1(ds, r), cp.zhat)
    if not (0.0 < z0 <= bound * (1.0 + 1e-9)):
        raise ValueError(
            f"petrov_profile requires 0 < z0 <= min(root1(r), zhat) = {bound}, "
            f"got z0 = {z0}"
        )
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    zs = z0 * np.exp(1j * theta)
    w0 = egf_eval_complex(ds, zs, 0)
    w1 = egf_eval_complex(ds, zs, 1)
    with np.errstate(divide="ignore"):
        vals = r * (np.log(np.abs(w1)) - math.log(z0)) + (1.0 - r) * np.log(
            np.abs(2.0 * w0 - zs * w1)
        )
    p = periodicity(ds)
    top = vals.max()
    near = np.nonzero(vals >= top - 1e-12 * max(1.0, abs(top)))[0]
    expected = [k * grid_size / p for k in range(p)]
    max_off = max(
        (min(min(abs(j - e), grid_size - abs(j - e)) for e in expected) for j in near),
        default=0.0,
    )
    return PetrovProfile(values=vals, max_cell_offset=float(max_off))
