"""Degree sets and their exponential generating function.

A degree set D is a finite set of allowed vertex degrees.  The model requires
1 in D (pendant vertices exist) and max(D) >= 3 (otherwise the branching ratio
never reaches 1 and there is no critical point).  A rule ("all", "pow2") with
a bound names the finite set of the degrees up to that bound that follow the
rule: "pow2:64" is {1, 2, 4, ..., 64}.  The thresholds, the tree series and
the sampler all use that one finite set.

The generating function here is the degree EGF

    omega(z) = sum_{d in D} z^d / d!

and its termwise derivatives; the two ratios

    phi0(z) = z omega'(z) / omega(z)      (mean-degree functional)
    phi1(z) = z omega''(z) / omega'(z)    (branching ratio)

drive everything downstream: phi1 = 1 locates the critical point and
phi0 = 2r locates saddle points off criticality.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import DegreeSetError

DEFAULT_BOUND = 60
# Largest exponent for which z**p / p! is computed directly in floats; above
# this we go through exp(p log z - lgamma(p+1)) to dodge overflow.  Smaller
# exponents take that form too once z**p itself would overflow.
_DIRECT_POWER_LIMIT = 150

_RULES: dict[str, Callable[[int], bool]] = {
    "all": lambda d: True,
    "pow2": lambda d: d >= 1 and (d & (d - 1)) == 0,
}


@dataclass(frozen=True)
class DegreeSet:
    """An immutable, validated, finite set of allowed degrees.

    ``degrees`` is the sorted tuple that every computation reads.  A set
    built from a rule keeps ``rule`` and ``bound`` only so that ``str`` spells
    it as it was given (``pow2:64``); explicit sets have rule None.
    """

    degrees: tuple[int, ...]
    rule: str | None = None
    bound: int | None = None

    def __post_init__(self):
        degs = self.degrees
        if len(degs) == 0:
            raise DegreeSetError("degree set is empty")
        if any((not isinstance(d, int)) or d < 0 for d in degs):
            raise DegreeSetError(f"degrees must be non-negative integers: {degs}")
        if len(set(degs)) != len(degs) or tuple(sorted(degs)) != degs:
            raise DegreeSetError(f"degrees must be distinct and sorted: {degs}")
        if 1 not in degs:
            raise DegreeSetError(
                "degree set must contain 1: pendant vertices (and hence trees) "
                "are required by the sampling and threshold theory"
            )
        if max(degs) <= 2:
            raise DegreeSetError(
                "degree set needs at least one degree >= 3: with all degrees "
                "<= 2 the branching ratio stays below 1 and the model has no "
                "phase transition"
            )

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeSet":
        return cls(tuple(sorted(set(int(d) for d in degrees))))

    @classmethod
    def from_rule(cls, rule: str, bound: int) -> "DegreeSet":
        """The degrees 0..bound that satisfy the rule."""
        if rule not in _RULES:
            raise DegreeSetError(
                f"unknown degree rule {rule!r}; known rules: {sorted(_RULES)}"
            )
        keep = _RULES[rule]
        return cls(tuple(d for d in range(bound + 1) if keep(d)), rule=rule, bound=bound)

    @property
    def min_degree(self) -> int:
        return self.degrees[0]

    @property
    def max_degree(self) -> int:
        return self.degrees[-1]

    def __str__(self) -> str:
        if self.rule is not None:
            return f"{self.rule}:{self.bound}"
        return ",".join(str(d) for d in self.degrees)


_RANGE_RE = re.compile(r"^\s*(\d+)\s*\.\.\s*(\d+)\s*$")
_RULE_RE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9_-]*)\s*(?::\s*(\d+)\s*)?$")


def parse_degree_set(text: str) -> DegreeSet:
    """Parse a degree-set specification string.

    Accepted forms:
      * an explicit list:  ``"1,3,5,7"``
      * an inclusive range: ``"0..9"``
      * a rule with an optional bound: ``"all:60"``, ``"pow2:64"``,
        ``"pow2"`` (default bound 60)
    """
    if not isinstance(text, str) or not text.strip():
        raise DegreeSetError(f"empty degree-set specification: {text!r}")
    s = text.strip()
    m = _RANGE_RE.match(s)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise DegreeSetError(f"bad range {s!r}: upper end below lower end")
        return DegreeSet.from_degrees(range(lo, hi + 1))
    if "," in s or s.isdigit():
        try:
            degs = [int(tok) for tok in s.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise DegreeSetError(f"bad degree list {s!r}: {exc}") from None
        return DegreeSet.from_degrees(degs)
    m = _RULE_RE.match(s)
    if m:
        rule = m.group(1).lower()
        bound = int(m.group(2)) if m.group(2) is not None else DEFAULT_BOUND
        return DegreeSet.from_rule(rule, bound)
    raise DegreeSetError(f"unrecognised degree-set specification {s!r}")


@lru_cache(maxsize=256)
def _power_arrays(degrees: tuple[int, ...], order: int):
    """Exponents p = d - order and factors p! for the order-th termwise
    derivative of the degree EGF, restricted to d >= order.

    Returns (ps, small, fact_small, z_direct).  small masks the exponents
    computed directly as z**p / p!, and is None when that is all of them;
    fact_small holds p! for those.  z_direct is the largest z at which the
    largest direct power z**p is still finite: above it every term goes
    through exp(p log z - log p!), so a finite term never overflows.
    """
    ps = np.array([d - order for d in degrees if d >= order], dtype=np.int64)
    small = ps <= _DIRECT_POWER_LIMIT
    fact_small = np.array([math.factorial(int(p)) for p in ps[small]], dtype=np.float64)
    z_direct = _largest_finite_base(int(ps[small].max(initial=0)))
    return ps, (None if small.all() else small), fact_small, z_direct


def _largest_finite_base(p: int) -> float:
    """The largest float z with z**p finite (inf for p = 0)."""
    if p == 0:
        return math.inf
    z = sys.float_info.max ** (1.0 / p)
    with np.errstate(over="ignore"):
        while not np.isfinite(np.power(z, p)):
            z = math.nextafter(z, 0.0)
        while np.isfinite(np.power(math.nextafter(z, math.inf), p)):
            z = math.nextafter(z, math.inf)
    return z


@lru_cache(maxsize=256)
def _log_factorials(degrees: tuple[int, ...], order: int) -> np.ndarray:
    """log p! for every exponent of ``_power_arrays``, via gammaln."""
    from scipy.special import gammaln

    ps = _power_arrays(degrees, order)[0]
    return gammaln(ps.astype(np.float64) + 1.0)


def egf_eval(ds: DegreeSet, z: float, order: int = 0) -> float:
    """Evaluate the order-th termwise derivative of omega at z >= 0."""
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    if not (z >= 0.0) or math.isinf(z):
        raise ValueError(f"egf_eval requires finite z >= 0, got {z}")
    ps, small, fact_small, z_direct = _power_arrays(ds.degrees, order)
    if ps.size == 0:
        return 0.0
    if z == 0.0:
        return 1.0 if ps[0] == 0 else 0.0
    if z > z_direct:
        terms = np.exp(ps * math.log(z) - _log_factorials(ds.degrees, order))
    elif small is None:
        return math.fsum((np.power(z, ps) / fact_small).tolist())
    else:
        terms = np.empty(ps.size)
        terms[small] = np.power(z, ps[small]) / fact_small
        big = ~small
        logfact = _log_factorials(ds.degrees, order)
        terms[big] = np.exp(ps[big] * math.log(z) - logfact[big])
    return math.fsum(terms.tolist())


def egf_eval_complex(ds: DegreeSet, z, order: int = 0):
    """Termwise-derivative EGF at complex z (used by saddle evaluations).

    ``z`` is a complex scalar, which gives a complex, or an array, which
    gives an array of the same shape; a scalar's terms are summed with
    math.fsum, an array's with numpy.  As in ``egf_eval``, a z with
    |z| above the direct-power range takes every term in log-gamma form.
    """
    zs = np.asarray(z, dtype=np.complex128)
    ps, small, fact_small, z_direct = _power_arrays(ds.degrees, order)
    if ps.size == 0:
        return 0.0 + 0.0j if zs.ndim == 0 else np.zeros_like(zs)
    if zs.ndim == 0 and z == 0:
        return complex(1.0 if ps[0] == 0 else 0.0)
    over = np.abs(zs) > z_direct
    if not over.any():
        terms = _complex_terms(ds.degrees, order, zs)
    else:
        terms = np.empty(zs.shape + ps.shape, dtype=np.complex128)
        logfact = _log_factorials(ds.degrees, order)
        terms[over] = np.exp(ps * np.log(zs[over])[:, None] - logfact)
        terms[~over] = _complex_terms(ds.degrees, order, zs[~over])
    if zs.ndim:
        return terms.sum(axis=-1)
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _complex_terms(degrees: tuple[int, ...], order: int, zs: np.ndarray) -> np.ndarray:
    """Terms z^p / p! for |z| within the direct-power range, one row per z."""
    ps, small, fact_small, _ = _power_arrays(degrees, order)
    if small is None:
        return np.power(zs[..., None], ps) / fact_small
    terms = np.empty(zs.shape + ps.shape, dtype=np.complex128)
    terms[..., small] = np.power(zs[..., None], ps[small]) / fact_small
    big = ~small
    logfact = _log_factorials(degrees, order)
    terms[..., big] = np.exp(ps[big] * np.log(zs)[..., None] - logfact[big])
    return terms


def phi0(ds: DegreeSet, z: float) -> float:
    """z omega'(z) / omega(z); non-decreasing on the positive axis."""
    if z <= 0.0:
        raise ValueError(f"phi0 requires z > 0, got {z}")
    w0 = egf_eval(ds, z, 0)
    w1 = egf_eval(ds, z, 1)
    return z * w1 / w0


def periodicity(ds: DegreeSet) -> int:
    """gcd of the pairwise differences of the degrees."""
    return math.gcd(*(d - ds.min_degree for d in ds.degrees[1:])) or 1

