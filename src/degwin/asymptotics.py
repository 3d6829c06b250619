"""Scaling-window special functions and structure predictions.

The central object is the entire series

    bigB(y, mu) = (1/3) c3^{(y-2)/3} sum_{k>=0} x^k / (k! Gamma((y+1-2k)/3)),
    x = c2 c3^{-2/3} mu,

where 1/Gamma is taken as 0 at the poles, and c2, c3 are the degree-set window
constants (c2 = 1/2, c3 = 1/3 in the classical unconstrained case).  From it:

  * bigA_classical(y, mu) = e^{-mu^3/6} bigB with classical constants: the
    window function of the unconstrained random graph.
  * bigA_delta: the degree-constrained analogue.  The source material prints
    two inequivalent closed forms for it, and they disagree for mu != 0
    whenever 2 c2 != (3 c3)^{2/3}; both are implemented and named:
      - "scaled":  (t3 zhat)^{1-y} (3 c3)^{(y-2)/3} A(y, xi) with the scaled
        argument xi = 2 c2 (3 c3)^{-2/3} mu,
      - "plain":   e^{-mu^3/6} (zhat t3)^{1-y} bigB(y, mu).
    Both reduce to (t3 zhat)^{1-y} bigB(y, mu) times a y-independent factor
    (e^{-xi^3/6} resp. e^{-mu^3/6}), so every self-normalised prediction
    below is identical under either variant; the discrepancy is surfaced, not
    resolved.  See the verify CLI subcommand.

Downstream predictions, all ratios of bigA values and hence variant-proof:
excess distribution P(q) ~ e_{q0} t3^{2q} A(3q + 1/2, mu), survival = P(0),
planarity (planar-kernel coefficients in the numerator), and the
longest-2-path constants.  The planar kernel weights are tabulated only for
q <= 4, so ``planarity`` is P(planar and total excess <= 4): a lower bound on
the planarity probability, which ``planar_tail`` = P(excess >= 5) bounds from
above.  The quantity that is exact in the limit is the conditional
P(non-planar | excess <= 4), ``TheoryPrediction.nonplanar_low_excess``.

Negative mu drives catastrophic cancellation in the series (the result is
~e^{-|mu|^3/6} from terms that are exponentially large), so the core runs in
mpmath with adaptive precision; floats in and floats out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .critical import CriticalPoint, ER_CRITICAL_POINT
from .errors import ConvergenceError

MU_SERIES_LIMIT = 20.0
VARIANTS = ("scaled", "plain")
_MAX_TERMS = 20000
_BASE_DPS = 40
_MAX_DPS = 1200


def wright_e(q: int) -> Fraction:
    """Total compensation weight of the cubic multigraphs with excess q.

    e_{q,0} = (6q)! / (2^{5q} 3^{2q} (3q)! (2q)!) exactly.
    """
    if not 0 <= q <= 30:
        raise ValueError(f"wright_e supports 0 <= q <= 30, got {q}")
    return Fraction(
        math.factorial(6 * q),
        (2 ** (5 * q)) * (3 ** (2 * q)) * math.factorial(3 * q) * math.factorial(2 * q),
    )


# Compensation weight of the *planar* cubic multigraphs with excess q,
# i.e. the even coefficients of the planar-kernel generating series.
PLANAR_KERNEL_WEIGHTS: dict[int, Fraction] = {
    0: Fraction(1),
    1: Fraction(5, 24),
    2: Fraction(385, 1152),
    3: Fraction(83933, 82944),
    4: Fraction(35002561, 7962624),
}


PLANAR_Q_MAX = max(PLANAR_KERNEL_WEIGHTS)


def planar_c(q: int) -> Fraction:
    """Planar cubic-kernel weight for excess q (tabulated for q <= PLANAR_Q_MAX)."""
    try:
        return PLANAR_KERNEL_WEIGHTS[q]
    except KeyError:
        raise LookupError(
            f"planar kernel weights are tabulated only for q <= 4, got {q}"
        ) from None


def _series_sum(x: mp.mpf, y: mp.mpf):
    """sum_k x^k / (k! Gamma((y+1-2k)/3)) with the stated stopping rule.

    Returns (sum, max |term|); raises ConvergenceError after 500 terms.
    """
    s = mp.mpf(0)
    max_term = mp.mpf(0)
    below = 0
    term_scale = mp.mpf(10) ** (-16)
    coeff = mp.mpf(1)  # x^k / k!, updated incrementally
    for k in range(_MAX_TERMS):
        t = coeff * mp.rgamma(mp.mpf(y + 1 - 2 * k) / 3)
        s += t
        at = abs(t)
        if at > max_term:
            max_term = at
        if s != 0 and at < term_scale * abs(s):
            below += 1
            if below >= 5:
                return s, max_term
        else:
            below = 0
        coeff = coeff * x / (k + 1)
    raise ConvergenceError(
        f"series for bigB did not converge within {_MAX_TERMS} terms "
        f"(x = {float(x)}, y = {float(y)})"
    )


def _bigB_mp(c2, c3, y, mu) -> mp.mpf:
    """bigB at working precision adapted to the cancellation in the series."""
    c2 = mp.mpf(c2)
    c3 = mp.mpf(c3)
    y = mp.mpf(y)
    mu = mp.mpf(mu)
    x = c2 * c3 ** (mp.mpf(-2) / 3) * mu
    # Seed the working precision from the known cancellation scale: terms peak
    # at exp((4/27)|x|^3) while the sum is ~exp(-(4/27)x^3) for x < 0 and
    # polynomial-size for x > 0.
    ax3 = abs(float(x)) ** 3
    dps = _BASE_DPS + int((0.13 if x < 0 else 0.07) * ax3)
    if dps > _MAX_DPS:
        raise ConvergenceError(
            f"bigB cancellation (~{dps} digits) exceeds supported precision "
            f"at mu = {float(mu)}"
        )
    for _ in range(4):
        with mp.workdps(dps):
            s, max_term = _series_sum(x, y)
            if s == 0:
                lost = dps  # total cancellation at this precision
            else:
                lost = max(0.0, float(mp.log10(max_term / abs(s))))
        if lost <= dps - 25:
            break
        dps = int(lost) + _BASE_DPS
        if dps > _MAX_DPS:
            raise ConvergenceError(
                f"bigB cancellation exceeds supported precision at mu = {float(mu)}"
            )
    with mp.workdps(dps):
        return c3 ** ((y - 2) / 3) / 3 * s


def bigB(cp: CriticalPoint, y: float, mu: float) -> float:
    """The degree-constrained window series bigB(y, mu) as a float."""
    _check_args(y, mu)
    return float(_bigB_mp(cp.c2, cp.c3, y, mu))


def _check_args(y: float, mu: float):
    if not (y >= 0.5):
        raise ValueError(f"y must be >= 1/2, got {y}")
    if not (abs(mu) <= MU_SERIES_LIMIT):
        raise ValueError(
            f"|mu| <= {MU_SERIES_LIMIT} required for series evaluation "
            f"(got {mu}); use bigA_asymptotic beyond"
        )


def _bigA_classical_mp(y, mu) -> mp.mpf:
    y = mp.mpf(y)
    mu = mp.mpf(mu)
    b = _bigB_mp(mp.mpf(1) / 2, mp.mpf(1) / 3, y, mu)
    return mp.e ** (-(mu**3) / 6) * b


def bigA_classical(y: float, mu: float) -> float:
    """Window function of the classical (unconstrained-degree) random graph."""
    _check_args(y, mu)
    with mp.workdps(_BASE_DPS):
        return float(_bigA_classical_mp(y, mu))


def _bigA_delta_mp(cp: CriticalPoint, y, mu, variant: str) -> mp.mpf:
    y = mp.mpf(y)
    mu = mp.mpf(mu)
    zt = mp.mpf(cp.t3) * mp.mpf(cp.zhat)
    if variant == "scaled":
        c3three = 3 * mp.mpf(cp.c3)
        xi = 2 * mp.mpf(cp.c2) * c3three ** (mp.mpf(-2) / 3) * mu
        return zt ** (1 - y) * c3three ** ((y - 2) / 3) * _bigA_classical_mp(y, xi)
    if variant == "plain":
        b = _bigB_mp(cp.c2, cp.c3, y, mu)
        return mp.e ** (-(mu**3) / 6) * zt ** (1 - y) * b
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def bigA_delta(
    cp: CriticalPoint, y: float, mu: float, variant: str = "scaled"
) -> float:
    """Degree-constrained window function, in the chosen printed form."""
    _check_args(y, mu)
    with mp.workdps(_BASE_DPS):
        return float(_bigA_delta_mp(cp, y, mu, variant))


def bigA_asymptotic(y: float, mu: float, direction: str) -> float:
    """Two-term tail expansions of the classical window function.

    direction "minus": mu -> -infinity branch (valid for mu <= -3);
    direction "plus": mu -> +infinity branch (valid for mu >= 3).
    """
    if direction == "minus":
        if not mu <= -3:
            raise ValueError(f"minus-direction expansion needs mu <= -3, got {mu}")
        a = abs(mu)
        lead = 1.0 / (math.sqrt(2 * math.pi) * a ** (y - 0.5))
        return lead * (1.0 - (3 * y * y + 3 * y - 1) / (6 * a**3))
    if direction == "plus":
        if not mu >= 3:
            raise ValueError(f"plus-direction expansion needs mu >= 3, got {mu}")
        with mp.workdps(30):
            lead = mp.e ** (-mp.mpf(mu) ** 3 / 6) / (
                mp.mpf(2) ** (y / 2) * mp.mpf(mu) ** (1 - y / 2)
            )
            bracket = mp.rgamma(y / 2) + 4 * mp.mpf(mu) ** mp.mpf(-1.5) / (
                3 * mp.sqrt(2)
            ) * mp.rgamma(y / 2 - mp.mpf(1.5))
            return float(lead * bracket)
    raise ValueError(f"direction must be 'minus' or 'plus', got {direction!r}")


@dataclass(frozen=True)
class TheoryPrediction:
    """Normalised window predictions at one point of the critical window.

    ``planarity`` is P(planar and total excess <= PLANAR_Q_MAX), since the
    planar kernel weights stop there; it is a lower bound on P(planar), and
    ``planar_tail`` = P(excess > PLANAR_Q_MAX) bounds the remainder.  For the
    classical graph at mu = 0 the limit 0.99780 (Noy, Ravelomanana and Rue,
    Proc. AMS 2015) lies inside [0.99340, 0.99340 + 0.00596].
    """

    mu: float
    variant: str
    survival: float
    excess_dist: tuple[float, ...]
    planarity: float
    q_max: int
    tail_weight: float
    planar_tail: float

    @property
    def nonplanar_low_excess(self) -> float:
        """P(non-planar | total excess <= PLANAR_Q_MAX).

        Exact from the tabulated weights: the q_max normalisation cancels.
        """
        low = math.fsum(self.excess_dist[: PLANAR_Q_MAX + 1])
        return 1.0 - self.planarity / low


def _excess_y(q: int) -> float:
    return 3 * q + 0.5


def predict(
    cp: CriticalPoint, mu: float, variant: str = "scaled", q_max: int = 20
) -> TheoryPrediction:
    """Excess distribution, survival and planarity probabilities at mu.

    P(q) is proportional to e_{q0} t3^{2q} bigA(3q + 1/2, mu), self-normalised
    over q <= q_max; the planarity numerator replaces e_{q0} by the planar
    kernel weights, tabulated through q = 4, so the returned ``planarity`` is
    P(planar and excess <= 4), a lower bound on P(planar) (see
    TheoryPrediction).  A tail weight above 1e-6 triggers a truncation
    warning.
    """
    _check_args(0.5, mu)
    if q_max < 4:
        raise ValueError(f"q_max must be >= 4, got {q_max}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    with mp.workdps(_BASE_DPS):
        t3sq = mp.mpf(cp.t3) ** 2
        window = [
            _bigA_delta_mp(cp, _excess_y(q), mu, variant) for q in range(q_max + 1)
        ]
        weights = []
        for q, a in enumerate(window):
            e = wright_e(q)
            w = mp.mpf(e.numerator) / mp.mpf(e.denominator) * t3sq**q * a
            weights.append(w)
        total = mp.fsum(weights)
        if total <= 0:
            raise ConvergenceError(f"non-positive excess weight total at mu = {mu}")
        probs = tuple(float(w / total) for w in weights)
        tail = float(weights[-1] / total)
        planar_num = mp.mpf(0)
        for q in range(PLANAR_Q_MAX + 1):
            c = planar_c(q)
            w = mp.mpf(c.numerator) / mp.mpf(c.denominator) * t3sq**q * window[q]
            planar_num += w
        planarity = float(planar_num / total)
        planar_tail = max(0.0, float(1.0 - sum(probs[: PLANAR_Q_MAX + 1])))
    if tail > 1e-6:
        warnings.warn(
            f"excess-distribution tail weight {tail:.3g} at q_max = {q_max} "
            f"exceeds 1e-6; raise q_max",
            RuntimeWarning,
            stacklevel=2,
        )
    return TheoryPrediction(
        mu=mu,
        variant=variant,
        survival=probs[0],
        excess_dist=probs,
        planarity=planarity,
        q_max=q_max,
        tail_weight=tail,
        planar_tail=planar_tail,
    )


@dataclass(frozen=True)
class TwoPathConstants:
    """Scale constants of the longest 2-path in a complex part of excess q.

    mean length ~ n^{1/3} t3 b1;  E P(P-1) ~ 2 n^{2/3} t3^2 second_moment.
    """

    b1: float
    b2: float
    b2_squared: float
    second_moment: float


def twopath_constants(cp: CriticalPoint, mu: float, q: int = 1) -> TwoPathConstants:
    """Longest-2-path constants B1, B2 at excess q from bigB ratios."""
    _check_args(0.5, mu)
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    y = _excess_y(q)
    b_lo = _bigB_mp(cp.c2, cp.c3, y, mu)
    b_mid = _bigB_mp(cp.c2, cp.c3, y + 1, mu)
    b_hi = _bigB_mp(cp.c2, cp.c3, y + 2, mu)
    if b_lo == 0:
        raise ZeroDivisionError(f"bigB({y}, {mu}) vanishes; constants undefined")
    b1 = b_mid / b_lo
    # Variance constant from the factorial moments: the second factorial
    # moment of the 2-path length carries a factor 2, so
    # Var ~ n^{2/3} t3^2 (2 B(y+2)/B(y) - (B(y+1)/B(y))^2).
    b2sq = (2 * b_hi * b_lo - b_mid**2) / b_lo**2
    second = b_hi / b_lo
    if b2sq < 0:
        if b2sq > -mp.mpf("1e-18") * abs(second):
            b2sq = mp.mpf(0)
        else:
            raise ArithmeticError(
                f"negative variance constant {float(b2sq)} at mu = {mu}, q = {q}"
            )
    return TwoPathConstants(
        b1=float(b1),
        b2=float(mp.sqrt(b2sq)),
        b2_squared=float(b2sq),
        second_moment=float(second),
    )


def rejection_rate(phi1_value: float) -> float:
    """Asymptotic probability that a random pairing is a simple graph.

    exp(-phi1/2 - phi1^2/4) evaluated at the branching ratio of the sampling
    point; its reciprocal is the expected number of pairing attempts.
    """
    if phi1_value < 0:
        raise ValueError(f"branching ratio must be >= 0, got {phi1_value}")
    return math.exp(-phi1_value / 2.0 - phi1_value * phi1_value / 4.0)


def expected_attempts(phi1_value: float) -> float:
    """Expected pairing attempts until simplicity = 1 / rejection_rate."""
    return 1.0 / rejection_rate(phi1_value)
