"""Scaling-window special functions and structure predictions.

The central object is the entire series

    bigB(y, mu) = (1/3) c3^{(y-2)/3} sum_{k>=0} x^k / (k! Gamma((y+1-2k)/3)),
    x = c2 c3^{-2/3} mu,

where 1/Gamma is taken as 0 at the poles, and c2, c3 are the degree-set window
constants (c2 = 1/2, c3 = 1/3 in the classical unconstrained case).  With the
classical constants, bigA_classical(y, mu) = e^{-mu^3/6} bigB is the window
function of the unconstrained random graph.

The source paper prints two closed forms of the degree-constrained window
function A_Delta:

  - "scaled": (t3 zhat)^{1-y} (3 c3)^{(y-2)/3} A(y, xi), the classical window
    function at the scaled argument xi = 2 c2 (3 c3)^{-2/3} mu;
  - "plain":  e^{-mu^3/6} (t3 zhat)^{1-y} bigB(y, mu).

Both are (t3 zhat)^{1-y} bigB(y, mu) times a factor free of y, e^{-xi^3/6}
and e^{-mu^3/6} respectively, so scaled/plain = e^{(mu^3 - xi^3)/6}: 1 at
mu = 0 or where 2 c2 = (3 c3)^{2/3}, and otherwise not.  For {1,3} the ratio
is 6.254701 at mu = -1 and 0.159880 at mu = +1.  Every prediction here is a
ratio of window values at one mu, so the factor cancels and both forms give
the same numbers; the package evaluates bigB alone, and the two forms are
kept as the test oracle ``printed_window_form`` in ``tests/oracles.py``.

The predictions: excess distribution P(q) ~ e_{q0} t3^{2q} A_Delta(3q + 1/2,
mu), survival = P(0), planarity (planar-kernel coefficients in the
numerator), and the longest-2-path constants.  The planar kernel weights are
tabulated only for q <= 4, so ``planarity`` is P(planar and total excess <=
4): a lower bound on the planarity probability, short of it by at most
P(excess >= 5), which is 1 - P(0) - ... - P(4).  The quantity that is exact
in the limit is the conditional P(non-planar | excess <= 4),
``TheoryPrediction.nonplanar_low_excess``.

Negative mu drives catastrophic cancellation in the series (the result is
~e^{-|mu|^3/6} from terms that are exponentially large), so the core runs in
mpmath with adaptive precision; floats in and floats out.

Write S(y) = sum_k x^k / (k! Gamma((y+1-2k)/3)) for the bare series.  Two
exact identities keep its cost down:

  * along one series the Gamma argument drops by 2 every three terms, and
    1/Gamma(s-2) = (s-1)(s-2)/Gamma(s), so only the first three terms call
    rgamma.  Every later term is the one three places back times the exact
    rational

        t_k / t_{k-3} = x^3 (N + 3D) N / (9 D^2 k (k-1) (k-2)),

    with x = m_x 2^{e_x} and y = m_y 2^{e_y} dyadic, D = 2^{max(0, -e_y)}
    and N = yD + (1-2k)D, so the sum runs in Python integers with one floor
    division per term.  Each residue class of k keeps its latest term as a
    mantissa renormalised to the working precision plus 64 bits and an
    exponent; a class that reaches a pole becomes exactly 0 and stays 0.  The
    running sum is a fixed-point integer whose unit lies prec + 64 bits below
    the leading bit of the smallest nonzero of the first three terms, and the
    sum and the largest term are rounded to the working precision once, at
    the end;
  * across series, 1/Gamma(s-1) = (s-1)/Gamma(s) gives the recurrence

        (y+1) S(y+3) = 3 S(y) + 2x S(y+1),

    so a run of consecutive y needs at most three summed series.  The
    recurrence is run in the direction in which S dominates the other
    solutions: upward from the bottom three values for x >= 0, downward from
    the top three for x < 0.  The other way round it is unusable: run upward
    for {0,1,4,5} at mu = -4, the relative error reaches 50 at q = 20.

Each summed series stops at terms below 1e-16 of its sum, so the floats agree
with a separate series per y to about one part in 1e15, not bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath as mp

from .critical import CriticalPoint
from .errors import ConvergenceError, OutOfRangeError

MU_SERIES_LIMIT = 20.0
VARIANTS = ("scaled", "plain")
_MAX_TERMS = 20000
_BASE_DPS = 40
_MAX_DPS = 1200
# Largest excess truncation: predict's cost grows about 5x per doubling of
# q_max (0.19 s at 1200 and 4 s at 4800 for 1,3,5,7 at mu = 0).
_MAX_Q = 1200


def wright_e(q: int) -> Fraction:
    """Total compensation weight of the cubic multigraphs with excess q.

    e_{q,0} = (6q)! / (2^{5q} 3^{2q} (3q)! (2q)!) exactly.
    """
    if q < 0:
        raise ValueError(f"wright_e needs q >= 0, got {q}")
    return Fraction(
        math.factorial(6 * q),
        (2 ** (5 * q)) * (3 ** (2 * q)) * math.factorial(3 * q) * math.factorial(2 * q),
    )


def _wright_e_series() -> Iterator[Fraction]:
    """wright_e(0), wright_e(1), ... carried by the exact ratio
    e_q / e_{q-1} = (6q-1)(6q-3)(6q-5) / (72 q (2q-1)), without factorials."""
    e = Fraction(1)
    q = 0
    while True:
        yield e
        q += 1
        e *= Fraction((6 * q - 1) * (6 * q - 3) * (6 * q - 5), 72 * q * (2 * q - 1))


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


def _dyadic(v: mp.mpf) -> tuple[int, int]:
    """(m, e) with v = m 2^e exactly, m a signed integer."""
    m, e = v.man_exp
    return (-m if v < 0 else m), e


def _less(a: int, ea: int, b: int, eb: int) -> bool:
    """a 2^ea < b 2^eb, exactly."""
    return a << (ea - eb) < b if ea >= eb else a < b << (eb - ea)


def _series_sum(x: mp.mpf, y: mp.mpf):
    """S(y) = sum_k x^k / (k! Gamma((y+1-2k)/3)) with the stated stopping rule.

    Summation stops once five terms in a row fall below 1e-16 of the running
    sum.  Returns (sum, max |term|) at the working precision; raises
    ConvergenceError after _MAX_TERMS terms.  After the first three terms
    the sum runs in integers (see the module docstring): each term is
    t = m 2^e, and the sum is s 2^unit.
    """
    bits = mp.mp.prec + 64
    cls = []  # the latest term of each residue class of k, as (m, e)
    coeff = mp.mpf(1)  # x^k / k!
    for k in range(3):
        m, e = _dyadic(coeff * mp.rgamma(mp.mpf(y + 1 - 2 * k) / 3))
        shift = bits - m.bit_length()
        cls.append((m << shift, e - shift))
        coeff = coeff * x / (k + 1)
    unit = min((e + m.bit_length() for m, e in cls if m), default=0) - bits
    mx, ex = _dyadic(x)
    x3, ex3 = mx**3, 3 * ex
    my, ey = _dyadic(y)
    d = 1 << max(0, -ey)  # y d is an integer
    yd = my << max(0, ey)
    d9 = 9 * d * d
    s = 0
    top, max_m, max_e = -math.inf, 0, 0  # bit position, mantissa, exponent of max |t|
    below = 0
    ten16 = 10**16
    for k in range(_MAX_TERMS):
        r = k % 3
        m, e = cls[r]
        if k >= 3 and m:
            # t_k = t_{k-3} x^3 (a+1) a / (k (k-1) (k-2)), a = (y+1-2k)/3; a
            # pole makes num, and so the class, zero for good
            n = yd + (1 - 2 * k) * d
            num = m * ((n + 3 * d) * n) * x3
            den = d9 * (k * (k - 1) * (k - 2))
            shift = bits - num.bit_length() + den.bit_length()
            m = (num << shift) // den if shift >= 0 else (num >> -shift) // den
            e += ex3 - shift
            cls[r] = (m, e)
        small = s != 0  # |t| 10^16 < |s|
        if m:
            s += m << (e - unit) if e >= unit else m >> (unit - e)
            am = abs(m)
            pos = am.bit_length() + e  # 2^(pos-1) <= |t| < 2^pos
            if pos > top or pos == top and _less(max_m, max_e, am, e):
                top, max_m, max_e = pos, am, e
            # 2^lead > |s| >= 2^(lead-1), and 10^16 lies in (2^53, 2^54)
            lead = s.bit_length() + unit
            small = s != 0 and (
                pos + 55 <= lead
                or pos + 52 < lead and _less(am * ten16, e, abs(s), unit)
            )
        if small:
            below += 1
            if below >= 5:
                return mp.mpf((s, unit)), mp.mpf((max_m, max_e))
        else:
            below = 0
    raise ConvergenceError(
        f"series for bigB did not converge within {_MAX_TERMS} terms "
        f"(x = {float(x)}, y = {float(y)})"
    )


def _window_sums(x: mp.mpf, y0: mp.mpf, count: int) -> list[mp.mpf]:
    """S(y0 + i) for i < count, from at most three summed series.

    The seed series sit at the bottom of the range for x >= 0 and at its top
    for x < 0, and share one working precision: the largest loss of digits
    over the seeds plus a 25-digit margin.  The recurrence (see the module
    docstring) fills in the rest at that precision.
    """
    seeds = min(count, 3)
    first = 0 if x >= 0 else count - seeds
    # Seed the working precision from the known cancellation scale: terms peak
    # at exp((4/27)|x|^3) while the sum is ~exp(-(4/27)x^3) for x < 0 and
    # polynomial-size for x > 0.
    ax3 = abs(float(x)) ** 3
    dps = _BASE_DPS + int((0.13 if x < 0 else 0.07) * ax3)
    if dps > _MAX_DPS:
        raise ConvergenceError(
            f"bigB cancellation (~{dps} digits) exceeds supported precision "
            f"at x = {float(x)}"
        )
    sums = [None] * count
    for _ in range(4):
        with mp.workdps(dps):
            lost = 0.0
            for i in range(first, first + seeds):
                s, max_term = _series_sum(x, y0 + i)
                sums[i] = s
                if s == 0:
                    lost = max(lost, dps)  # total cancellation at this precision
                else:
                    lost = max(lost, float(mp.log10(max_term / abs(s))))
        if lost <= dps - 25:
            break
        dps = int(lost) + _BASE_DPS
        if dps > _MAX_DPS:
            raise ConvergenceError(
                f"bigB cancellation exceeds supported precision at x = {float(x)}"
            )
    with mp.workdps(dps):
        if x >= 0:
            for i in range(3, count):
                sums[i] = (3 * sums[i - 3] + 2 * x * sums[i - 2]) / (y0 + i - 2)
        else:
            for i in range(count - 4, -1, -1):
                sums[i] = ((y0 + i + 1) * sums[i + 3] - 2 * x * sums[i + 1]) / 3
    return sums


def _window_x(c2, c3, mu) -> mp.mpf:
    """The series argument x = c2 c3^{-2/3} mu, at the caller's precision."""
    return mp.mpf(c2) * mp.mpf(c3) ** (mp.mpf(-2) / 3) * mp.mpf(mu)


def _bigB_mp(c2, c3, y, mu, count: int = 1, step: int = 1) -> list[mp.mpf]:
    """bigB(y + step i, mu) for i < count, at 40 digits, x formed at 40
    digits too."""
    with mp.workdps(_BASE_DPS):
        c3 = mp.mpf(c3)
        y = mp.mpf(y)
        sums = _window_sums(_window_x(c2, c3, mu), y, step * (count - 1) + 1)[::step]
        return [c3 ** ((y + step * i - 2) / 3) / 3 * s for i, s in enumerate(sums)]


def _check_args(y: float, mu: float):
    if not (y >= 0.5):
        raise OutOfRangeError(f"y must be >= 1/2, got {y}")
    if not (abs(mu) <= MU_SERIES_LIMIT):
        raise OutOfRangeError(
            f"|mu| <= {MU_SERIES_LIMIT} required for series evaluation (got {mu})"
        )


def bigA_classical(y: float, mu: float) -> float:
    """Window function of the classical (unconstrained-degree) random graph."""
    _check_args(y, mu)
    with mp.workdps(_BASE_DPS):
        mu = mp.mpf(mu)
        b = _bigB_mp(mp.mpf(1) / 2, mp.mpf(1) / 3, y, mu)[0]
        return float(mp.e ** (-(mu**3) / 6) * b)


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
    planar kernel weights stop there; it is a lower bound on P(planar), short
    of it by at most 1 - sum(excess_dist[:PLANAR_Q_MAX + 1]).  For the
    classical graph at mu = 0 the limit 0.99780 (Noy, Ravelomanana and Rue,
    Proc. AMS 2015) lies inside [0.99340, 0.99340 + 0.00596].
    """

    mu: float
    survival: float
    excess_dist: tuple[float, ...]
    planarity: float
    q_max: int

    @property
    def nonplanar_low_excess(self) -> float:
        """P(non-planar | total excess <= PLANAR_Q_MAX).

        Exact from the tabulated weights: the q_max normalisation cancels.
        """
        low = math.fsum(self.excess_dist[: PLANAR_Q_MAX + 1])
        return 1.0 - self.planarity / low


def check_q_max(q_max: int) -> None:
    """Refuse an excess truncation below the planar-kernel range, or above
    the q budget of _MAX_Q."""
    if q_max < PLANAR_Q_MAX:
        raise OutOfRangeError(f"q_max must be >= {PLANAR_Q_MAX}, got {q_max}")
    if q_max > _MAX_Q:
        raise OutOfRangeError(f"q_max must be <= {_MAX_Q}, got {q_max}")


def _excess_y(q: int) -> float:
    return 3 * q + 0.5


def predict(
    cp: CriticalPoint, mu: float, variant: str = "scaled", q_max: int = 20
) -> TheoryPrediction:
    """Excess distribution, survival and planarity probabilities at mu.

    P(q) is proportional to e_{q0} t3^{2q} A_Delta(3q + 1/2, mu), which with
    the factors free of q dropped is the weight

        e_{q0} (t3^2 / (t3 zhat)^3)^q bigB(3q + 1/2, mu),

    self-normalised over q <= q_max.  The planarity numerator replaces e_{q0}
    by the planar kernel weights, tabulated through q = 4, so the returned
    ``planarity`` is P(planar and excess <= 4), a lower bound on P(planar)
    (see TheoryPrediction).  A tail weight ``excess_dist[-1]`` = P(q_max)
    above 1e-6 triggers a truncation warning.  ``variant`` must be one of
    VARIANTS and changes nothing: both printed forms of A_Delta give these
    weights (see the module docstring).
    """
    _check_args(0.5, mu)
    check_q_max(q_max)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    with mp.workdps(_BASE_DPS):
        t3 = mp.mpf(cp.t3)
        per_q = t3**2 / (t3 * mp.mpf(cp.zhat)) ** 3
        window = _bigB_mp(cp.c2, cp.c3, _excess_y(0), mu, q_max + 1, step=3)
        weights = []
        for q, (e, b) in enumerate(zip(_wright_e_series(), window)):
            w = mp.mpf(e.numerator) / mp.mpf(e.denominator) * per_q**q * b
            weights.append(w)
        total = mp.fsum(weights)
        if total <= 0:
            raise ConvergenceError(f"non-positive excess weight total at mu = {mu}")
        probs = tuple(float(w / total) for w in weights)
        planar_num = mp.mpf(0)
        for q in range(PLANAR_Q_MAX + 1):
            c = planar_c(q)
            w = mp.mpf(c.numerator) / mp.mpf(c.denominator) * per_q**q * window[q]
            planar_num += w
        planarity = float(planar_num / total)
    if probs[-1] > 1e-6:
        warnings.warn(
            f"excess-distribution tail weight {probs[-1]:.3g} at q_max = {q_max} "
            f"exceeds 1e-6; raise q_max",
            RuntimeWarning,
            stacklevel=2,
        )
    return TheoryPrediction(
        mu=mu,
        survival=probs[0],
        excess_dist=probs,
        planarity=planarity,
        q_max=q_max,
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


def twopath_constants(cp: CriticalPoint, mu: float, q: int) -> TwoPathConstants:
    """Longest-2-path constants B1, B2 at excess q >= 1 from bigB ratios.

    An excess-0 point has no kernel and so no chains: q = 0 is refused.
    """
    _check_args(0.5, mu)
    if q < 1:
        raise OutOfRangeError(f"q must be >= 1, got {q}")
    y = _excess_y(q)
    b_lo, b_mid, b_hi = _bigB_mp(cp.c2, cp.c3, y, mu, 3)
    if b_lo == 0:
        raise ZeroDivisionError(f"bigB({y}, {mu}) vanishes; constants undefined")
    b1 = b_mid / b_lo
    # Variance constant from the factorial moments: the second factorial
    # moment of the 2-path length carries a factor 2, so
    # Var ~ n^{2/3} t3^2 (2 B(y+2)/B(y) - (B(y+1)/B(y))^2).
    b2sq = (2 * b_hi * b_lo - b_mid**2) / b_lo**2
    return TwoPathConstants(
        b1=float(b1),
        b2=float(mp.sqrt(b2sq)),
        b2_squared=float(b2sq),
        second_moment=float(b_hi / b_lo),
    )


def rejection_rate(phi1_value: float) -> float:
    """Asymptotic probability that a random pairing is a simple graph.

    exp(-phi1/2 - phi1^2/4) evaluated at the branching ratio of the sampling
    point; its reciprocal is the expected number of pairing attempts.
    """
    if phi1_value < 0:
        raise ValueError(f"branching ratio must be >= 0, got {phi1_value}")
    return math.exp(-phi1_value / 2.0 - phi1_value * phi1_value / 4.0)

