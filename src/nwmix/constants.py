"""Explicit constants behind the conductance bounds, plus counting formulas.

Every "small enough" constant is pinned to the largest value on a geometric
grid (ratio 2) that satisfies its defining inequalities, so each returned
value can be substituted back and re-checked; solve routines do exactly that
before returning.  x_k comes from bisection; epsilon is exact rational.  The
cycle-subset bound and the exact tally it dominates are binomial closed forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .rng import _integer

XK_RESIDUAL_TOL = 1e-9
_GRID_LIMIT = 500  # halvings before declaring a grid search broken


class RegimeError(ValueError):
    """Raised when constants for the wrong c-regime are requested."""


class VerificationError(AssertionError):
    """An exact cross-check that must hold failed."""


class _NoAdmissibleValue(ValueError):
    """No value on a constant's grid meets its conditions: at this c the
    grid leaves the range it is computed in."""


def chernoff_phi(x: float) -> float:
    """phi(x) = (1+x) log(1+x) - x, the binomial large-deviation rate."""
    if x <= -1:
        raise ValueError("phi(x) requires x > -1")
    if x == 0:
        return 0.0
    return (1 + x) * math.log1p(x) - x


def binomial_upper_tail_bound(m: float, q: float, x: float) -> float:
    """exp(-mq phi(x)) >= P(Bin(m,q) >= (1+x) mq), for x > 0."""
    if x <= 0:
        raise ValueError("upper tail bound needs x > 0")
    return math.exp(-m * q * chernoff_phi(x))


def binomial_lower_tail_bound(m: float, q: float, x: float) -> float:
    """exp(-mq phi(-x)) >= P(Bin(m,q) <= (1-x) mq), for 0 < x < 1."""
    if not 0 < x < 1:
        raise ValueError("lower tail bound needs 0 < x < 1")
    return math.exp(-m * q * chernoff_phi(-x))


def _xk_equation(x: float, k: int) -> float:
    return x / 720 - math.log(4 * (x + 2 * k)) - 5


@lru_cache(maxsize=None)
def solve_xk(k: int) -> float:
    """Root of x/720 - log(4(x+2k)) = 5, by bisection to residual <= 1e-9.

    The left-hand side is strictly increasing past x = 720, so the root in
    [3600, inf) is unique; the upper bracket doubles until the sign flips.
    """
    k = _integer(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    lo, hi = 720.0 * 5, 1e6
    if _xk_equation(lo, k) >= 0:
        raise AssertionError("lower bracket not below the root")
    while _xk_equation(hi, k) <= 0:
        hi *= 2
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
        if _xk_equation(mid, k) < 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    if abs(_xk_equation(root, k)) > XK_RESIDUAL_TOL:
        raise AssertionError("bisection failed to reach residual tolerance")
    if root < 40:
        raise AssertionError("x_k fell below 40, contradicting its known range")
    return root


def big_m(c, k: int) -> float:
    """M(c, k) = k + 1 + 10 max(x_k, c)."""
    return k + 1 + 10 * max(solve_xk(k), float(c))


def solve_beta(c, k: int = 1) -> float:
    """Largest beta = (1/(3e)) 2^-t, t >= 1, meeting the three constraints:
    1/(2 beta) - 8k/c > 1 + 1/(3 beta);  phi(1/(3 beta)) > log(1/(3 beta))
    / (6 beta);  beta < c/36.
    """
    c = float(c)
    if c <= 0:
        raise ValueError("beta is defined for c > 0")
    return _halving_grid(1 / (3 * math.e), lambda beta: beta_conditions_hold(beta, c, k),
                         "beta")


def _halving_grid(top: float, holds, name: str) -> float:
    """The largest top * 2^-t, 1 <= t < _GRID_LIMIT, at which `holds` is true."""
    for t in range(1, _GRID_LIMIT):
        value = top / 2**t
        if holds(value):
            return value
    raise _NoAdmissibleValue(f"no admissible {name} found on the grid")


def beta_conditions_hold(beta: float, c: float, k: int) -> bool:
    if not 0 < beta < 1 / (3 * math.e):
        return False
    y = 1 / (3 * beta)
    return (
        1 / (2 * beta) - 8 * k / c > 1 + y
        and chernoff_phi(y) > math.log(y) / (6 * beta)
        and beta < c / 36
    )


@dataclass(frozen=True)
class GridValue:
    """base * 2^-t kept in exponent form.

    The admissible delta can sit at t in the millions, and past 10^14 for
    c below 1e-4 (its defining inequality forces log(epsilon/delta) ~
    1/(epsilon R c), and epsilon is itself tiny), far below float range, so
    the exponent stays symbolic.
    """

    base: Fraction
    t: int

    def __float__(self) -> float:
        try:
            return float(self.base) * 2.0 ** (-self.t)
        except OverflowError:
            return 0.0

    def log(self) -> float:
        return math.log(self.base) - self.t * math.log(2)

    def log10(self) -> float:
        return self.log() / math.log(10)

    def exact_str(self) -> str:
        return f"({self.base})*2^-{self.t}"


def _log_of(v) -> float:
    if isinstance(v, GridValue):
        return v.log()
    return math.log(float(v))


@dataclass(frozen=True)
class ConstantSet:
    """All explicit constants for model parameters (c, k), by regime.

    Large-c (c > x_k) only uses x_k and M; the small-c regime adds the
    blow-up radius R, the exact rational epsilon, the grid-pinned beta,
    delta, gamma, and alpha = min(gamma, epsilon, delta).
    """

    c: Fraction
    k: int
    regime: str
    x_k: float
    M: float
    R: int | None = None
    beta: float | None = None
    epsilon: Fraction | None = None
    delta: GridValue | None = None
    gamma: float | None = None
    alpha: float | Fraction | GridValue | None = None

    def to_json(self) -> str:
        def render(v):
            if v is None:
                return None
            if isinstance(v, Fraction):
                return {"decimal": float(v), "exact": str(v)}
            if isinstance(v, GridValue):
                return {"decimal": float(v), "exact": v.exact_str(),
                        "log10": v.log10()}
            return v

        payload = {
            "c": {"decimal": float(self.c), "exact": str(self.c)},
            "k": self.k,
            "regime": self.regime,
            "x_k": self.x_k,
            "x_k_residual": abs(_xk_equation(self.x_k, self.k)),
            "M": self.M,
            "R": self.R,
            "beta": render(self.beta),
            "epsilon": render(self.epsilon),
            "delta": render(self.delta),
            "gamma": render(self.gamma),
            "alpha": render(self.alpha),
        }
        return json.dumps(payload)


@lru_cache(maxsize=64)
def _ln(q: Fraction, prec: int) -> Decimal:
    """log q in decimal, to prec digits; a solve takes each log many times."""
    with localcontext() as ctx:
        ctx.prec = prec
        return (Decimal(q.numerator) / q.denominator).ln()


def delta_conditions_hold(delta: GridValue, epsilon, c, k: int, R: int) -> bool:
    """epsilon c >= 2k delta and epsilon R c (log(epsilon/delta) - 1) >=
    5 + log(4(c+2k)), evaluated in log space (delta may underflow floats),
    in decimal with 40 digits past those of delta's exponent t: at c =
    1/8650, t is about 4e14, and a float's rounding of t log 2 is larger
    than one grid step."""
    epsilon, c = Fraction(epsilon), Fraction(c)
    erc = epsilon * R * c
    with localcontext() as ctx:
        ctx.prec = p = len(str(delta.t)) + 40
        # log(epsilon/delta) = log(epsilon/base) + t log 2
        log_ratio = _ln(epsilon / delta.base, p) + delta.t * _ln(Fraction(2), p)
        if log_ratio < _ln(2 * k / c, p):
            return False
        lhs = Decimal(erc.numerator) / erc.denominator * (log_ratio - 1)
        return lhs >= 5 + _ln(4 * (c + 2 * k), p)


def gamma_conditions_hold(gamma: float, beta: float, c, R: int) -> bool:
    c = float(c)
    if not 0 < gamma < 9 * beta * c / (20 * R):
        return False
    # factor-2 margin under the 160R of the asymptotic argument, making the
    # admissible gamma independent of n
    return 2 * gamma * (1 + math.log(1 + 1 / (2 * gamma))) <= 9 * beta * c / (320 * R)


def solve_small_c_constants(c, k: int) -> ConstantSet:
    """Pin down R, epsilon, beta, delta, gamma, alpha for 0 < c <= x_k.

    delta is the largest (epsilon c / 2k) 2^-t meeting its two conditions;
    the first admissible t is solved in closed form, in decimal (it is
    about 6e6 at c = 1 and 4e14 at c = 1/8650, far beyond any loop), and
    re-verified, along with t-1 failing.  gamma walks down from 9 beta c /
    20R by halving.  Every returned value is substituted back into its
    defining inequalities before returning.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("small-c constants need c > 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    xk = solve_xk(k)
    if float(c) > xk:
        raise RegimeError(
            f"c = {float(c):g} > x_k = {xk:.6g}: the small-c constants are "
            "not defined here; the large-c regime needs only x_k and M"
        )
    x1 = solve_xk(1)
    R = max(k, math.ceil(2 * x1 / float(c)))
    epsilon = c / (12 * R * (2 * R * c + 1))
    beta = solve_beta(c, k)

    # condition 2 is linear in t on the grid delta = (eps c / 2k) 2^-t:
    # eps R c (log(2k/c) + t log 2 - 1) >= 5 + log(4(c+2k)), solved in
    # decimal with 40 digits past those of t, which is about 1/(eps R c)
    erc = epsilon * R * c
    with localcontext() as ctx:
        ctx.prec = p = len(str(erc.denominator // erc.numerator)) + 40
        need = ((5 + _ln(4 * (c + 2 * k), p)) * erc.denominator / erc.numerator
                + 1 - _ln(2 * k / c, p))
        t0 = max(0, int((need / _ln(Fraction(2), p)).to_integral_value(ROUND_CEILING)))
    base = epsilon * c / (2 * k)
    t = t0
    while not delta_conditions_hold(GridValue(base, t), epsilon, c, k, R):
        t += 1
        if t > t0 + 4:
            raise _NoAdmissibleValue("no admissible delta near the analytic index")
    if t > 0 and delta_conditions_hold(GridValue(base, t - 1), epsilon, c, k, R):
        raise VerificationError("delta not the largest admissible grid value")
    delta = GridValue(base, t)

    gamma = _halving_grid(9 * beta * float(c) / (20 * R),
                          lambda g: gamma_conditions_hold(g, beta, c, R), "gamma")

    candidates = [gamma, epsilon, delta]
    alpha = min(candidates, key=_log_of)

    # substitute everything back before returning
    rechecks = [
        ("R", R >= k and R >= 2 * x1 / float(c) - 1e-12),
        ("epsilon", epsilon == c / (12 * R * (2 * R * c + 1))),
        ("beta", beta_conditions_hold(beta, float(c), k)),
        ("delta", delta_conditions_hold(delta, epsilon, c, k, R)),
        ("gamma", gamma_conditions_hold(gamma, beta, c, R)),
    ]
    failed = [name for name, ok in rechecks if not ok]
    if failed:
        raise VerificationError(
            f"small-c constants fail their re-check: {', '.join(failed)}")
    return ConstantSet(
        c=c, k=k, regime="small-c", x_k=xk, M=big_m(c, k), R=R, beta=beta,
        epsilon=epsilon, delta=delta, gamma=gamma, alpha=alpha,
    )


def constants_for(c, k: int) -> ConstantSet:
    """Regime dispatch: c > x_k needs only (x_k, M); otherwise the full set."""
    c, k = Fraction(c), _integer(k, "k")
    xk = solve_xk(k)
    if float(c) > xk:
        return ConstantSet(c=c, k=k, regime="large-c", x_k=xk, M=big_m(c, k))
    return solve_small_c_constants(c, k)


# -- cycle subset counting -------------------------------------------------------


def cycle_subset_count(n: int, m: int) -> int:
    """2n C(n+2m-1, 2m-1): upper bound on the number of subsets of an
    n-cycle with at most m connected components.

    The counting argument behind the formula overcounts (n=3, m=1 gives 24
    against a true tally of 8), so only domination is guaranteed.
    """
    n, m = _integer(n, "n"), _integer(m, "m")
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if m < 1:
        raise ValueError("m must be >= 1")
    return 2 * n * math.comb(n + 2 * m - 1, 2 * m - 1)


def cycle_subset_tally(n: int, m: int) -> int:
    """Exact number of subsets of an n-cycle with <= m components (runs).

    A proper nonempty subset with j runs has 2j boundary edges, and each
    choice of 2j of the n cycle edges bounds two such subsets (runs and gaps
    swap), so 2 C(n, 2j) subsets have exactly j runs.  The empty set and the
    full set (one component) add 2.  Each binomial comes from the one before,
    C(n, 2j) = C(n, 2j - 2) (n - 2j + 2)(n - 2j + 1) / ((2j - 1) 2j), a
    division that is exact.
    """
    n, m = _integer(n, "n"), _integer(m, "m")
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if m < 1:
        raise ValueError("m must be >= 1")
    term = total = 1  # C(n, 0)
    for j in range(1, min(m, n // 2) + 1):
        term = term * (n - 2 * j + 2) * (n - 2 * j + 1) // ((2 * j - 1) * 2 * j)
        total += term
    return 2 * total


def expected_connected_sets_bound(n: int, c, k: int, j: int) -> Fraction:
    """n (4(c + 2k))^j: bound on the expected number of connected j-sets."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return n * (4 * (Fraction(c) + 2 * k)) ** j
