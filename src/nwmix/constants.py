"""Explicit constants behind the conductance bounds, plus counting formulas.

Every "small enough" constant is pinned to the largest value on a geometric
grid (ratio 2) that satisfies its defining inequalities, so each returned
value can be substituted back and re-checked; solve routines do exactly that
before returning.  x_k comes from bisection; epsilon is exact rational.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

XK_RESIDUAL_TOL = 1e-9
_GRID_LIMIT = 500  # halvings before declaring a grid search broken


class RegimeError(ValueError):
    """Raised when constants for the wrong c-regime are requested."""


class VerificationError(AssertionError):
    """An exact cross-check that must hold failed."""


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


def binomial_lower_tail_coarse(m: float, q: float, x: float) -> float:
    """exp(-mq x^2 / 2), the coarse form of the lower tail bound."""
    if not 0 < x < 1:
        raise ValueError("lower tail bound needs 0 < x < 1")
    return math.exp(-m * q * x * x / 2)


def binomial_upper_tail_coarse(m: float, q: float, x: float) -> float:
    """exp(-mq x^2 / (2(1+x))), the coarse form of the upper tail bound."""
    if x <= 0:
        raise ValueError("upper tail bound needs x > 0")
    return math.exp(-m * q * x * x / (2 * (1 + x)))


def _xk_equation(x: float, k: int) -> float:
    return x / 720 - math.log(4 * (x + 2 * k)) - 5


@lru_cache(maxsize=None)
def solve_xk(k: int) -> float:
    """Root of x/720 - log(4(x+2k)) = 5, by bisection to residual <= 1e-9.

    The left-hand side is strictly increasing past x = 720, so the root in
    [3600, inf) is unique; the upper bracket doubles until the sign flips.
    """
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
    for t in range(1, _GRID_LIMIT):
        beta = 1 / (3 * math.e) / 2**t
        if beta_conditions_hold(beta, c, k):
            return beta
    raise RuntimeError("no admissible beta found on the grid")


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

    The admissible delta can sit at t in the millions (its defining
    inequality forces log(epsilon/delta) ~ 1/(epsilon R c), and epsilon is
    itself tiny), far below float range, so the exponent stays symbolic.
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

    def as_fraction(self) -> Fraction:
        return self.base / (1 << self.t)

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


def delta_conditions_hold(delta, epsilon, c, k: int, R: int) -> bool:
    """epsilon c >= 2k delta and epsilon R c (log(epsilon/delta) - 1) >=
    5 + log(4(c+2k)), evaluated in log space (delta may underflow floats)."""
    log_d = _log_of(delta)
    eps, c = float(epsilon), float(c)
    if log_d > math.log(eps * c / (2 * k)):
        return False
    lhs = eps * R * c * (math.log(eps) - log_d - 1)
    return lhs >= 5 + math.log(4 * (c + 2 * k))


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
    the first admissible t is solved in closed form (it can be ~10^6, far
    beyond any loop) and re-verified, along with t-1 failing.  gamma walks
    down from 9 beta c / 20R by halving.  Every returned value is
    substituted back into its defining inequalities before returning.
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
    # eps R c (log(2k/c) + t log 2 - 1) >= 5 + log(4(c+2k))
    erc = float(epsilon) * R * float(c)
    need = (5 + math.log(4 * (float(c) + 2 * k))) / erc + 1 - math.log(
        2 * k / float(c))
    t0 = max(0, math.ceil(need / math.log(2)))
    base = epsilon * c / (2 * k)
    t = t0
    while not delta_conditions_hold(GridValue(base, t), epsilon, c, k, R):
        t += 1
        if t > t0 + 4:
            raise RuntimeError("no admissible delta near the analytic index")
    if t > 0 and delta_conditions_hold(GridValue(base, t - 1), epsilon, c, k, R):
        raise VerificationError("delta not the largest admissible grid value")
    delta = GridValue(base, t)

    gamma = None
    gamma_top = 9 * beta * float(c) / (20 * R)
    for s in range(1, _GRID_LIMIT):
        cand = gamma_top / 2**s
        if gamma_conditions_hold(cand, beta, c, R):
            gamma = cand
            break
    if gamma is None:
        raise RuntimeError("no admissible gamma found on the grid")

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
    c = Fraction(c)
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
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if m < 1:
        raise ValueError("m must be >= 1")
    return 2 * n * math.comb(n + 2 * m - 1, 2 * m - 1)


def _popcount(a: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a)
    out = np.zeros(a.shape, dtype=np.int64)
    v = a.copy()
    while v.any():
        out += (v & 1).astype(np.int64)
        v >>= 1
    return out


def cycle_component_counts(n: int) -> np.ndarray:
    """components[s] = number of cyclic runs of the subset with bitmask s.

    A run starts at each i in S whose cyclic predecessor is absent, so the
    count is popcount(s & ~rot(s)); the full set has no run starts and is
    fixed up to one component.
    """
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if n > 20:
        raise ValueError("exhaustive subset scan refused for n > 20")
    mask = (1 << n) - 1
    s = np.arange(1 << n, dtype=np.uint64)
    rot = ((s << np.uint64(1)) | (s >> np.uint64(n - 1))) & np.uint64(mask)
    comps = _popcount(s & ~rot)
    comps[mask] = 1
    return comps


def cycle_subset_tally(n: int, m: int) -> int:
    """Exhaustive count of subsets of an n-cycle with <= m components."""
    if m < 1:
        raise ValueError("m must be >= 1")
    comps = cycle_component_counts(n)
    return int((comps <= m).sum())


def expected_connected_sets_bound(n: int, c, k: int, j: int) -> Fraction:
    """n (4(c + 2k))^j: bound on the expected number of connected j-sets."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return n * (4 * (Fraction(c) + 2 * k)) ** j
