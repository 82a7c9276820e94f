"""Every explicit constant in the mixing bound, evaluated and re-checked.

Two regimes, split at x_k (the root of x/720 - log(4(x+2k)) = 5): for
c > x_k only x_k and the degree bound M matter; for c <= x_k the argument
runs through a blow-up of radius R and needs epsilon, beta, delta, gamma,
alpha, each pinned to the largest admissible value on a dyadic grid.  delta
is the troublemaker: its defining inequality pushes it to base * 2^-t with
t in the millions, far below float range, so it lives in exponent form.
"""

import math
from fractions import Fraction

from scipy import stats

from nwmix import (
    chernoff_phi,
    constants_for,
    cycle_subset_count,
    cycle_subset_tally,
    expected_connected_sets_bound,
    solve_xk,
)
from nwmix.constants import binomial_upper_tail_bound

# -- Chernoff tails ------------------------------------------------------------------

# P[Bin(m, q) >= (1+x) m q] <= exp(-m q phi(x)) with
# phi(x) = (1+x)log(1+x) - x.  Compare against the exact tail.
m, q = 400, 0.05
print("binomial upper tail, Bin(400, 0.05), mean 20:")
for x in (0.25, 0.5, 1.0):
    bound = binomial_upper_tail_bound(m, q, x)
    exact = float(stats.binom.sf(math.ceil((1 + x) * m * q) - 1, m, q))
    assert bound >= exact
    print(f"  x={x:.2f}: bound {bound:.3e}  >=  exact {exact:.3e}")
print(f"  phi(1) = 2 log 2 - 1 = {chernoff_phi(1.0):.6f}")

# -- the regime boundary -------------------------------------------------------------

print("\nx_k (regime split) and M (effective degree bound):")
for k in (1, 2, 3, 5):
    print(f"  k={k}: x_k = {solve_xk(k):.6f}")

cs = constants_for(Fraction(20000), 1)
print(f"\nc=20000 > x_1, so the large-c regime applies: regime={cs.regime!r},"
      f" M={cs.M:.1f}")

# -- small-c: the full constant set --------------------------------------------------

cs = constants_for(Fraction(1), 1)
print(f"\nc=1, k=1 ({cs.regime}):")
print(f"  R       = {cs.R}")
print(f"  epsilon = {cs.epsilon} = {float(cs.epsilon):.3e}")
print(f"  beta    = {cs.beta}")
print(f"  delta   = {cs.delta.exact_str()[:40]}...  log10 = {cs.delta.log10():,.2f}")
print(f"  gamma   = {cs.gamma:.3e}")
print(f"  alpha   = min(gamma, epsilon, delta) -> delta here,"
      f" log10 = {cs.alpha.log10():,.2f}")
# float(delta) underflows to 0.0 by design; the exponent form keeps the value.
assert float(cs.delta) == 0.0

cs5 = constants_for(Fraction(5), 2)
print(f"\nc=5, k=2: R = {cs5.R}, delta log10 = {cs5.delta.log10():,.2f}")

# -- connected subsets of a cycle ----------------------------------------------------

# 2n * C(n + 2m - 1, 2m - 1) bounds the number of vertex subsets of an
# n-cycle whose induced cut is at most 2m; the exact tally, a closed form,
# shows the slack.
print("\ncycle subset bound vs closed-form tally (n=12):")
for mm in (1, 2, 3):
    bound = cycle_subset_count(12, mm)
    tally = cycle_subset_tally(12, mm)
    print(f"  cut <= {2 * mm}: tally {tally:5d}  <=  bound {bound}")

b = expected_connected_sets_bound(100, Fraction(1), 1, 6)
print(f"\nE[#connected 6-sets through a vertex], n=100, c=1, k=1:"
      f" <= {float(b):.2f}")
