"""Lazy-random-walk mixing times, on small graphs and at scale.

The walk stays put with probability 1/2 and otherwise moves to a uniform
neighbor.  mixing_time evolves the distribution from every start at once and
reports the first step at which the worst start is within total variation
1/4 of stationarity.  On a cycle that time grows like n^2; a handful of
random shortcuts collapses it.
"""

from fractions import Fraction

from nwmix import (
    GraphSpec,
    build_ring,
    mixing_time,
    point_mass,
    sample_small_world,
    sample_starts,
    stationary,
    tv_distance,
)
from nwmix.walks import LazyKernel

# -- one walk, step by step --------------------------------------------------------

g = build_ring(16, 1)
pi = stationary(g)
kernel = LazyKernel(g)
print("C16, walk started at vertex 0:")
mu = point_mass(g.n, 0)
for t in range(1, 26):
    mu = kernel.step(mu)
    if t in (1, 5, 10, 20, 24, 25):
        print(f"  step {t:3d}: TV from stationary = {tv_distance(mu, pi):.4f}")

res = mixing_time(g)
print(f"  mixing time (max over all starts): tau = {res.tau}, mode={res.mode!r}")

# -- diffusive growth on cycles ----------------------------------------------------

print("\npure cycles (c=0): tau should grow ~4x per doubling")
prev = None
for n in (16, 32, 64, 128):
    tau = mixing_time(build_ring(n, 1)).tau
    ratio = "" if prev is None else f"  ratio {tau / prev:.3f}"
    print(f"  n={n:4d}: tau = {tau:6d}{ratio}")
    prev = tau

# -- shortcuts change the scaling law ----------------------------------------------

print("\nsmall worlds (k=1, c=5): same sizes, a different world")
for n in (16, 32, 64, 128):
    g = sample_small_world(GraphSpec(n=n, k=1, c=Fraction(5), seed=n))
    tau = mixing_time(g).tau
    print(f"  n={n:4d}: tau = {tau:6d}")

# -- sampled starts for larger n ----------------------------------------------------

# Beyond ~10^3 vertices, evolving all n starts gets heavy; a 64-start sample
# still certifies a lower bound on the worst-start mixing time.
g = sample_small_world(GraphSpec(n=2048, k=1, c=Fraction(5), seed=0))
res = mixing_time(g, starts=sample_starts(g.n, 64, 123))
print(f"\nn=2048, c=5, 64 sampled starts: tau >= {res.tau} ({res.mode})")
