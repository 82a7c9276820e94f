"""Expected root-subtree counts of a branching process, in exact rationals.

mu_j is the expected number of j-vertex subtrees containing the root of a
Galton-Watson tree, counting ordered embeddings.  It depends on the offspring
law only through the ordered factorial moments q_j = E[B(B-1)...(B-j+1)],
and satisfies the functional equation F = z*Q(F); mu_j comes out either by
iterating that equation or by Lagrange inversion.  Everything here is
Fraction arithmetic, so agreement means equality, not closeness.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from nwmix import (
    brute_force_mu,
    count_root_embeddings,
    count_root_subtrees,
    deterministic_law,
    deterministic_subtree_count,
    factorial_moments,
    mu_by_functional_equation,
    mu_by_lagrange,
    mu_poisson_closed_form,
    poisson_law,
    sample_small_world,
    subset_moments,
    write_mu_table,
)
from nwmix import GraphSpec, build_ring, connected_set_counts

J = 12

# -- two independent solvers, one closed form ---------------------------------------

law = poisson_law(Fraction(2))
q = factorial_moments(law, J)
print(f"Poisson(2): q_1..q_6 = {q[1:7]}  (Poisson has q_j = c^j)")

# The solvers return [mu_1, ..., mu_J].
mu_fe = mu_by_functional_equation(q, J)
mu_li = mu_by_lagrange(q, J)
assert mu_fe == mu_li
print(f"  functional equation == Lagrange inversion for j <= {J}")
for j in (1, 2, 3, 6, 12):
    closed = mu_poisson_closed_form(Fraction(2), j)
    assert mu_fe[j - 1] == closed
    print(f"  mu_{j:2d} = {mu_fe[j - 1]}")

# At c=1 the closed form collapses to the Catalan numbers.
mu1 = mu_by_lagrange(factorial_moments(poisson_law(1), 8), 8)
assert mu1 == [mu_poisson_closed_form(1, j) for j in range(1, 9)]
print(f"  Poisson(1) gives the Catalan numbers: {mu1}")

# -- ordered embeddings vs distinct subtrees ----------------------------------------

# A root with children u,v and a grandchild under u: the 3-vertex subtrees.
star = [[1, 2, 3], [], [], []]          # root with three leaves
chain = [[1], [2], [3], []]             # a path hanging off the root
print(f"\nstar, j=3: {count_root_subtrees(star, 3)} distinct subtrees,"
      f" {count_root_embeddings(star, 3)} ordered embeddings")
print(f"path, j=3: {count_root_subtrees(chain, 3)} distinct,"
      f" {count_root_embeddings(chain, 3)} ordered")

# For a deterministic d-ary tree the distinct count has its own closed form,
# reachable through the subset moments q_j / j!.
d = 3
sm = subset_moments(deterministic_law(d), 10)
mu_distinct = mu_by_lagrange(sm, 10)
for j in (2, 5, 10):
    assert mu_distinct[j - 1] == deterministic_subtree_count(d, j)
print(f"ternary tree distinct counts, j=1..6: {mu_distinct[:6]}")

# -- Monte Carlo cross-check ---------------------------------------------------------

est = brute_force_mu(poisson_law(Fraction(2)), j=4, samples=40_000, seed=5)
target = mu_poisson_closed_form(Fraction(2), 4)
print(f"\nMC at j=4: {est.mean:.3f} +/- {est.stderr:.3f}"
      f" vs exact {float(target):.3f} -> within 3 sigma: {est.within(target)}")

# -- counting inside an actual graph -------------------------------------------------

ring = build_ring(20, 1)
print(f"\nC20, subtrees through vertex 0: "
      f"{connected_set_counts(ring, 5, containing=0)}")
g = sample_small_world(GraphSpec(n=20, k=1, c=Fraction(3), seed=2))
print(f"H(20,1,c=3), same counts:       "
      f"{connected_set_counts(g, 5, containing=0)}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_mu.csv"
    write_mu_table(path, poisson_law(Fraction(2)), 8, bound_C=Fraction(2))
    with open(path, encoding="utf-8") as fh:
        print(f"\nmu table ({path.name}):")
        for line in list(fh)[:5]:
            print("  " + line.rstrip())
