"""Connected-set conductance across dyadic volume scales.

For a connected set S, phi(S) = (edges leaving S) / (edges incident to S).
The profile takes the minimum of phi over connected sets whose edge volume
lands in [2^-i * m, 2^(1-i) * m], one window per dyadic scale i, and the
Fountoulakis-Reed quantity sums phi^-2 across scales.  Small graphs are
enumerated exactly; larger ones get a local search that enumerates the
windows its budget affords and anneals the rest, whose phi is only an upper
bound on the truth (certified=False).
"""

from fractions import Fraction

from nwmix import (
    EnumerationBudgetError,
    GraphSpec,
    build_ring,
    complete_graph,
    connected_sets,
    cut_stats,
    fr_bound,
    num_scales,
    sample_small_world,
)

# -- cut statistics by hand --------------------------------------------------------

g = build_ring(16, 1)
arc = [0, 1, 2, 3]
st = cut_stats(g, arc)
print(f"C16, arc of length 4: cut={st.cut}, volume={st.volume}, phi={st.phi}")
# On a cycle every arc has cut 2, so phi = 2/(len+1+len) shrinks as arcs grow.

# -- exhaustive profile on a cycle ---------------------------------------------------

print(f"\nC16 has m=16 edges -> {num_scales(16)} dyadic scales")
fr = fr_bound(g)
for e in fr.profile.entries:
    size = "-" if e.witness is None else len(e.witness)
    print(f"  scale {e.i}: window [{float(e.vol_lo):4.1f}, {float(e.vol_hi):4.1f}]"
          f"  phi = {e.phi}  (witness size {size})")
print(f"  sum of phi^-2 over scales: {fr.total}  (certified={fr.certified})")

# -- exact vs local search on a random graph ----------------------------------------

h = sample_small_world(GraphSpec(n=12, k=1, c=Fraction(2), seed=0))
exact = fr_bound(h, mode="exact")
local = fr_bound(h, mode="local-search", seed=42)
print(f"\nH(12, 1, c=2): exact sum {float(exact.total):.3f},"
      f" local-search sum {float(local.total):.3f}")
for ee, le in zip(exact.profile.entries, local.profile.entries):
    if ee.empty:
        continue
    mark = "=" if ee.phi == le.phi else "<"
    print(f"  scale {ee.i}: exact phi {ee.phi}  {mark}  search phi {le.phi}")

# The enumerator walks connected sets exactly once; here is what it sees.
fam = list(connected_sets(h, 3))
print(f"  connected sets of size <= 3 in H: {len(fam)}")

# -- budgets keep enumeration honest -------------------------------------------------

k10 = complete_graph(10)
try:
    fr_bound(k10, budget=50)
except EnumerationBudgetError as err:
    print(f"\nK10 with a 50-step budget: {err}")
print("large instances should use mode='local-search' instead of raising the budget")
