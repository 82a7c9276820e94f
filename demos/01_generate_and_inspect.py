"""Build small-world graphs and poke at their structure.

The model: place n vertices on a ring, join every pair at circular distance
at most k, then add each remaining pair independently with probability c/n.
Ring edges are a deterministic backbone; the sparse random "shortcuts" on top
are what the rest of the toolkit studies.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from nwmix import (
    GraphSpec,
    blow_up,
    blow_up_shortcut_probability,
    build_ring,
    read_graph,
    sample_small_world,
    write_graph,
)

# -- the deterministic backbone --------------------------------------------------

ring = build_ring(12, 2)
print(f"ring n=12 k=2: {ring.n} vertices, {ring.m} edges (2k-regular)")
print(f"  degrees: {sorted(set(ring.degrees.tolist()))}")
print(f"  neighbors of 0: {ring.neighbors(0).tolist()}")

# -- sampling the random graph ----------------------------------------------------

spec = GraphSpec(n=40, k=1, c=Fraction(2), seed=7)
g = sample_small_world(spec)
shortcuts = g.m - spec.n * spec.k
print(f"\nH(n=40, k=1, c=2) seed=7: {g.m} edges = {spec.n * spec.k} ring"
      f" + {shortcuts} shortcuts")

# Each non-ring pair appears with p = c/n, so the shortcut count concentrates
# around p * (#non-ring pairs).
pairs = spec.n * (spec.n - 1) // 2 - spec.n * spec.k
expected = float(spec.p) * pairs
print(f"  expected shortcuts: {expected:.1f} over {pairs} candidate pairs")

counts = []
for seed in range(200):
    h = sample_small_world(GraphSpec(n=40, k=1, c=Fraction(2), seed=seed))
    counts.append(h.m - 40)
print(f"  over 200 seeds: mean {np.mean(counts):.2f}, std {np.std(counts):.2f}")

# Same seed, same graph -- sampling is a pure function of (n, k, c, seed).
again = sample_small_world(spec)
assert np.array_equal(again.edge_array(), g.edge_array())
print("  resampling with the same seed reproduces the edge list exactly")

# -- file round trip ---------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_graph.txt"
    write_graph(g, path)
    h = read_graph(path)
    assert np.array_equal(h.edge_array(), g.edge_array())
    with open(path, encoding="utf-8") as fh:
        head = [next(fh).rstrip() for _ in range(4)]
print(f"\nwrote {path.name}; first lines: {head}")

# -- blow-up: coarse-graining blocks of R consecutive vertices --------------------

base = sample_small_world(GraphSpec(n=60, k=2, c=Fraction(3), seed=1))
aux = blow_up(base, R=5)
print(f"\nblow-up of n=60 by R=5: {aux.n} blocks, {aux.m} aux edges")
# block i holds vertices i*R .. (i+1)*R - 1
print(f"  block of vertex 23: {23 // 5}"
      f" = vertices {list(range(23 // 5 * 5, (23 // 5 + 1) * 5))}")

# Two blocks are adjacent iff some base edge crosses between them, so a
# non-ring block pair is connected with probability 1 - (1-p)^(R*R).
p_aux = blow_up_shortcut_probability(5, Fraction(3, 60))
print(f"  induced shortcut probability per block pair: {float(p_aux):.4f}")
