"""Quiet arcs, escape times, and the reproducible scaling harness.

A quiet arc is the longest circular run of vertices untouched by shortcuts.
It grows logarithmically in n, and a lazy walk dropped at its center needs
time roughly quadratic in the arc length to escape -- the obstruction that
keeps small-world mixing from being too fast.  run_scaling
packages the mixing measurement across an n-grid with derived seeds, CSV
output, and a self-verification pass; wall-clock times go to a sidecar so
the primary outputs stay byte-identical across reruns.
"""

import filecmp
import tempfile
from fractions import Fraction
from pathlib import Path

from nwmix import (
    ExperimentConfig,
    GraphSpec,
    build_ring,
    escape_time,
    quiet_arc,
    quiet_arc_threshold,
    run_scaling,
    sample_small_world,
)

# -- finding quiet arcs --------------------------------------------------------------

ring = build_ring(24, 1)
arc = quiet_arc(ring)
print(f"pure ring: the whole cycle is quiet -> start={arc.start},"
      f" length={arc.length}")

print("\nquiet arc length vs the ln(n)/(8c) alarm threshold (k=1, c=2):")
for n in (64, 256, 1024, 4096):
    g = sample_small_world(GraphSpec(n=n, k=1, c=Fraction(2), seed=n))
    arc = quiet_arc(g)
    thr = quiet_arc_threshold(n, Fraction(2))
    flag = "short!" if arc.length < thr else "ok"
    print(f"  n={n:5d}: length {arc.length:3d} (threshold {thr:5.2f}, {flag})"
          f"  center={arc.center}")

# -- escaping an arc -----------------------------------------------------------------

g = sample_small_world(GraphSpec(n=1024, k=1, c=Fraction(2), seed=9))
arc = quiet_arc(g)
print(f"\nn=1024 quiet arc: start {arc.start}, length {arc.length}")
times = []
for trial in range(16):
    res = escape_time(g, arc.center, arc.vertices(), seed=trial)
    times.append(res.steps)
print(f"  escape times from the center over 16 walks: {sorted(times)}")
print("  (escape needs time roughly quadratic in the arc length)")

# -- the scaling harness -------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "demo_scaling"
    out.mkdir()

    config = ExperimentConfig(
        name="demo",
        n_values=(64, 128, 256),
        k=1,
        c=Fraction(5),
        reps=3,
        master_seed=0,
        out=str(out / "scaling.csv"),
    )
    run_scaling(config)
    print(f"\nwrote {sorted(p.name for p in out.iterdir())}")
    lines = (out / "scaling.csv").read_text().splitlines()
    print("scaling.csv:")
    for line in lines[:5] + ["..."] + lines[-2:]:
        print("  " + line)

    # Rerun into a second directory: every primary output matches byte for byte.
    out2 = Path(tmp) / "demo_scaling2"
    out2.mkdir()
    run_scaling(config.overridden(out=str(out2 / "scaling.csv")))
    same = filecmp.cmp(out / "scaling.csv", out2 / "scaling.csv", shallow=False)
print(f"\nrerun produces byte-identical scaling.csv: {same}")
print("(wall-clock times live in the .timing.csv sidecar, which may differ)")
