#!/usr/bin/env python3
"""Regenerate the benchmark's stored references and its manifest.

    python3 perfbench/gen_refs.py

Writes ``perfbench/refs/exact_pool.json`` (the n=20 graph pool with exact
profiles), ``perfbench/refs/{scaling,arcs,battery}.json`` (by position, the
summaries of the default seed's units; null where a unit is not stored) and
``perfbench/manifest.json``.  Every unit is checked by its invariants first;
the script stops if one fails.  Run it only where the program's outputs are
meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main() -> int:
    run.cap_threads()
    run.import_program()
    import workloads as wl

    run.REFS.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / "gen-refs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        pool = wl.build_exact_pool(wl.FULL["exact"])
        _dump(run.REFS / "exact_pool.json",
              {"params": wl.FULL["exact"], "graphs": pool})
        print(f"exact pool: {len(pool)} graphs in {time.perf_counter() - t0:.1f} s")
        probe = run.Probe(workdir)
        for name in ("scaling", "arcs", "battery"):
            rows = run.run_units(wl.Part(name, wl.FULL, workdir).units(wl.DEFAULT_SEED),
                                 probe)
            summaries, problems = run.check(rows)
            for row, found in zip(rows, problems):
                if found:
                    raise SystemExit(f"{row[0].key}: {found}")
            refs = [summary if row[0].stored else None
                    for row, summary in zip(rows, summaries)]
            _dump(run.REFS / f"{name}.json", refs)
            print(f"{name}: {sum(r is not None for r in refs)} references")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    why = {w["name"]: w["why"] for w in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    manifest = {
        "default_seed": wl.DEFAULT_SEED,
        "heldout_seed": wl.HELDOUT_SEED,
        "heldout_note": "never used to tune the benchmark; its units are "
                        "checked by invariants (and by the exact pool); the "
                        "seed does not change the exact pool's graphs",
        "mc_seed": wl.MC_SEED,
        "reference_machine": run.machine(),
        "probe_ref_s": run.PROBE_REF_S,
        "timing": "every end-to-end time is wall time / calibration probe time "
                  "* probe_ref_s, the probe run between units (calibrate.py)",
        "workloads": {
            name: {"why": why[name], "parts": {
                part: {"params": wl.FULL[part],
                       "units": len(wl.Part(part, wl.FULL, workdir, pool)
                                    .units(wl.DEFAULT_SEED))}
                for part in parts}}
            for name, parts in wl.WORKLOADS.items()
        },
    }
    _dump(run.HERE / "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
