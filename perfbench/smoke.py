#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload through ``run.py --tiny``, untraced and traced, and
asserts that each run passes its output gate, that the metrics emitted are
exactly the ones ``BENCHMARK.json`` names, and that every layer gets at
least one span.  It then corrupts one stored reference value and removes
another, and asserts that the gate counts both units as failed.  Exits
non-zero on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 3


def run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--tiny", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stdout}{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reference_gate() -> None:
    """A corrupted or a missing reference fails its unit, and only it."""
    run.cap_threads()
    run.import_program()
    import workloads as wl

    workdir = run.OUT_DIR / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = wl.build_exact_pool(wl.TINY["exact"])
        units = wl.Part("exact", wl.TINY, workdir, pool).units(SEED)
        rows = run.run_units(units, run.Probe(workdir))
        _, problems = run.check(rows)
        assert not any(problems), problems
        victim, gone = units
        victim.ref = dict(victim.ref, total=victim.ref["total"] + "1")
        gone.ref = wl.NO_REF
        _, problems = run.check(rows)
        stored = wl.Part("scaling", wl.TINY, workdir, refs=[None]).units(wl.DEFAULT_SEED)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert problems == [["output differs from the stored reference"], [wl.NO_REF]], problems
    assert [u.ref for u in stored] == [wl.NO_REF] * len(stored), stored


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    layers = set()
    import tracing

    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run_cli(w["name"], trace)
            assert result["correct"] and result["failed"] == 0, result
            assert set(result["metrics"]) == names[trace], (
                w["name"], trace, set(result["metrics"]) ^ names[trace])
        spans = run.OUT_DIR / f"spans-{w['name']}-seed{SEED}.jsonl"
        for line in spans.read_text(encoding="utf-8").splitlines():
            layers.add(json.loads(line)["name"].split(".", 1)[0])
        print(f"ok {w['name']}")
    assert layers == set(tracing.LAYERS), layers
    print(f"ok spans in every layer: {sorted(layers)}")
    check_reference_gate()
    print("ok corrupted and missing references counted as failed units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
