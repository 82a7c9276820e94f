#!/usr/bin/env python3
"""Benchmark of nwmix: seeded workloads, end-to-end metrics, a traced run.

Run from the root of an nwmix checkout:

    python3 perfbench/run.py --workload walks --seed 1 --seconds 45 --trace 0

The program is imported from the checkout's ``src/`` directory.  The seed
fixes the workload's units.  With ``--trace 0`` they run untraced, pass
after pass, until ``--seconds`` is used up, and the end-to-end metrics are
reported.  A calibration probe (``calibrate.py``) runs between units, and
every end-to-end time is normalised by it: a unit run's time is its wall time
/ the mean of the probe runs around it * ``PROBE_REF_S``, so that the slow
spells of a machine shared with other work cancel out.  The wall-clock
figures are printed as comments.  With ``--trace 1`` a warm-up pass is
followed by two untraced and two traced passes, and the per-layer metrics
are reported; the span file goes to ``.perfbench-out/``.

Every unit output is checked (invariants for any seed, stored reference
summaries where the inputs have one, the same output in every pass).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only if every
unit passed.  Workloads, metrics and seeds are described in
``perfbench/manifest.json`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import PROBE_REF_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
REFS = HERE / "refs"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def import_program():
    init = SRC / "nwmix" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no nwmix sources at {init}")
    sys.path.insert(0, str(SRC))
    import nwmix

    if Path(nwmix.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported nwmix from {nwmix.__file__}, not {init}")
    return nwmix


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def load_refs(name: str):
    path = REFS / name
    if not path.is_file():
        raise SystemExit(f"perfbench: missing reference file {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def setup(name: str, workdir: Path, tiny: bool = False):
    """Load the references and warm up on one tiny unit of each part.

    Returns the workload, at full size with its stored references, or at
    the tiny sizes without them.
    """
    import workloads as wl

    parts = []
    pool = tiny_pool = None
    for part in wl.WORKLOADS[name]:
        refs = None
        if part in ("exact", "anneal"):
            if tiny_pool is None:
                tiny_pool = wl.build_exact_pool(wl.TINY["exact"])
                pool = tiny_pool if tiny else load_refs("exact_pool.json")["graphs"]
        elif not tiny:
            refs = load_refs(f"{part}.json")
        wl.Part(part, wl.TINY, workdir, tiny_pool).units(wl.DEFAULT_SEED)[0].run()
        parts.append(wl.Part(part, wl.TINY if tiny else wl.FULL, workdir, pool, refs))
    return wl.Workload(name, parts)


def run_units(units, probe, tracer=None) -> list:
    """[unit, seconds, output, error, probe seconds] per unit; an exception
    fails the unit.  The probe runs between units, and a unit's probe
    seconds are the mean of the runs just before and just after it."""
    rows = []
    before = probe.seconds()
    for unit in units:
        if tracer is not None:
            tracer.unit = unit.key
        t0 = time.perf_counter()
        try:
            out, err = unit.run(), None
        except Exception:
            out, err = None, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        after = probe.seconds()
        rows.append([unit, seconds, out, err, (before + after) / 2])
        before = after
    return rows


def ref_seconds(row) -> float:
    """A row's unit time, normalised to the probe's reference speed."""
    return row[1] / row[4] * PROBE_REF_S


def run_passes(units, seconds: float, probe) -> list:
    """Passes over ``units`` until the next one would end past ``seconds``
    by more than half a pass; at least two passes."""
    rows, passes = [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rows += run_units(units, probe)
        passes += 1
        now = time.perf_counter()
        if passes >= 2 and now - start + 0.5 * (now - t0) >= seconds:
            return rows


def check(rows) -> tuple[list, list]:
    """(summaries, problems): per row, the output summary and what failed."""
    from workloads import NO_REF, canonical

    summaries, problems = [], []
    for unit, _, out, err, _ in rows:
        if err is not None:
            summaries.append(None)
            problems.append([err.strip().splitlines()[-1]])
            continue
        try:
            found = list(unit.invariants(out))
            summary = canonical(unit.summarize(out))
        except Exception as exc:
            found, summary = [f"check raised {exc!r}"], None
        if unit.ref is NO_REF:
            found.append(NO_REF)
        elif unit.ref is not None and summary != unit.ref:
            found.append("output differs from the stored reference")
        summaries.append(summary)
        problems.append(found)
    return summaries, problems


def measure_setup(name: str, tiny: bool, probe) -> list:
    """Seconds of fresh processes that only run ``setup``, each normalised
    like a unit, by the probe runs around it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name]
    times = []
    before = probe.seconds()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd + ["--tiny"] * tiny, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = probe.seconds()
        times.append(wall / ((before + after) / 2) * PROBE_REF_S)
        before = after
    return times


def end_to_end(rows, k: int, setup_times) -> dict:
    """End-to-end metrics of the passes ``rows`` over ``k`` units: units
    per normalised second, the median normalised time of a unit run, the
    median set-up time and the peak memory."""
    # read before the import below adds to it
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from scipy.stats.mstats import hdquantiles

    # Means over passes and the Harrell-Davis median (a weighted mean of
    # all order statistics): on three to six passes of units of unequal
    # cost they spread less from run to run than sample medians do.
    per_unit = [statistics.fmean(map(ref_seconds, rows[i::k])) for i in range(k)]
    p50 = float(hdquantiles([ref_seconds(row) for row in rows], prob=[0.5])[0])
    return {
        "units_per_s": (k / sum(per_unit), "1/s"),
        "unit_p50_s": (p50, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }


def per_layer(tracer, passes, summaries, overhead, probe_s) -> dict:
    """Per-layer metrics of ``passes`` traced passes, per unit or per pass;
    ``summaries`` are the outputs of one pass.  Span times are wall seconds;
    ``probe_s``, the probe's median time, gives the machine's speed."""
    by_name, self_s = tracer.totals()
    units = passes * len(summaries)
    work = tracer.work

    def secs(name):
        return by_name.get(name, (0, 0.0))[1]

    def per_unit(name):
        return secs(name) / units

    def rate(key, name, scale=1.0):
        t = secs(name)
        return work[key] * scale / t if t else 0.0

    hits = [s for s in summaries if isinstance(s, dict) and "hits" in s]
    windows = sum(s["windows"] for s in hits)
    out = {
        "graphs.sample_s": (per_unit("graphs.sample_small_world"), "s"),
        "graphs.sample_edges_per_s": (rate("edges", "graphs.sample_small_world"), "1/s"),
        "graphs.connected_s": (per_unit("graphs.is_connected"), "s"),
        "graphs.write_s": (per_unit("graphs.write_graph"), "s"),
        "graphs.read_s": (per_unit("graphs.read_graph"), "s"),
        "walks.mixing_s": (per_unit("walks.mixing_time"), "s"),
        "walks.start_steps": (work["start_steps"] // passes, "count"),
        "walks.start_steps_per_s": (rate("start_steps", "walks.mixing_time"), "1/s"),
        "walks.kernel_gflops_computed": (
            rate("kernel_flops", "walks.mixing_time", 1e-9), "GFLOP/s"),
        "walks.escape_s": (per_unit("walks.escape_time"), "s"),
        "walks.escape_steps_per_s": (rate("escape_steps", "walks.escape_time"), "1/s"),
        "conductance.exact_s": (per_unit("conductance.fr_bound[exact]"), "s"),
        "conductance.local_s": (per_unit("conductance.fr_bound[local-search]"), "s"),
        "conductance.anneal_iters_per_s": (
            rate("anneal_iters", "conductance.fr_bound[local-search]"), "1/s"),
        "conductance.local_hit_frac": (
            sum(s["hits"] for s in hits) / windows if windows else 0.0, "frac"),
        "conductance.count_s": (per_unit("conductance.count_connected_sets"), "s"),
        "subtrees.moments_s": (per_unit("subtrees.factorial_moments"), "s"),
        "subtrees.fe_s": (per_unit("subtrees.mu_by_functional_equation"), "s"),
        "subtrees.lagrange_s": (per_unit("subtrees.mu_by_lagrange"), "s"),
        "subtrees.mc_samples_per_s": (rate("mc_samples", "subtrees.brute_force_mu"), "1/s"),
        "constants.solve_s": (per_unit("constants.constants_for"), "s"),
    }
    for layer, s in self_s.items():
        out[f"{layer}.self_s"] = (s / units, "s")
    out["trace.overhead_frac"] = (overhead, "frac")
    out["calib.probe_s"] = (probe_s, "s")
    return out


TRACED_ORDER = (False, True, True, False)


def traced_run(units, probe):
    """A warm-up pass, then untraced (U) and traced (T) passes in the order
    U T T U.  Returns (rows of all passes, tracer, trace overhead): the
    overhead is the median over the two pairs of traced / untraced
    normalised time - 1.
    """
    from tracing import Tracer

    tracer = Tracer()
    rows = run_units(units, probe)
    seconds = {False: [], True: []}
    for with_trace in TRACED_ORDER:
        if with_trace:
            with tracer:
                got = run_units(units, probe, tracer)
        else:
            got = run_units(units, probe)
        seconds[with_trace].append(sum(map(ref_seconds, got)))
        rows += got
    ratios = [t / u - 1.0 for u, t in zip(seconds[False], seconds[True])]
    return rows, tracer, statistics.median(ratios)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the manifest's default seed)")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only import, load references and warm up (times setup_s)")
    ap.add_argument("--tiny", action="store_true",
                    help="run the tiny sizes of the smoke check")
    args = ap.parse_args(argv)
    cap_threads()
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = setup(args.workload, workdir, args.tiny)
        if args.setup_only:
            return 0
        return run(args, workload, Probe(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, probe) -> int:
    import workloads as wl

    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    print(f"# nwmix benchmark: workload={workload.name} seed={seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {json.dumps(machine())}")
    units = workload.units(seed)
    if args.trace:
        rows, tracer, overhead = traced_run(units, probe)
    else:
        setup_times = measure_setup(workload.name, args.tiny, probe)
        rows = run_passes(units, args.seconds, probe)
    k = len(units)
    passes = len(rows) // k
    summaries, problems = check(rows)
    for i in range(k, len(rows)):
        if summaries[i] != summaries[i % k]:
            problems[i].append("output differs from the first pass's")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(span_file)
        print(f"# {len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        metrics = per_layer(tracer, sum(TRACED_ORDER), summaries[:k], overhead,
                            statistics.median(row[4] for row in rows))
    else:
        metrics = end_to_end(rows, k, setup_times)
        wall = [statistics.median(row[1] for row in rows[i::k]) for i in range(k)]
        print(f"# wall clock, not normalised: units_per_s {k / sum(wall)!r}, "
              f"unit_p50_s {statistics.median(wall)!r}, probe median "
              f"{statistics.median(row[4] for row in rows)!r} s")
        hits = [s for s in summaries[:k] if isinstance(s, dict) and "hits" in s]
        if hits:
            h, w = sum(s["hits"] for s in hits), sum(s["windows"] for s in hits)
            print(f"# local_hit_frac {h / w!r} ({h}/{w} windows)")
    failed = 0
    for row, found in zip(rows, problems):
        print(f"# unit {row[0].key} {row[1]:.4f} s, probe {row[4]:.4f} s")
        failed += bool(found)
        for reason in found:
            print(f"# FAIL {row[0].key}: {reason}")
    print(f"# fail_frac {failed}/{len(rows)} units")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit} ({k} units, {passes} passes)")
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
