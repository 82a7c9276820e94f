"""Seeded workloads of the nwmix benchmark.

A workload is a list of units, taken from its parts (``scaling``, ``arcs``,
``exact``, ``anneal``, ``battery``); a unit is one call chain into the nwmix
layers that a user would run.  The units' inputs are a pure function of the
seed, so one seed always gives the same inputs.  Each unit carries:

* ``key``: names its inputs, for the log;
* ``summarize``: a JSON-able canonical summary of the output;
* ``invariants``: checks that hold for any seed, returning the problems found;
* ``ref``: the stored summary the output must equal, if there is one.

Only units with ``stored=True`` get reference summaries (outputs that are
exact, or deterministic functions of the graph sampler); Monte Carlo and
annealing outputs are checked by invariants alone.  References of the
default seed are stored per part, by position; a stored unit of the default
seed whose reference is absent gets ``NO_REF`` and fails.

``exact`` and ``anneal`` run a fixed pool of n=20 graphs, the first graphs of
the acceptance test's seeds 0, 1, ..., stored with their exact profiles;
there the seed picks only the order of the pool and the annealer's seeds,
not the graphs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from nwmix import conductance, constants, experiments, graphs, subtrees, walks
from nwmix.rng import derive_seed, make_rng

from tracing import capture

DEFAULT_SEED = 1
HELDOUT_SEED = 7919
# Seed of the Monte Carlo legs of the battery.  It is fixed, not derived from
# --seed, so that the 3-sigma gate on them gives the same verdict every run.
MC_SEED = 20120117

# A workload runs the units of its parts one after another.  Two workloads
# with long runs measure steadier on a shared machine than five short ones;
# ``walks`` is the numeric side (sparse walk kernel, graph build, file I/O)
# and ``rational`` the exact-arithmetic side (connected-set enumeration,
# Fraction minima, subtree solvers), so each bypasses the other's layers.
WORKLOADS = {"walks": ("scaling", "arcs"), "rational": ("exact", "anneal", "battery")}
PARTS = tuple(part for parts in WORKLOADS.values() for part in parts)

FULL = {
    "scaling": {"n_values": [4096, 16384], "k": 1, "c": "1/2", "mode": "sampled"},
    # 320 escape walks keep escape time near a fifth of an arcs unit; five
    # replicates, so that graph-to-graph cost differences average out
    "arcs": {"n": 65536, "k": 1, "c": "1/4", "escape_trials": 320, "units": 5},
    # The whole pool in every run: a fixed input set keeps graph-to-graph
    # cost differences out of the run-to-run spread, and a pool of two
    # leaves time for several passes, over which each unit takes its mean.
    "exact": {"n": 20, "k": 1, "c": "3", "pool": 2},
    "anneal": {"conductance_n": 64, "conductance_c": "1/2"},
    "battery": {"J": 60, "binplus_n": 100, "mc_j": 6, "mc_samples": 1000,
                "verify_J": 30, "verify_samples": 1000, "bound_n": 14,
                "bound_reps": 200, "bound_j": 6,
                "constants_grid": [["1/4", 1], ["1/2", 1], ["1", 1], ["2", 2],
                                   ["5", 1], ["60", 1]]},
}

# Tiny sizes for the warm-up and the smoke check.
TINY = {
    "scaling": {"n_values": [128, 256], "k": 1, "c": "1/2", "mode": "sampled"},
    "arcs": {"n": 512, "k": 1, "c": "1/4", "escape_trials": 4, "units": 2},
    "exact": {"n": 10, "k": 1, "c": "3", "pool": 2},
    "anneal": {"conductance_n": 12, "conductance_c": "1/2"},
    "battery": {"J": 8, "binplus_n": 12, "mc_j": 3, "mc_samples": 50,
                "verify_J": 6, "verify_samples": 50, "bound_n": 8,
                "bound_reps": 5, "bound_j": 3,
                "constants_grid": [["1", 1], ["60", 1]]},
}


# The reference of a stored unit that should have one but has none.
NO_REF = "no stored reference"


@dataclass
class Unit:
    key: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    invariants: Callable[[object], list]
    stored: bool = True
    ref: object = None


def canonical(summary):
    """The summary as it reads back from JSON, so it compares with stored refs."""
    return json.loads(json.dumps(summary))


def _digest(values) -> str:
    return hashlib.sha256("\n".join(str(v) for v in values).encode()).hexdigest()


# -- shared checks ---------------------------------------------------------------


def _induced_connected(g, S) -> bool:
    S = set(int(v) for v in S)
    start = next(iter(S))
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for u in g.neighbors(v):
            u = int(u)
            if u in S and u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == S


def _profile_problems(g, bound, certified: bool) -> list:
    """Witnesses are connected, lie in their window and realise their phi;
    the total is the sum of phi^-2."""
    problems = []
    if bound.certified is not certified:
        problems.append(f"certified is {bound.certified}, expected {certified}")
    total = Fraction(0)
    for e in bound.profile.entries:
        if e.witness is None:
            if e.phi != math.inf:
                problems.append(f"scale {e.i}: finite phi without witness")
            continue
        cs = conductance.cut_stats(g, e.witness)
        if cs.phi != e.phi:
            problems.append(f"scale {e.i}: phi {e.phi} but witness gives {cs.phi}")
        if not e.vol_lo <= cs.volume <= e.vol_hi:
            problems.append(f"scale {e.i}: witness volume {cs.volume} outside window")
        if not _induced_connected(g, e.witness):
            problems.append(f"scale {e.i}: witness not connected")
        if e.phi > 0:
            total += 1 / (e.phi * e.phi)
    if total != bound.total:
        problems.append(f"total {bound.total} != sum of phi^-2 {total}")
    return problems


def _profile_summary(g, bound) -> dict:
    return {
        "m": g.m,
        "windows": [["inf" if e.witness is None else str(e.phi),
                     None if e.witness is None else [int(v) for v in e.witness]]
                    for e in bound.profile.entries],
        "total": str(bound.total),
    }


# -- exact pool ------------------------------------------------------------------


def _pool_spec(p, seed):
    return graphs.GraphSpec(n=p["n"], k=p["k"], c=Fraction(p["c"]), seed=seed)


def _run_exact(spec):
    g = graphs.sample_small_world(spec)
    return g, conductance.fr_bound(g, mode="exact")


def build_exact_pool(p) -> list:
    """The graphs of seeds 0 .. ``p["pool"]`` - 1, with exact profiles."""
    pool = []
    for seed in range(p["pool"]):
        g, bound = _run_exact(_pool_spec(p, seed))
        pool.append({"seed": seed, "summary": _profile_summary(g, bound)})
    return pool


def _pool_order(pool, seed) -> list:
    """The pool entries in a seeded order."""
    return [pool[int(i)] for i in make_rng(derive_seed(seed, 31)).permutation(len(pool))]


# -- workloads -------------------------------------------------------------------


class Workload:
    """A benchmark workload: the units of its parts, in order."""

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts

    def units(self, seed: int) -> list:
        return [unit for part in self.parts for unit in part.units(seed)]


class Part:
    """Units of one part at one size profile.

    ``pool`` is the exact pool (needed by ``exact`` and ``anneal``);
    ``refs`` holds the default seed's reference summaries, as ``gen_refs.py``
    writes them; files the units write go to ``workdir``.
    """

    def __init__(self, name, profile, workdir, pool=None, refs=None):
        if name not in PARTS:
            raise ValueError(f"unknown part {name!r}")
        self.name = name
        self.p = profile[name]
        self.pool_p = profile["exact"]
        self.workdir = Path(workdir)
        self.pool = pool
        self.refs = refs

    def units(self, seed: int) -> list:
        units = getattr(self, "_" + self.name)(seed)
        if self.refs is not None and seed == DEFAULT_SEED:
            for i, unit in enumerate(units):
                if unit.stored:
                    ref = self.refs[i] if i < len(self.refs) else None
                    unit.ref = NO_REF if ref is None else ref
        return units

    # scaling --------------------------------------------------------------

    def _scaling(self, seed):
        p = self.p
        out = []
        for i, n in enumerate(p["n_values"]):
            cfg = experiments.ExperimentConfig(
                name="bench-scaling", n_values=(n,), k=p["k"], c=Fraction(p["c"]),
                master_seed=derive_seed(seed, i), reps=1, mode=p["mode"],
                out=str(self.workdir / "scaling.csv"),
            )
            out.append(Unit(f"scaling/{n}/{cfg.master_seed}",
                            partial(_run_scaling, cfg), _scaling_summary,
                            _scaling_problems))
        return out

    # arcs -----------------------------------------------------------------

    def _arcs(self, seed):
        p = self.p
        out = []
        for i in range(p["units"]):
            spec = graphs.GraphSpec(n=p["n"], k=p["k"], c=Fraction(p["c"]),
                                    seed=derive_seed(seed, i))
            out.append(Unit(f"arcs/{spec.seed}",
                            partial(_run_arcs, spec, self.workdir / "arcs.edges",
                                    p["escape_trials"]),
                            _arcs_summary, _arcs_problems))
        return out

    # exact / anneal ---------------------------------------------------------

    def _exact(self, seed):
        out = []
        for entry in _pool_order(self.pool, seed):
            spec = _pool_spec(self.pool_p, entry["seed"])
            out.append(Unit(f"pool/{spec.seed}", partial(_run_exact, spec),
                            lambda res: _profile_summary(*res),
                            lambda res: _profile_problems(*res, certified=True),
                            ref=entry["summary"]))
        return out

    def _anneal(self, seed):
        p = self.p
        cfg = experiments.ExperimentConfig(
            name="bench-conductance", n_values=(p["conductance_n"],), k=1,
            c=Fraction(p["conductance_c"]), master_seed=derive_seed(seed, 9),
            mode="auto", out=str(self.workdir / "conductance"),
        )
        out = [Unit(f"conductance/{cfg.master_seed}",
                    partial(_call, experiments, "run_conductance", cfg),
                    partial(_conductance_summary, cfg),
                    partial(_conductance_problems, cfg), stored=False)]
        for i, entry in enumerate(_pool_order(self.pool, seed)):
            spec = _pool_spec(self.pool_p, entry["seed"])
            ls_seed = derive_seed(seed, i)
            exact = [w[0] for w in entry["summary"]["windows"]]
            out.append(Unit(f"local/{spec.seed}/{ls_seed}",
                            partial(_run_local, spec, ls_seed),
                            partial(_local_summary, exact),
                            partial(_local_problems, exact), stored=False))
        return out

    # battery --------------------------------------------------------------

    def _battery(self, seed):
        p = self.p
        J = p["J"]
        n = p["binplus_n"]
        laws = {
            "poisson(2)": partial(subtrees.poisson_law, 2),
            f"binomial_plus({n - 3},1/{n},2)":
                partial(subtrees.binomial_plus_law, n - 3, Fraction(1, n), 2),
        }
        out = [Unit(f"battery/mu/{label}/J{J}", partial(_run_mu, make, J),
                    _mu_summary, _mu_problems)
               for label, make in laws.items()]
        for distinct in (False, True):
            out.append(Unit(
                f"battery/mc/distinct={distinct}",
                partial(_run_mc, p["mc_j"], p["mc_samples"], distinct),
                lambda est: [est.mean, est.stderr],
                partial(_mc_problems, p["mc_j"], distinct), stored=False))
        cfg = experiments.ExperimentConfig(name="bench-battery", c=Fraction(2),
                                           master_seed=MC_SEED,
                                           samples=p["verify_samples"])
        out.append(Unit(f"battery/verify/J{p['verify_J']}",
                        partial(_call, experiments, "run_subtree_verification",
                                cfg, J=p["verify_J"]),
                        lambda rep: [[name, ok] for name, ok, _ in rep],
                        lambda rep: [f"{name} failed: {detail}"
                                     for name, ok, detail in rep if not ok],
                        stored=False))
        bseed = derive_seed(seed, 3)
        out.append(Unit(f"battery/bound-check/{bseed}",
                        partial(_call, experiments, "connected_set_bound_check",
                                n=p["bound_n"], k=1, c=Fraction(1),
                                reps=p["bound_reps"], j_max=p["bound_j"],
                                master_seed=bseed),
                        lambda rows: [row["mean"] for row in rows],
                        _bound_problems, stored=False))
        grid = [(Fraction(c), k) for c, k in p["constants_grid"]]
        out.append(Unit("battery/constants/" + ",".join(f"{c}:{k}" for c, k in grid),
                        partial(_run_constants, grid), lambda js: js,
                        lambda js: [] if len(js) == len(grid) else ["missing"]))
        return out


# -- unit bodies, summaries and invariants ---------------------------------------


def _call(module, name, *args, **kwargs):
    """Call ``module.name`` as bound when the unit runs, so that a traced
    run's patched function is the one called."""
    return getattr(module, name)(*args, **kwargs)


def _run_scaling(cfg):
    with capture(experiments, "mixing_time") as got:
        records, _ = experiments.run_scaling(cfg)
    return records, got


def _scaling_summary(res):
    records, got = res
    return {"tau": got[0].tau, "per_start": list(got[0].per_start)}


def _scaling_problems(res):
    records, got = res
    if len(records) != 1 or len(got) != 1:
        return [f"expected one record and one mixing run, got {len(records)}/{len(got)}"]
    mix = got[0]
    problems = []
    if mix.censored:
        problems.append("censored mixing run")
    elif mix.tau != max(mix.per_start) or records[0].tau != mix.tau:
        problems.append(f"tau {records[0].tau} / {mix.tau} vs per-start max")
    if len(mix.per_start) != len(mix.starts):
        problems.append("per_start and starts differ in length")
    return problems


def _run_arcs(spec, path, trials):
    g = graphs.sample_small_world(spec)
    connected = g.is_connected()
    graphs.write_graph(g, path)
    back = graphs.read_graph(path)
    same = back == g and back.ring_k == g.ring_k
    arc = experiments.quiet_arc(g)
    escapes = []
    if arc.length > 0:
        region = arc.vertices()
        escapes = [walks.escape_time(g, arc.center, region,
                                     seed=derive_seed(spec.seed, 200 + t))
                   for t in range(trials)]
    return {"connected": connected, "round_trip": same, "arc": arc,
            "escapes": escapes}


def _arcs_summary(res):
    arc = res["arc"]
    steps = [e.steps for e in res["escapes"] if not e.censored]
    return {"arc_start": arc.start, "arc_len": arc.length,
            "escape_median": float(statistics.median(steps)) if steps else None,
            "escape_censored": len(res["escapes"]) - len(steps)}


def _arcs_problems(res):
    problems = []
    if not res["connected"]:
        problems.append("sampled graph is not connected")
    if not res["round_trip"]:
        problems.append("edge-list round trip changed the graph")
    if res["arc"].length < 2:
        problems.append("no quiet arc")
    if any(e.censored or e.steps < 1 for e in res["escapes"]):
        problems.append("censored or empty escape walk")
    return problems


def _run_local(spec, seed):
    g = graphs.sample_small_world(spec)
    return g, conductance.fr_bound(g, mode="local-search", seed=seed)


def _local_summary(exact, res):
    g, bound = res
    phis = [e.phi for e in bound.profile.entries]
    hits = sum(1 for phi, ref in zip(phis, exact)
               if (phi == math.inf and ref == "inf")
               or (ref != "inf" and phi == Fraction(ref)))
    return {**_profile_summary(g, bound), "hits": hits, "windows": len(phis)}


def _local_problems(exact, res):
    g, bound = res
    problems = _profile_problems(g, bound, certified=False)
    if len(bound.profile.entries) != len(exact):
        return problems + ["scale count differs from the exact profile"]
    for e, ref in zip(bound.profile.entries, exact):
        if ref != "inf" and e.phi < Fraction(ref):
            problems.append(f"scale {e.i}: local phi {e.phi} below exact {ref}")
    return problems


def _conductance_graph(cfg):
    n = cfg.n_values[0]
    return graphs.sample_small_world(graphs.GraphSpec(
        n=n, k=cfg.k, c=cfg.c, seed=derive_seed(cfg.master_seed, n, 0)))


def _conductance_summary(cfg, res):
    return _profile_summary(_conductance_graph(cfg), res[0][1])


def _conductance_problems(cfg, res):
    if len(res) != 1:
        return [f"expected one profile, got {len(res)}"]
    bound = res[0][1]
    return _profile_problems(_conductance_graph(cfg), bound,
                             certified=bound.profile.mode == "exact")


def _run_mu(make_law, J):
    q = subtrees.factorial_moments(make_law(), J)
    return (subtrees.mu_by_functional_equation(q, J),
            subtrees.mu_by_lagrange(q, J))


def _mu_summary(res):
    fe, _ = res
    return {"J": len(fe), "sha256": _digest(fe), "head": [str(x) for x in fe[:6]]}


def _mu_problems(res):
    fe, lag = res
    return [] if fe == lag else ["mu_by_functional_equation != mu_by_lagrange"]


def _run_mc(j, samples, distinct):
    return subtrees.brute_force_mu(subtrees.poisson_law(2), j, samples,
                                   derive_seed(MC_SEED, j, int(distinct)),
                                   distinct=distinct)


def _mc_problems(j, distinct, est):
    law = subtrees.poisson_law(2)
    moments = subtrees.subset_moments if distinct else subtrees.factorial_moments
    exact = subtrees.mu_by_functional_equation(moments(law, j), j)[j - 1]
    if est.within(exact, 3):
        return []
    return [f"estimate {est.mean} +- {est.stderr} misses exact {float(exact)}"]


def _bound_problems(rows):
    return [f"j={row['j']}: mean {row['mean']} above a bound"
            for row in rows if not (row["below_mu"] and row["below_crude"])]


def _run_constants(grid):
    return [constants.constants_for(c, k).to_json() for c, k in grid]
