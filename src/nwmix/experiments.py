"""Reproducible experiment harness: scaling runs, quiet arcs, profiles.

Every experiment takes an ExperimentConfig and derives all randomness from
the master seed, so a rerun with the same config is byte-identical in its
primary CSV/JSON outputs.  Wall-clock timings go to a separate sidecar file
for exactly that reason.  Summary statistics are re-derived from the raw
rows before returning and compared against the in-memory values.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import subtrees as st
from .conductance import DEFAULT_ENUM_BUDGET, fr_bound
from .constants import VerificationError, constants_for
from .graphs import GraphSpec, UndirectedGraph, build_ring, sample_small_world
from .rng import derive_seed
from .walks import DEFAULT_STEP_CAP, escape_time, mixing_time, sample_starts

VERSION = "nwmix-0.1.0"
SAMPLED_START_COUNT = 64


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    n_values: tuple[int, ...] = (512, 1024, 2048, 4096)
    k: int = 1
    c: Fraction = Fraction(5)
    master_seed: int = 0
    reps: int = 20
    step_cap: int = DEFAULT_STEP_CAP
    enum_budget: int = DEFAULT_ENUM_BUDGET
    samples: int = 1000
    escape_trials: int = 32
    mode: str = "auto"
    out: str | None = None

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("empty n grid")
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.step_cap < 1:
            raise ValueError(f"step cap must be >= 1, got {self.step_cap}")
        if self.enum_budget < 1:
            raise ValueError(f"enumeration budget must be >= 1, got {self.enum_budget}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse a line-based ``key = value`` config; '#' starts a comment."""
        values = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
        return cls().overridden(**values)

    def overridden(self, **kwargs) -> "ExperimentConfig":
        """New config with non-None string/typed overrides applied."""
        updates = {}
        for key, val in kwargs.items():
            if val is None:
                continue
            if key in ("n", "n_values"):
                if isinstance(val, str):
                    val = tuple(int(x) for x in val.replace(",", " ").split())
                updates["n_values"] = tuple(int(x) for x in val)
            elif key in ("k", "reps", "escape_trials", "samples"):
                updates[key] = int(val)
            elif key == "c":
                updates["c"] = Fraction(val)
            elif key in ("seed", "master_seed"):
                updates["master_seed"] = int(val)
            elif key in ("cap", "step_cap"):
                updates["step_cap"] = int(val)
            elif key in ("budget", "enum_budget"):
                updates["enum_budget"] = int(val)
            elif key in ("name", "mode", "out"):
                updates[key] = str(val)
            else:
                raise ValueError(f"unknown config key {key!r}")
        return replace(self, **updates)


# -- quiet arcs ------------------------------------------------------------------


@dataclass(frozen=True)
class QuietArc:
    """Longest circular run of vertices with no incident shortcut."""

    start: int
    length: int
    n: int

    @property
    def center(self) -> int:
        return (self.start + self.length // 2) % self.n

    def vertices(self) -> np.ndarray:
        return (self.start + np.arange(self.length)) % self.n


def quiet_arc(g: UndirectedGraph) -> QuietArc:
    """Longest circular run of degree-exactly-2k vertices; runs of length
    one count as no arc (length 0)."""
    if g.ring_k < 1:
        raise ValueError("quiet arcs are defined on ring-based graphs")
    quiet = g.degrees == 2 * g.ring_k
    n = g.n
    if quiet.all():
        return QuietArc(start=0, length=n, n=n)
    if not quiet.any():
        return QuietArc(start=0, length=0, n=n)
    # rotate so the scan starts at a non-quiet vertex, then runs are linear
    pivot = int(np.flatnonzero(~quiet)[0])
    rolled = np.roll(quiet, -pivot)
    best_len, best_start = 0, 0
    run_start = None
    for i, q in enumerate(rolled):
        if q and run_start is None:
            run_start = i
        elif not q and run_start is not None:
            if i - run_start > best_len:
                best_len, best_start = i - run_start, run_start
            run_start = None
    if run_start is not None and n - run_start > best_len:
        best_len, best_start = n - run_start, run_start
    if best_len < 2:
        return QuietArc(start=0, length=0, n=n)
    return QuietArc(start=(best_start + pivot) % n, length=best_len, n=n)


def quiet_arc_threshold(n: int, c) -> float | None:
    """alpha ln n with alpha = 1/(8c); undefined (None) for c = 0."""
    if c == 0:
        return None
    return math.log(n) / (8 * float(c))


# -- CSV plumbing ----------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# -- mixing-time scaling ---------------------------------------------------------


@dataclass
class ScalingRecord:
    n: int
    rep: int
    seed: int
    mode: str
    tau: int | None
    censored: bool
    log_sq_n: float

    @property
    def ratio(self) -> float | None:
        return None if self.tau is None else self.tau / self.log_sq_n


SCALING_HEADER = ["version", "master_seed", "n", "rep", "seed", "mode", "tau",
                  "censored", "log_sq_n", "ratio"]
SCALING_SUMMARY_HEADER = ["version", "master_seed", "n", "reps", "n_censored",
                          "median_ratio"]


def _graph_for(config: ExperimentConfig, n: int, seed: int) -> UndirectedGraph:
    if config.c == 0:
        return build_ring(n, config.k)
    return sample_small_world(GraphSpec(n=n, k=config.k, c=config.c, seed=seed))


def scaling_starts(config: ExperimentConfig, g: UndirectedGraph, n: int,
                   rep: int) -> list[int]:
    """64 sampled starts plus the quiet-arc center (the adversarial start)."""
    starts = set(
        sample_starts(n, min(SAMPLED_START_COUNT, n),
                      derive_seed(config.master_seed, n, rep, 1))
    )
    arc = quiet_arc(g)
    if arc.length > 0:
        starts.add(arc.center)
    return sorted(starts)


def run_scaling(config: ExperimentConfig):
    """Mixing time per (n, replication); returns (records, summaries).

    Sampled-starts mode yields lower bounds on the worst-start mixing time;
    censored runs (step cap hit) are flagged and excluded from medians but
    never dropped from the CSV.
    """
    records: list[ScalingRecord] = []
    timings = []
    for n in config.n_values:
        for rep in range(config.reps):
            seed = derive_seed(config.master_seed, n, rep)
            g = _graph_for(config, n, seed)
            mode = config.mode
            if mode == "auto":
                mode = "all" if n <= 1024 else "sampled"
            t0 = time.perf_counter()
            if mode == "all":
                res = mixing_time(g, starts="all", cap=config.step_cap)
            elif mode == "sampled":
                res = mixing_time(g, starts=scaling_starts(config, g, n, rep),
                                  cap=config.step_cap)
            else:
                raise ValueError(f"unknown scaling mode {config.mode!r}")
            timings.append((n, rep, time.perf_counter() - t0))
            records.append(ScalingRecord(
                n=n, rep=rep, seed=seed, mode=mode, tau=res.tau,
                censored=res.censored, log_sq_n=math.log(n) ** 2,
            ))
    summaries = _summarize_scaling(config, records)
    if config.out:
        rows = [[VERSION, config.master_seed, r.n, r.rep, r.seed, r.mode,
                 r.tau, r.censored, r.log_sq_n, r.ratio] for r in records]
        _write_rows(config.out, SCALING_HEADER, rows)
        _write_rows(_summary_path(config.out), SCALING_SUMMARY_HEADER,
                    [[VERSION, config.master_seed, n, reps, cens, med]
                     for n, reps, cens, med in summaries])
        _write_rows(_timing_path(config.out), ["n", "rep", "seconds"],
                    [(n, rep, f"{s:.3f}") for n, rep, s in timings])
        _check_scaling_roundtrip(config.out, summaries)
    return records, summaries


def _summarize_scaling(config, records):
    summaries = []
    for n in config.n_values:
        ratios = [r.ratio for r in records if r.n == n and not r.censored]
        cens = sum(1 for r in records if r.n == n and r.censored)
        med = statistics.median(ratios) if ratios else None
        summaries.append((n, config.reps, cens, med))
    return summaries


def _summary_path(out: str) -> str:
    return out + ".summary.csv"


def _timing_path(out: str) -> str:
    return out + ".timing.csv"


def _check_scaling_roundtrip(out, summaries) -> None:
    """Re-derive medians from the written CSV; any drift is a bug."""
    by_n: dict[int, list[float]] = {}
    cens: dict[int, int] = {}
    with open(out, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            n = int(row["n"])
            cens.setdefault(n, 0)
            by_n.setdefault(n, [])
            if row["censored"] == "true":
                cens[n] += 1
            else:
                by_n[n].append(float(row["ratio"]))
    for n, reps, n_cens, med in summaries:
        got = statistics.median(by_n[n]) if by_n[n] else None
        if got != med or cens[n] != n_cens:
            raise VerificationError(
                f"summary drift at n={n}: file says {got}/{cens[n]}, "
                f"memory says {med}/{n_cens}"
            )


# -- quiet-arc experiment --------------------------------------------------------


QUIET_ARC_HEADER = ["version", "master_seed", "n", "rep", "seed", "arc_start",
                    "arc_len", "threshold", "meets_threshold", "escape_trials",
                    "escape_median", "escape_censored"]


def run_quiet_arc(config: ExperimentConfig):
    """Longest shortcut-free arc per sample, plus escape-time Monte Carlo.

    The escape walk starts at the arc center and stops on first exit from
    the arc; with p = 0 the whole ring qualifies and escape never happens
    (all trials censored).
    """
    rows = []
    for n in config.n_values:
        for rep in range(config.reps):
            seed = derive_seed(config.master_seed, n, rep)
            g = _graph_for(config, n, seed)
            arc = quiet_arc(g)
            thr = quiet_arc_threshold(n, config.c)
            meets = None if thr is None else arc.length >= thr
            esc_median: float | None = None
            esc_censored = 0
            trials = 0
            if arc.length > 0:
                trials = config.escape_trials
                steps = []
                for t in range(trials):
                    res = escape_time(
                        g, arc.center, arc.vertices(),
                        seed=derive_seed(config.master_seed, n, rep, 200 + t),
                        cap=config.step_cap,
                    )
                    if res.censored:
                        esc_censored += 1
                    else:
                        steps.append(res.steps)
                if steps:
                    esc_median = float(statistics.median(steps))
            rows.append([VERSION, config.master_seed, n, rep, seed, arc.start,
                         arc.length, thr, meets, trials, esc_median,
                         esc_censored])
    if config.out:
        _write_rows(config.out, QUIET_ARC_HEADER, rows)
    return rows


# -- conductance experiment ------------------------------------------------------


def expected_volume_windows(n: int, c, k: int, scales: int):
    """Volume windows x n(c/2+k)/2 <= e(S) <= 4 x n(c/2+k) per dyadic x.

    n(c/2+k) is the expected edge count, so these windows are anchored to
    the expected volume rather than the realized one, with slack on both
    sides.
    """
    unit = n * (Fraction(c) / 2 + k)
    out = []
    for i in range(1, scales + 1):
        x = Fraction(1, 2**i)
        out.append((x * unit / 2, 4 * x * unit))
    return out


def run_conductance(config: ExperimentConfig, variant: str = "standard"):
    """Scale profile + FR-style sum for one sampled graph per n.

    variant="expected-volume" switches to the windows anchored at the
    expected volume, with the size cap (1-beta) n (small-c) or 9n/10
    (large-c).
    """
    results = []
    for n in config.n_values:
        seed = derive_seed(config.master_seed, n, 0)
        g = _graph_for(config, n, seed)
        mode = config.mode
        if mode == "auto":
            mode = "exact" if n <= 20 else "local-search"
        kwargs = dict(mode=mode, seed=derive_seed(config.master_seed, n, 7),
                      budget=config.enum_budget)
        if variant == "expected-volume":
            from .conductance import num_scales

            L = num_scales(g.m)
            consts = constants_for(config.c, config.k) if config.c > 0 else None
            if consts is not None and consts.regime == "small-c":
                cap = math.floor((1 - consts.beta) * n)
            else:
                cap = math.floor(9 * n / 10)
            kwargs["windows"] = expected_volume_windows(n, config.c, config.k, L)
            kwargs["size_cap"] = cap
        elif variant != "standard":
            raise ValueError(f"unknown variant {variant!r}")
        bound = fr_bound(g, **kwargs)
        results.append((n, bound))
        if config.out:
            stem = config.out if len(config.n_values) == 1 else f"{config.out}.n{n}"
            bound.profile.write_csv(stem + ".profile.csv")
            with open(stem + ".fr.json", "w", encoding="utf-8") as fh:
                fh.write(bound.to_json() + "\n")
    return results


# -- subtree verification battery ------------------------------------------------


def _battery_laws(c):
    return [
        ("poisson(1)", st.poisson_law(1)),
        (f"poisson({c})", st.poisson_law(c)),
        ("binomial(50,1/10)", st.binomial_law(50, Fraction(1, 10))),
        ("binomial_plus(50,1/10,2)",
         st.binomial_plus_law(50, Fraction(1, 10), 2)),
        ("deterministic(3)", st.deterministic_law(3)),
        ("explicit(0:1/2,2:1/2)",
         st.explicit_law([(0, Fraction(1, 2)), (2, Fraction(1, 2))])),
    ]


def run_subtree_verification(config: ExperimentConfig, J: int = 30,
                             mc_samples: int | None = None):
    """Battery of exact and Monte Carlo checks on the subtree counters.

    Exactness failures raise VerificationError; Monte Carlo legs report
    pass/fail without raising.  Returns the list of (check, ok, detail).
    """
    report = []

    def exact(name, ok, detail=""):
        report.append((name, bool(ok), detail))
        if not ok:
            raise VerificationError(f"exact check failed: {name} {detail}")

    def soft(name, ok, detail=""):
        report.append((name, bool(ok), detail))

    for label, law in _battery_laws(config.c):
        q = st.factorial_moments(law, J)
        a = st.mu_by_functional_equation(q, J)
        b = st.mu_by_lagrange(q, J)
        exact(f"series-identity {label}", a == b)

    for c in (Fraction(1), Fraction(7, 2)):
        q = st.factorial_moments(st.poisson_law(c), J)
        mu = st.mu_by_functional_equation(q, J)
        ok = all(mu[j - 1] == st.mu_poisson_closed_form(c, j)
                 for j in range(1, J + 1))
        exact(f"poisson closed form c={c}", ok)

    # the distinct-subtree count of the d-ary tree comes from the subset
    # (unordered) moments C(d, j)
    for d in (2, 3):
        q = st.subset_moments(st.deterministic_law(d), J)
        mu = st.mu_by_functional_equation(q, J)
        ok = all(mu[j - 1] == st.deterministic_subtree_count(d, j)
                 for j in range(1, J + 1))
        exact(f"deterministic distinct count d={d}", ok)

    q = st.factorial_moments(st.poisson_law(1), 6)
    mu = st.mu_by_functional_equation(q, 6)
    exact("catalan prefix", mu == [Fraction(x) for x in (1, 1, 2, 5, 14, 42)])

    # q_j <= C^j holds with C = c for Poisson(c) (j! >= 1) and C = np for
    # Binomial(n, p) (C(n,j) <= n^j); the two-step bound chain must follow
    for label, law, C in [
        ("poisson(2)", st.poisson_law(2), Fraction(2)),
        ("binomial(50,1/10)", st.binomial_law(50, Fraction(1, 10)), Fraction(5)),
    ]:
        q = st.factorial_moments(law, 25)
        mu = st.mu_by_functional_equation(q, 25)
        ok = all(q[j] <= C**j for j in range(26))
        ok = ok and all(mu[j - 1] <= st.mu_upper_bound(C, j)
                        for j in range(1, 26))
        ok = ok and all(st.mu_upper_bound(C, j) < st.mu_upper_bound_weak(C, j)
                        for j in range(2, 26))
        ok = ok and st.mu_upper_bound(C, 1) <= st.mu_upper_bound_weak(C, 1)
        exact(f"bound chain {label}", ok)

    samples = mc_samples if mc_samples is not None else config.samples
    exact_mu = [st.mu_poisson_closed_form(1, j) for j in range(1, 6)]
    for j in range(1, 6):
        est = st.brute_force_mu(st.poisson_law(1), j, samples,
                                derive_seed(config.master_seed, 42, j))
        ok = est.within(exact_mu[j - 1], sigmas=3.0)
        soft(f"mc poisson(1) j={j}", ok,
             f"est={est.mean:.4f}+-{est.stderr:.4f} exact={float(exact_mu[j-1]):.4f}")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            for name, ok, detail in report:
                fh.write(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip() + "\n")
    return report


def connected_set_bound_check(n: int = 14, k: int = 1, c=Fraction(1),
                              reps: int = 500, j_max: int = 6,
                              master_seed: int = 0,
                              budget: int = DEFAULT_ENUM_BUDGET):
    """Mean per-vertex connected-set counts against their two upper bounds.

    Over sampled graphs, the empirical mean of |{connected j-sets containing
    vertex 0}| is compared with (4(c+2k))^j and with the exact expected
    subtree count of the dominating branching process, Binomial(n-1-2k, c/n)
    plus 2k deterministic children.
    """
    from .conductance import count_connected_sets

    counts = np.zeros((reps, j_max), dtype=np.int64)
    for rep in range(reps):
        seed = derive_seed(master_seed, n, rep)
        g = sample_small_world(GraphSpec(n=n, k=k, c=Fraction(c), seed=seed))
        for j in range(1, j_max + 1):
            counts[rep, j - 1] = count_connected_sets(g, j, containing=0,
                                                      budget=budget)
    law = st.binomial_plus_law(n - 1 - 2 * k, Fraction(c, n), 2 * k)
    q = st.factorial_moments(law, j_max)
    mu = st.mu_by_functional_equation(q, j_max)
    out = []
    for j in range(1, j_max + 1):
        col = counts[:, j - 1].astype(np.float64)
        mean = float(col.mean())
        stderr = float(col.std(ddof=1) / math.sqrt(reps))
        crude = float((4 * (Fraction(c) + 2 * k)) ** j)
        out.append({
            "j": j,
            "mean": mean,
            "stderr": stderr,
            "mu_dominating": float(mu[j - 1]),
            "crude_bound": crude,
            "below_mu": mean <= float(mu[j - 1]) + 3 * stderr,
            "below_crude": mean <= crude,
        })
    return out


# -- constants -------------------------------------------------------------------


def run_constants(c, k: int, out: str | None = None) -> str:
    """ConstantSet JSON for (c, k), regime-dispatched."""
    payload = constants_for(c, k).to_json()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return payload
