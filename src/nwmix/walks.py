"""Lazy simple random walk: kernel, stationary law, TV distance, mixing times.

The walk stays put with probability 1/2 and otherwise moves to a uniform
neighbor, so the transition kernel is P = (I + D^-1 A) / 2.  For a connected
graph the stationary distribution is pi(x) = deg(x) / (2m) and the total
variation distance to pi is non-increasing along the chain, which lets the
mixing-time search stop each start at its first step under the 1/4 threshold.
The search evolves all its starts at once, as the columns of one n-by-s block
multiplied by the sparse transposed kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from .graphs import UndirectedGraph
from .rng import derive_seed, make_rng

MIXING_THRESHOLD = 0.25
DEFAULT_STEP_CAP = 10_000_000
_MASS_TOL = 1e-12


class WalkError(ValueError):
    pass


def validate_distribution(mu: np.ndarray, tol: float = _MASS_TOL) -> np.ndarray:
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 1:
        raise WalkError("distribution must be a 1-d array")
    if np.any(mu < 0):
        raise WalkError("distribution has negative mass")
    drift = abs(float(mu.sum()) - 1.0)
    if drift > tol:
        raise WalkError(f"distribution mass drifted by {drift:.3e} (> {tol:.0e})")
    return mu


def point_mass(n: int, x: int) -> np.ndarray:
    mu = np.zeros(n)
    mu[x] = 1.0
    return mu


def stationary(g: UndirectedGraph) -> np.ndarray:
    """pi(x) = deg(x) / (2m); requires a connected graph."""
    if not g.is_connected():
        raise WalkError("stationary distribution requires a connected graph")
    return g.degrees / (2.0 * g.m)


def stationary_exact(g: UndirectedGraph) -> list[Fraction]:
    if not g.is_connected():
        raise WalkError("stationary distribution requires a connected graph")
    return [Fraction(int(d), 2 * g.m) for d in g.degrees]


class LazyKernel:
    """Sparse lazy transition kernel of a graph.

    It is stored transposed, as csr(P^T), so that a distribution, or an
    n-by-s block of them held as columns, evolves by ``P^T @ mu``.
    """

    def __init__(self, graph: UndirectedGraph):
        self.graph = graph
        n = graph.n
        deg = graph.degrees
        if np.any(deg == 0) and n > 1:
            # isolated vertices only hold mass; kernel still well defined
            inv = np.zeros(n)
            nz = deg > 0
            inv[nz] = 1.0 / deg[nz]
        else:
            inv = 1.0 / deg
        # P^T[x, y] = P[y, x] = 1/(2 deg y) for each neighbor y of x
        adj_t = sparse.csr_matrix(
            ((0.5 * inv)[graph.indices], graph.indices, graph.indptr), shape=(n, n)
        )
        self._PT = (sparse.identity(n, format="csr") * 0.5 + adj_t).tocsr()

    @property
    def matrix(self) -> sparse.csc_matrix:
        """The kernel P itself (a transposed view of the stored P^T)."""
        return self._PT.T

    def step(self, mu: np.ndarray) -> np.ndarray:
        """One application of the kernel: mu P."""
        mu = validate_distribution(mu)
        return self._PT @ mu


def step(kernel: LazyKernel, mu: np.ndarray) -> np.ndarray:
    return kernel.step(mu)


def step_exact(g: UndirectedGraph, mu: list[Fraction]) -> list[Fraction]:
    """Exact-rational kernel application for small graphs."""
    if len(mu) != g.n:
        raise WalkError("length mismatch")
    deg = g.degrees
    out = [m / 2 for m in mu]
    half = Fraction(1, 2)
    for x in range(g.n):
        if mu[x] == 0:
            continue
        share = half * mu[x] / int(deg[x])
        for y in g.neighbors(x):
            out[y] += share
    return out


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> float:
    """Half the L1 distance between two distributions on the same vertex set."""
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.shape != nu.shape:
        raise WalkError(f"length mismatch: {mu.shape} vs {nu.shape}")
    return 0.5 * float(np.abs(mu - nu).sum())


def tv_distance_exact(mu: list[Fraction], nu: list[Fraction]) -> Fraction:
    if len(mu) != len(nu):
        raise WalkError("length mismatch")
    return sum(abs(a - b) for a, b in zip(mu, nu)) / 2


@dataclass
class MixingResult:
    """Worst-start mixing time under the TV <= 1/4 criterion.

    In sampled-starts mode tau is a lower bound on the true mixing time.
    A censored result means some start had not mixed within the step cap;
    tau is then None rather than a silent number.
    """

    n: int
    tau: int | None
    mode: str
    starts: list[int]
    per_start: list[int | None]
    cap: int
    censored: bool

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "tau": self.tau,
            "mode": self.mode,
            "per_start": list(self.per_start),
            "cap": self.cap,
            "censored": self.censored,
        }
        return json.dumps(payload)


def sample_starts(n: int, size: int, seed: int) -> list[int]:
    rng = make_rng(seed)
    size = min(size, n)
    return sorted(int(v) for v in rng.choice(n, size=size, replace=False))


def mixing_time(
    g: UndirectedGraph,
    starts="all",
    cap: int = DEFAULT_STEP_CAP,
    exact: bool = False,
    threshold: float = MIXING_THRESHOLD,
) -> MixingResult:
    """Per-start first step with TV(mu_k, pi) <= threshold; tau is the max.

    ``starts`` is "all", an explicit list of vertices, or ("sample", size,
    seed).  All starts evolve together as the columns of one n-by-s block,
    stepped by the sparse transposed kernel; a start's column is dropped from
    the block at the step it mixes.  TV monotonicity is checked at every
    step.  ``exact=True`` runs rational arithmetic (intended for n <= 64
    oracle comparisons).
    """
    if cap < 1:
        raise WalkError("cap must be >= 1")
    if not g.is_connected():
        raise WalkError("mixing time requires a connected graph")
    if starts == "all":
        start_list = list(range(g.n))
        mode = "exact-all-starts"
    elif isinstance(starts, tuple) and len(starts) == 3 and starts[0] == "sample":
        start_list = sample_starts(g.n, int(starts[1]), int(starts[2]))
        mode = "sampled-starts"
    else:
        start_list = [int(v) for v in starts]
        if any(not 0 <= v < g.n for v in start_list):
            raise WalkError("start vertex out of range")
        mode = "sampled-starts" if len(start_list) < g.n else "exact-all-starts"

    if exact:
        per = [_mixing_one_exact(g, x, cap, threshold) for x in start_list]
    else:
        per = _mixing_batched(g, start_list, cap, threshold)

    censored = any(t is None for t in per)
    tau = None if censored else max(per)
    return MixingResult(
        n=g.n, tau=tau, mode=mode, starts=start_list, per_start=per,
        cap=cap, censored=censored,
    )


def _mixing_batched(g, start_list, cap, threshold) -> list[int | None]:
    pt = LazyKernel(g)._PT
    pi = stationary(g)[:, None]
    # column j of the n-by-s block X is the law of the walk from active[j]
    active = np.arange(len(start_list))
    X = np.zeros((g.n, active.size))
    X[start_list, active] = 1.0
    buf = np.empty_like(X)
    per: list[int | None] = [None] * active.size
    tv = _tv_columns(X, pi, buf)
    k = 0
    while True:
        mixed = tv <= threshold
        if mixed.any():
            for j in np.flatnonzero(mixed):
                per[int(active[j])] = k
            keep = ~mixed
            X = X.compress(keep, axis=1)
            buf = np.empty_like(X)
            active, tv = active[keep], tv[keep]
        if not active.size or k == cap:
            return per
        k += 1
        X = pt @ X
        prev_tv = tv
        tv = _tv_columns(X, pi, buf)
        if np.any(tv > prev_tv + 1e-12):
            raise WalkError("TV distance increased along the chain")


def _tv_columns(X, pi, buf) -> np.ndarray:
    """TV distance of each column of X to pi, using buf as scratch."""
    np.subtract(X, pi, out=buf)
    np.abs(buf, out=buf)
    return 0.5 * buf.sum(axis=0)


def _mixing_one_exact(g, x, cap, threshold) -> int | None:
    thr = Fraction(threshold)
    pi = stationary_exact(g)
    mu = [Fraction(0)] * g.n
    mu[x] = Fraction(1)
    prev = tv_distance_exact(mu, pi)
    if prev <= thr:
        return 0
    for k in range(1, cap + 1):
        mu = step_exact(g, mu)
        tv = tv_distance_exact(mu, pi)
        if tv > prev:
            raise WalkError("TV distance increased along the chain")
        prev = tv
        if tv <= thr:
            return k
    return None


# -- trajectory simulation ------------------------------------------------------


def simulate_walk(g: UndirectedGraph, start: int, steps: int, seed: int) -> np.ndarray:
    """A lazy-walk trajectory of `steps` transitions, deterministic per seed."""
    if not 0 <= start < g.n:
        raise WalkError("start vertex out of range")
    rng = make_rng(seed)
    traj = np.empty(steps + 1, dtype=np.int64)
    traj[0] = start
    pos = int(start)
    indptr, indices = g.indptr, g.indices
    i = 0
    chunk = 8192
    while i < steps:
        take = min(chunk, steps - i)
        coins = rng.random(take)
        picks = rng.random(take)
        for t in range(take):
            if coins[t] >= 0.5:
                lo = indptr[pos]
                d = indptr[pos + 1] - lo
                pos = int(indices[lo + int(picks[t] * d)])
            i += 1
            traj[i] = pos
    return traj


@dataclass(frozen=True)
class EscapeResult:
    steps: int
    censored: bool


def escape_time(
    g: UndirectedGraph,
    start: int,
    region,
    seed: int,
    cap: int = 1_000_000,
) -> EscapeResult:
    """First step at which a lazy walk from `start` leaves `region`.

    `start` must lie inside the region.  A censored result reports the cap
    instead of pretending the walk escaped.
    """
    inside = np.zeros(g.n, dtype=bool)
    region = np.asarray(list(region), dtype=np.int64)
    inside[region] = True
    if not inside[start]:
        raise WalkError("start vertex must lie inside the region")
    rng = make_rng(seed)
    pos = int(start)
    indptr, indices = g.indptr, g.indices
    t = 0
    chunk = 4096
    while t < cap:
        take = min(chunk, cap - t)
        coins = rng.random(take)
        picks = rng.random(take)
        for i in range(take):
            t += 1
            if coins[i] >= 0.5:
                lo = indptr[pos]
                d = indptr[pos + 1] - lo
                pos = int(indices[lo + int(picks[i] * d)])
                if not inside[pos]:
                    return EscapeResult(steps=t, censored=False)
    return EscapeResult(steps=cap, censored=True)
