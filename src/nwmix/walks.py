"""Lazy simple random walk: kernel, stationary law, TV distance, mixing times.

The walk stays put with probability 1/2 and otherwise moves to a uniform
neighbor, so the transition kernel is P = (I + D^-1 A) / 2.  For a connected
graph the stationary distribution is pi(x) = deg(x) / (2m) and the total
variation distance to pi is non-increasing along the chain, which lets the
mixing-time search stop each start at its first step under the 1/4 threshold.
TV has one rule: 0.5 * sum_v |mu(v) - pi(v)|, added over v in vertex order,
for one distribution or any block of them (`_tv_columns`), so a start's TV,
and its mixing step, depend on that start alone.
The search evolves all its starts at once, as the columns of one n-by-s block
multiplied by the sparse transposed kernel.  TV is evaluated only at
checkpoints 8 steps apart: a column at or near the threshold there leaves
the block, and its law at the checkpoint before waits in a queue.  The
queue is replayed step by step as one wide block, each column from its own
checkpoint until it mixes or reaches the cap, as a wide product costs less
per column than a narrow one, so every start's first mixed step is that of
a TV evaluation at every step, bit for bit.  The kernel is the
module's only use of scipy: ``scipy.sparse`` is imported when the first
LazyKernel is built, so importing nwmix, and every path that builds no kernel
(graphs, conductance, subtrees, constants, escape walks), never loads scipy.

Escape times are Monte Carlo on one Philox stream per seed, read chunk by
chunk (coins, then picks) by one reader, `_moves`.  It reads the raw Philox
words of a chunk in windows of steps, from two of this thread's Philox
generators re-keyed and positioned at the chunk's coins and picks, and hands
each window's moving steps to the walk, so a walk that leaves early draws
only the windows it reaches.  The Python loop visits only the steps where
the walk moves, on neighbor lists fetched for the vertices it visits.  A
walk in a region whose vertices all have the same neighbor offsets, such as
a quiet arc of the ring, makes i.i.d. ring steps: it runs each window in
numpy, with the same result bit for bit.  The offsets are signed.  A region
that holds every vertex cannot be left, and its trials are censored at the
cap without walking.  The region analysis (range check, inside-mask, shared
offsets, whole-graph flag) is kept for the last graph and region, since an
experiment's escape trials repeat them; a trial's checks and exit tests are
then lookups in the mask.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .graphs import UndirectedGraph, _integers, _vertex, _vertices
from .rng import _integer, make_rng, thread_philox

MIXING_THRESHOLD = 0.25
DEFAULT_STEP_CAP = 10_000_000
_MASS_TOL = 1e-12
_STRIDE = 8  # steps between the mixing search's TV checkpoints
_GUARD = 1e-9  # columns this close above the threshold at one are queued
_KEEP = 1.25  # a checkpoint copies the columns with TV <= _KEEP * threshold
_RISE = 1e-12  # the rise in TV that one step's rounding may cause
_FLUSH = 16  # the mixing search replays its queue once it holds this many columns


class WalkError(ValueError):
    pass


def validate_distribution(mu: np.ndarray, tol: float = _MASS_TOL) -> np.ndarray:
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 1:
        raise WalkError("distribution must be a 1-d array")
    if not np.isfinite(mu).all():
        raise WalkError("distribution has a non-finite entry")
    if np.any(mu < 0):
        raise WalkError("distribution has negative mass")
    drift = abs(float(mu.sum()) - 1.0)
    if drift > tol:
        raise WalkError(f"distribution mass drifted by {drift:.3e} (> {tol:.0e})")
    return mu


def point_mass(n: int, x: int) -> np.ndarray:
    x = _vertex(x, n, "vertex", WalkError)
    mu = np.zeros(n)
    mu[x] = 1.0
    return mu


def stationary(g: UndirectedGraph) -> np.ndarray:
    """pi(x) = deg(x) / (2m); requires a connected graph.  A one-vertex
    graph has no edges, and its vertex holds all the mass."""
    if not g.is_connected():
        raise WalkError("stationary distribution requires a connected graph")
    if g.n == 1:
        return np.ones(1)
    return g.degrees / (2.0 * g.m)


class LazyKernel:
    """Sparse lazy transition kernel of a graph.

    It is stored transposed, as csr(P^T), so that a distribution, or an
    n-by-s block of them held as columns, evolves by ``P^T @ mu``.  An
    isolated vertex keeps its mass, as a walk there stays put.
    """

    def __init__(self, graph: UndirectedGraph):
        from scipy import sparse

        n = graph.n
        deg = graph.degrees
        isolated = deg == 0
        inv = np.divide(1.0, deg, out=np.zeros(n), where=~isolated)
        # P^T[x, y] = P[y, x] = 1/(2 deg y) for each neighbor y of x
        adj_t = sparse.csr_matrix(
            ((0.5 * inv)[graph.indices], graph.indices, graph.indptr), shape=(n, n)
        )
        hold = sparse.diags(np.where(isolated, 1.0, 0.5), format="csr")
        self._PT = (hold + adj_t).tocsr()

    def step(self, mu: np.ndarray) -> np.ndarray:
        """One application of the kernel: mu P."""
        mu = validate_distribution(mu)
        return self._PT @ mu


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> float:
    """Half the L1 distance between two distributions on the same vertex
    set, summed as `_tv_columns` sums a column."""
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.ndim != 1 or nu.ndim != 1:
        raise WalkError("distribution must be a 1-d array")
    if mu.shape != nu.shape:
        raise WalkError(f"length mismatch: {mu.shape} vs {nu.shape}")
    return float(_tv_columns(mu.reshape(-1, 1), nu.reshape(-1, 1))[0])


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
    size = _integer(size, "start count", WalkError)
    if size < 0:
        raise WalkError(f"start count must be >= 0, got {size}")
    rng = make_rng(seed)
    size = min(size, n)
    return sorted(int(v) for v in rng.choice(n, size=size, replace=False))


def mixing_time(
    g: UndirectedGraph,
    starts="all",
    cap: int = DEFAULT_STEP_CAP,
    threshold: float = MIXING_THRESHOLD,
) -> MixingResult:
    """Per-start first step with TV(mu_k, pi) <= threshold; tau is the max.

    ``per_start[j]`` is the first t with ``tv_distance(P^t delta_x, pi) <=
    threshold`` for x = starts[j], a step that depends on x alone.
    ``starts`` is "all" or a nonempty list of vertices (ints or numpy
    integers), such as a seeded ``sample_starts`` draw; the mode is
    "exact-all-starts" only if the list covers every vertex.  ``cap`` is an
    int or numpy integer >= 1.  All starts evolve together as the columns
    of one n-by-s block, stepped by the sparse transposed kernel, with TV
    evaluated every 8 steps; a start's column is dropped from the block at
    the checkpoint after the step it mixes, which a step-by-step replay
    finds.  TV monotonicity is checked at checkpoints and in replays.  The
    threshold must be > 0: a walk from one vertex need never reach TV 0.
    """
    cap = _step_cap(cap)
    if not threshold > 0:  # NaN too
        raise WalkError(f"threshold must be > 0, got {threshold!r}")
    if not g.is_connected():
        raise WalkError("mixing time requires a connected graph")
    if isinstance(starts, str) and starts == "all":
        start_list = list(range(g.n))
        mode = "exact-all-starts"
    else:
        start_list = [_vertex(v, g.n, "start vertex", WalkError) for v in starts]
        if not start_list:
            raise WalkError("no start vertices")
        mode = "sampled-starts" if len(set(start_list)) < g.n else "exact-all-starts"

    per = _mixing_batched(g, start_list, cap, threshold)
    censored = any(t is None for t in per)
    tau = None if censored else max(per)
    return MixingResult(
        n=g.n, tau=tau, mode=mode, starts=start_list, per_start=per,
        cap=cap, censored=censored,
    )


def _step_cap(cap) -> int:
    cap = _integer(cap, "cap", WalkError)
    if cap < 1:
        raise WalkError("cap must be >= 1")
    return cap


def _mixing_batched(g, start_list, cap, threshold) -> list[int | None]:
    """Per-start first steps with TV <= threshold, or None past the cap.

    The starts evolve as the columns of one n-by-s block X, stepped
    `_STRIDE` times between TV checkpoints (the last stride ends at the
    cap).  TV does not increase along the chain, so a column above
    threshold + `_GUARD` at checkpoint c did not mix since the previous
    checkpoint k, and its rise since k is checked against ``_RISE`` per
    step.  Every other column leaves the block, and its law at k waits in a
    queue.  That law is a copy taken at k of the columns with TV <= ``_KEEP
    * threshold`` there, or else its start's point mass stepped k times.  A
    column's product does not depend on the other columns, so both are the
    block's column bit for bit.

    The queue is replayed as one block (`_replay`), each column from its own
    checkpoint until it mixes or reaches the cap, once it holds ``_FLUSH``
    columns and at the end of the search.  This finds the steps a TV
    evaluation at every step would.
    """
    pt = LazyKernel(g)._PT
    pi = stationary(g)[:, None]
    starts = np.asarray(start_list)
    per: list[int | None] = [None] * starts.size

    queue: list[tuple] = []  # (laws at k, start ids, k, TV at k)

    def flush():
        ids, k0, tv0 = (np.concatenate([q[i] for q in queue]) for i in (1, 2, 3))
        R = np.hstack([q[0] for q in queue])
        queue.clear()
        at = _replay(pt, pi, R, tv0, k0, cap, threshold)
        for j, t in zip(ids.tolist(), at.tolist()):
            if t:
                per[j] = t

    # column j of X is the law of the walk from starts[active[j]]
    active = np.arange(starts.size)
    X = _walk_from(pt, g.n, starts, 0)
    tv = _tv_columns(X, pi)
    for j in np.flatnonzero(tv <= threshold):
        per[j] = 0
    keep = tv > threshold
    X, active, tv = X.compress(keep, axis=1), active[keep], tv[keep]
    k = 0
    while active.size and k < cap:
        c = min(k + _STRIDE, cap)
        # copied after the stride's first product: copied before it, the copy
        # took the heap space that the products reuse, and peak memory grew
        X_k, X = X, pt @ X
        kept = tv <= _KEEP * threshold
        saved, saved_ids = X_k[:, kept], active[kept]
        del X_k
        for _ in range(c - k - 1):
            X = pt @ X
        tv_c = _tv_columns(X, pi)
        near = tv_c <= threshold + _GUARD
        if np.any(tv_c[~near] > tv[~near] + (c - k) * _RISE):
            raise WalkError("TV distance increased along the chain")
        if near.any():
            # the near columns' laws at k join the queue, those with a copy
            # first, then the rest
            cols = np.flatnonzero(near)
            copied = np.isin(active[cols], saved_ids)
            cols = np.concatenate((cols[copied], cols[~copied]))
            ids, m = active[cols], int(copied.sum())
            R = saved[:, np.searchsorted(saved_ids, ids[:m])]
            del saved
            if m < ids.size:
                R = np.hstack((R, _walk_from(pt, g.n, starts[ids[m:]], k)))
            queue.append((R, ids, np.full(ids.size, k), tv[cols]))
            keep = ~near
            X, active, tv_c = X.compress(keep, axis=1), active[keep], tv_c[keep]
            if sum(q[1].size for q in queue) >= _FLUSH:
                flush()
        tv, k = tv_c, c
    if queue:
        flush()
    return per


def _walk_from(pt, n, starts, steps) -> np.ndarray:
    """The laws after `steps` steps of the walks from `starts`, as columns."""
    X = np.zeros((n, len(starts)))
    X[starts, np.arange(len(starts))] = 1.0
    for _ in range(steps):
        X = pt @ X
    return X


def _replay(pt, pi, R, tv, k, cap, threshold) -> np.ndarray:
    """Step the laws R, column j from step k[j] with TV tv[j] there, with TV
    evaluated and checked at every step, until each column mixes or reaches
    the cap.

    Returns each column's first step with TV <= threshold, or 0 for none.
    """
    at = np.zeros(R.shape[1], dtype=np.int64)
    cols = np.arange(R.shape[1])
    t = 0
    while cols.size:
        t += 1
        R = pt @ R
        prev, tv = tv, _tv_columns(R, pi)
        if np.any(tv > prev + _RISE):
            raise WalkError("TV distance increased along the chain")
        mixed = tv <= threshold
        at[cols[mixed]] = k[mixed] + t
        keep = ~mixed & (k + t < cap)
        if not keep.all():
            R, cols, tv, k = R.compress(keep, axis=1), cols[keep], tv[keep], k[keep]
    return at


def _tv_columns(X, pi) -> np.ndarray:
    """TV distance of each column of X to pi, by the module's one rule:
    0.5 * sum_v |X[v, j] - pi[v]|, added over v in vertex order.

    numpy adds the rows of a C-ordered block of two or more columns in
    order, but one column pairwise, so one column is added by a running sum.
    """
    d = np.subtract(X, pi, order="C")
    np.abs(d, out=d)
    return 0.5 * (d.sum(axis=0) if d.shape[1] > 1 else d.cumsum(axis=0)[-1])


# -- escape walks ---------------------------------------------------------------
#
# The walks read their randomness through `_moves`.  Per chunk of `take` steps
# from step t, the stream holds the `take` coin words from word 2t, then the
# `take` pick words.  Step i moves iff its coin word is >= 2**63, which is
# ``random() >= 0.5``, and pick word w takes neighbor ``nb[int(u * len(nb))]``
# with u = (w >> 11) * 2**-53, which is ``random()``.  A chunk is read in
# 512-step windows, so a walk that leaves early draws little past its exit.

_ESCAPE_CHUNK = 4096
_WINDOW = 512  # wide, as each window costs a dozen numpy calls
_HALF = np.uint64(1 << 63)  # a raw word w gives random() >= 0.5 iff w >= 2**63


class _Neighbors(dict):
    """Neighbor lists as Python lists, fetched on a vertex's first visit.

    An isolated vertex lists itself, so a move from it stays put.
    """

    def __init__(self, graph: UndirectedGraph):
        super().__init__()
        self.graph = graph

    def __missing__(self, v: int) -> list[int]:
        nb = self.graph.neighbors(v).tolist() or [v]
        self[v] = nb
        return nb


def _moves(seed, steps):
    """The moves of `steps` lazy steps on seed's stream, window by window.

    Yields ``(t, moves, picks)`` per window of up to `_WINDOW` steps from
    step t: the in-window offsets of the steps that move, and the
    ``random()`` values of their pick words.  A chunk of `_ESCAPE_CHUNK`
    steps is read from this thread's `thread_philox` slots 0 and 1,
    positioned at the chunk's coin and pick words.  The generator holds both
    slots across its yields: the caller owns them until its next
    `thread_philox` call.
    """
    t = 0
    while t < steps:
        take = min(_ESCAPE_CHUNK, steps - t)
        coin_words = thread_philox(seed, 2 * t)
        pick_words = thread_philox(seed, 2 * t + take, slot=1)
        for a in range(0, take, _WINDOW):
            width = min(_WINDOW, take - a)
            moves = (coin_words.random_raw(width) >= _HALF).nonzero()[0]
            words = pick_words.random_raw(width)[moves]
            yield t + a, moves, (words >> 11) * 2.0**-53
        t += take


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

    `start` must be an integer vertex inside the region, whose vertices
    must be integers too (a float is an error, not a truncated vertex).  A
    censored result reports the cap instead of pretending the walk escaped.
    If every region vertex has the same neighbor offsets, the walk runs as
    i.i.d. ring steps (`_ring_escape`); any other region takes the move loop.
    """
    cap, seed = _step_cap(cap), _integer(seed, "seed", WalkError)
    pos = _vertex(start, g.n, "start vertex", WalkError)
    if not isinstance(region, np.ndarray):
        region = list(region)
    region = _integers(region, "region vertices", WalkError)
    mask, off, whole = _region_plan(g, region.tobytes())
    if not mask[pos]:
        raise WalkError("start vertex must lie inside the region")
    if whole:
        return EscapeResult(steps=cap, censored=True)
    if off is not None:
        return _ring_escape(g.n, off, mask, pos, seed, cap)
    nbrs = _Neighbors(g)
    for t, moves, picks in _moves(seed, cap):
        for i, u in zip(moves.tolist(), picks.tolist()):
            nb = nbrs[pos]
            pos = nb[int(u * len(nb))]
            if not mask[pos]:
                return EscapeResult(steps=t + i + 1, censored=False)
    return EscapeResult(steps=cap, censored=True)


@functools.lru_cache(maxsize=1)
def _region_plan(g: UndirectedGraph, region: bytes):
    """``(inside, offsets, whole)`` for the int64 vertices in `region`; a
    WalkError if one of them is not a vertex of g.

    `inside` is a boolean mask over the vertices of g, and `whole` says
    whether it covers every vertex, so that no walk can leave.  `offsets`
    are the neighbor offsets that every region vertex shares, for
    `_ring_escape`, or None if they differ (or the region is empty or
    whole).  The escape trials of an experiment repeat one graph and
    region, so the last answer is kept, read-only, as every call shares it.
    Graphs hash by identity and are never mutated.
    """
    vertices = _vertices(np.frombuffer(region, dtype=np.int64), g.n, "region vertex",
                         WalkError)
    inside = np.zeros(g.n, dtype=bool)
    inside[vertices] = True
    inside.flags.writeable = False
    whole = bool(inside.all())
    off = _shared_offsets(g, vertices) if vertices.size and not whole else None
    if off is not None:
        off.flags.writeable = False
    return inside, off, whole


def _shared_offsets(g: UndirectedGraph, region: np.ndarray) -> np.ndarray | None:
    """The offsets ``u - v`` mod n of the neighbors u of v, in CSR order and
    signed, in (-n/2, n/2], if every vertex v of the (nonempty) region has
    the same ones; else None.

    On the (n, k)-ring they lie in [-k, k], and they are shared by the
    vertices k .. n-1-k; nearer the ends the sorted neighbor lists wrap
    around and reorder them.
    """
    lo = g.indptr[region]
    deg = g.indptr[region + 1] - lo
    d = int(deg[0])
    if d == 0 or (deg != d).any():
        return None
    off = (g.indices[lo[:, None] + np.arange(d)] - region[:, None]) % g.n
    if (off != off[0]).any():
        return None
    return np.where(off[0] > g.n // 2, off[0] - g.n, off[0])


def _ring_escape(n, off, inside, pos, seed, cap) -> EscapeResult:
    """escape_time from `pos` in the region masked by `inside`, whose
    vertices all have the signed neighbor offsets `off`.

    A move picking neighbor i adds ``off[i]``, so the positions a window
    visits are one cumulative sum from `pos`, within the window's moves
    times max |off| of it, and the gather folds each onto the ring.  It
    folds by one subtraction (or addition) of n per lap, which is why the
    offsets are signed rather than taken mod n.
    """
    for t, moves, picks in _moves(seed, cap):
        if not moves.size:
            continue
        path = pos + np.cumsum(off[(picks * off.size).astype(np.int64)])
        stay = inside.take(path, mode="wrap")
        j = int(stay.argmin())
        if not stay[j]:
            return EscapeResult(steps=t + int(moves[j]) + 1, censored=False)
        pos = int(path[-1]) % n
    return EscapeResult(steps=cap, censored=True)
