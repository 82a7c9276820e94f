"""Conductance of vertex sets, connected-set enumeration, and scale profiles.

For a set S, e(S) is the total degree of S, e(S, S^c) the number of edges
leaving it, and Phi(S) = e(S, S^c) / e(S).  The scale profile takes, per
dyadic scale x = 2^-i, the minimum Phi(S) over connected S whose volume lies
in [x*m, 2*x*m]; summing Phi^-2 over scales gives the Fountoulakis-Reed
style mixing-time bound.  Scales whose volume window contains no connected
set get Phi = +inf and contribute 0 to the sum.

One bitmask core serves every set search: a vertex set, and each adjacency
row, is a Python int with bit v set for member v, so a link count is
``(adj[w] & S).bit_count()`` and a neighbourhood is an OR of rows (the masks
take about n^2/8 bytes).  ``_connected_masks`` enumerates each connected set
once by Wernicke's ESU canonical extension, carrying volume and cut along;
``connected_sets``, ``count_connected_sets`` and the exact window minima are
visitors over it.  Windows become integer volume bounds, ratios cut/volume
are compared by integer cross-multiplication (ties go to the lexicographically
smallest sorted witness), and only results become Fractions.  Past the
enumeration budget, simulated annealing over the same masks gives
certified=False upper bounds.  The annealer draws one scalar at a time from
``rng.philox_draws``, which reads raw Philox words and returns exactly the
draws of a ``Generator`` on the same key, bit for bit, at a fraction of
numpy's per-call cost.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import UndirectedGraph
from .rng import derive_seed, philox_draws

DEFAULT_ENUM_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the work budget; use local search."""


@dataclass(frozen=True)
class CutStats:
    """Exact cut/volume statistics of a nonempty vertex set."""

    S: tuple
    cut: int
    internal: int
    volume: int

    @property
    def phi(self) -> Fraction:
        return Fraction(self.cut, self.volume)

    def __post_init__(self):
        if self.volume != 2 * self.internal + self.cut:
            raise AssertionError("volume identity e(S) = 2 e(S,S) + e(S,S^c) violated")


def cut_stats(g: UndirectedGraph, S) -> CutStats:
    """Count internal and leaving edges of S by scanning adjacency rows."""
    S = sorted(int(v) for v in S)
    if not S:
        raise ValueError("conductance of the empty set is undefined")
    if S[0] < 0 or S[-1] >= g.n:
        raise ValueError("set contains a vertex outside the graph")
    if len(set(S)) != len(S):
        raise ValueError("set contains duplicate vertices")
    mask = np.zeros(g.n, dtype=bool)
    mask[S] = True
    volume = int(g.degrees[S].sum())
    same = 0
    for v in S:
        same += int(mask[g.neighbors(v)].sum())
    internal = same // 2
    cut = volume - same
    if volume == 0:
        raise ValueError("set has zero volume; conductance undefined")
    return CutStats(S=tuple(S), cut=cut, internal=internal, volume=volume)


# -- bitmask sets ----------------------------------------------------------------


def _adjacency_masks(g) -> list[int]:
    """Row v as an int with bit u set for each neighbour u of v."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    # rows hold no repeated neighbour, so the sum of their bits is their OR
    return [sum(1 << u for u in indices[indptr[v]:indptr[v + 1]]) for v in range(g.n)]


def _members(S: int) -> tuple:
    """The vertices of mask S, ascending."""
    return tuple(v for v in range(S.bit_length()) if S >> v & 1)


def _kth_member(S: int, k: int) -> int:
    """The k-th smallest vertex of mask S, counting from 0."""
    for _ in range(k):
        S &= S - 1
    return (S & -S).bit_length() - 1


def _neighborhood(adj, S: int) -> int:
    """OR of the adjacency rows of the vertices of S."""
    out = 0
    while S:
        low = S & -S
        out |= adj[low.bit_length() - 1]
        S ^= low
    return out


def _spans(adj, S: int) -> bool:
    """Whether the nonempty mask S induces a connected subgraph."""
    reach = frontier = S & -S
    while frontier:
        frontier = _neighborhood(adj, frontier) & S & ~reach
        reach |= frontier
    return reach == S


def _lex_less(a: int, b: int) -> bool:
    """Whether sorted(a) < sorted(b) as tuples, for distinct masks a and b.

    The sets agree below their lowest differing bit; the one holding it is
    smaller unless the other has nothing above it, and so is a prefix.
    """
    low = (a ^ b) & -(a ^ b)
    above = -(low << 1)  # every bit above the first difference
    return not a & above if b & low else bool(b & above)


def _better(a, b) -> bool:
    """Whether (cut, volume, S) a has the smaller cut/volume, ties going to
    the lexicographically smaller set."""
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    return lhs < rhs or (lhs == rhs and _lex_less(a[2], b[2]))


# -- connected set enumeration ---------------------------------------------------


_EXHAUSTED = ("connected-set enumeration exceeded its work budget; "
              "re-run in local-search mode")


def _connected_masks(adj, deg, max_size, max_volume, budget, containing=None):
    """Yield (S, size, volume, cut) once per connected set, S as a mask.

    Each set is rooted at its smallest vertex, or at ``containing``, which
    then lies in every set.  A set grows only by vertices outside its
    exclusion mask: the vertices ranked below the root and every vertex
    already in, or next to, a set on its path.  Growth stops at max_size
    vertices and skips vertices that would lift the volume past max_volume;
    the roots are visited whatever their volume.  Every visited set costs
    one unit of budget, so the work is the number of such sets.
    """
    left = budget
    roots = range(len(adj)) if containing is None else (containing,)
    for root in roots:
        bit = 1 << root
        banned = bit if containing is not None else (bit << 1) - 1
        d = deg[root]
        left -= 1
        if left < 0:
            raise EnumerationBudgetError(_EXHAUSTED)
        yield bit, 1, d, d
        if max_size <= 1:
            continue
        # frames (S, extension, exclusion, volume, cut); a frame's set has
        # len(stack) + 1 vertices while its children are generated
        stack = [(bit, adj[root] & ~banned, adj[root] | banned, d, d)]
        while stack:
            S, ext, excl, vol, cut = stack.pop()
            size = len(stack) + 2
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                dw = deg[w]
                vol2 = vol + dw
                if vol2 > max_volume:
                    continue
                left -= 1
                if left < 0:
                    raise EnumerationBudgetError(_EXHAUSTED)
                child = S | low
                cut2 = cut + dw - 2 * (adj[w] & S).bit_count()
                yield child, size, vol2, cut2
                if size < max_size:
                    fresh = adj[w] & ~excl
                    stack.append((S, ext, excl, vol, cut))
                    stack.append((child, ext | fresh, excl | fresh, vol2, cut2))
                    break


def _sets_up_to(g, j, containing, budget):
    """The core's stream of connected sets of at most j vertices."""
    if not 1 <= j <= g.n:
        raise ValueError(f"size j must be in [1, n], got {j}")
    if containing is not None:
        containing = int(containing)
        if not 0 <= containing < g.n:
            raise ValueError("containing vertex out of range")
    return _connected_masks(_adjacency_masks(g), g.degrees.tolist(), j, 2 * g.m,
                            budget, containing)


def connected_sets(g: UndirectedGraph, j: int, containing: int | None = None,
                   budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every connected vertex set of size j exactly once, as a sorted
    tuple, optionally restricted to sets containing a given vertex.

    Sets stream as the enumeration finds them.  Past the work budget the
    iteration raises EnumerationBudgetError (never a silent truncation).
    """
    for S, size, _, _ in _sets_up_to(g, j, containing, budget):
        if size == j:
            yield _members(S)


def count_connected_sets(g: UndirectedGraph, j: int, containing: int | None = None,
                         budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """|B_j| or |B_{j,v}| without materializing the sets."""
    return sum(1 for _, size, _, _ in _sets_up_to(g, j, containing, budget)
               if size == j)


# -- scale profile ---------------------------------------------------------------


@dataclass
class ScaleEntry:
    """Minimum conductance over connected sets in one volume window."""

    i: int | None
    x: Fraction
    vol_lo: Fraction
    vol_hi: Fraction
    phi: Fraction | float  # Fraction, or math.inf for an empty window
    witness: tuple | None
    certified: bool

    @property
    def empty(self) -> bool:
        return self.witness is None


@dataclass
class ScaleProfile:
    n: int
    m: int
    mode: str
    entries: list[ScaleEntry] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["i", "x", "phi", "volume_lo", "volume_hi", "certified",
                        "witness_size"])
            for e in self.entries:
                phi = "inf" if e.empty else repr(float(e.phi))
                size = "" if e.witness is None else len(e.witness)
                w.writerow([e.i, repr(float(e.x)), phi, repr(float(e.vol_lo)),
                            repr(float(e.vol_hi)), str(e.certified).lower(), size])


def num_scales(m: int) -> int:
    return max(1, math.ceil(math.log2(m)))


def _exact_minima(adj, deg, windows, size_cap, budget):
    """Per window, the minimum (cut, volume, S) over connected sets with
    volume in the window, or None, by one enumeration.

    The enumeration keeps, per volume, the least cut and its lexicographically
    smallest set; each window then takes the least ratio over its volumes.
    """
    bounds = [(math.ceil(lo), math.floor(hi)) for lo, hi in windows]
    top = max(hi for _, hi in bounds)
    min_deg = min(deg)
    max_size = len(adj) if min_deg == 0 else min(len(adj), top // min_deg)
    if size_cap is not None:
        max_size = min(max_size, size_cap)
    total = sum(deg)  # no cut or volume exceeds it
    cuts, sets = [total + 1] * (total + 1), [0] * (total + 1)
    for S, _, vol, cut in _connected_masks(adj, deg, max_size, top, budget):
        least = cuts[vol]
        if cut < least or (cut == least and _lex_less(S, sets[vol])):
            cuts[vol], sets[vol] = cut, S
    best = []
    for lo, hi in bounds:
        cur = None
        for vol in range(max(lo, 0), min(hi, total) + 1):
            if cuts[vol] <= total:
                cand = (cuts[vol], vol, sets[vol])
                if cur is None or _better(cand, cur):
                    cur = cand
        best.append(cur)
    return best


def _anneal_once(adj, deg, start, window, size_cap, draws, iterations):
    """One annealing run; returns (cut, volume, S) for the best valid set seen.

    ``draws`` is a ``philox_draws`` pair.  Moves add a uniform boundary
    vertex or drop a uniform vertex of S (kept only if S stays connected),
    both drawn from the ascending vertex order.  Dropping a vertex with one
    link into the rest keeps S connected, so only other drops pay for the
    connectivity search.
    """
    lo, hi = window
    vlo, vhi = math.ceil(lo), math.floor(hi)
    lo_p, lo_q, hi_p, hi_q = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    random, integers = draws

    def fits(vol, size):
        return vlo <= vol <= vhi and (size_cap is None or size <= size_cap)

    def objective(cut, vol, size):
        # window penalties are (lo - vol)/lo and (vol - hi)/hi, in int true
        # division, which rounds exactly as float() of the Fraction does
        pen = 0.0
        if vol < vlo:
            pen += (lo_p - vol * lo_q) / lo_p
        elif vol > vhi:
            pen += (vol * hi_q - hi_p) / hi_p
        if size_cap is not None and size > size_cap:
            pen += (size - size_cap) / size_cap
        return cut / vol + 2.0 * pen

    # seed: grow from the start vertex until the window floor
    S, nbr, size = 1 << start, adj[start], 1
    volume = cut = deg[start]
    while volume < vlo and size < len(adj):
        boundary = nbr & ~S
        if not boundary:
            break
        w = _kth_member(boundary, integers(boundary.bit_count()))
        cut += deg[w] - 2 * (adj[w] & S).bit_count()
        S |= 1 << w
        nbr |= adj[w]
        volume += deg[w]
        size += 1
    best = (cut, volume, S) if fits(volume, size) else None

    cur_obj = objective(cut, volume, size)
    temp = 0.25
    cooling = 0.99 if iterations < 500 else math.exp(math.log(0.004) / iterations)
    for _ in range(iterations):
        # bias move choice toward re-entering the volume window
        grow_p = 0.5 if vlo <= volume <= vhi else (0.8 if volume < vlo else 0.2)
        grow = random() < grow_p or size <= 1
        if grow:
            if nbr is None:
                nbr = _neighborhood(adj, S)
            boundary = nbr & ~S
            if not boundary:
                grow = False
            else:
                w = _kth_member(boundary, integers(boundary.bit_count()))
                S2, size2 = S | 1 << w, size + 1
                vol2 = volume + deg[w]
                cut2 = cut + deg[w] - 2 * (adj[w] & S).bit_count()
        if not grow:
            w = _kth_member(S, integers(size))
            S2, size2 = S ^ 1 << w, size - 1
            links = (adj[w] & S2).bit_count()
            if not S2 or (links != 1 and not _spans(adj, S2)):
                temp *= cooling
                continue
            vol2 = volume - deg[w]
            cut2 = cut - deg[w] + 2 * links
        obj2 = objective(cut2, vol2, size2)
        if obj2 <= cur_obj or random() < math.exp((cur_obj - obj2) / max(temp, 1e-9)):
            S, size, volume, cut, cur_obj = S2, size2, vol2, cut2, obj2
            nbr = nbr | adj[w] if grow else None
            if fits(volume, size) and (best is None or cut * best[1] < best[0] * volume):
                best = (cut, volume, S)
        temp *= cooling
    return best


def _local_minima(adj, deg, windows, size_cap, seed, iterations, restarts):
    """Per-window best annealing result over restarts.

    Restart r seeds its growth at vertex r mod n, so with restarts >= n
    every single-vertex set is tried, which matters for the smallest-volume
    windows.
    """
    results = []
    for w, window in enumerate(windows):
        best = None
        for r in range(restarts):
            draws = philox_draws(derive_seed(seed, w, r))
            got = _anneal_once(adj, deg, r % len(adj), window, size_cap, draws,
                               iterations)
            if got is not None and (best is None or got[0] * best[1] < best[0] * got[1]):
                best = got
        results.append(best)
    return results


def _window_minima(g, windows, mode, size_cap, seed, iterations, restarts, budget):
    """Per (vol_lo, vol_hi) window, (phi, witness) or None when no set was
    found, and whether the minima are certified (exact mode)."""
    adj, deg = _adjacency_masks(g), g.degrees.tolist()
    if mode == "exact":
        got = _exact_minima(adj, deg, windows, size_cap, budget)
    elif mode == "local-search":
        got = _local_minima(adj, deg, windows, size_cap, seed, iterations, restarts)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ([None if b is None else (Fraction(b[0], b[1]), _members(b[2])) for b in got],
            mode == "exact")


def phi_at_scale(
    g: UndirectedGraph,
    x,
    mode: str = "exact",
    seed: int = 0,
    iterations: int = 400,
    restarts: int = 32,
    budget: int = DEFAULT_ENUM_BUDGET,
    scale_index: int | None = None,
) -> ScaleEntry:
    """Minimum conductance over connected sets with volume in [x*m, 2*x*m].

    Exact mode enumerates and certifies the true minimum; local-search mode
    reports the best set found by annealing, an upper bound on the truth,
    flagged certified=False.  An empty window yields phi = +inf.
    """
    if not g.is_connected():
        raise ValueError("scale profile requires a connected graph")
    x = Fraction(x)
    if not 0 < x <= Fraction(1, 2):
        raise ValueError("scale x must lie in (0, 1/2]")
    lo, hi = x * g.m, 2 * x * g.m
    [got], certified = _window_minima(g, [(lo, hi)], mode, None, seed, iterations,
                                      restarts, budget)
    phi, witness = (math.inf, None) if got is None else got
    return ScaleEntry(i=scale_index, x=x, vol_lo=lo, vol_hi=hi, phi=phi,
                      witness=witness, certified=certified)


@dataclass
class FRBound:
    """Sum of Phi^-2 over dyadic scales, with its per-scale profile.

    In local-search mode every per-scale phi is an upper bound on the truth,
    so the reported sum is a lower estimate of the true sum.
    """

    total: Fraction
    profile: ScaleProfile
    certified: bool

    def to_json(self) -> str:
        payload = {
            "n": self.profile.n,
            "m": self.profile.m,
            "sum": float(self.total),
            "sum_exact": str(self.total),
            "certified": self.certified,
            "scales": [
                {
                    "i": e.i,
                    "x": float(e.x),
                    "phi": (None if e.empty else float(e.phi)),
                    "witness_size": (None if e.witness is None else len(e.witness)),
                    "certified": e.certified,
                }
                for e in self.profile.entries
            ],
        }
        return json.dumps(payload)


def fr_bound(
    g: UndirectedGraph,
    mode: str = "exact",
    seed: int = 0,
    iterations: int = 400,
    restarts: int = 32,
    budget: int = DEFAULT_ENUM_BUDGET,
    size_cap: int | None = None,
    windows: list[tuple[Fraction, Fraction]] | None = None,
) -> FRBound:
    """Sum Phi^-2(2^-i) over i = 1..ceil(log2 m); empty scales contribute 0.

    ``windows`` overrides the per-scale volume windows (same length as the
    scale count) for profile variants; the default is [2^-i m, 2^(1-i) m].
    """
    if not g.is_connected():
        raise ValueError("scale profile requires a connected graph")
    L = num_scales(g.m)
    xs = [Fraction(1, 2**i) for i in range(1, L + 1)]
    if windows is None:
        windows = [(x * g.m, 2 * x * g.m) for x in xs]
    if len(windows) != L:
        raise ValueError("need one window per scale")
    got, certified = _window_minima(g, windows, mode, size_cap, seed, iterations,
                                    restarts, budget)
    profile = ScaleProfile(n=g.n, m=g.m, mode=mode)
    total = Fraction(0)
    for i, (x, (lo, hi), res) in enumerate(zip(xs, windows, got), start=1):
        phi, witness = (math.inf, None) if res is None else res
        if 0 < phi < math.inf:  # phi == 0 only for S = V, which no window admits
            total += 1 / (phi * phi)
        profile.entries.append(
            ScaleEntry(i=i, x=x, vol_lo=lo, vol_hi=hi, phi=phi,
                       witness=witness, certified=certified)
        )
    return FRBound(total=total, profile=profile, certified=certified)
