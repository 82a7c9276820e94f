"""Conductance of vertex sets, connected-set enumeration, and scale profiles.

For a set S, e(S) is the total degree of S, e(S, S^c) the number of edges
leaving it, and Phi(S) = e(S, S^c) / e(S).  The scale profile takes, per
dyadic scale x = 2^-i, the minimum Phi(S) over connected proper subsets S
whose volume lies in [x*m, 2*x*m]; summing Phi^-2 over scales gives the
Fountoulakis-Reed style mixing-time bound.  Scales whose volume window
contains no connected proper subset get Phi = +inf and contribute 0 to the
sum.  ``fr_bound`` computes the
profile, one window per scale: ``profile.entries[i - 1]`` is scale i.

One bitmask core serves every set search: a vertex set, and each adjacency
row, is a Python int with bit v set for member v, so a link count is
``(adj[w] & S).bit_count()`` and a neighbourhood is an OR of rows (the masks
take about n^2/8 bytes).  ``_connected_masks`` enumerates each connected set
once by Wernicke's ESU canonical extension, carrying volume and cut along
and pushing no frame that could yield nothing; ``connected_sets``,
``connected_set_counts`` (one count per size from one pass) and the exact
window minimum are visitors over it.  The exact minimum is searched one
window at a time and prunes by branch and bound: a set's edges to vertices
that none of its extensions can add stay in every extension's cut, so once
they exceed the one number the window's best so far allows, the set is not
expanded.  Sets that tie the best are still visited, so the minimum and its
witness are those of the full enumeration; the listing and counting
visitors prune nothing.  A budget counts the sets visited, per window in
``fr_bound``.  Windows become integer volume bounds, ratios cut/volume are
compared by integer cross-multiplication (ties go to the lexicographically
smallest sorted witness), and only results become Fractions.  Past the
enumeration budget, simulated annealing over the same masks gives
uncertified upper bounds.  Its move loop tests window and size cap inline,
and it checks a drop's connectivity by a search that stops once it has
joined the dropped vertex's neighbours, remembered per run.
The annealer reads raw Philox words from ``rng.philox_words`` and applies
numpy's draw rules inline, so its coins and picks are exactly those of a
``Generator`` on the same key, bit for bit, without a call per draw; its
penalties for leaving the window or the size cap are tables by volume and
by size, built once per window.

Both modes take the windows one by one in ascending order of upper volume
bound.  A window that no set fits is exact and empty.  Every other window
is enumerated alone, within ``budget`` sets in exact mode, which raises
EnumerationBudgetError past it, and within restarts * iterations sets in
local search, where a window that fits reports its exact minimum and
witness, certified, and the first window past the budget ends the
enumeration, which caps its cost at one spent budget.  Local search anneals
the windows left, and a run, or a window's restarts, end once the best
meets the window's floor, a least cut/volume no connected set in it can
beat: a proper subset has cut at least 2k if the graph is tagged as holding
the 2k-edge-connected (n, k)-ring (else at least 1), of the parity of its
volume, since vol = 2 e(S) + cut; no window admits the whole vertex set.
Bests are replaced only on a strictly smaller ratio, so every annealed phi
and witness is the one the full search gives.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import UndirectedGraph, _vertex
from .rng import _integer, derive_seed, philox_words

DEFAULT_ENUM_BUDGET = 10_000_000
# Generator.random() < p, for the annealer's grow probabilities inside,
# below and above the window, as a bound on the raw word
_GROW_IN, _GROW_BELOW, _GROW_ABOVE = (math.ceil(p * 2.0**53) << 11
                                      for p in (0.5, 0.8, 0.2))


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
    S = sorted(_vertex(v, g.n, "set vertex", ValueError) for v in S)
    if not S:
        raise ValueError("conductance of the empty set is undefined")
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


def _joined(adj, S: int, targets: int) -> bool:
    """Whether the vertices of the nonempty submask `targets` of S lie in one
    component of the subgraph that S induces.

    The search spreads from the lowest target one layer at a time and stops
    as soon as it has reached every target.  With S ∪ {w} connected and
    `targets` the neighbours of w in S, this says whether S is connected.
    """
    missing = targets & (targets - 1)
    reach = frontier = targets ^ missing
    while missing:
        spread = 0
        while frontier:
            low = frontier & -frontier
            spread |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = spread & S & ~reach
        if not frontier:
            return False
        reach |= frontier
        missing &= ~frontier
    return True


def _lex_less(a: int, b: int) -> bool:
    """Whether sorted(a) < sorted(b) as tuples, for distinct masks a and b.

    The sets agree below their lowest differing bit; the one holding it is
    smaller unless the other has nothing above it, and so is a prefix.
    """
    low = (a ^ b) & -(a ^ b)
    above = -(low << 1)  # every bit above the first difference
    return not a & above if b & low else bool(b & above)


# -- connected set enumeration ---------------------------------------------------


_EXHAUSTED = ("connected-set enumeration exceeded its work budget; "
              "re-run in local-search mode")


def _connected_masks(adj, deg, max_size, max_volume, budget, containing=None,
                     prune=None):
    """Yield (S, size, volume, cut) once per connected set, S as a mask.

    Each set is rooted at its smallest vertex, or at ``containing``, which
    then lies in every set.  A set grows only by vertices outside its
    exclusion mask: the vertices ranked below the root and every vertex
    already in, or next to, a set on its path.  Growth stops at max_size
    vertices and skips vertices that would lift the volume past max_volume;
    the roots are visited whatever their volume.  Every visited set costs
    one unit of budget, so the work is the number of such sets.

    A set gets a frame of its own only if that frame could yield: its
    extension is nonempty, it has fewer than max_size vertices, and its
    volume plus the least degree is at most max_volume.  A set whose
    remaining extension is empty is not resumed either.  Such frames would
    be popped and yield nothing, so skipping them leaves the sets, their
    order and the budget count as they are.

    ``prune``, if given, is a one-element list whose value the consumer may
    lower between yields.  The lost edges of a set S are its edges to
    vertices that none of its extensions can add: those in its exclusion
    mask but neither in S nor in its remaining extension, ranked below the
    root or taken by an earlier sibling.  Every extension of S keeps them in
    its cut.  S carries its open edges, those to its remaining extension,
    and its lost edges are its cut less these; S takes no more children
    while its lost edges exceed prune[0], read each time S is entered or
    resumed.  Each child that S pops, visited or skipped for volume, takes
    its links to S out of S's open edges, and a child starts with S's open
    edges plus its own links to its extension.  Without ``prune`` nothing is
    pruned, and the sets, their order and the budget count are those of the
    full enumeration.
    """
    left = budget
    room = max_volume - min(deg)  # the most volume a set with children has
    if prune is None:
        prune = [sum(deg)]  # no set has more lost edges
    # (row, degree) of vertex w at index w + 1, the bit length of its bit
    rows = [(0, 0), *zip(adj, deg)]
    roots = range(len(adj)) if containing is None else (containing,)
    for root in roots:
        bit = 1 << root
        banned = bit if containing is not None else (bit << 1) - 1
        d = deg[root]
        left -= 1
        if left < 0:
            raise EnumerationBudgetError(_EXHAUSTED)
        yield bit, 1, d, d
        ext = adj[root] & ~banned
        if max_size <= 1 or not ext or d > room:
            continue
        # the set S being extended, its extension and exclusion masks, volume,
        # cut, open edges (to its extension) and the size of its children; S's
        # lost edges are its cut less its open edges.  The stack holds the
        # sets to resume, and a child with children of its own is entered
        # in place.
        S, excl, vol, cut, open_, size = bit, adj[root] | banned, d, d, ext.bit_count(), 2
        stack = []
        while True:
            least = cut - prune[0]  # the fewest open edges that keep S going
            while ext and open_ >= least:
                low = ext & -ext
                ext ^= low
                row, dw = rows[low.bit_length()]
                links = (row & S).bit_count()
                open_ -= links  # no later sibling takes w
                vol2 = vol + dw
                if vol2 > max_volume:
                    continue
                left -= 1
                if left < 0:
                    raise EnumerationBudgetError(_EXHAUSTED)
                child = S | low
                cut2 = cut + dw - 2 * links
                yield child, size, vol2, cut2
                if size < max_size and vol2 <= room:
                    ext2 = ext | row & ~excl
                    if ext2:
                        if ext:
                            stack.append((S, ext, excl, vol, cut, open_, size))
                        # the child's open edges: S's to its extension, plus w's
                        S, ext, excl, vol, cut, open_, size = (
                            child, ext2, excl | ext2, vol2, cut2,
                            open_ + (row & ext2).bit_count(), size + 1)
                        least = cut - prune[0]
            if not stack:
                break
            S, ext, excl, vol, cut, open_, size = stack.pop()


def _sets_up_to(g, j, containing, budget):
    """The core's stream of connected sets of at most j vertices."""
    j = _integer(j, "size j")
    if not 1 <= j <= g.n:
        raise ValueError(f"size j must be in [1, n], got {j}")
    if containing is not None:
        containing = _vertex(containing, g.n, "containing vertex", ValueError)
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


def connected_set_counts(g: UndirectedGraph, j_max: int, containing: int | None = None,
                         budget: int = DEFAULT_ENUM_BUDGET) -> list[int]:
    """[|B_1|, ..., |B_j_max|] (or the |B_{j,v}|) from one enumeration.

    That enumeration visits every connected set of at most j_max vertices,
    as ``connected_sets(g, j_max)`` does, and raises EnumerationBudgetError
    exactly when that does.
    """
    sets = _sets_up_to(g, j_max, containing, budget)  # checks j_max first
    counts = [0] * (j_max + 1)
    for _, size, _, _ in sets:
        counts[size] += 1
    return counts[1:]


# -- scale profile ---------------------------------------------------------------


@dataclass
class ScaleEntry:
    """Minimum conductance over connected sets in one volume window."""

    i: int
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


def num_scales(m: int) -> int:
    """ceil(log2 m), and 1 for m = 1: the number of dyadic scales of m edges."""
    if m < 1:
        raise ValueError(f"num_scales needs m >= 1, got {m}")
    return max(1, math.ceil(math.log2(m)))


def _exact_minima(adj, deg, window, size_cap, budget):
    """The minimum (cut, volume, S) over connected proper subsets with volume
    in the window and at most size_cap vertices, ties going to the
    lexicographically smallest S, or None, by one pruned enumeration.

    The window must admit some volume between the least degree and 2m - 1
    (`_window_floor` is not None).  Once a best (c, b) is known, an
    extension T in the window has volume at most hi and cut at least the
    lost edges (see `_connected_masks`) of the set it grows from; it ties or
    beats the best only if cut(T) * b <= c * vol(T), so only if lost <= c *
    hi // b, the prune.  A set past it has only extensions of a strictly
    larger ratio, so neither the minimum nor its lexicographically smallest
    witness is skipped.
    """
    lo, hi = math.ceil(window[0]), math.floor(window[1])
    max_size = min(len(adj) - 1, hi // min(deg))
    if size_cap is not None:
        max_size = min(max_size, size_cap)
    prune = [sum(deg)]  # above every lost count while there is no best
    c, b, witness = 1, 0, 0  # the best (cut, volume, S) so far; 1/0 loses to any set
    for S, _, vol, cut in _connected_masks(adj, deg, max_size, hi, budget, prune=prune):
        if lo <= vol <= hi:
            lhs, rhs = cut * b, c * vol
            if lhs < rhs or lhs == rhs and _lex_less(S, witness):
                c, b, witness = cut, vol, S
                prune[0] = cut * hi // vol
    return (c, b, witness) if witness else None


def _drop_neighbors(adj, nbr: int, w: int, S: int) -> int:
    """`nbr`, the neighborhood of S plus w, updated to that of S: a
    neighbor of w leaves it unless it has a neighbor in S."""
    lost = adj[w]
    while lost:
        low = lost & -lost
        if not adj[low.bit_length() - 1] & S:
            nbr &= ~low
        lost ^= low
    return nbr


def _window_floor(deg, ring_k, window):
    """The least cut/volume that a connected proper subset with volume in
    the window can have, as a (cut, volume) pair, or None when no set fits
    the window.

    A proper subset of a connected graph has cut >= 1, and of a graph
    holding the (n, k)-ring, which is 2k-edge-connected, cut >= 2k; its
    volume is at least the least degree and below 2m, and its cut has the
    parity of its volume, as vol = 2 e(S) + cut.  With c(v) that least cut
    for volume v, one of the top two volumes v in range has the least c(v)/v.
    """
    lo, hi = window
    vlo, vhi = math.ceil(lo), math.floor(hi)
    total = sum(deg)
    least = 2 * ring_k if ring_k else 1
    top = min(vhi, total - 1)
    floor = None
    for v in range(max(vlo, min(deg), top - 1), top + 1):
        c = least + (v - least) % 2
        if floor is None or c * floor[1] < floor[0] * v:
            floor = (c, v)
    return floor


def _window_penalties(deg, window, size_cap):
    """(by_volume, by_size): twice the annealer's penalty for a volume
    outside the window, by volume 0..2m, and for a size past the cap, by
    size 0..n; 0.0 inside.

    The window penalties are (lo - vol)/lo and (vol - hi)/hi, in int true
    division, which rounds exactly as float() of the Fraction does, and the
    cap's is (size - cap)/cap.  Doubling is exact, so by_volume[vol] +
    by_size[size] is twice the float sum of the two.
    """
    lo, hi = window
    vlo, vhi = math.ceil(lo), math.floor(hi)
    lo_p, lo_q, hi_p, hi_q = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    by_volume = [2.0 * ((lo_p - v * lo_q) / lo_p) if v < vlo else
                 2.0 * ((v * hi_q - hi_p) / hi_p) if v > vhi else 0.0
                 for v in range(sum(deg) + 1)]
    cap = len(deg) if size_cap is None else size_cap
    by_size = [2.0 * ((s - cap) / cap) if s > cap else 0.0 for s in range(len(deg) + 1)]
    return by_volume, by_size


def _repick(word, k, m, high):
    """numpy's rejection loop for a pick in range(k): while the low 32 bits
    of m = u * k fall below 2**32 mod k, draw the next 32-bit u.  Returns
    (m, high), high being the waiting half word as in `_anneal_once`."""
    reject = (1 << 32) % k
    while m & 0xFFFFFFFF < reject:
        if high is None:
            u = word()
            high = u >> 32
            u &= 0xFFFFFFFF
        else:
            u, high = high, None
        m = u * k
    return m, high


def _anneal_once(adj, deg, start, window, size_cap, words, iterations, floor, penalties):
    """One annealing run; returns (cut, volume, S) for the best valid set seen.

    ``words`` is a ``philox_words`` stream.  Moves add a uniform boundary
    vertex or drop a uniform vertex of S (kept only if S stays connected),
    both drawn from the ascending vertex order.  The objective is cut/volume
    for a set that fits: its volume lies in the window, its size within the
    size cap, and it is not the whole vertex set; for one that does not fit
    the window's `_window_penalties` are added, which do not count the whole
    vertex set as past the cap.  The neighborhood of S is kept across moves,
    and an accepted drop updates it in place (`_drop_neighbors`).

    The draws are those of a numpy ``Generator`` on the same stream, read
    from the raw words inline.  ``Generator.random()`` is a word's top 53
    bits times 2**-53, so ``random() < p`` is ``word() < ceil(p * 2**53)
    << 11`` and the acceptance test compares ``word() >> 11`` with the
    probability times 2**53, both exact.  ``Generator.integers(k)`` is
    Lemire's 32-bit multiply-and-reject draw (`_repick` takes the rare
    rejection), on 32-bit halves that take a word's low half first and keep
    its high half waiting for the next pick, across coins; k = 1 draws
    nothing.

    S is connected, so S - {w} is connected exactly when the neighbours of w
    in it lie in one component (`_joined`, a search that stops once it has
    reached them all); a drop of w with one such neighbour needs no search.
    The answer depends on S - {w} alone, and runs revisit sets, so it is
    kept per run in a dict keyed by that mask, which holds at most
    ``iterations`` entries.

    The run returns as soon as its best meets ``floor``, a (cut, volume)
    that no set in the window beats (`_window_floor`): the best is
    replaced only by a strictly smaller ratio, which no set in the window
    has, so the result is the one the full run would return.
    """
    lo, hi = window
    vlo, vhi = math.ceil(lo), math.floor(hi)
    cap = len(adj) - 1 if size_cap is None else min(size_cap, len(adj) - 1)
    floor_cut, floor_vol = floor
    by_volume, by_size = penalties
    word = words.__next__
    grow_in, grow_below, grow_above = _GROW_IN, _GROW_BELOW, _GROW_ABOVE
    high = None  # the waiting high half of the last word split for a pick
    exp = math.exp

    # seed: grow from the start vertex until the window floor
    S, nbr, size = 1 << start, adj[start], 1
    volume = cut = deg[start]
    while volume < vlo and size < len(adj):
        boundary = nbr & ~S
        if not boundary:
            break
        k = boundary.bit_count()
        if k > 1:
            if high is None:
                u = word()
                high = u >> 32
                u &= 0xFFFFFFFF
            else:
                u, high = high, None
            m = u * k
            if m & 0xFFFFFFFF < k:
                m, high = _repick(word, k, m, high)
            for _ in range(m >> 32):
                boundary &= boundary - 1
        w = (boundary & -boundary).bit_length() - 1
        cut += deg[w] - 2 * (adj[w] & S).bit_count()
        S |= 1 << w
        nbr |= adj[w]
        volume += deg[w]
        size += 1
    best = None
    if vlo <= volume <= vhi and size <= cap:
        best = (cut, volume, S)
        if cut * floor_vol <= floor_cut * volume:
            return best

    cur_obj = cut / volume + (by_volume[volume] + by_size[size])
    joined = {}  # S - {w} -> whether it is connected, for drops with 2+ links
    temp = 0.25  # never below about 0.25 * 0.004 while in use
    cooling = 0.99 if iterations < 500 else math.exp(math.log(0.004) / iterations)
    for _ in range(iterations):
        # bias move choice toward re-entering the volume window
        coin = grow_in if vlo <= volume <= vhi else (
            grow_below if volume < vlo else grow_above)
        grow = word() < coin or size <= 1
        pool = nbr & ~S if grow else 0
        if pool:
            k = pool.bit_count()
        else:  # a drop, or a grow with no boundary
            grow, pool, k = False, S, size
        if k > 1:
            if high is None:
                u = word()
                high = u >> 32
                u &= 0xFFFFFFFF
            else:
                u, high = high, None
            m = u * k
            if m & 0xFFFFFFFF < k:
                m, high = _repick(word, k, m, high)
            for _ in range(m >> 32):
                pool &= pool - 1
        low = pool & -pool
        w = low.bit_length() - 1
        dw = deg[w]
        if grow:
            S2, size2, vol2 = S | low, size + 1, volume + dw
            cut2 = cut + dw - 2 * (adj[w] & S).bit_count()
        else:
            S2, size2 = S ^ low, size - 1
            touch = adj[w] & S2
            links = touch.bit_count()
            if links != 1:
                ok = joined.get(S2)
                if ok is None:
                    ok = joined[S2] = links > 0 and _joined(adj, S2, touch)
                if not ok:
                    temp *= cooling
                    continue
            vol2 = volume - dw
            cut2 = cut - dw + 2 * links
        fits = vlo <= vol2 <= vhi and size2 <= cap
        obj2 = cut2 / vol2 if fits else cut2 / vol2 + (by_volume[vol2] + by_size[size2])
        if obj2 <= cur_obj or word() >> 11 < exp((cur_obj - obj2) / temp) * 2.0**53:
            S, size, volume, cut, cur_obj = S2, size2, vol2, cut2, obj2
            if grow:
                nbr |= adj[w]
            else:
                nbr = _drop_neighbors(adj, nbr, w, S)
            if fits and (best is None or cut * best[1] < best[0] * volume):
                best = (cut, volume, S)
                if cut * floor_vol <= floor_cut * volume:
                    return best
        temp *= cooling
    return best


def _local_minimum(adj, deg, w, window, floor, size_cap, seed, iterations, restarts):
    """The best annealing result, (cut, volume, S) or None, over restarts on
    window number w, whose parity floor is ``floor``.

    Restart r seeds its growth at vertex r mod n, so with restarts >= n
    every single-vertex set is tried, which matters for the smallest-volume
    windows.  The window skips its remaining restarts once its best meets
    its floor.  Bests are replaced only on a strictly smaller ratio and each
    restart draws from its own seed, so the result, witness included, is the
    one all the restarts would give.
    """
    penalties = _window_penalties(deg, window, size_cap)
    best = None
    for r in range(restarts):
        words = philox_words(derive_seed(seed, w, r))
        got = _anneal_once(adj, deg, r % len(adj), window, size_cap, words,
                           iterations, floor, penalties)
        if got is not None and (best is None or got[0] * best[1] < best[0] * got[1]):
            best = got
            if got[0] * floor[1] <= floor[0] * got[1]:
                break
    return best


@dataclass
class FRBound:
    """Sum of Phi^-2 over dyadic scales, with its per-scale profile.

    In local-search mode every per-scale phi is an upper bound on the truth,
    and exact where its entry is certified, so the reported sum is a lower
    estimate of the true sum.  ``certified`` says the mode is exact, so that
    every entry is.
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


def _window_bound(bound, i: int) -> Fraction:
    """Bound of window `i` as an exact Fraction; ValueError unless it is a
    finite real number (a str such as "1/2" is not)."""
    if isinstance(bound, numbers.Rational):
        return Fraction(bound)
    if isinstance(bound, numbers.Real) and math.isfinite(bound):
        return Fraction(float(bound))  # exact
    raise ValueError(f"window {i} has bound {bound!r}; bounds must be finite numbers")


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
    Its bounds may be ints, finite floats or Fractions, and are taken
    exactly; a window's lower bound must not exceed its upper bound.  Other
    bounds raise ValueError.
    ``size_cap``, if given, bounds the witness size and must be >= 1.

    Both modes take the windows in ascending order of upper bound.  A window
    that no set fits (`_window_floor` is None) is exact and empty; every
    other window is enumerated alone by `_exact_minima`, which prunes a set
    once its lost edges exceed the one number its window's best so far
    allows.  In exact mode ``budget`` bounds each window's enumeration, and
    the first window past it raises EnumerationBudgetError.  Local search
    gives each window restarts * iterations sets, certifies the windows that
    fit, and stops enumerating at the first that does not: a later window
    may visit fewer sets and might have fit, but the break caps a call's
    cost, besides the enumerations that fit, at one spent budget.  An
    annealing move costs several enumerated sets (3 to 6 on a 64-vertex
    graph), so an enumeration that fits costs at most about a third of the
    annealing it replaces.  The windows left are annealed (`_local_minimum`).
    """
    if not g.is_connected():
        raise ValueError("scale profile requires a connected graph")
    if g.m == 0:
        raise ValueError("the graph has no edges, so it has no scale profile")
    L = num_scales(g.m)
    xs = [Fraction(1, 2**i) for i in range(1, L + 1)]
    if windows is None:
        windows = [(x * g.m, 2 * x * g.m) for x in xs]
    else:
        windows = [(_window_bound(lo, i), _window_bound(hi, i))
                   for i, (lo, hi) in enumerate(windows, start=1)]
    if len(windows) != L:
        raise ValueError("need one window per scale")
    for i, (lo, hi) in enumerate(windows, start=1):
        if lo > hi:
            raise ValueError(f"window {i} is inverted: lower bound {lo} > "
                             f"upper bound {hi}")
    # every argument is checked, whichever mode runs
    if size_cap is not None and _integer(size_cap, "size_cap") < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    seed, budget = _integer(seed, "seed"), _integer(budget, "budget")
    if _integer(restarts, "restarts") < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if _integer(iterations, "iterations") < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if mode not in ("exact", "local-search"):
        raise ValueError(f"unknown mode {mode!r}")
    adj, deg = _adjacency_masks(g), g.degrees.tolist()
    floors = [_window_floor(deg, g.ring_k, window) for window in windows]
    got, exact = [None] * L, [floor is None for floor in floors]
    per_window = budget if mode == "exact" else restarts * iterations
    for w in sorted(range(L), key=lambda w: windows[w][1]):
        if exact[w]:
            continue
        try:
            got[w] = _exact_minima(adj, deg, windows[w], size_cap, per_window)
        except EnumerationBudgetError:
            if mode == "exact":
                raise
            break  # at most one spent budget per call
        exact[w] = True
    for w, (window, floor) in enumerate(zip(windows, floors)):
        if not exact[w]:
            got[w] = _local_minimum(adj, deg, w, window, floor, size_cap, seed,
                                    iterations, restarts)
    profile = ScaleProfile(n=g.n, m=g.m, mode=mode)
    total = Fraction(0)
    for i, (x, (lo, hi), b, certified) in enumerate(zip(xs, windows, got, exact),
                                                     start=1):
        phi, witness = ((math.inf, None) if b is None
                        else (Fraction(b[0], b[1]), _members(b[2])))
        if phi < math.inf:  # a proper subset of a connected graph has cut >= 1
            total += 1 / (phi * phi)
        profile.entries.append(
            ScaleEntry(i=i, x=x, vol_lo=lo, vol_hi=hi, phi=phi,
                       witness=witness, certified=certified)
        )
    return FRBound(total=total, profile=profile, certified=mode == "exact")
