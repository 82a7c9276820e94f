"""Expected root-subtree counts of Galton-Watson trees, in exact rationals.

mu_j is the expected number of j-vertex subtrees containing the root.  With
q_j the j-th factorial moment of the offspring law divided by j!, the
generating function F(z) = sum_j mu_j z^j satisfies F(z) = z * Q(F(z)) where
Q(y) = sum_j q_j y^j, and Lagrange inversion gives
mu_j = [z^(j-1)] Q(z)^j / j.

Every value is an exact rational, computed on scaled Python integers: the
moments and both mu solvers build one Fraction per output entry.  Monte Carlo
estimators live at the bottom for cross-checking;
conductance.count_connected_sets(g, j, containing=v) gives the graph-side
count the tree quantity dominates.

The Monte Carlo runs in blocks.  Its trees take their offspring counts from
one stream, tree after tree in breadth-first order down to depth j-2; the
stream is drawn ``_MC_DRAWS`` counts at a time, every complete tree is cut out
of it as per-depth offspring arrays, and one counter counts the whole forest
bottom-up, one numpy pass per depth, in exact integers: int64 while a proven
bound on every coefficient fits it, Python integers otherwise.  Memory is
bounded by the block.  The draws, the per-tree counts and every estimate are
those of sampling and counting one tree at a time.  count_root_subtrees and
count_root_embeddings hand a single tree to the same counter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .rng import make_rng


@dataclass(frozen=True)
class OffspringLaw:
    """Offspring distribution of the branching process.

    kind: "poisson" (mean c), "binomial" (n trials, prob p), "binomial_plus"
    (binomial plus a deterministic extra count), "deterministic" (always d),
    or "explicit" (finite support with rational weights).
    """

    kind: str
    c: Fraction | None = None
    n: int | None = None
    p: Fraction | None = None
    extra: int | None = None
    d: int | None = None
    weights: tuple | None = None  # explicit: ((value, Fraction weight), ...)

    def __post_init__(self):
        k = self.kind
        if k == "poisson":
            if self.c is None or self.c < 0:
                raise ValueError("poisson law needs mean c >= 0")
        elif k == "binomial":
            self._check_binomial()
        elif k == "binomial_plus":
            self._check_binomial()
            if self.extra is None or self.extra < 0:
                raise ValueError("binomial_plus needs extra >= 0")
        elif k == "deterministic":
            if self.d is None or self.d < 0:
                raise ValueError("deterministic law needs d >= 0")
        elif k == "explicit":
            w = self.weights
            if not w:
                raise ValueError("explicit law needs at least one atom")
            if any(v < 0 or wt < 0 for v, wt in w):
                raise ValueError("explicit law atoms must be nonnegative")
            if sum(wt for _, wt in w) != 1:
                raise ValueError("explicit law weights must sum to 1")
            if len({v for v, _ in w}) != len(w):
                raise ValueError("explicit law has a repeated atom")
        else:
            raise ValueError(f"unknown offspring law kind {k!r}")

    def _check_binomial(self):
        if self.n is None or self.n < 0:
            raise ValueError("binomial law needs n >= 0 trials")
        if self.p is None or not 0 <= self.p <= 1:
            raise ValueError("binomial law needs p in [0, 1]")

    def mean(self) -> Fraction:
        if self.kind == "poisson":
            return Fraction(self.c)
        if self.kind == "binomial":
            return self.n * Fraction(self.p)
        if self.kind == "binomial_plus":
            return self.n * Fraction(self.p) + self.extra
        if self.kind == "deterministic":
            return Fraction(self.d)
        return sum((Fraction(v) * wt for v, wt in self.weights), Fraction(0))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "poisson":
            return rng.poisson(float(self.c), size=size)
        if self.kind == "binomial":
            return rng.binomial(self.n, float(self.p), size=size)
        if self.kind == "binomial_plus":
            return rng.binomial(self.n, float(self.p), size=size) + self.extra
        if self.kind == "deterministic":
            return np.full(size, self.d, dtype=np.int64)
        vals = np.array([v for v, _ in self.weights], dtype=np.int64)
        probs = np.array([float(wt) for _, wt in self.weights])
        probs = probs / probs.sum()
        return rng.choice(vals, size=size, p=probs)


def poisson_law(c) -> OffspringLaw:
    return OffspringLaw(kind="poisson", c=Fraction(c))


def binomial_law(n: int, p) -> OffspringLaw:
    return OffspringLaw(kind="binomial", n=n, p=Fraction(p))


def binomial_plus_law(n: int, p, extra: int) -> OffspringLaw:
    return OffspringLaw(kind="binomial_plus", n=n, p=Fraction(p), extra=extra)


def deterministic_law(d: int) -> OffspringLaw:
    return OffspringLaw(kind="deterministic", d=d)


def explicit_law(weights) -> OffspringLaw:
    return OffspringLaw(
        kind="explicit",
        weights=tuple((int(v), Fraction(w)) for v, w in weights),
    )


def factorial_moments(law: OffspringLaw, J: int) -> list[Fraction]:
    """[q_0, ..., q_J] with q_j = E[(B)_j], the expected number of ways to
    choose and order j children of a node; exact.

    Poisson(c): q_j = c^j.  Binomial(n, p): q_j = (n)_j p^j.
    Deterministic(d): q_j = (d)_j.  Binomial(n, p) plus ell deterministic
    extras splits over how many of the j slots the extras fill.  Each q_j is
    one integer numerator over an integer denominator: b^j for p = a/b, the
    lcm of the weight denominators for an explicit law.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    js = range(J + 1)
    if law.kind == "poisson":
        c = Fraction(law.c)
        return [Fraction(c.numerator**j, c.denominator**j) for j in js]
    if law.kind == "deterministic":
        return [Fraction(math.perm(law.d, j)) for j in js]
    if law.kind == "explicit":
        weights = [(v, Fraction(wt)) for v, wt in law.weights]
        den = math.lcm(*(wt.denominator for _, wt in weights))
        nums = [(v, wt.numerator * (den // wt.denominator)) for v, wt in weights]
        return [Fraction(sum(w * math.perm(v, j) for v, w in nums), den)
                for j in js]
    # binomial is binomial_plus with no extras; s slots go to the extras:
    # q_j = sum_s C(j, s) (ell)_s (n)_(j-s) a^(j-s) b^s / b^j
    p = Fraction(law.p)
    a, b = p.numerator, p.denominator
    n = law.n
    ell = law.extra if law.kind == "binomial_plus" else 0
    return [
        Fraction(
            sum(math.comb(j, s) * math.perm(ell, s) * math.perm(n, j - s)
                * a ** (j - s) * b**s for s in range(min(j, ell) + 1)),
            b**j,
        )
        for j in js
    ]


def subset_moments(law: OffspringLaw, J: int) -> list[Fraction]:
    """[q_0/0!, ..., q_J/J!]: E[C(B, j)], expected unordered j-subsets.

    Feeding these to the mu solvers yields the expected number of *distinct*
    root subtrees per size, which the ordered-moment mu dominates.
    """
    return [q / math.factorial(j)
            for j, q in enumerate(factorial_moments(law, J))]


def _scaled_series(q, J: int) -> tuple[list[int], int, int]:
    """(a, delta, beta) with q_j = a_j / (delta beta^j) for j < J, a_j integers.

    delta is the denominator of q_0.  beta starts at 1 and is multiplied by
    the denominator of q_j delta beta^j whenever that is not an integer, the
    earlier a_i being rescaled by the same factor to the i-th power.  The
    geometric scaling keeps a_j near q_j beta^j; one common denominator for
    all q_j would grow every term like that denominator to the j-th power.
    Entries go through Fraction(), so ints, floats and strings are exact.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if len(q) < J:
        raise ValueError("need q_0..q_{J-1} at least")
    qs = [Fraction(x) for x in q[:J]]
    delta = qs[0].denominator
    beta = 1
    a = [qs[0].numerator]
    for j in range(1, J):
        num, den = qs[j].numerator, qs[j].denominator
        scale = delta * beta**j
        grow = den // math.gcd(scale, den)
        if grow > 1:
            beta *= grow
            a = [ai * grow**i for i, ai in enumerate(a)]
            scale *= grow**j
        a.append(num * scale // den)
    return a, delta, beta


def mu_by_functional_equation(q: list[Fraction], J: int) -> list[Fraction]:
    """mu_1..mu_J from F(z) = z Q(F(z)), solved coefficient by coefficient.

    With q_j = a_j / (delta beta^j), F(z) = beta K(z / (delta beta)) where
    K(w) = w A(K(w)) and A(y) = sum_j a_j y^j, so K has integer
    coefficients k_j and mu_j = beta k_j / (delta beta)^j.  T[j] holds the
    series of K(w)^j to degree J; the degree-(r+1) coefficient of K equals
    sum_j a_j [w^r] K^j, which only involves k's of lower index, so one
    forward sweep suffices.  Returns [mu_1, ..., mu_J].
    """
    a, delta, beta = _scaled_series(q, J)
    k = [0] * (J + 1)  # k[0] unused
    k[1] = a[0]
    # T[j][r] = [w^r] K(w)^j, filled progressively; K^0 = 1.
    T = [[0] * (J + 1) for _ in range(J + 1)]
    T[0][0] = 1
    T[1][1] = k[1]
    for r in range(1, J):
        # all coefficients of K up to w^r are known; extend every power to w^r
        for j in range(2, r + 1):
            # sum over s = 1..r-j+1 of [w^(r-s)] K^(j-1) * k_s
            T[j][r] = sum(map(mul, T[j - 1][j - 1:r], k[r - j + 1:0:-1]))
        k[r + 1] = sum(a[j] * T[j][r] for j in range(1, r + 1))
        T[1][r + 1] = k[r + 1]
    return [Fraction(k[j], delta**j * beta ** (j - 1)) for j in range(1, J + 1)]


def mu_by_lagrange(q: list[Fraction], J: int) -> list[Fraction]:
    """mu_j = [z^(j-1)] Q(z)^j / j for j = 1..J, by direct power expansion.

    With q_j = a_j / (delta beta^j) and A(z) = sum_j a_j z^j, this is
    mu_j = [z^(j-1)] A(z)^j / (j delta^j beta^(j-1)); the powers of A are
    integer polynomials truncated at degree J-1.
    """
    a, delta, beta = _scaled_series(q, J)
    rev = a[::-1]  # [z^t] (P A) = sum_i P[i] a[t-i] = sum_i P[i] rev[J-1-t+i]
    out = []
    power = [1] + [0] * (J - 1)  # A^0, degrees 0..J-1
    for j in range(1, J + 1):
        power = [sum(map(mul, power[:t + 1], rev[J - 1 - t:])) for t in range(J)]
        out.append(Fraction(power[j - 1], j * delta**j * beta ** (j - 1)))
    return out


def mu_poisson_closed_form(c, j: int) -> Fraction:
    """Poisson(c): mu_j = c^(j-1) C(2j-2, j-1) / j.

    Exact because q_j = c^j exactly, so Q(z) = 1/(1 - cz) and Lagrange
    inversion closes the sum.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return Fraction(c) ** (j - 1) * math.comb(2 * j - 2, j - 1) / Fraction(j)


def deterministic_subtree_count(d: int, j: int) -> Fraction:
    """Number of distinct j-vertex root subtrees of the infinite d-ary tree:
    C(dj, j-1) / j.

    This is the *distinct* count (the same number W satisfies
    W(z) = z (1 + W(z))^d, i.e. the subset-moment pipeline with
    q_j = C(d, j)); the ordered-moment mu is larger for d >= 2, j >= 3.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return Fraction(math.comb(d * j, j - 1), j)


def catalan(j: int) -> int:
    """C(2j-2, j-1)/j, the count of rooted plane trees on j vertices.

    Equals mu_j for any offspring law with q_j = 1 for all j, in particular
    Poisson(1).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return math.comb(2 * j - 2, j - 1) // j


def mu_upper_bound(C, j: int) -> Fraction:
    """If q_j <= C^j for all j, then mu_j <= C^(j-1) C(2j-2, j-1) / j: the
    Poisson(C) closed form, since Poisson(C) has q_j = C^j exactly."""
    return mu_poisson_closed_form(C, j)


def mu_upper_bound_weak(C, j: int) -> Fraction:
    """(4C)^(j-1): dominates mu_upper_bound, strictly so for j >= 2."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return (4 * Fraction(C)) ** (j - 1)


@dataclass
class MCEstimate:
    mean: float
    stderr: float
    samples: int

    def within(self, target, sigmas: float = 3.0) -> bool:
        return abs(self.mean - float(target)) <= sigmas * self.stderr


def brute_force_mu(law: OffspringLaw, j: int, samples: int, seed: int,
                   distinct: bool = False) -> MCEstimate:
    """Monte Carlo estimate of mu_j over sampled trees.

    Trees are generated level by level to depth j-1 (deeper vertices cannot
    appear in a j-vertex subtree containing the root).  The default counts
    ordered embeddings, the quantity the mu solvers compute from ordered
    factorial moments; distinct=True counts distinct subtrees instead,
    matching the subset-moment pipeline.

    Stream layout: tree after tree, each tree's vertices at depths 0..j-2
    draw their offspring counts in breadth-first order, one draw per vertex
    (vertices at depth j-1 are leaves and draw nothing).  Because
    ``law.sample(rng, a)`` followed by ``law.sample(rng, b)`` equals
    ``law.sample(rng, a + b)`` for every law kind, the run draws that stream
    in blocks of ``_MC_DRAWS`` counts (more while one tree outgrows the
    block), cuts every complete tree out of it and counts the whole block at
    once with ``_count_forest``.  Memory is bounded by the block, not by
    ``samples``; a block's trees are counted in int64 only when the overflow
    bound of ``_count_forest`` allows it, in Python integers otherwise.  The
    counts and the estimate are those of one tree at a time, bit for bit.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    counts = np.empty(samples, dtype=np.float64)
    done = 0
    for block in _mc_counts(law, j, samples, seed, distinct):
        counts[done:done + block.size] = block
        done += block.size
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return MCEstimate(mean=mean, stderr=stderr, samples=samples)


_MC_DRAWS = 8192  # offspring counts drawn per Monte Carlo block
_INT64_MAX = int(np.iinfo(np.int64).max)


def _mc_counts(law: OffspringLaw, j: int, samples: int, seed: int,
               distinct: bool):
    """The exact per-tree counts behind brute_force_mu, one array per block."""
    if j == 1:
        yield np.ones(samples, dtype=np.int64)  # a root alone; nothing drawn
        return
    rng = make_rng(seed)
    stream = np.empty(0, dtype=np.int64)
    done = 0
    while done < samples:
        more = law.sample(rng, max(_MC_DRAWS, stream.size))
        stream = np.concatenate((stream, more))
        offs, used = _cut_forest(stream, j, samples - done)
        if offs:
            block = _count_forest(offs, j, distinct)
            done += block.size
            stream = stream[used:]
            yield block


def _cut_forest(stream: np.ndarray, j: int, limit: int
                ) -> tuple[list[np.ndarray], int]:
    """(offs, used): the first complete trees of `stream`, at most `limit`.

    A tree starting at stream position p holds its depth-d vertices at
    [lo_d, hi_d): lo_0 = p, hi_0 = p + 1, and the next level's width is the
    sum of the current level's draws.  All starts are followed at once to
    depth j-2 to find where each tree would stop drawing; the trees are then
    chained from position 0.  offs[d] lists the offspring counts of the
    chosen trees' depth-d vertices, tree after tree; ``used`` is where the
    last chosen tree stops.  offs is empty when the first tree runs past the
    end of the stream.
    """
    n = stream.size
    csum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(stream, out=csum[1:])
    lo = np.arange(n)
    hi = lo + 1
    for _ in range(j - 2):
        lo, hi = hi, hi + csum[np.minimum(hi, n)] - csum[np.minimum(lo, n)]
    # Chain the trees from position 0: a tree at p leads to hi[p] > p, and
    # the stream's end n and a tree running off it lead to the sink n + 1.
    # Pointer doubling: each pass doubles both the known prefix of the chain
    # and the jump.  All but the chain's last position below the sink are
    # tree starts.
    nxt = np.full(n + 2, n + 1, dtype=np.int64)
    nxt[:n] = np.minimum(hi, n + 1)
    chain = np.zeros(1, dtype=np.int64)
    while chain[-1] <= n and chain.size <= limit:
        chain = np.concatenate((chain, nxt[chain]))
        nxt = nxt[nxt]
    chain = chain[chain <= n]
    offs = []
    lo = chain[:min(limit, chain.size - 1)]
    p = int(chain[lo.size])
    width = np.ones(lo.size, dtype=np.int64)
    for _ in range(j - 1):
        total = int(width.sum())
        if not total:
            break
        before = np.cumsum(width) - width
        offs.append(stream[np.repeat(lo - before, width) + np.arange(total)])
        lo, width = lo + width, csum[lo + width] - csum[lo]
    return offs, p


def _count_forest(offs: list[np.ndarray], j: int, distinct: bool) -> np.ndarray:
    """Root counts of j-vertex subtrees for every tree of a forest, exact.

    offs[d] lists the child counts of the depth-d vertices; depth d+1 lists
    the children of depth d in the same order, grouped by parent, and the
    vertices one level below offs[-1] are leaves.  offs[0] has one entry per
    tree.  Work runs bottom-up, one numpy pass per depth, over z-series
    truncated at degree j-1:

    - distinct: N_u(z) = z * prod_children (1 + N_child(z));
    - embeddings: E_u(z) = z * sum_s s! e_s(E_children), with e_s the
      elementary symmetric polynomial, kept as a bivariate (s, z) product of
      (1 + y E_child) over the children.

    Leaves need no series (N = E = z): a vertex's k leaf children give the
    starting factor (1 + z)^k, and a vertex whose children are all leaves
    gets C(k, a) (distinct) or (k)_a (embeddings) from a table.  The other
    children are multiplied in one child slot at a time.

    Overflow rule: each value computed is a coefficient [z^a] of some E_u or
    N_u, or a nonnegative term of one, and [z^a] N_u <= [z^a] E_u <=
    catalan(a) * top^(a-1), with top the largest child count (plane trees on
    a vertices, times an ordered choice of children per tree edge).  With
    a <= j, int64 is used only while catalan(j) * top^(j-1) fits it; else
    the same code runs on Python integers in object arrays.  The tables stay
    inside the bound too: C(k, a) <= (k)_a <= top^a, and s! <= top^s since
    e_s is kept only for s <= top.
    """
    top = max(int(k.max()) for k in offs if k.size)
    dtype = object if catalan(j) * top ** (j - 1) > _INT64_MAX else np.int64
    binom = np.array([[math.comb(k, a) for a in range(j)]
                      for k in range(top + 1)], dtype=dtype)
    ordered = np.array([[math.perm(k, a) for a in range(j)]
                        for k in range(top + 1)], dtype=dtype)
    sizes = np.arange(min(j - 1, top) + 1)  # e_s vanishes for s > top
    fact = np.array([math.factorial(s) for s in sizes], dtype=dtype)[:, None]
    child = None  # z-series of the depth-(d+1) vertices that have children
    for d in range(len(offs) - 1, -1, -1):
        k = offs[d] if d == 0 else offs[d][offs[d] > 0]  # one row per vertex
        if child is None:  # every child is a leaf
            acc = (binom if distinct else ordered)[k]
        else:
            inner = np.repeat(np.arange(k.size), k)[offs[d + 1] > 0]  # rows
            nk = np.bincount(inner, minlength=k.size)
            leaves = k - nk
            # the rank of each inner child among its parent's inner children
            rank = np.arange(inner.size) - (np.cumsum(nk) - nk)[inner]
            slots = (np.argsort(rank, kind="stable"),
                     np.cumsum(np.bincount(rank)).tolist())
            if distinct:
                acc = binom[leaves]
                _slot_products(acc, child, inner, *slots, j)
            else:
                acc = ordered[leaves]
                busy = np.flatnonzero(nk)
                state = np.zeros((busy.size, sizes.size, j), dtype=dtype)
                state[:, sizes, sizes] = binom[leaves[busy]][:, sizes]
                state_row = np.cumsum(nk > 0) - 1
                _slot_products(state, child, state_row[inner], *slots, j)
                acc[busy] = (state * fact).sum(axis=1)
        if d == 0:
            return acc[:, j - 1]
        child = np.zeros_like(acc)
        child[:, 1:] = acc[:, :-1]  # z * acc
    raise AssertionError("unreachable: depth 0 always processed")


def _slot_products(acc, child, rows, order, bounds, j) -> None:
    """Multiply row rows[c] of acc by (1 + y child[c]) for every child c, in
    place, one rank slot at a time (each slot has one child per row).

    acc is (rows, j) for distinct counts, where y = 1, or (rows, s, j)
    indexed [row, s, z-degree], where the factor y raises s by one.
    """
    first = 0
    for last in bounds:
        sel = order[first:last]
        first = last
        r = rows[sel]
        q = child[sel]
        old = acc[r]
        new = old.copy()
        for b in range(1, j):
            if acc.ndim == 2:
                new[:, b:] += old[:, :j - b] * q[:, b, None]
            else:
                new[:, 1:, b:] += old[:, :-1, :j - b] * q[:, b, None, None]
        acc[r] = new


def _count_tree(children: list[list[int]], j: int, distinct: bool) -> int:
    """The root count of one tree, given as child lists, via _count_forest."""
    if j < 1:
        raise ValueError("j must be >= 1")
    offs: list[np.ndarray] = []
    level = [0]
    while level and len(offs) < max(j - 1, 1):
        offs.append(np.array([len(children[u]) for u in level], dtype=np.int64))
        level = [c for u in level for c in children[u]]
    return int(_count_forest(offs, j, distinct)[0])


def count_root_subtrees(children: list[list[int]], j: int) -> int:
    """Number of distinct j-vertex subtrees containing vertex 0, exact.

    ``children[u]`` lists the children of u.  Counted as a forest of one
    tree by the Monte Carlo engine: N_u(z) = z * prod_children (1 + N_child).
    """
    return _count_tree(children, j, distinct=True)


def count_root_embeddings(children: list[list[int]], j: int) -> int:
    """Number of j-vertex subtree embeddings at vertex 0: distinct subtrees
    weighted by the orderings of each node's retained children.

    Per node, E_u(z) = z * sum_s s! e_s(E_children), with e_s the elementary
    symmetric polynomial; the s! makes child selections ordered, matching
    q_j = E[(B)_j].  Counted as a forest of one tree by the Monte Carlo
    engine.
    """
    return _count_tree(children, j, distinct=False)


def write_mu_table(path, law: OffspringLaw, J: int, bound_C=None) -> None:
    """CSV of j, q_j, mu_j and (optionally) the Catalan-type bound, exact."""
    q = factorial_moments(law, J)
    mu = mu_by_functional_equation(q, J)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        header = ["j", "q_j", "mu_j"]
        if bound_C is not None:
            header.append("bound_j")
        w.writerow(header)
        for j in range(1, J + 1):
            row = [j, str(q[j]), str(mu[j - 1])]
            if bound_C is not None:
                row.append(str(mu_upper_bound(bound_C, j)))
            w.writerow(row)
