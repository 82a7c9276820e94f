"""Expected root-subtree counts of Galton-Watson trees, in exact rationals.

mu_j is the expected number of j-vertex subtrees containing the root.  With
q_j the j-th factorial moment of the offspring law divided by j!, the
generating function F(z) = sum_j mu_j z^j satisfies F(z) = z * Q(F(z)) where
Q(y) = sum_j q_j y^j, and Lagrange inversion gives
mu_j = [z^(j-1)] Q(z)^j / j.

Everything here is Fraction-exact; Monte Carlo estimators live at the bottom
for cross-checking; conductance.count_connected_sets(g, j, containing=v)
gives the graph-side count the tree quantity dominates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

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


def _falling(x, j: int) -> Fraction:
    """Falling factorial (x)_j = x (x-1) ... (x-j+1)."""
    out = Fraction(1)
    for i in range(j):
        out *= x - i
    return out


def factorial_moments(law: OffspringLaw, J: int) -> list[Fraction]:
    """[q_0, ..., q_J] with q_j = E[(B)_j], the expected number of ways to
    choose and order j children of a node; exact.

    Poisson(c): q_j = c^j.  Binomial(n, p): q_j = (n)_j p^j.
    Deterministic(d): q_j = (d)_j.  Binomial(n, p) plus ell deterministic
    extras splits over how many of the j slots the extras fill.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    qs = []
    for j in range(J + 1):
        if law.kind == "poisson":
            q = Fraction(law.c) ** j
        elif law.kind == "binomial":
            q = _falling(Fraction(law.n), j) * Fraction(law.p) ** j
        elif law.kind == "binomial_plus":
            q = Fraction(0)
            for s in range(j + 1):
                q += (
                    Fraction(math.comb(j, s))
                    * _falling(Fraction(law.extra), s)
                    * _falling(Fraction(law.n), j - s)
                    * Fraction(law.p) ** (j - s)
                )
        elif law.kind == "deterministic":
            q = _falling(Fraction(law.d), j)
        else:
            q = sum(
                (wt * _falling(Fraction(v), j) for v, wt in law.weights),
                Fraction(0),
            )
        qs.append(q)
    return qs


def subset_moments(law: OffspringLaw, J: int) -> list[Fraction]:
    """[q_0/0!, ..., q_J/J!]: E[C(B, j)], expected unordered j-subsets.

    Feeding these to the mu solvers yields the expected number of *distinct*
    root subtrees per size, which the ordered-moment mu dominates.
    """
    return [q / math.factorial(j)
            for j, q in enumerate(factorial_moments(law, J))]


def mu_by_functional_equation(q: list[Fraction], J: int) -> list[Fraction]:
    """mu_1..mu_J from F(z) = z Q(F(z)), solved coefficient by coefficient.

    T[j] holds the series of F(z)^j to degree J; the degree-(r+1) coefficient
    of F equals sum_j q_j [z^r] F^j, which only involves mu's of lower index,
    so one forward sweep suffices.  Returns [mu_1, ..., mu_J].
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if len(q) < J:
        raise ValueError("need q_0..q_{J-1} at least")
    mu = [Fraction(0)] * (J + 1)  # mu[0] unused
    mu[1] = Fraction(q[0])
    # T[j][r] = [z^r] F(z)^j, filled progressively; F^0 = 1.
    T = [[Fraction(0)] * (J + 1) for _ in range(J + 1)]
    T[0][0] = Fraction(1)
    T[1][1] = mu[1]
    for r in range(1, J):
        # all coefficients of F up to z^r are known; extend every power to z^r
        for j in range(2, r + 1):
            T[j][r] = sum(
                (T[j - 1][r - s] * mu[s] for s in range(1, r - j + 2)),
                Fraction(0),
            )
        mu[r + 1] = sum((q[j] * T[j][r] for j in range(r + 1)), Fraction(0))
        T[1][r + 1] = mu[r + 1]
    return mu[1:]


def _poly_mul_trunc(a, b, deg):
    out = [Fraction(0)] * (deg + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > deg:
            continue
        top = min(deg - i, len(b) - 1)
        for s in range(top + 1):
            if b[s]:
                out[i + s] += ai * b[s]
    return out


def mu_by_lagrange(q: list[Fraction], J: int) -> list[Fraction]:
    """mu_j = [z^(j-1)] Q(z)^j / j for j = 1..J, by direct power expansion."""
    if J < 1:
        raise ValueError("J must be >= 1")
    if len(q) < J:
        raise ValueError("need q_0..q_{J-1} at least")
    base = [Fraction(x) for x in q[:J]]  # degrees above J-1 never contribute
    out = []
    power = [Fraction(1)]  # Q^0
    for j in range(1, J + 1):
        power = _poly_mul_trunc(power, base, J - 1)
        coeff = power[j - 1] if j - 1 < len(power) else Fraction(0)
        out.append(coeff / j)
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
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    counter = count_root_subtrees if distinct else count_root_embeddings
    rng = make_rng(seed)
    counts = np.empty(samples, dtype=np.float64)
    for t in range(samples):
        counts[t] = counter(_sample_tree(law, j, rng), j)
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return MCEstimate(mean=mean, stderr=stderr, samples=samples)


def _sample_tree(law: OffspringLaw, j: int, rng) -> list[list[int]]:
    """children[u] = child indices of u, for a tree truncated at depth j-1."""
    children: list[list[int]] = [[]]
    level = [0]
    for _ in range(j - 1):
        if not level:
            break
        offs = law.sample(rng, len(level))
        nxt = []
        for u, d in zip(level, offs):
            for _ in range(int(d)):
                children.append([])
                children[u].append(len(children) - 1)
                nxt.append(len(children) - 1)
        level = nxt
    return children


def count_root_subtrees(children: list[list[int]], j: int) -> int:
    """Number of distinct j-vertex subtrees containing vertex 0, exact.

    Bottom-up DP: N_u(z) = z * prod_children (1 + N_child(z)), truncated at
    the degrees a parent can still use.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    n = len(children)
    # children indices always exceed the parent's, so reverse order is
    # post-order
    poly: list[list[int] | None] = [None] * n
    for u in range(n - 1, -1, -1):
        acc = [1]  # product of (1 + N_child), truncated at degree j-1
        for ch in children[u]:
            q = poly[ch]
            lim = min(j - 1, len(acc) - 1 + len(q) - 1)
            out = [0] * (lim + 1)
            for a, av in enumerate(acc):
                if av == 0:
                    continue
                for b, bv in enumerate(q):
                    if a + b <= lim:
                        out[a + b] += av * bv
            acc = out
            poly[ch] = None
        if u == 0:
            # [z^j] N_root = [z^(j-1)] of the child product
            return acc[j - 1] if j - 1 < len(acc) else 0
        # store 1 + N_u(z) = 1 + z * acc; parents consume degrees <= j-1
        poly[u] = [1] + acc[: j - 1]
    raise AssertionError("unreachable: vertex 0 always processed")


def count_root_embeddings(children: list[list[int]], j: int) -> int:
    """Number of j-vertex subtree embeddings at vertex 0: distinct subtrees
    weighted by the orderings of each node's retained children.

    Per node, E_u(z) = z * sum_s s! e_s(E_children), with e_s the elementary
    symmetric polynomial; the s! makes child selections ordered, matching
    q_j = E[(B)_j].
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    n = len(children)
    poly: list[list[int] | None] = [None] * n
    for u in range(n - 1, -1, -1):
        # P[s] = z-series of e_s(E_child1, ..), truncated at z-degree j-1
        P: list[list[int]] = [[1]]
        for ch in children[u]:
            q = poly[ch]
            poly[ch] = None
            if all(v == 0 for v in q):
                continue
            P.append([0])
            for s in range(len(P) - 1, 0, -1):
                base = P[s - 1]
                lim = min(j - 1, len(base) - 1 + len(q) - 1)
                out = list(P[s]) + [0] * (lim + 1 - len(P[s]))
                for a, av in enumerate(base):
                    if av == 0:
                        continue
                    for b, bv in enumerate(q):
                        if a + b <= lim:
                            out[a + b] += av * bv
                P[s] = out
        width = max(len(p) for p in P)
        acc = [0] * width
        for s, p in enumerate(P):
            f = math.factorial(s)
            for t, v in enumerate(p):
                acc[t] += f * v
        if u == 0:
            return acc[j - 1] if j - 1 < len(acc) else 0
        poly[u] = [0] + acc[: j - 1]  # E_u(z) = z * acc; parents use deg <= j-1
    raise AssertionError("unreachable: vertex 0 always processed")


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
