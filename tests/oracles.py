"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (dense matrices, bitmask
scans over all 2^n subsets, pure-Python recursions) and deliberately shares
no code with ``nwmix`` beyond the graph container passed in.  Keep it that
way: these are the oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# dense lazy-walk mixing


def dense_kernel(g) -> np.ndarray:
    """Lazy transition matrix P = (I + D^-1 A)/2 as a dense float array."""
    n = g.n
    P = np.zeros((n, n))
    for u in range(n):
        nbrs = g.neighbors(u)
        d = len(nbrs)
        for v in nbrs:
            P[u, v] = 0.5 / d
        P[u, u] += 0.5
    return P

def dense_stationary(g) -> np.ndarray:
    deg = np.array([g.degree(u) for u in range(g.n)], dtype=float)
    return deg / deg.sum()

def dense_mixing_time(g, threshold=0.25, cap=100_000):
    """Worst-start mixing time by plain iterated dense multiplication,
    tracking every start at once.

    Returns (tau, per_start) where per_start[v] is the first step at which
    the walk from v is within ``threshold`` total-variation of stationary.
    """
    n = g.n
    P = dense_kernel(g)
    pi = dense_stationary(g)
    M = np.eye(n)
    per_start = [None] * n
    for t in range(cap + 1):
        tv = 0.5 * np.abs(M - pi).sum(axis=1)
        for v in range(n):
            if per_start[v] is None and tv[v] <= threshold:
                per_start[v] = t
        if all(s is not None for s in per_start):
            return max(per_start), per_start
        M = M @ P
    raise RuntimeError("oracle cap exceeded")


def exact_kernel(g):
    """The same kernel with Fraction entries."""
    n = g.n
    half = Fraction(1, 2)
    P = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        nbrs = g.neighbors(u)
        share = Fraction(1, 2 * len(nbrs))
        for v in nbrs:
            P[u][v] += share
        P[u][u] += half
    return P

def exact_mixing_time(g, threshold=Fraction(1, 4), cap=100_000):
    """Rational-arithmetic twin of dense_mixing_time.  Slow; keep n small."""
    n = g.n
    P = exact_kernel(g)
    total = 2 * sum(g.degree(u) for u in range(n))
    pi = [Fraction(2 * g.degree(u), total) for u in range(n)]
    rows = [[Fraction(int(u == v)) for v in range(n)] for u in range(n)]
    per_start = [None] * n
    for t in range(cap + 1):
        for v in range(n):
            if per_start[v] is None:
                tv = sum(abs(a - b) for a, b in zip(rows[v], pi)) / 2
                if tv <= threshold:
                    per_start[v] = t
        if all(s is not None for s in per_start):
            return max(per_start), per_start
        rows = [
            [sum(row[w] * P[w][v] for w in range(n)) for v in range(n)]
            for row in rows
        ]
    raise RuntimeError("oracle cap exceeded")


# ---------------------------------------------------------------------------
# subset scans (n <= 20)


def neighbor_masks(g):
    masks = [0] * g.n
    for u, v in g.edge_array():
        masks[int(u)] |= 1 << int(v)
        masks[int(v)] |= 1 << int(u)
    return masks

def mask_connected(mask: int, nbr) -> bool:
    if mask == 0:
        return False
    seed = mask & (-mask)
    reached = seed
    frontier = seed
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & (-m)
            m ^= b
            nxt |= nbr[b.bit_length() - 1]
        frontier = (nxt & mask) & ~reached
        reached |= frontier
    return reached == mask

def mask_cut_volume(mask: int, g):
    """(cut, volume) for the subset encoded by ``mask``."""
    cut = internal = 0
    for u, v in g.edge_array():
        inu = (mask >> int(u)) & 1
        inv = (mask >> int(v)) & 1
        if inu and inv:
            internal += 1
        elif inu or inv:
            cut += 1
    return cut, 2 * internal + cut

def all_connected_subsets(g, max_size=None):
    """Every connected vertex subset as a frozenset, by brute 2^n scan."""
    if g.n > 20:
        raise ValueError("oracle limited to n <= 20")
    nbr = neighbor_masks(g)
    out = []
    for mask in range(1, 1 << g.n):
        if max_size is not None and mask.bit_count() > max_size:
            continue
        if mask_connected(mask, nbr):
            out.append(frozenset(i for i in range(g.n) if (mask >> i) & 1))
    return out

def min_phi_in_window(g, vol_lo, vol_hi, size_cap=None):
    """Exact minimum conductance over connected sets with volume in
    [vol_lo, vol_hi], by scanning all subsets.  Returns (phi, best_set)
    with phi = Fraction and best_set the lexicographically smallest sorted
    tuple among the minimizers, or (None, None) when the window is empty.
    """
    nbr = neighbor_masks(g)
    best = None
    best_set = None
    for mask in range(1, 1 << g.n):
        if size_cap is not None and mask.bit_count() > size_cap:
            continue
        cut, vol = mask_cut_volume(mask, g)
        if not (vol_lo <= vol <= vol_hi):
            continue
        if not mask_connected(mask, nbr):
            continue
        phi = Fraction(cut, vol)
        members = tuple(i for i in range(g.n) if (mask >> i) & 1)
        if best is None or phi < best or (phi == best and members < best_set):
            best, best_set = phi, members
    return best, best_set

def fr_sum_bruteforce(g, size_cap=None):
    """Sum of phi^-2 over dyadic volume scales, all by subset scan."""
    m = g.m
    scales = max(1, math.ceil(math.log2(m)))
    total = Fraction(0)
    per_scale = []
    for i in range(1, scales + 1):
        x = Fraction(1, 2 ** i)
        phi, _ = min_phi_in_window(g, x * m, 2 * x * m, size_cap=size_cap)
        per_scale.append(phi)
        if phi is not None and phi > 0:
            total += 1 / phi ** 2
    return total, per_scale


# ---------------------------------------------------------------------------
# simulated annealing on numpy Generators (the library's annealer before it
# read raw Philox words)


def _child_seed(master, *parts):
    mask = (1 << 64) - 1
    ss = np.random.SeedSequence([int(x) & mask for x in (master, *parts)])
    return int(ss.generate_state(1, np.uint64)[0])

def _kth_bit(S, k):
    for _ in range(k):
        S &= S - 1
    return (S & -S).bit_length() - 1

def _mask_neighborhood(nbr, S):
    out = 0
    for v in range(S.bit_length()):
        if S >> v & 1:
            out |= nbr[v]
    return out

def anneal_once(nbr, deg, start, window, size_cap, rng, iterations):
    """One annealing run, drawing each scalar with rng.random() and
    rng.integers(k); (cut, volume, S) of the best valid set seen, or None."""
    lo, hi = window
    vlo, vhi = math.ceil(lo), math.floor(hi)

    def fits(vol, size):
        return vlo <= vol <= vhi and (size_cap is None or size <= size_cap)

    def objective(cut, vol, size):
        pen = 0.0
        if vol < vlo:
            pen += float((lo - vol) / lo)
        elif vol > vhi:
            pen += float((vol - hi) / hi)
        if size_cap is not None and size > size_cap:
            pen += (size - size_cap) / size_cap
        return cut / vol + 2.0 * pen

    S, size = 1 << start, 1
    volume = cut = deg[start]
    while volume < vlo and size < len(nbr):
        boundary = _mask_neighborhood(nbr, S) & ~S
        if not boundary:
            break
        w = _kth_bit(boundary, int(rng.integers(boundary.bit_count())))
        cut += deg[w] - 2 * (nbr[w] & S).bit_count()
        S |= 1 << w
        volume += deg[w]
        size += 1
    best = (cut, volume, S) if fits(volume, size) else None

    cur_obj = objective(cut, volume, size)
    temp = 0.25
    cooling = 0.99 if iterations < 500 else math.exp(math.log(0.004) / iterations)
    for _ in range(iterations):
        grow_p = 0.5 if vlo <= volume <= vhi else (0.8 if volume < vlo else 0.2)
        grow = rng.random() < grow_p or size <= 1
        if grow:
            boundary = _mask_neighborhood(nbr, S) & ~S
            if not boundary:
                grow = False
            else:
                w = _kth_bit(boundary, int(rng.integers(boundary.bit_count())))
                S2, size2 = S | 1 << w, size + 1
                vol2 = volume + deg[w]
                cut2 = cut + deg[w] - 2 * (nbr[w] & S).bit_count()
        if not grow:
            w = _kth_bit(S, int(rng.integers(size)))
            S2, size2 = S ^ 1 << w, size - 1
            if not mask_connected(S2, nbr):
                temp *= cooling
                continue
            vol2 = volume - deg[w]
            cut2 = cut - deg[w] + 2 * (nbr[w] & S2).bit_count()
        obj2 = objective(cut2, vol2, size2)
        if obj2 <= cur_obj or rng.random() < math.exp((cur_obj - obj2) / max(temp, 1e-9)):
            S, size, volume, cut, cur_obj = S2, size2, vol2, cut2, obj2
            if fits(volume, size) and (best is None or cut * best[1] < best[0] * volume):
                best = (cut, volume, S)
        temp *= cooling
    return best

def local_search_profile(g, seed, iterations, restarts, size_cap=None, windows=None):
    """(total, per_scale) of local-search fr_bound: per window the best
    annealing result over restarts, restart r of window w growing from
    vertex r mod n on the Philox Generator keyed by derive_seed(seed, w, r).
    per_scale holds (phi, witness), or (None, None) where no set was found."""
    m = g.m
    scales = max(1, math.ceil(math.log2(m)))
    if windows is None:
        windows = [(Fraction(m, 2 ** i), Fraction(2 * m, 2 ** i))
                   for i in range(1, scales + 1)]
    nbr = neighbor_masks(g)
    deg = [g.degree(u) for u in range(g.n)]
    total = Fraction(0)
    per_scale = []
    for w, window in enumerate(windows):
        best = None
        for r in range(restarts):
            rng = _philox(_child_seed(seed, w, r))
            got = anneal_once(nbr, deg, r % g.n, window, size_cap, rng, iterations)
            if got is not None and (best is None or got[0] * best[1] < best[0] * got[1]):
                best = got
        if best is None:
            per_scale.append((None, None))
            continue
        phi = Fraction(best[0], best[1])
        per_scale.append((phi, tuple(v for v in range(g.n) if best[2] >> v & 1)))
        if phi > 0:
            total += 1 / phi ** 2
    return total, per_scale


# ---------------------------------------------------------------------------
# circular runs / cycle subsets


def cycle_components_slow(mask: int, n: int) -> int:
    """Number of circular runs of set bits, by a plain index walk."""
    bits = [(mask >> i) & 1 for i in range(n)]
    if all(bits):
        return 1
    if not any(bits):
        return 0
    runs = 0
    for i in range(n):
        if bits[i] and not bits[(i - 1) % n]:
            runs += 1
    return runs


# ---------------------------------------------------------------------------
# rooted trees


def subtree_sets_containing_root(children, j):
    """All connected subsets of size j containing node 0 of an explicit tree.

    ``children[u]`` lists the children of node u; node 0 is the root.
    Returns a list of frozensets.  Exponential -- for tiny trees only.
    """
    import itertools

    nodes = list(range(len(children)))
    parent = {}
    for u, kids in enumerate(children):
        for c in kids:
            parent[c] = u
    out = []
    for combo in itertools.combinations(nodes, j):
        s = set(combo)
        if 0 not in s:
            continue
        # connected iff every non-root member's parent is also a member
        if all(parent[v] in s for v in s if v != 0):
            out.append(frozenset(s))
    return out

def embeddings_weight(children, subset):
    """Ordered-embedding multiplicity of one root subtree: the product of
    (# retained children)! over its nodes."""
    w = 1
    for u in subset:
        kept = sum(1 for c in children[u] if c in subset)
        w *= math.factorial(kept)
    return w


# ---------------------------------------------------------------------------
# Monte Carlo subtree counts, one tree at a time (the library's first version)


def sample_tree(law, j, rng):
    """children[u] = child indices of u, for a tree truncated at depth j-1;
    one ``law.sample`` call per level, in breadth-first order."""
    children = [[]]
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

def count_root_subtrees(children, j):
    """Distinct j-vertex subtrees at vertex 0 by a per-node polynomial DP:
    N_u(z) = z * prod_children (1 + N_child(z)).  Children follow parents."""
    n = len(children)
    poly = [None] * n
    for u in range(n - 1, -1, -1):
        acc = [1]
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
            return acc[j - 1] if j - 1 < len(acc) else 0
        poly[u] = [1] + acc[: j - 1]
    raise AssertionError("unreachable")

def count_root_embeddings(children, j):
    """Ordered j-vertex embeddings at vertex 0 by a per-node DP:
    E_u(z) = z * sum_s s! e_s(E_children).  Children follow parents."""
    n = len(children)
    poly = [None] * n
    for u in range(n - 1, -1, -1):
        P = [[1]]
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
        poly[u] = [0] + acc[: j - 1]
    raise AssertionError("unreachable")

def mc_counts(law, j, samples, seed, distinct=False):
    """Per-tree counts of the Monte Carlo estimate, one sampled tree at a time."""
    counter = count_root_subtrees if distinct else count_root_embeddings
    rng = _philox(seed)
    return [counter(sample_tree(law, j, rng), j) for _ in range(samples)]

def brute_force_mu(law, j, samples, seed, distinct=False):
    """The Monte Carlo estimate of mu_j, tree by tree, as an MCEstimate."""
    from nwmix import MCEstimate

    counts = np.array(mc_counts(law, j, samples, seed, distinct), dtype=np.float64)
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return MCEstimate(mean=mean, stderr=stderr, samples=samples)


# ---------------------------------------------------------------------------
# exact subtree series, one Fraction operation at a time


def falling(x, j):
    """Falling factorial (x)_j = x (x-1) ... (x-j+1)."""
    out = Fraction(1)
    for i in range(j):
        out *= x - i
    return out

def factorial_moments(law, J):
    """[E[(B)_0], ..., E[(B)_J]] for an offspring law, term by term."""
    qs = []
    for j in range(J + 1):
        if law.kind == "poisson":
            q = Fraction(law.c) ** j
        elif law.kind == "binomial":
            q = falling(Fraction(law.n), j) * Fraction(law.p) ** j
        elif law.kind == "binomial_plus":
            q = Fraction(0)
            for s in range(j + 1):
                q += (
                    Fraction(math.comb(j, s))
                    * falling(Fraction(law.extra), s)
                    * falling(Fraction(law.n), j - s)
                    * Fraction(law.p) ** (j - s)
                )
        elif law.kind == "deterministic":
            q = falling(Fraction(law.d), j)
        else:
            q = sum(
                (wt * falling(Fraction(v), j) for v, wt in law.weights),
                Fraction(0),
            )
        qs.append(q)
    return qs

def mu_by_functional_equation(q, J):
    """mu_1..mu_J from F(z) = z Q(F(z)) on Fraction series: T[j][r] is
    [z^r] F(z)^j, and [z^(r+1)] F = sum_j q_j T[j][r]."""
    mu = [Fraction(0)] * (J + 1)
    mu[1] = Fraction(q[0])
    T = [[Fraction(0)] * (J + 1) for _ in range(J + 1)]
    T[0][0] = Fraction(1)
    T[1][1] = mu[1]
    for r in range(1, J):
        for j in range(2, r + 1):
            T[j][r] = sum(
                (T[j - 1][r - s] * mu[s] for s in range(1, r - j + 2)),
                Fraction(0),
            )
        mu[r + 1] = sum((q[j] * T[j][r] for j in range(r + 1)), Fraction(0))
        T[1][r + 1] = mu[r + 1]
    return mu[1:]

def poly_mul_trunc(a, b, deg):
    out = [Fraction(0)] * (deg + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > deg:
            continue
        top = min(deg - i, len(b) - 1)
        for s in range(top + 1):
            if b[s]:
                out[i + s] += ai * b[s]
    return out

def mu_by_lagrange(q, J):
    """mu_j = [z^(j-1)] Q(z)^j / j on Fraction polynomials."""
    base = [Fraction(x) for x in q[:J]]
    out = []
    power = [Fraction(1)]
    for j in range(1, J + 1):
        power = poly_mul_trunc(power, base, J - 1)
        out.append(power[j - 1] / j)
    return out


# ---------------------------------------------------------------------------
# lazy-walk trajectories, escape times and the edge-list reader, one step and
# one line at a time (the library's first versions of these functions)


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=int(seed) & ((1 << 64) - 1)))

def simulate_walk(g, start, steps, seed):
    """Trajectory of `steps` lazy steps: per chunk of 8192 steps, the coins
    and then the picks; step t moves iff coins[t] >= 0.5."""
    rng = _philox(seed)
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

def escape_time(g, start, region, seed, cap=1_000_000):
    """(steps, censored) of the first exit from `region`, in chunks of 4096."""
    inside = np.zeros(g.n, dtype=bool)
    inside[np.asarray(list(region), dtype=np.int64)] = True
    assert inside[start]
    rng = _philox(seed)
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
                    return t, False
    return cap, True

def read_graph(path):
    """The edge-list reader, line by line, with the library's messages."""
    from nwmix import GraphValidationError, UndirectedGraph

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GraphValidationError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphValidationError(f"{path}:1: expected header 'n k'")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphValidationError(f"{path}:1: non-integer header") from exc
    if n < 0 or k < 0:
        raise GraphValidationError(f"{path}:1: header needs n >= 0 and k >= 0")
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphValidationError(f"{path}:{lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphValidationError(f"{path}:{lineno}: non-integer endpoint") from exc
        if not (0 <= u < v < n):
            raise GraphValidationError(
                f"{path}:{lineno}: endpoints must satisfy 0 <= u < v < n"
            )
        edges.append((u, v))
    try:
        return UndirectedGraph.from_edges(
            n, np.array(edges, dtype=np.int64).reshape(-1, 2), ring_k=k)
    except GraphValidationError as exc:
        raise GraphValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# misc


def binomial_stderr(p: float, samples: int) -> float:
    return math.sqrt(p * (1.0 - p) / samples)
