"""Ring lattices, Newman-Watts small worlds, and block blow-ups.

The (n, k)-ring has vertices 0..n-1 and an edge between every pair at cyclic
distance at most k; for n > 2k it is 2k-regular with m = n*k edges.  The
small world adds each of the n(n-1)/2 - nk non-ring pairs independently with
probability p = c/n.  Vertex indexing is 0-based everywhere, including files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .rng import make_rng


class GraphValidationError(ValueError):
    """Raised when graph data violates a structural invariant."""


@dataclass(frozen=True)
class GraphSpec:
    """Parameters (n, k, c, seed) of a small-world sample; p = c/n."""

    n: int
    k: int
    c: Fraction
    seed: int

    def __post_init__(self):
        if self.n <= 2 * self.k:
            raise GraphValidationError(
                f"need n > 2k for a 2k-regular ring, got n={self.n}, k={self.k}"
            )
        if self.k < 1:
            raise GraphValidationError(f"k must be >= 1, got {self.k}")
        c = Fraction(self.c)
        object.__setattr__(self, "c", c)
        if not 0 <= c <= self.n:
            raise GraphValidationError(f"need 0 <= c <= n so that 0 <= p <= 1, got c={c}")

    @property
    def p(self) -> Fraction:
        return self.c / self.n

    def to_lines(self) -> str:
        return f"n = {self.n}\nk = {self.k}\nc = {self.c}\nseed = {self.seed}\n"

    @classmethod
    def from_lines(cls, text: str) -> "GraphSpec":
        kv = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
        try:
            return cls(
                n=int(kv["n"]), k=int(kv["k"]), c=Fraction(kv["c"]), seed=int(kv["seed"])
            )
        except KeyError as exc:
            raise GraphValidationError(f"missing spec field {exc}") from exc


class UndirectedGraph:
    """Simple undirected graph in CSR form with sorted neighbor lists.

    ``ring_k > 0`` tags the graph as containing the (n, ring_k)-ring, which is
    then enforced as an invariant (every sampled small world keeps its ring).
    """

    __slots__ = ("n", "m", "indptr", "indices", "ring_k", "_connected")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, ring_k: int = 0):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.m = int(indices.shape[0]) // 2
        self.ring_k = int(ring_k)
        self._connected: bool | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray, ring_k: int = 0) -> "UndirectedGraph":
        """Build from an array of undirected edges given as (u, v) pairs.

        Validates simplicity: endpoints in range, no self-loops, no duplicate
        edges (regardless of orientation).
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise GraphValidationError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise GraphValidationError("self-loop not allowed")
        # CSR entries keyed row * n + col, both orientations of every edge; a
        # repeated key is a duplicate edge, first seen in its u < v orientation
        u, v = edges[:, 0], edges[:, 1]
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            a, b = divmod(int(keys[dup[0]]), n)
            raise GraphValidationError(f"duplicate edge ({a}, {b})")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        g = cls(n, indptr, keys % n, ring_k=ring_k)
        if ring_k:
            g._check_ring_containment()
        return g

    def _check_ring_containment(self):
        k = self.ring_k
        if self.n <= 2 * k:
            raise GraphValidationError("ring tag requires n > 2k")
        ring = _ring_edges(self.n, k)
        if not np.all(self.has_edges(ring[:, 0], ring[:, 1])):
            raise GraphValidationError("tagged graph is missing a ring edge")

    # -- queries ------------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.shape[0] and row[i] == v)

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Edge membership for parallel vertex arrays u, v: one binary search
        over the CSR entries keyed ``row * n + col``, which are ascending."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= self.n):
            raise GraphValidationError("vertex out of range")
        keys = self._rows() * self.n + self.indices
        query = u * self.n + v
        i = np.searchsorted(keys, query)
        found = i < keys.size
        found[found] = keys[i[found]] == query[found]
        return found

    def _rows(self) -> np.ndarray:
        """The row (source vertex) of every CSR entry."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def edge_array(self) -> np.ndarray:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        src = self._rows()
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = self._bfs_connected()
        return self._connected

    def _bfs_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            # gather the neighbor lists of the whole frontier in one index array
            starts = self.indptr[frontier]
            counts = self.indptr[frontier + 1] - starts
            ends = np.cumsum(counts)
            idx = self.indices[np.repeat(starts - ends + counts, counts)
                               + np.arange(ends[-1])]
            frontier = np.unique(idx[~seen[idx]])
            seen[frontier] = True
        return bool(seen.all())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UndirectedGraph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):  # pragma: no cover - identity hashing is enough
        return id(self)

    def __repr__(self):
        tag = f", ring_k={self.ring_k}" if self.ring_k else ""
        return f"UndirectedGraph(n={self.n}, m={self.m}{tag})"


# -- generators ---------------------------------------------------------------


def build_ring(n: int, k: int) -> UndirectedGraph:
    """The (n, k)-ring: edges between all pairs at cyclic distance <= k."""
    if k < 1:
        raise GraphValidationError(f"k must be >= 1, got {k}")
    if n <= 2 * k:
        raise GraphValidationError(
            f"need n > 2k for a 2k-regular ring, got n={n}, k={k}"
        )
    return UndirectedGraph.from_edges(n, _ring_edges(n, k), ring_k=k)


def _ring_edges(n: int, k: int) -> np.ndarray:
    """The n*k ring pairs (u, u + d mod n) for d = 1..k."""
    u = np.repeat(np.arange(n, dtype=np.int64), k)
    d = np.tile(np.arange(1, k + 1, dtype=np.int64), n)
    return np.column_stack([u, (u + d) % n])


def complete_graph(n: int) -> UndirectedGraph:
    iu = np.triu_indices(n, k=1)
    return UndirectedGraph.from_edges(n, np.column_stack(iu))


def _nonring_row_counts(n: int, k: int) -> np.ndarray:
    """For each u, the number of non-ring pairs (u, v) with v > u."""
    u = np.arange(n, dtype=np.int64)
    return np.maximum(0, np.minimum(n - 1 - u - k, n - 2 * k - 1))


def sample_small_world(spec: GraphSpec) -> UndirectedGraph:
    """Sample the small world: ring plus Bernoulli(p) non-ring pairs.

    Non-ring pairs are scanned in canonical (u < v, lexicographic) order by a
    single Philox stream keyed by the seed, using geometric skips, so the hit
    set is an exact Bernoulli(p) subset and the sample is a deterministic
    function of (n, k, c, seed).
    """
    n, k = spec.n, spec.k
    p = spec.p
    if p == 0:
        return build_ring(n, k)
    counts = _nonring_row_counts(n, k)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    if p == 1:
        flat = np.arange(total, dtype=np.int64)
    else:
        flat = _bernoulli_hits(total, float(p), spec.seed)
    u = np.searchsorted(offsets, flat, side="right") - 1
    v = u + k + 1 + (flat - offsets[u])
    edges = np.vstack([_ring_edges(n, k), np.column_stack([u, v])])
    return UndirectedGraph.from_edges(n, edges, ring_k=k)


def _bernoulli_hits(total: int, p: float, seed: int) -> np.ndarray:
    """Indices of successes in a length-`total` Bernoulli(p) scan."""
    rng = make_rng(seed)
    hits = []
    pos = -1
    batch = max(64, int(1.2 * total * p) + 16)
    while pos < total:
        gaps = rng.geometric(p, size=batch)
        steps = np.cumsum(gaps) + pos
        take = steps[steps < total]
        hits.append(take)
        if steps[-1] >= total:
            break
        pos = int(steps[-1])
    return np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)


# -- blow-up ------------------------------------------------------------------


@dataclass
class BlowUpMap:
    """Partition of the base graph into n/R consecutive blocks of size R.

    Block i holds vertices i*R .. (i+1)*R - 1.  The auxiliary graph has one
    vertex per block and an edge {i, j} wherever the base graph has at least
    one edge between block i and block j.
    """

    R: int
    base_n: int
    auxiliary: UndirectedGraph

    @property
    def n_blocks(self) -> int:
        return self.base_n // self.R

    def block_of(self, v: int) -> int:
        return v // self.R

    def block_vertices(self, i: int) -> np.ndarray:
        return np.arange(i * self.R, (i + 1) * self.R, dtype=np.int64)


def blow_up(g: UndirectedGraph, R: int) -> BlowUpMap:
    """Contract consecutive blocks of R vertices into single vertices."""
    if g.n % R != 0:
        raise GraphValidationError(f"R={R} does not divide n={g.n}")
    if R <= g.ring_k:
        raise GraphValidationError(
            f"R={R} must exceed the ring half-width k={g.ring_k}"
        )
    n_prime = g.n // R
    edges = g.edge_array() // R
    keep = edges[:, 0] != edges[:, 1]
    edges = np.unique(edges[keep], axis=0) if keep.any() else np.empty((0, 2), np.int64)
    ring_tag = 1 if (g.ring_k and n_prime > 2) else 0
    aux = UndirectedGraph.from_edges(n_prime, edges, ring_k=ring_tag)
    return BlowUpMap(R=R, base_n=g.n, auxiliary=aux)


def blow_up_set(bmap: BlowUpMap, S) -> tuple[np.ndarray, np.ndarray]:
    """Blocks touched by S and the union of those blocks.

    Returns (S_blocks, S_plus); |S_plus| = R * |S_blocks| and S is contained
    in S_plus.
    """
    S = np.asarray(sorted(S), dtype=np.int64)
    if S.size and (S.min() < 0 or S.max() >= bmap.base_n):
        raise GraphValidationError("set contains a vertex outside the base graph")
    blocks = np.unique(S // bmap.R)
    s_plus = (blocks[:, None] * bmap.R + np.arange(bmap.R)).ravel()
    return blocks, s_plus


def blow_up_shortcut_probability(R: int, p: Fraction) -> Fraction:
    """Probability that at least one of R*R independent p-coins lands heads."""
    p = Fraction(p)
    return 1 - (1 - p) ** (R * R)


# -- file I/O -----------------------------------------------------------------


def graph_text(g: UndirectedGraph) -> str:
    """The edge-list text: ``n k`` first, then one ``u v`` line per edge with
    u < v, sorted lexicographically; every line ends in LF."""
    edges = g.edge_array()
    body = ("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist())
    return f"{g.n} {g.ring_k}\n" + body


def write_graph(g: UndirectedGraph, path) -> None:
    """Write the edge-list format (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(graph_text(g))


def read_graph(path) -> UndirectedGraph:
    """Parse the edge-list format written by :func:`write_graph`.

    Malformed lines, out-of-range endpoints, and duplicate edges raise
    GraphValidationError naming the offending line number.
    """
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
        return UndirectedGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2), ring_k=k)
    except GraphValidationError as exc:
        raise GraphValidationError(f"{path}: {exc}") from exc
