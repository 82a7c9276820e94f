"""Ring lattices, Newman-Watts small worlds, and block blow-ups.

The (n, k)-ring has vertices 0..n-1 and an edge between every pair at cyclic
distance at most k; for n > 2k it is 2k-regular with m = n*k edges.  The
small world adds each of the n(n-1)/2 - nk non-ring pairs independently with
probability p = c/n.  Vertex indexing is 0-based everywhere, including files.

Graphs are built once, from an edge array, into CSR form, and are never
changed after.  A ring-tagged graph is checked to hold its ring by counting
the CSR entries at cyclic distance at most k, and is then connected without
a search.  Degrees and neighbor lists are read from `degrees` and
`neighbors`.  A block blow-up is the graph of the blocks of R consecutive
vertices, an UndirectedGraph like any other.  The edge-list writer formats
every number in numpy, as one byte matrix of right-aligned digits; the
reader parses a file in the writer's form in bulk and any other layout line
by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rng import _integer, make_rng


class GraphValidationError(ValueError):
    """Raised when graph data violates a structural invariant."""


def _integers(a, what: str, error=GraphValidationError) -> np.ndarray:
    """`a` as an int64 array; an empty one may have any dtype, a nonempty
    one must have an integer dtype (not float, bool, string or object), or
    `error` is raised."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


def _vertex(v, n: int, what: str = "vertex", error=GraphValidationError) -> int:
    """`v` as a vertex of an n-vertex graph, an integer (`_integer`) in
    0..n-1; the package's one vertex reader, with `_vertices`."""
    v = _integer(v, what, error)
    if not 0 <= v < n:
        raise error(f"{what} {v} out of range for n = {n}")
    return v


def _vertices(a, n: int, what: str, error=GraphValidationError) -> np.ndarray:
    """`a` as an int64 array (`_integers`, naming them in the plural) of
    vertices of an n-vertex graph; `_vertex` names the first one outside."""
    plural = what[:-2] + "ices" if what.endswith("vertex") else what + "s"
    a = _integers(a, plural, error)
    if a.size and (a.min() < 0 or a.max() >= n):
        _vertex(int(a[(a < 0) | (a >= n)][0]), n, what, error)
    return a


@dataclass(frozen=True)
class GraphSpec:
    """Parameters (n, k, c, seed) of a small-world sample; p = c/n."""

    n: int
    k: int
    c: Fraction
    seed: int

    def __post_init__(self):
        for name in ("n", "k", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name,
                                                    GraphValidationError))
        if self.k < 1:
            raise GraphValidationError(f"k must be >= 1, got {self.k}")
        if self.n <= 2 * self.k:
            raise GraphValidationError(
                f"need n > 2k for a 2k-regular ring, got n={self.n}, k={self.k}"
            )
        c = Fraction(self.c)
        object.__setattr__(self, "c", c)
        if not 0 <= c <= self.n:
            raise GraphValidationError(f"need 0 <= c <= n so that 0 <= p <= 1, got c={c}")

    @property
    def p(self) -> Fraction:
        return self.c / self.n


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

        Validates simplicity: integer endpoints in range, no self-loops, no
        duplicate edges (regardless of orientation).  A ring-tagged graph is
        checked to hold its ring, and so is known to be connected without a
        search.
        """
        edges = _vertices(edges, n, "edge endpoint").reshape(-1, 2)
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
        # each entry's row and col, the col as keys % n computed in place: at
        # this size a fresh array's page faults cost more than the arithmetic
        rows = keys // n
        cols = np.multiply(rows, n)
        np.subtract(keys, cols, out=cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        g = cls(n, indptr, cols, ring_k=ring_k)
        if ring_k:
            _check_ring_containment(n, ring_k, rows, cols)
            g._connected = True  # the ring is a cycle through all n vertices
        return g

    # -- queries ------------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        v = _vertex(v, self.n)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

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


def _check_ring_containment(n: int, k: int, rows: np.ndarray, cols: np.ndarray):
    """Raise unless the distinct CSR entries (rows, cols) hold the (n, k)-ring.

    With n > 2k every vertex has 2k ring neighbors, those at cyclic distance
    at most k: the entries with ``|col - row| <= k`` or ``>= n - k``, two
    disjoint ranges.  The entries are distinct, so there are 2nk of them
    exactly when every ring edge is present.
    """
    if n <= 2 * k:
        raise GraphValidationError("ring tag requires n > 2k")
    gap = np.subtract(cols, rows)
    np.abs(gap, out=gap)
    if np.count_nonzero(gap <= k) + np.count_nonzero(gap >= n - k) != 2 * n * k:
        raise GraphValidationError("tagged graph is missing a ring edge")


# -- generators ---------------------------------------------------------------


def build_ring(n: int, k: int) -> UndirectedGraph:
    """The (n, k)-ring, edges between all pairs at cyclic distance <= k: the
    c = 0 small world, so its GraphSpec checks n and k."""
    spec = GraphSpec(n=n, k=k, c=0, seed=0)
    return UndirectedGraph.from_edges(spec.n, _ring_edges(spec.n, spec.k), ring_k=spec.k)


def _ring_edges(n: int, k: int) -> np.ndarray:
    """The n*k ring pairs (u, u + d mod n) for d = 1..k."""
    u = np.repeat(np.arange(n, dtype=np.int64), k)
    d = np.tile(np.arange(1, k + 1, dtype=np.int64), n)
    return np.column_stack([u, (u + d) % n])


def complete_graph(n: int) -> UndirectedGraph:
    """K_n: every pair of the n vertices joined."""
    n = _integer(n, "n", GraphValidationError)
    if n < 0:
        raise GraphValidationError(f"n must be >= 0, got {n}")
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


def blow_up(g: UndirectedGraph, R: int) -> UndirectedGraph:
    """The auxiliary graph of g's blocks of R consecutive vertices.

    Block i holds vertices i*R .. (i+1)*R - 1, so vertex v lies in block
    v // R.  The auxiliary graph has one vertex per block and an edge {i, j}
    wherever g has at least one edge between block i and block j.  R is an
    int or numpy integer, never a float, even one that divides n.
    """
    R = _integer(R, "R", GraphValidationError)
    if R < 1:
        raise GraphValidationError(f"R={R} must be >= 1")
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
    return UndirectedGraph.from_edges(n_prime, edges, ring_k=ring_tag)


def blow_up_shortcut_probability(R: int, p: Fraction) -> Fraction:
    """Probability that at least one of R*R independent p-coins lands heads."""
    p = Fraction(p)
    return 1 - (1 - p) ** (R * R)


# -- file I/O -----------------------------------------------------------------


def graph_text(g: UndirectedGraph) -> str:
    """The edge-list text: ``n k`` first, then one ``u v`` line per edge with
    u < v, sorted lexicographically; every line ends in LF."""
    return f"{g.n} {g.ring_k}\n" + _pair_lines(g.edge_array().ravel())


def _pair_lines(vals: np.ndarray) -> str:
    """The nonnegative integers `vals` in decimal, two to a line: ``a b`` LF.

    One byte matrix holds every value right-aligned in as many digit
    columns as the largest needs, then a space or LF column; the digits are
    peeled off by repeated division by ten (uint32 arithmetic when the
    values fit, uint64 otherwise), and a mask drops each row's leading pad.
    """
    if not vals.size:
        return ""
    top = int(vals.max())
    dt = np.uint32 if top < 1 << 32 else np.uint64
    x = vals.astype(dt)
    width = len(str(top))
    buf = np.empty((x.size, width + 1), dtype=np.uint8)
    pad = np.full(x.size, width - 1, dtype=np.int8)  # leading columns to drop
    ten = dt(10)
    for col in range(width - 1, 0, -1):
        q = x // ten
        buf[:, col] = x - q * ten
        pad -= q > 0
        x = q
    buf[:, 0] = x
    buf += ord("0")
    buf[0::2, width] = ord(" ")
    buf[1::2, width] = ord("\n")
    keep = np.arange(width + 1, dtype=np.int8) >= pad[:, None]
    return buf[keep].tobytes().decode("ascii")


def write_graph(g: UndirectedGraph, path) -> None:
    """Write the edge-list format (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(graph_text(g))


def read_graph(path) -> UndirectedGraph:
    """Parse the edge-list format written by :func:`write_graph`.

    A file in exactly the writer's form is parsed in bulk; any other
    whitespace layout (CRLF, blank lines, tabs, signs) is read line by line.
    Malformed lines, out-of-range endpoints, and duplicate edges raise
    GraphValidationError naming the offending line number.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    bulk = _writer_form(raw)
    if bulk is not None:
        n, k, edges = bulk
        bad = np.flatnonzero((edges[:, 0] >= edges[:, 1]) | (edges[:, 1] >= n))
        if bad.size:
            raise GraphValidationError(
                f"{path}:{int(bad[0]) + 2}: endpoints must satisfy 0 <= u < v < n"
            )
    else:
        n, k, edges = _read_lines(path, raw.decode("utf-8").splitlines())
    try:
        return UndirectedGraph.from_edges(n, edges, ring_k=k)
    except GraphValidationError as exc:
        raise GraphValidationError(f"{path}: {exc}") from exc


def _writer_form(raw: bytes) -> tuple[int, int, np.ndarray] | None:
    """(n, k, edges) if `raw` is in the form graph_text writes, else None.

    That form is an ``n k`` header, then ``u v`` lines: ASCII digits and
    single spaces only, every line ending in LF.  Tokens hold 1 to 18
    digits, so they fit int64.  The check is on bytes: nothing but digits,
    spaces and LFs, the separators alternating space, LF, space, LF, and
    1 to 18 digits before each separator.
    """
    if not raw.endswith(b"\n") or raw.translate(None, b"0123456789 \n"):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero(buf < 48)  # spaces (32) and LFs (10); digits are 48..57
    gaps = seps[1:] - seps[:-1]  # one more than the digits between two
    kinds = buf[seps]
    if (not 1 <= seps[0] <= 18 or gaps.min(initial=2) < 2
            or gaps.max(initial=2) > 19
            or (kinds[0::2] != 32).any() or (kinds[1::2] != 10).any()):
        return None
    vals = np.fromstring(raw, dtype=np.int64, sep=" ")
    return int(vals[0]), int(vals[1]), vals[2:].reshape(-1, 2)


def _read_lines(path, lines: list[str]) -> tuple[int, int, np.ndarray]:
    """Header and edges of an edge-list file, one line at a time."""
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
    return n, k, np.array(edges, dtype=np.int64).reshape(-1, 2)
