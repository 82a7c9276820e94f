import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nwmix import (
    GraphSpec,
    GraphValidationError,
    UndirectedGraph,
    blow_up,
    blow_up_shortcut_probability,
    build_ring,
    complete_graph,
    read_graph,
    sample_small_world,
    write_graph,
)
from nwmix import graphs
from nwmix.conductance import connected_set_counts, cut_stats, fr_bound
from nwmix.subtrees import brute_force_mu, poisson_law
from nwmix.walks import WalkError, escape_time, sample_starts

import oracles


def test_ring_structure():
    g = build_ring(10, 1)
    assert g.n == 10 and g.m == 10 and g.ring_k == 1
    assert np.all(g.degrees == 2)
    expected = {(i, (i + 1) % 10) for i in range(10)}
    expected = {(min(e), max(e)) for e in expected}
    assert {tuple(e) for e in g.edge_array().tolist()} == expected


def test_ring_k2_regularity():
    g = build_ring(9, 2)
    assert g.m == 9 * 2
    assert np.all(g.degrees == 4)
    # distance-2 edges present, distance-3 absent
    assert 2 in g.neighbors(0) and 7 in g.neighbors(0)
    assert 3 not in g.neighbors(0)


def test_ring_validation():
    with pytest.raises(GraphValidationError):
        build_ring(4, 2)  # n <= 2k
    with pytest.raises(GraphValidationError):
        build_ring(5, 0)
    with pytest.raises(GraphValidationError, match="n must be >= 0, got -1"):
        complete_graph(-1)
    assert build_ring(np.int64(8), np.int32(1)) == build_ring(8, 1)
    assert complete_graph(np.uint8(4)) == complete_graph(4)


def test_spec_validation():
    spec = GraphSpec(n=20, k=2, c=Fraction(3, 2), seed=7)
    assert spec.p == Fraction(3, 40)
    with pytest.raises(GraphValidationError):
        GraphSpec(n=4, k=2, c=1, seed=0)
    with pytest.raises(GraphValidationError):
        GraphSpec(n=10, k=1, c=-1, seed=0)
    with pytest.raises(GraphValidationError):
        GraphSpec(n=10, k=1, c=11, seed=0)  # p > 1
    with pytest.raises(GraphValidationError, match="k must be >= 1, got 0"):
        GraphSpec(n=5, k=0, c=1, seed=0)


@pytest.mark.parametrize("bad", [
    {"n": 10.5}, {"n": "10"}, {"k": 1.5}, {"k": "1"}, {"seed": 1.5}, {"seed": "7"},
], ids=["n-float", "n-str", "k-float", "k-str", "seed-float", "seed-str"])
def test_spec_fields_must_be_integers(bad):
    with pytest.raises(GraphValidationError, match="must be an integer"):
        GraphSpec(**{"n": 10, "k": 1, "c": 1, "seed": 0, **bad})


def test_spec_takes_numpy_integers_as_ints():
    spec = GraphSpec(n=np.int64(40), k=np.int32(1), c=2, seed=np.uint64(123))
    assert all(type(v) is int for v in (spec.n, spec.k, spec.seed))
    assert sample_small_world(spec) == sample_small_world(GraphSpec(40, 1, 2, 123))


def test_from_edges_validation():
    with pytest.raises(GraphValidationError, match="edge endpoint 3 out of range for n = 3"):
        UndirectedGraph.from_edges(3, [(0, 3)])
    with pytest.raises(GraphValidationError, match="self-loop"):
        UndirectedGraph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphValidationError, match="duplicate"):
        UndirectedGraph.from_edges(3, [(0, 1), (1, 0)])


def test_adjacency_queries():
    g = UndirectedGraph.from_edges(5, [(0, 1), (0, 2), (2, 3)])
    assert g.m == 3
    assert int(g.degrees.sum()) == 2 * g.m
    assert list(g.neighbors(0)) == [1, 2]
    assert list(g.neighbors(4)) == []
    assert 2 in g.neighbors(3) and 2 not in g.neighbors(1)
    ea = g.edge_array()
    assert np.all(ea[:, 0] < ea[:, 1])
    assert ea.tolist() == sorted(ea.tolist())
    assert not g.is_connected()
    assert build_ring(7, 1).is_connected()


def test_sample_is_deterministic():
    spec = GraphSpec(n=40, k=1, c=2, seed=123)
    g1 = sample_small_world(spec)
    g2 = sample_small_world(spec)
    assert g1 == g2
    g3 = sample_small_world(GraphSpec(n=40, k=1, c=2, seed=124))
    assert g1 != g3


def test_sample_contains_ring_and_edge_cases():
    spec = GraphSpec(n=30, k=2, c=3, seed=5)
    g = sample_small_world(spec)
    for d in (1, 2):
        for u in range(30):
            assert (u + d) % 30 in g.neighbors(u)
    # c = 0 gives exactly the ring, c = n the complete graph
    assert sample_small_world(GraphSpec(n=30, k=2, c=0, seed=1)) == build_ring(30, 2)
    full = sample_small_world(GraphSpec(n=12, k=1, c=12, seed=1))
    assert full.m == 12 * 11 // 2


def test_shortcut_marginals():
    # every non-ring pair should appear with frequency ~ p = c/n
    n, k, c, reps = 8, 1, 2, 2000
    p = c / n
    counts = {}
    for seed in range(reps):
        g = sample_small_world(GraphSpec(n=n, k=k, c=c, seed=seed))
        for u, v in g.edge_array().tolist():
            if (v - u) % n not in (k, n - k):
                counts[(u, v)] = counts.get((u, v), 0) + 1
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (v - u) % n not in (k, n - k)
    ]
    assert len(pairs) == n * (n - 1) // 2 - n * k
    se = math.sqrt(reps * p * (1 - p))
    for pair in pairs:
        assert abs(counts.get(pair, 0) - reps * p) < 5 * se, pair
    total = sum(counts.values())
    se_tot = math.sqrt(len(pairs) * reps * p * (1 - p))
    assert abs(total - len(pairs) * reps * p) < 4 * se_tot


def test_graph_file_roundtrip(tmp_path):
    g = sample_small_world(GraphSpec(n=25, k=1, c=3, seed=9))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    h = read_graph(path)
    assert h == g and h.ring_k == g.ring_k
    raw = path.read_text()
    assert raw.startswith("25 1\n") and raw.endswith("\n")


@pytest.mark.parametrize(
    "text, msg",
    [
        ("", "empty"),
        ("5\n", "header"),
        ("5 x\n", "non-integer header"),
        ("5 -1\n0 1\n", "k >= 0"),
        ("-1 0\n", "n >= 0"),
        ("5 0\n0 1 2\n", "expected 'u v'"),
        ("5 0\n0 a\n", "non-integer endpoint"),
        ("5 0\n1 0\n", "0 <= u < v < n"),
        ("5 0\n0 5\n", "0 <= u < v < n"),
        ("5 0\n0 1\n0 1\n", "duplicate"),
        ("5 2\n0 1\n", "ring"),
        # two faults: the first line that has one is reported
        ("5 0\n0 1\n0 9\n3 1\n", r"bad\.txt:3: endpoints"),
        ("5 0\n0 a\n0 1 2\n", r"bad\.txt:2: non-integer endpoint"),
        ("5 0\n0 1 2\n0 a\n", r"bad\.txt:2: expected 'u v'"),
        ("5 0\n0 12 3\n", r"bad\.txt:2: expected 'u v'"),
        # a token past int64 is range-checked as a Python int
        ("5 0\n0 1\n0 18446744073709551617\n", r"bad\.txt:3: endpoints"),
    ],
)
def test_read_graph_errors(tmp_path, text, msg):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphValidationError, match=msg):
        read_graph(path)


def test_blow_up_by_hand():
    base = build_ring(12, 1).edge_array()
    g = UndirectedGraph.from_edges(12, np.vstack([base, [[0, 6]]]), ring_k=1)
    aux = blow_up(g, 3)
    assert isinstance(aux, UndirectedGraph) and aux.n == 4
    # ring of 4 blocks plus the contracted (0,6) shortcut joining blocks 0,2
    assert {tuple(e) for e in aux.edge_array().tolist()} == {
        (0, 1), (1, 2), (2, 3), (0, 3), (0, 2),
    }
    assert aux.ring_k == 1


def test_blow_up_validation():
    g = build_ring(12, 2)
    with pytest.raises(GraphValidationError):
        blow_up(g, 5)  # R does not divide n
    with pytest.raises(GraphValidationError):
        blow_up(g, 2)  # R must exceed k


def test_blow_up_rejects_R_below_one():
    # R = 0 is rejected before n % R divides by it
    for g in (build_ring(12, 2), complete_graph(6)):
        for R in (0, -1, -3):
            with pytest.raises(GraphValidationError, match="must be >= 1"):
                blow_up(g, R)


def test_blow_up_rejects_R_that_is_not_an_integer():
    # a float that divides n is an error too, not a block size
    g = build_ring(12, 1)
    for R in (3.0, 1.5, np.float64(4.0), "3", None):
        with pytest.raises(GraphValidationError, match="R must be an integer"):
            blow_up(g, R)
    assert blow_up(g, np.int32(3)) == blow_up(g, 3)


_RING8 = build_ring(8, 1)


@pytest.mark.parametrize("call, error", [
    (lambda: cut_stats(_RING8, [0.5, 1.7]), ValueError),
    (lambda: cut_stats(_RING8, np.array([1.0, 2.0])), ValueError),
    (lambda: cut_stats(_RING8, ["1", "2"]), ValueError),
    (lambda: connected_set_counts(_RING8, 3, containing=1.5), ValueError),
    (lambda: connected_set_counts(_RING8, 3, containing="3"), ValueError),
    (lambda: connected_set_counts(_RING8, 2.5), ValueError),
    (lambda: UndirectedGraph.from_edges(4, [(0.5, 1.7), (2, 3)]), GraphValidationError),
    (lambda: UndirectedGraph.from_edges(4, np.array([[0, 1]], dtype=bool)),
     GraphValidationError),
    (lambda: sample_starts(10, 3.5, 1), WalkError),
    (lambda: build_ring(8, 1.5), GraphValidationError),
    (lambda: build_ring(8.0, 1), GraphValidationError),
    (lambda: build_ring("8", 1), GraphValidationError),
    (lambda: complete_graph(4.0), GraphValidationError),
], ids=["cut-floats", "cut-float-array", "cut-strings", "containing-float",
        "containing-string", "j-float", "edges-floats", "edges-bools",
        "start-count-float", "ring-k-float", "ring-n-float", "ring-n-string",
        "complete-n-float"])
def test_non_integer_vertices_are_rejected(call, error):
    # floats are not truncated and strings not parsed: each module raises
    # its own ValueError, naming the integer it wanted
    with pytest.raises(error, match="must be (an )?integer"):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: _RING8.neighbors(-1), "out of range"),
    (lambda: _RING8.neighbors(8), "out of range"),
    (lambda: _RING8.neighbors(1.0), "must be an integer"),
], ids=["neighbors-negative", "neighbors-past-n", "neighbors-float"])
def test_bad_vertices_raise_instead_of_wrapping_or_truncating(call, match):
    # a negative vertex does not wrap to the end of the CSR arrays, nor a
    # float vertex truncate
    with pytest.raises(GraphValidationError, match=match):
        call()


def test_integer_vertices_of_any_type_are_accepted():
    g = _RING8
    assert cut_stats(g, np.array([1, 2], dtype=np.int8)) == cut_stats(g, [1, 2])
    assert connected_set_counts(g, np.int64(3), containing=np.int32(1)) == \
        connected_set_counts(g, 3, containing=1)
    assert UndirectedGraph.from_edges(3, []).m == 0
    h = UndirectedGraph.from_edges(4, np.array([[0, 1], [2, 3]], dtype=np.int32))
    assert h.edge_array().tolist() == [[0, 1], [2, 3]]
    assert sample_starts(10, np.int64(3), 1) == sample_starts(10, 3, 1)
    assert g.neighbors(np.uint8(7)).tolist() == [0, 6]
    assert g.neighbors(np.int64(0)).tolist() == [1, 7]


@pytest.mark.parametrize("call, match", [
    (lambda: fr_bound(_RING8, mode="exact", seed=2.5), "seed must be an integer"),
    (lambda: fr_bound(_RING8, mode="exact", restarts=0), "restarts must be >= 1"),
    (lambda: fr_bound(_RING8, mode="exact", iterations=-5), "iterations must be >= 0"),
    (lambda: escape_time(_RING8, 0, range(8), seed=2.5), "seed must be an integer"),
    (lambda: brute_force_mu(poisson_law(1), 1, 10, seed=2.5), "seed must be an integer"),
], ids=["fr-exact-seed", "fr-exact-restarts", "fr-exact-iterations",
        "escape-whole-region-seed", "mc-one-vertex-seed"])
def test_arguments_are_read_whichever_path_runs(call, match):
    # exact mode never anneals, a whole region never walks and a one-vertex
    # tree draws nothing, yet each argument is checked as if it were read
    with pytest.raises(ValueError, match=match):
        call()


def test_blow_up_shortcut_probability():
    assert blow_up_shortcut_probability(2, Fraction(1, 4)) == 1 - Fraction(3, 4) ** 4
    assert blow_up_shortcut_probability(3, 0) == 0


def test_connected_flag_against_oracle():
    # mask-BFS oracle agrees with the library BFS on a few small graphs
    for n, edges in [
        (6, [(0, 1), (1, 2), (3, 4)]),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        (4, []),
        (1, []),
        (5, [(0, 1), (1, 2), (2, 3)]),  # vertex 4 is isolated
        (5, [(0, 4), (4, 1), (1, 3), (3, 2)]),  # one BFS level per vertex
    ]:
        g = UndirectedGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        full = (1 << n) - 1
        assert g.is_connected() == oracles.mask_connected(full, oracles.neighbor_masks(g))


def test_ring_tagged_graphs_are_connected_without_a_search(tmp_path, monkeypatch):
    def no_search(self):
        raise AssertionError("BFS run on a ring-tagged graph")

    path = tmp_path / "g.txt"
    write_graph(sample_small_world(GraphSpec(n=40, k=2, c=3, seed=1)), path)
    base = sample_small_world(GraphSpec(n=60, k=1, c=2, seed=4))
    monkeypatch.setattr(UndirectedGraph, "_bfs_connected", no_search)
    tagged = [sample_small_world(GraphSpec(n=50, k=1, c=Fraction(1, 2), seed=3)),
              sample_small_world(GraphSpec(n=20, k=3, c=0, seed=0)),
              build_ring(7, 3), read_graph(path), blow_up(base, 5)]
    for g in tagged:
        assert g.ring_k >= 1 and g.is_connected()
    untagged = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(AssertionError, match="BFS"):
        untagged.is_connected()


def test_tagged_graph_missing_one_ring_edge_raises():
    for k in (1, 2):
        ring = build_ring(12, k).edge_array()
        for drop in (0, len(ring) - 1):
            with pytest.raises(GraphValidationError, match="ring edge"):
                UndirectedGraph.from_edges(12, np.delete(ring, drop, axis=0), ring_k=k)


def test_write_graph_bytes(tmp_path):
    g = UndirectedGraph.from_edges(6, [(5, 0), (0, 1), (3, 1), (1, 2), (2, 3),
                                       (3, 4), (4, 5), (0, 3)], ring_k=1)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert path.read_bytes() == b"6 1\n0 1\n0 3\n0 5\n1 2\n1 3\n2 3\n3 4\n4 5\n"


# Tokens stay short, so a header asks for at most ~10^6 vertices and every
# example stays small.
_TOKEN = st.one_of(
    st.integers(min_value=-3, max_value=40).map(lambda i: str(i).encode()),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).map(str.encode),
    st.binary(max_size=3),
)
_LINE = st.lists(_TOKEN, max_size=4).map(b" ".join)


def _read_both(path):
    """(graph, None) or (None, exception) from the reader and from the oracle."""
    out = []
    for read in (read_graph, oracles.read_graph):
        try:
            out.append((read(path), None))
        except Exception as exc:  # compared below, type and message
            out.append((None, exc))
    return out


def _assert_same_read(path):
    (g, err), (want, want_err) = _read_both(path)
    if want_err is not None:
        assert type(err) is type(want_err) and str(err) == str(want_err)
    else:
        assert err is None, err
        assert g == want and g.ring_k == want.ring_k
    return g, err


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_LINE, max_size=8), st.sampled_from([b"\n", b"\r\n"]))
def test_read_graph_fuzz(tmp_path, lines, eol):
    """Any file either parses or raises ValueError (GraphValidationError is
    one), and the reader agrees with the line-by-line oracle."""
    path = tmp_path / "fuzz.txt"
    path.write_bytes(eol.join(lines))
    g, err = _assert_same_read(path)
    if err is None:
        assert g.indices.shape[0] == 2 * g.m
    else:
        assert isinstance(err, ValueError)


# Files close to the writer's form, so that both the bulk path and the line
# loop are taken: small headers, endpoints that may be out of range, reversed
# or repeated, and now and then a layout the bulk path does not take.
_NUM = st.integers(0, 14).map(str)
_EDGE = st.tuples(_NUM, _NUM).map(" ".join)
_LAYOUT = st.sampled_from(["writer", "no final LF", "CRLF", "blank line", "tab",
                           "leading zero", "plus sign", "three tokens"])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 12).map(str), st.integers(0, 2).map(str),
       st.lists(_EDGE, max_size=12), _LAYOUT)
def test_read_graph_writer_form_matches_oracle(tmp_path, n, k, edges, layout):
    lines = [f"{n} {k}"] + edges
    text = "".join(line + "\n" for line in lines)
    if layout == "no final LF":
        text = text[:-1]
    elif layout == "CRLF":
        text = text.replace("\n", "\r\n")
    elif layout == "blank line":
        text = text.replace("\n", "\n\n", 1)
    elif layout == "tab":
        text = text.replace(" ", "\t")
    elif layout == "leading zero":
        text = "0" + text.replace("\n", "\n0")[:-1]
    elif layout == "plus sign":
        text = text.replace("\n", "\n+", 1)
    elif layout == "three tokens":
        text += "1 2 3\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    _assert_same_read(path)


def test_read_graph_bulk_matches_oracle(tmp_path):
    for spec in (GraphSpec(n=2000, k=1, c=Fraction(1, 2), seed=1),
                 GraphSpec(n=300, k=3, c=5, seed=2)):
        g = sample_small_world(spec)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert _assert_same_read(path)[0] == g


# The writer's form as a regular expression, the bulk path's first test.
_WRITER_RE = re.compile(rb"[0-9]{1,18} [0-9]{1,18}\n(?:[0-9]{1,18} [0-9]{1,18}\n)*")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from([b"0", b"7", b"1" * 18, b"9" * 19, b" ", b"\n",
                                 b"\r", b"\t", b"-", b"\xc3\xa9"]), max_size=12))
@example([b"1" * 18, b" ", b"0", b"\n"])
@example([b"1" * 19, b" ", b"0", b"\n"])
@example([b"3", b" ", b"1", b"\n", b"0", b" ", b"1", b" ", b"2", b"\n"])
@example([b" ", b"3", b" ", b"1", b"\n"])
@example([b"3", b" ", b"1", b"\n", b"0", b" ", b"1" * 19, b"\n"])
@example([b"3", b" ", b"1", b" ", b"0", b" ", b"2", b"\n"])
def test_writer_form_check_matches_regex(parts):
    """The byte-level check accepts exactly the files the regex accepts,
    and then reads the same numbers."""
    raw = b"".join(parts)
    got = graphs._writer_form(raw)
    assert (got is not None) == bool(_WRITER_RE.fullmatch(raw))
    if got is not None:
        assert [got[0], got[1]] + got[2].ravel().tolist() == \
            [int(t) for t in raw.split()]


# -- the edge-list writer and the ring check against their earlier versions -----


def _small_world(k, extra, c, seed):
    n = 2 * k + 1 + extra
    return sample_small_world(GraphSpec(n=n, k=k, c=min(c, n), seed=seed))


_SMALL_WORLD = st.builds(
    _small_world, k=st.integers(1, 3),
    extra=st.one_of(st.integers(0, 30), st.integers(0, 3000)),
    c=st.fractions(0, 8, max_denominator=4), seed=st.integers(0, 10**6))
_EMPTY = st.integers(0, 10**6).map(
    lambda n: UndirectedGraph.from_edges(n, np.empty((0, 2), dtype=np.int64)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_SMALL_WORLD, _EMPTY))
@example(UndirectedGraph.from_edges(0, np.empty((0, 2), dtype=np.int64)))
@example(build_ring(10, 1))  # a line "0 9": one value 1 digit, the other 2
@example(build_ring(100, 3))
def test_graph_text_matches_oracle(g):
    assert graphs.graph_text(g) == oracles.graph_text(g)


def test_pair_lines_edge_values():
    # one- and two-digit values, and either side of the switch to uint64
    values = [0, 9, 10, 2**32 - 1, 2**32, 2**63 - 1]
    pairs = [(a, b) for a in values for b in values]
    got = graphs._pair_lines(np.array(pairs, dtype=np.int64).ravel())
    assert got == "".join(f"{a} {b}\n" for a, b in pairs)
    for v in values:
        assert graphs._pair_lines(np.array([v, v], dtype=np.int64)) == f"{v} {v}\n"
    assert graphs._pair_lines(np.empty(0, dtype=np.int64)) == ""


def _ring_check_agrees(n, k, edges):
    """The tagged build raises exactly when the oracle finds a ring edge
    missing from the untagged build of the same edges."""
    complete = oracles.ring_contained(UndirectedGraph.from_edges(n, edges), k)
    if complete:
        UndirectedGraph.from_edges(n, edges, ring_k=k)
    else:
        with pytest.raises(GraphValidationError, match="missing a ring edge"):
            UndirectedGraph.from_edges(n, edges, ring_k=k)
    return complete


def _drop_and_add(g, drop, add):
    """g's edges without edge `drop` (mod m), plus the `add`-th (mod count)
    pair that is not an edge, if any."""
    edges = g.edge_array()
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    edges = np.delete(edges, drop % len(edges), axis=0)
    iu, iv = np.triu_indices(g.n, k=1)
    absent = ~adj[iu, iv]
    if add is not None and absent.any():
        pick = np.flatnonzero(absent)[add % absent.sum()]
        edges = np.vstack([edges, [[iu[pick], iv[pick]]]])
    return edges


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 3), extra=st.integers(0, 25),
       c=st.fractions(0, 6, max_denominator=4), gseed=st.integers(0, 10**6),
       drop=st.integers(0, 10**6), add=st.one_of(st.none(), st.integers(0, 10**6)))
@example(k=1, extra=0, c=Fraction(0), gseed=0, drop=0, add=None)  # n = 2k + 1
@example(k=3, extra=0, c=Fraction(0), gseed=0, drop=5, add=None)
@example(k=2, extra=3, c=Fraction(0), gseed=0, drop=4, add=0)  # m holds
def test_ring_check_matches_oracle(k, extra, c, gseed, drop, add):
    g = _small_world(k, extra, c, gseed)
    assert _ring_check_agrees(g.n, k, g.edge_array())
    edges = _drop_and_add(g, drop, add)
    _ring_check_agrees(g.n, k, edges)


@settings(max_examples=60, deadline=None)
@given(n_blocks=st.integers(3, 12), R=st.integers(2, 5),
       c=st.fractions(0, 4, max_denominator=4), gseed=st.integers(0, 10**6),
       drop=st.integers(0, 10**6), add=st.one_of(st.none(), st.integers(0, 10**6)))
def test_ring_check_on_blow_ups_matches_oracle(n_blocks, R, c, gseed, drop, add):
    base = sample_small_world(GraphSpec(n=n_blocks * R, k=1, c=c, seed=gseed))
    aux = blow_up(base, R)
    assert aux.ring_k == 1 and oracles.ring_contained(aux, 1)
    _ring_check_agrees(aux.n, 1, _drop_and_add(aux, drop, add))
