import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nwmix import (
    BlowUpMap,
    GraphSpec,
    GraphValidationError,
    UndirectedGraph,
    blow_up,
    blow_up_set,
    blow_up_shortcut_probability,
    build_ring,
    complete_graph,
    read_graph,
    sample_small_world,
    write_graph,
)
from nwmix import graphs

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
    assert g.has_edge(0, 2) and g.has_edge(0, 7)
    assert not g.has_edge(0, 3)


def test_ring_validation():
    with pytest.raises(GraphValidationError):
        build_ring(4, 2)  # n <= 2k
    with pytest.raises(GraphValidationError):
        build_ring(5, 0)


def test_spec_validation():
    spec = GraphSpec(n=20, k=2, c=Fraction(3, 2), seed=7)
    assert spec.p == Fraction(3, 40)
    with pytest.raises(GraphValidationError):
        GraphSpec(n=4, k=2, c=1, seed=0)
    with pytest.raises(GraphValidationError):
        GraphSpec(n=10, k=1, c=-1, seed=0)
    with pytest.raises(GraphValidationError):
        GraphSpec(n=10, k=1, c=11, seed=0)  # p > 1


def test_from_edges_validation():
    with pytest.raises(GraphValidationError, match="out of range"):
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
    assert g.has_edge(3, 2) and not g.has_edge(1, 2)
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
            assert g.has_edge(u, (u + d) % 30)
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
    bmap = blow_up(g, 3)
    assert isinstance(bmap, BlowUpMap)
    assert bmap.n_blocks == 4
    assert bmap.block_of(7) == 2
    assert list(bmap.block_vertices(1)) == [3, 4, 5]
    aux = bmap.auxiliary
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


def test_blow_up_set():
    bmap = blow_up(build_ring(12, 1), 3)
    blocks, s_plus = blow_up_set(bmap, {0, 5, 7})
    assert list(blocks) == [0, 1, 2]
    assert list(s_plus) == list(range(9))
    assert len(s_plus) == bmap.R * len(blocks)
    with pytest.raises(GraphValidationError):
        blow_up_set(bmap, {0, 12})


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
              build_ring(7, 3), read_graph(path), blow_up(base, 5).auxiliary]
    for g in tagged:
        assert g.ring_k >= 1 and g.is_connected()
    untagged = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(AssertionError, match="BFS"):
        untagged.is_connected()


def test_has_edges_matches_has_edge():
    rng = np.random.default_rng(2)
    graphs = [sample_small_world(GraphSpec(n=n, k=k, c=c, seed=s))
              for n, k, c, s in [(30, 1, 3, 0), (41, 2, 5, 1), (64, 1, 1, 2)]]
    graphs.append(UndirectedGraph.from_edges(7, np.empty((0, 2), dtype=np.int64)))
    for g in graphs:
        ea = g.edge_array()
        u = np.concatenate([ea[:, 0], ea[:, 1], rng.integers(0, g.n, 200)])
        v = np.concatenate([ea[:, 1], ea[:, 0], rng.integers(0, g.n, 200)])
        got = g.has_edges(u, v)
        want = [g.has_edge(int(a), int(b)) for a, b in zip(u, v)]
        assert got.tolist() == want
        assert got[: 2 * g.m].all()  # both orientations of every edge
        assert not all(want[2 * g.m:])  # some random pairs are absent
    empty = graphs[-1]
    assert empty.has_edges(np.array([0, 6]), np.array([1, 5])).tolist() == [False, False]
    assert empty.has_edges(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0
    with pytest.raises(GraphValidationError, match="out of range"):
        graphs[0].has_edges(np.array([0]), np.array([30]))


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
