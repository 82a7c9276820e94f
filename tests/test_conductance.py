import contextlib
import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwmix import (
    EnumerationBudgetError,
    GraphSpec,
    UndirectedGraph,
    build_ring,
    complete_graph,
    connected_set_counts,
    connected_sets,
    cut_stats,
    fr_bound,
    num_scales,
    sample_small_world,
)

from nwmix import conductance
from nwmix.experiments import ExperimentConfig, expected_volume_windows, run_conductance
from nwmix.rng import derive_seed, make_rng, philox

import oracles

H12 = sample_small_world(GraphSpec(n=12, k=1, c=2, seed=0))


def test_cut_stats_ring_arcs():
    g = build_ring(16, 1)
    for ell in range(1, 16):
        st_ = cut_stats(g, range(ell))
        assert st_.cut == 2
        assert st_.internal == ell - 1
        assert st_.volume == 2 * ell
        assert st_.phi == Fraction(1, ell)
    whole = cut_stats(g, range(16))
    assert whole.cut == 0 and whole.phi == 0


def test_cut_stats_validation():
    g = build_ring(8, 1)
    with pytest.raises(ValueError, match="empty"):
        cut_stats(g, [])
    with pytest.raises(ValueError, match="duplicate"):
        cut_stats(g, [1, 1, 2])
    with pytest.raises(ValueError, match="set vertex 8 out of range for n = 8"):
        cut_stats(g, [7, 8])


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=11), min_size=1))
def test_cut_stats_matches_mask_oracle(S):
    mask = 0
    for v in S:
        mask |= 1 << v
    cut, vol = oracles.mask_cut_volume(mask, H12)
    got = cut_stats(H12, S)
    assert (got.cut, got.volume) == (cut, vol)
    assert got.volume == 2 * got.internal + got.cut


@pytest.mark.parametrize("g", [build_ring(10, 1), H12], ids=["C10", "H12"])
def test_connected_sets_match_bruteforce(g):
    by_size = {}
    for s in oracles.all_connected_subsets(g):
        by_size.setdefault(len(s), set()).add(s)
    counts = connected_set_counts(g, g.n)
    for j in range(1, g.n + 1):
        got = list(connected_sets(g, j))
        assert len(got) == len(set(got)), "a set was produced twice"
        assert {frozenset(s) for s in got} == by_size.get(j, set())
        assert counts[j - 1] == len(got)


def test_connected_sets_containing():
    g = H12
    v = 3
    for j in (1, 2, 4):
        expected = {
            s for s in oracles.all_connected_subsets(g, max_size=j)
            if len(s) == j and v in s
        }
        got = {frozenset(s) for s in connected_sets(g, j, containing=v)}
        assert got == expected
        assert connected_set_counts(g, j, containing=v)[-1] == len(expected)


def test_connected_sets_validation():
    g = build_ring(8, 1)
    with pytest.raises(ValueError, match="size j"):
        list(connected_sets(g, 0))
    with pytest.raises(ValueError, match="size j"):
        list(connected_sets(g, 9))
    with pytest.raises(ValueError, match="containing vertex 8 out of range for n = 8"):
        list(connected_sets(g, 2, containing=8))
    with pytest.raises(ValueError, match="containing vertex -1 out of range for n = 8"):
        connected_set_counts(g, 2, containing=-1)


def test_enumeration_budget():
    g = complete_graph(10)
    with pytest.raises(EnumerationBudgetError):
        connected_set_counts(g, 10, budget=100)
    # generous budget succeeds: 2^10 - 1 nonempty subsets, all connected
    assert sum(connected_set_counts(g, 10)) == 2**10 - 1


def test_num_scales():
    assert num_scales(2) == 1
    assert num_scales(16) == 4
    assert num_scales(17) == 5
    assert num_scales(1) == 1
    for m in (0, -3):
        with pytest.raises(ValueError, match="num_scales needs m >= 1"):
            num_scales(m)


def test_fr_bound_entries_exact_on_cycle():
    entries = fr_bound(build_ring(16, 1)).profile.entries
    top, small = entries[0], entries[-1]
    assert top.phi == Fraction(1, 8) and len(top.witness) == 8
    assert all(e.certified and not e.empty for e in entries)
    assert small.phi == 1  # window [1, 2] admits only singletons
    assert len(small.witness) == 1
    # C17 has m = 17, so its fifth window [17/32, 17/16] holds no set
    empty = fr_bound(build_ring(17, 1)).profile.entries[-1]
    assert empty.i == 5 and empty.x == Fraction(1, 32)
    assert empty.empty and empty.phi == math.inf and empty.witness is None


def test_fr_bound_validation():
    g = build_ring(8, 1)
    with pytest.raises(ValueError, match="unknown mode 'psychic'"):
        fr_bound(g, mode="psychic")
    disconnected = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        fr_bound(disconnected)


def test_phi_witness_consistency():
    for e in fr_bound(H12).profile.entries:
        phi, witness = oracles.min_phi_in_window(H12, e.vol_lo, e.vol_hi)
        if phi is None:  # H12's last window holds no set
            assert e.empty and e.phi == math.inf
            continue
        assert (e.phi, e.witness) == (phi, witness)
        got = cut_stats(H12, e.witness)
        assert got.phi == e.phi and e.vol_lo <= got.volume <= e.vol_hi


def test_fr_bound_cycle16():
    res = fr_bound(build_ring(16, 1))
    assert res.total == 85
    assert [e.phi for e in res.profile.entries] == [
        Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1, 1),
    ]
    assert res.certified
    payload = json.loads(res.to_json())
    assert payload["sum"] == 85.0 and payload["sum_exact"] == "85"
    assert payload["certified"] is True
    assert [s["i"] for s in payload["scales"]] == [1, 2, 3, 4]


@pytest.mark.parametrize("seed", [0, 1])
def test_fr_bound_matches_bruteforce(seed):
    g = sample_small_world(GraphSpec(n=12, k=1, c=2, seed=seed))
    res = fr_bound(g)
    total, per_scale = oracles.fr_sum_bruteforce(g)
    assert res.total == total
    for entry, phi in zip(res.profile.entries, per_scale):
        assert (math.inf if phi is None else phi) == entry.phi


@pytest.mark.parametrize("g", [build_ring(10, 1), H12], ids=["C10", "H12"])
def test_fr_sum_oracle_matches_window_scans(g):
    # the one-scan oracle against a subset scan per window
    total, per_scale = oracles.fr_sum_bruteforce(g)
    want = [oracles.min_phi_in_window(g, Fraction(g.m, 2**i), Fraction(g.m, 2**(i - 1)))[0]
            for i in range(1, num_scales(g.m) + 1)]
    assert per_scale == want
    assert total == sum(1 / phi**2 for phi in want if phi is not None)


@pytest.mark.parametrize("mode", ["exact", "local-search"])
def test_witness_is_a_proper_subset(mode):
    # windows that reach vol(V) = 2m admit every proper subset, but not V
    res = fr_bound(build_ring(20, 1), mode=mode,
                   windows=expected_volume_windows(20, 0, 1, 5))
    assert res.profile.entries[0].phi == Fraction(1, 19) and res.total == 491
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=0))
    L = num_scales(g.m)
    res = fr_bound(g, mode=mode, windows=[(g.m, 2 * g.m)] * L)
    assert all(e.phi == Fraction(1, 33) and len(e.witness) < g.n
               for e in res.profile.entries)
    assert res.total == 1089 * L == 6534


@pytest.mark.parametrize("seed", [0, 1])
def test_local_search_upper_bounds_exact(seed):
    g = sample_small_world(GraphSpec(n=14, k=1, c=2, seed=seed))
    exact = fr_bound(g, mode="exact")
    local = fr_bound(g, mode="local-search", seed=5, restarts=16, iterations=300)
    assert not local.certified  # the profile-level flag means exact mode
    for le, ee in zip(local.profile.entries, exact.profile.entries):
        assert le.phi >= ee.phi  # heuristic never beats the true minimum
        if le.certified:
            assert (le.phi, le.witness) == (ee.phi, ee.witness)
        if le.witness is not None:
            assert cut_stats(g, le.witness).phi == le.phi
    assert local.total <= exact.total


def test_fr_bound_size_cap():
    g = build_ring(16, 1)
    res = fr_bound(g, size_cap=3)
    for e in res.profile.entries:
        if e.witness is not None:
            assert len(e.witness) <= 3
        phi, _ = oracles.min_phi_in_window(g, e.vol_lo, e.vol_hi, size_cap=3)
        assert (math.inf if phi is None else phi) == e.phi
    assert res.total == 14  # scale 1 empty; then phi = 1/3, 1/2, 1


def test_fr_bound_window_override():
    g = build_ring(16, 1)
    with pytest.raises(ValueError, match="window"):
        fr_bound(g, windows=[(Fraction(1), Fraction(2))])
    L = num_scales(g.m)
    same = [(Fraction(4), Fraction(8))] * L
    res = fr_bound(g, windows=same)
    phi, _ = oracles.min_phi_in_window(g, 4, 8)
    assert all(e.phi == phi for e in res.profile.entries)
    assert res.total == L / phi**2


def test_scale_profile_csv(tmp_path):
    # the bare ring C17 has both empty and nonempty scales: its last window,
    # [17/32, 17/16], lies below the least degree, 2
    cfg = ExperimentConfig(n_values=(17,), c=0, out=str(tmp_path / "c17"))
    (_, res), = run_conductance(cfg)
    rows = list(csv.reader((tmp_path / "c17.profile.csv").read_text().splitlines()))
    assert rows[0] == ["i", "x", "phi", "volume_lo", "volume_hi", "certified",
                       "witness_size"]
    assert len(rows) == 1 + len(res.profile.entries)
    assert rows[-1][2] == "inf" and rows[-1][6] == ""
    nonempty = [r for r in rows[1:] if r[2] != "inf"]
    assert all(float(r[2]) > 0 for r in nonempty)


# -- the enumeration core's contract ---------------------------------------------


def test_budget_is_the_node_count():
    # Every connected set of at most j vertices (containing v, if given) is one
    # unit of work; the counts were measured with the earlier set-based
    # enumeration, so they pin when the budget runs out.
    for kwargs, j, nodes in (({}, 5, 378), ({"containing": 3}, 5, 145),
                             ({}, 6, 708), ({"containing": 3}, 4, 52)):
        with pytest.raises(EnumerationBudgetError):
            connected_set_counts(H12, j, budget=nodes - 1, **kwargs)
        counts = connected_set_counts(H12, j, budget=nodes, **kwargs)
        assert sum(counts) == nodes
    # exact mode: the sets that the pruned search visits, measured (the full
    # enumeration below the top window's volume visits 557 and 109675); a
    # change that stops the pruning fails here
    for g, nodes in ((H12, 531),
                     (sample_small_world(GraphSpec(n=20, k=1, c=3, seed=1)), 10830)):
        with pytest.raises(EnumerationBudgetError):
            fr_bound(g, budget=nodes - 1)
        assert fr_bound(g, budget=nodes).total == fr_bound(g).total


def test_connected_sets_stream():
    g = complete_graph(12)  # 12 singletons, far more sets overall
    sets = connected_sets(g, 1, budget=5)
    assert next(sets) == (0,)  # yielded before the budget runs out
    with pytest.raises(EnumerationBudgetError):
        list(sets)


@pytest.mark.parametrize("g", [
    build_ring(12, 1), build_ring(10, 2), complete_graph(6),
    *(sample_small_world(GraphSpec(n=11, k=1, c=2, seed=s)) for s in range(3)),
], ids=["C12", "C10k2", "K6", "H11s0", "H11s1", "H11s2"])
def test_exact_witness_is_lex_smallest_minimizer(g):
    for cap in (None, 3):
        for e in fr_bound(g, size_cap=cap).profile.entries:
            phi, witness = oracles.min_phi_in_window(g, e.vol_lo, e.vol_hi, size_cap=cap)
            assert (e.phi, e.witness) == ((math.inf, None) if phi is None else (phi, witness))


def test_pruned_exact_minima_match_brute_force():
    # The pruned search against every connected subset, window by window, on
    # 300 seeded draws of graph, windows and size cap; c = 0 is the bare ring.
    rng = make_rng(11)
    for case in range(300):
        n, k = int(rng.integers(3, 15)), int(rng.integers(1, 3))
        c = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)][rng.integers(4)]
        g = sample_small_world(GraphSpec(n=max(n, 2 * k + 1), k=k, c=c,
                                         seed=int(rng.integers(10**6))))
        L = num_scales(g.m)
        kind = ["dyadic", "expected-volume", "random"][rng.integers(3)]
        windows = None
        if kind == "expected-volume":
            windows = expected_volume_windows(g.n, c, k, L)
        elif kind == "random":  # quarter-integer bounds in [0, 2m + 2]
            quarters = rng.integers(0, 8 * g.m + 9, (L, 2)).tolist()
            windows = [(Fraction(min(q), 4), Fraction(max(q), 4)) for q in quarters]
        size_cap = None if rng.random() < 0.5 else int(rng.integers(1, 15))
        res = fr_bound(g, size_cap=size_cap, windows=windows)
        want = oracles.window_minima(g, [(e.vol_lo, e.vol_hi) for e in res.profile.entries],
                                     size_cap)
        assert [(e.phi, e.witness) for e in res.profile.entries] == [
            (math.inf, None) if phi is None else (phi, witness) for phi, witness in want
        ], (case, g.n, k, c, kind, windows, size_cap)


def test_a_window_with_no_integer_volume_keeps_the_pruning():
    # [40.5, 40.7] holds no volume, so no set, and never gets a best: in place
    # of the smallest window of the seed-1 pool graph, which holds no set
    # either, it leaves the search the 10830 sets of the dyadic windows
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=1))
    windows = [(Fraction(g.m, 2**i), Fraction(2 * g.m, 2**i))
               for i in range(1, num_scales(g.m))] + [(Fraction(81, 2), Fraction(407, 10))]
    with pytest.raises(EnumerationBudgetError):
        fr_bound(g, windows=windows, budget=10829)
    assert fr_bound(g, windows=windows, budget=10830).total == fr_bound(g).total


def test_exact_budget_bounds_each_window():
    # Seed-0 pool graph with the expected-volume windows: the largest window
    # visits 6705 sets, while one enumeration of all windows together needed
    # 9693, so the budget counts each window's enumeration on its own
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=0))
    windows = expected_volume_windows(20, 3, 1, num_scales(g.m))
    with pytest.raises(EnumerationBudgetError):
        fr_bound(g, windows=windows, budget=6704)
    res = fr_bound(g, windows=windows, budget=6705)
    assert res.profile.entries == fr_bound(g, windows=windows).profile.entries


@contextlib.contextmanager
def _annealer_only():
    """Every budgeted enumeration of local search overflows at once, so that
    it anneals every window that some set may fit."""
    exact_minima = conductance._exact_minima
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conductance, "_exact_minima",
                   lambda adj, deg, window, size_cap, budget:
                   exact_minima(adj, deg, window, size_cap, 0))
        yield


def _entry(phi, witness):
    """An oracle's (phi, witness), None for an empty window, as an entry's."""
    return (math.inf, None) if phi is None else (phi, witness)


def _exact_on(g, window, size_cap=None):
    """Exact mode's (phi, witness) on one window, given as every window."""
    res = fr_bound(g, windows=[window] * num_scales(g.m), size_cap=size_cap)
    return res.profile.entries[0].phi, res.profile.entries[0].witness


def _check_local_rule(g, seed, iterations, restarts, size_cap=None, windows=None):
    """Local search against the oracles.  A certified entry is its window's
    exact minimum with the lexicographically smallest witness
    (`oracles.window_minima`, or exact mode on that window alone past the
    subset scan's n <= 20), any other the oracle annealer's result.  With
    every enumeration overflowing, every entry is the oracle annealer's, bit
    for bit, and only the windows with no parity floor are certified."""
    kwargs = dict(mode="local-search", seed=seed, iterations=iterations,
                  restarts=restarts, size_cap=size_cap, windows=windows)
    res = fr_bound(g, **kwargs)
    with _annealer_only():
        annealed = fr_bound(g, **kwargs)
    total, per_scale = oracles.local_search_profile(g, seed, iterations, restarts,
                                                    size_cap=size_cap, windows=windows)
    assert [(e.phi, e.witness) for e in annealed.profile.entries] == [
        _entry(*got) for got in per_scale]
    assert annealed.total == total
    deg = g.degrees.tolist()
    assert [e.certified for e in annealed.profile.entries] == [
        conductance._window_floor(deg, g.ring_k, (e.vol_lo, e.vol_hi)) is None
        for e in annealed.profile.entries]
    entries = res.profile.entries
    sure = [(e.vol_lo, e.vol_hi) for e in entries if e.certified]
    if g.n <= 20:
        exact = [_entry(*got) for got in oracles.window_minima(g, sure, size_cap)]
    else:  # past the subset scan's reach
        exact = [_exact_on(g, window, size_cap) for window in sure]
    exact = iter(exact)
    assert [(e.phi, e.witness) for e in entries] == [
        next(exact) if e.certified else _entry(*got) for e, got in zip(entries, per_scale)]
    assert res.total == sum(1 / e.phi**2 for e in entries if not e.empty)
    assert not res.certified and not annealed.certified


def test_local_search_profile_is_pinned():
    # Pool graph of seed 0 (n=20, c=3), as in criterion 10.  Every window fits
    # the enumeration budget, so the profile is exact mode's, every entry
    # certified.  With the enumeration overflowing, the profile is the
    # annealer's, recorded from the earlier set-based annealer, so any change
    # in its random draws or move rules shows here.
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=0))
    res = fr_bound(g, mode="local-search", seed=derive_seed(1, 0))
    assert [(e.phi, e.witness) for e in res.profile.entries] == [
        (Fraction(4, 17), (0, 1, 2, 3, 4, 5, 13, 18, 19)),
        (Fraction(3, 8), (2, 3, 4, 12, 13)),
        (Fraction(3, 7), (10, 11, 12)),
        (Fraction(1, 2), (11, 12)),
        (Fraction(1), (4,)),
        (math.inf, None),
    ]
    assert all(e.certified for e in res.profile.entries)
    assert res.total == Fraction(5129, 144)
    with _annealer_only():
        res = fr_bound(g, mode="local-search", seed=derive_seed(1, 0))
    assert [(e.phi, e.witness, e.certified) for e in res.profile.entries] == [
        (Fraction(4, 17), (6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17), False),
        (Fraction(3, 8), (4, 5, 6, 10, 11, 12), False),
        (Fraction(3, 7), (10, 11, 12), False),
        (Fraction(1, 2), (11, 12), False),
        (Fraction(1), (4,), False),
        (math.inf, None, True),  # [1, 1] lies below the least degree
    ]
    assert res.total == Fraction(5129, 144)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=5, max_value=16), k=st.sampled_from([1, 2]),
       c=st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)]),
       graph_seed=st.integers(min_value=0, max_value=10**6),
       seed=st.integers(min_value=0, max_value=2**64 - 1),
       iterations=st.sampled_from([0, 1, 40, 499, 500, 650]),
       restarts=st.integers(min_value=1, max_value=5),
       size_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
       data=st.data())
@example(n=20, k=1, c=Fraction(3), graph_seed=0, seed=derive_seed(1, 0),
         iterations=400, restarts=32, size_cap=None, data=None)
def test_local_search_matches_generator_oracle(n, k, c, graph_seed, seed, iterations,
                                               restarts, size_cap, data):
    # the annealer's raw Philox draws against the same annealer on numpy
    # Generators (same profile, witnesses and total), and the enumerated
    # windows against the subset scan
    g = sample_small_world(GraphSpec(n=max(n, 2 * k + 1), k=k, c=c, seed=graph_seed))
    windows = None
    if data is not None and data.draw(st.booleans(), label="custom windows"):
        bound = st.fractions(min_value=Fraction(1, 4), max_value=2 * g.m,
                             max_denominator=8)
        windows = [tuple(sorted(data.draw(st.tuples(bound, bound))))
                   for _ in range(num_scales(g.m))]
    _check_local_rule(g, seed, iterations, restarts, size_cap, windows)


def _untagged(g):
    return UndirectedGraph.from_edges(g.n, g.edge_array())


def _tree_with_shortcuts(g, seed):
    """A random spanning tree on g's vertices plus g's non-ring edges, untagged:
    a connected graph with cuts of 1."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(v)), v) for v in range(1, g.n)}
    edges |= {(u, v) for u, v in g.edge_array().tolist()
              if min(v - u, g.n - v + u) > g.ring_k}
    return UndirectedGraph.from_edges(g.n, sorted(edges))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=5, max_value=12), k=st.sampled_from([1, 2]),
       c=st.sampled_from([0, Fraction(1, 2), Fraction(2), Fraction(4)]),
       graph_seed=st.integers(min_value=0, max_value=10**6),
       shape=st.sampled_from(["ring", "untagged", "tree"]), data=st.data())
@example(n=12, k=1, c=Fraction(2), graph_seed=0, shape="ring", data=None)
@example(n=10, k=2, c=Fraction(0), graph_seed=0, shape="untagged", data=None)
@example(n=9, k=1, c=Fraction(1, 2), graph_seed=0, shape="tree", data=None)
def test_window_floor_bounds_every_connected_set(n, k, c, graph_seed, shape, data):
    g = sample_small_world(GraphSpec(n=max(n, 2 * k + 1), k=k, c=c, seed=graph_seed))
    if shape == "untagged":
        g = _untagged(g)
    elif shape == "tree":
        g = _tree_with_shortcuts(g, graph_seed)
    deg = g.degrees.tolist()
    sets = []  # the proper subsets, as no window admits the whole vertex set
    for s in oracles.all_connected_subsets(g, max_size=g.n - 1):
        mask = sum(1 << v for v in s)
        sets.append((len(s), *oracles.mask_cut_volume(mask, g)))
    # every volume pair up to 2m, in halves, and a few sizes of cap
    if data is None:
        windows = [(Fraction(lo, 2), Fraction(hi, 2))
                   for lo in range(1, 4 * g.m + 1) for hi in range(lo, 4 * g.m + 1)]
        caps = [None, 1, g.n - 1, g.n]
    else:
        bound = st.fractions(min_value=Fraction(1, 4), max_value=2 * g.m + 1,
                             max_denominator=4)
        windows = [tuple(sorted(data.draw(st.tuples(bound, bound)))) for _ in range(40)]
        caps = [data.draw(st.one_of(st.none(), st.integers(1, g.n)), label="cap")]
    for size_cap in caps:
        least = {}  # volume -> least cut of a set within the cap
        for size, cut, vol in sets:
            if size_cap is None or size <= size_cap:
                least[vol] = min(cut, least.get(vol, cut))
        for lo, hi in windows:
            floor = conductance._window_floor(deg, g.ring_k, (lo, hi))
            inside = [Fraction(cut, vol) for vol, cut in least.items() if lo <= vol <= hi]
            if floor is None:
                assert not inside, (lo, hi, size_cap)
            else:
                assert all(phi >= Fraction(*floor) for phi in inside), (lo, hi, size_cap)


@pytest.mark.parametrize("g", [H12, _tree_with_shortcuts(
    sample_small_world(GraphSpec(n=14, k=1, c=2, seed=3)), 3)], ids=["H12", "tree14"])
def test_drop_connectivity_matches_oracle(g):
    # every connected S and every w in S: S - {w} is connected exactly when
    # the neighbours of w in it are joined in it
    adj, nbr = conductance._adjacency_masks(g), oracles.neighbor_masks(g)
    cuts = 0
    for s in oracles.all_connected_subsets(g):
        S = sum(1 << v for v in s)
        for w in s:
            rest = S ^ 1 << w
            touch = adj[w] & rest
            if not rest:
                assert not touch
                continue
            assert touch, "a connected S left a vertex without links"
            got = conductance._joined(adj, rest, touch)
            assert got == oracles.mask_connected(rest, nbr), (s, w)
            cuts += not got
    assert cuts > 0


def test_local_search_skips_what_cannot_improve(monkeypatch):
    # Pool graph of seed 0 (n=20, c=3), as in criterion 10: every window fits
    # the enumeration budget, so nothing is annealed.  With the enumeration
    # overflowing, its last window, [1, 1], below the least degree, is still
    # not annealed, and some windows reach their parity floor.
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=0))
    calls = _spy_anneal(monkeypatch)
    fr_bound(g, mode="local-search", seed=derive_seed(1, 0))
    assert not calls
    with _annealer_only():
        res = fr_bound(g, mode="local-search", seed=derive_seed(1, 0))
    last = res.profile.entries[-1]
    assert (math.ceil(last.vol_lo), math.floor(last.vol_hi)) == (1, 1)
    assert last.empty and (last.vol_lo, last.vol_hi) not in [w for w, _, _ in calls]
    assert 0 < len(calls) < len(res.profile.entries) * 32


@pytest.mark.parametrize("case", ["k2", "expected-volume-capped", "whole-set",
                                  "untagged", "untagged-whole-set", "n96"])
def test_local_search_stopping_keeps_the_oracle_profile(case):
    # n96 anneals on masks wider than one 64-bit word
    n, k, c, iterations, restarts = {
        "k2": (24, 2, 2, 150, 12),
        "n96": (96, 1, Fraction(1, 2), 120, 4),
    }.get(case, (24, 1, 1, 150, 12))
    g = sample_small_world(GraphSpec(n=n, k=k, c=c, seed=7))
    L = num_scales(g.m)
    windows, size_cap = None, None
    if case == "expected-volume-capped":
        windows, size_cap = expected_volume_windows(g.n, c, k, L), 8
    elif case.endswith("whole-set"):
        windows = [(Fraction(g.m, 2**i), Fraction(2 * g.m)) for i in range(1, L + 1)]
    if case.startswith("untagged"):
        g = _untagged(g)
    _check_local_rule(g, derive_seed(3, 7), iterations, restarts, size_cap, windows)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=5, max_value=16), k=st.sampled_from([1, 2]),
       c=st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)]),
       graph_seed=st.integers(min_value=0, max_value=10**6), untagged=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**64 - 1),
       iterations=st.sampled_from([0, 1, 40, 150]),
       restarts=st.integers(min_value=1, max_value=6),
       size_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
       data=st.data())
@example(n=12, k=1, c=Fraction(2), graph_seed=0, untagged=False, seed=0, iterations=150,
         restarts=6, size_cap=None, data=None)
def test_exact_windows_keep_every_annealed_result(n, k, c, graph_seed, untagged, seed,
                                                 iterations, restarts, size_cap, data):
    # the same call with every enumeration overflowing at once: the windows
    # that local search anneals get the same results, bit for bit, and those
    # it enumerates get exact mode's
    g = sample_small_world(GraphSpec(n=max(n, 2 * k + 1), k=k, c=c, seed=graph_seed))
    if untagged:
        g = _untagged(g)
    windows = None
    if data is not None and data.draw(st.booleans(), label="custom windows"):
        bound = st.fractions(min_value=Fraction(1, 4), max_value=2 * g.m,
                             max_denominator=8)
        windows = [tuple(sorted(data.draw(st.tuples(bound, bound))))
                   for _ in range(num_scales(g.m))]
    kwargs = dict(mode="local-search", seed=seed, iterations=iterations,
                  restarts=restarts, size_cap=size_cap, windows=windows)
    res = fr_bound(g, **kwargs)
    with _annealer_only():
        ref = fr_bound(g, **kwargs)
    exact = fr_bound(g, size_cap=size_cap, windows=windows)
    for e, x, a in zip(res.profile.entries, exact.profile.entries, ref.profile.entries):
        want = x if e.certified else a
        assert (e.phi, e.witness) == (want.phi, want.witness), e.i


def _spy_anneal(monkeypatch):
    """Record (window, floor, result) of every `_anneal_once` call."""
    calls = []
    anneal = conductance._anneal_once

    def spied(adj, deg, start, window, size_cap, words, iterations, floor, penalties):
        got = anneal(adj, deg, start, window, size_cap, words, iterations, floor, penalties)
        calls.append((window, floor, got))
        return got

    monkeypatch.setattr(conductance, "_anneal_once", spied)
    return calls


def test_local_search_reports_the_exact_window_minimum(monkeypatch):
    # Pool graph of seed 1 (n=20, c=3), as in criterion 10: every window fits
    # the enumeration budget (the largest since the search prunes), so local
    # search reports exact mode's profile, witnesses included, with every
    # entry certified, and anneals nothing.
    # With a size cap of 1 the two largest windows hold no set, though their
    # parity floors admit one: their enumeration certifies them empty.
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=1))
    calls = _spy_anneal(monkeypatch)
    deg = g.degrees.tolist()
    for size_cap in (None, 1):
        exact = fr_bound(g, size_cap=size_cap)
        res = fr_bound(g, mode="local-search", seed=derive_seed(1, 1), size_cap=size_cap)
        assert [(e.phi, e.witness) for e in res.profile.entries] == [
            (e.phi, e.witness) for e in exact.profile.entries]
        assert res.total == exact.total
        assert all(e.certified for e in res.profile.entries)
        unfit = sum(e.empty and conductance._window_floor(
            deg, g.ring_k, (e.vol_lo, e.vol_hi)) is not None for e in res.profile.entries)
        assert unfit == (0 if size_cap is None else 2)
    assert not calls


def test_exact_floors_are_tried_in_ascending_order(monkeypatch):
    # n=40, c=2: the windows up to [8.25, 16.5] fit the budget, [16.5, 33]
    # overflows it, and [33, 66] is not tried
    g = sample_small_world(GraphSpec(n=40, k=1, c=2, seed=0))
    tried = []
    exact_minima = conductance._exact_minima

    def spied(adj, deg, window, size_cap, budget):
        tried.append([window, budget, "overflow"])
        tried[-1][2] = got = exact_minima(adj, deg, window, size_cap, budget)
        return got

    monkeypatch.setattr(conductance, "_exact_minima", spied)
    res = fr_bound(g, mode="local-search", seed=0)
    uppers = [window[1] for window, _, _ in tried]
    assert uppers == sorted(uppers)
    assert all(budget == 32 * 400 for _, budget, _ in tried)
    outcomes = [got for _, _, got in tried]
    assert outcomes[-1] == "overflow" and "overflow" not in outcomes[:-1]
    assert max(e.vol_hi for e in res.profile.entries) > uppers[-1]
    # with no iterations there is no budget: the first enumeration stops at
    # once, and every window anneals on its parity floor
    tried.clear()
    calls = _spy_anneal(monkeypatch)
    fr_bound(g, mode="local-search", seed=0, iterations=0)
    assert [(budget, got) for _, budget, got in tried] == [(0, "overflow")]
    deg = g.degrees.tolist()
    assert calls and all(floor == conductance._window_floor(deg, g.ring_k, window)
                         for window, floor, _ in calls)


def test_certified_windows_are_the_enumerated_prefix(monkeypatch):
    # n=40, c=2, as above: the windows that enumerate in ascending order of
    # upper bound before the first overflow are certified with exact mode's
    # minimum, and so is [0.52, 1.03], which no set fits; only the others are
    # annealed
    g = sample_small_world(GraphSpec(n=40, k=1, c=2, seed=0))
    done = []
    exact_minima = conductance._exact_minima

    def spied(adj, deg, window, size_cap, budget):
        got = exact_minima(adj, deg, window, size_cap, budget)
        done.append(window)  # not reached on an overflow
        return got

    monkeypatch.setattr(conductance, "_exact_minima", spied)
    calls = _spy_anneal(monkeypatch)
    res = fr_bound(g, mode="local-search", seed=0)
    deg = g.degrees.tolist()
    entries = res.profile.entries
    windows = [(e.vol_lo, e.vol_hi) for e in entries]
    unfit = [conductance._window_floor(deg, g.ring_k, w) is None for w in windows]
    ascending = sorted((w for w, no in zip(windows, unfit) if not no), key=lambda w: w[1])
    assert 0 < len(done) < len(ascending) and done == ascending[:len(done)]
    assert any(unfit)
    assert [e.certified for e in entries] == [w in done or no
                                              for w, no in zip(windows, unfit)]
    assert {w for w, _, _ in calls} == {w for w, e in zip(windows, entries)
                                        if not e.certified}
    monkeypatch.undo()
    for w, e in zip(windows, entries):
        if e.certified:
            assert (e.phi, e.witness) == _exact_on(g, w)


def test_a_profile_of_certified_windows_is_not_certified():
    # the profile-level flag means exact mode, even when every window of a
    # local search is exact (pool graph of seed 0, n=20, c=3)
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=0))
    res = fr_bound(g, mode="local-search", seed=derive_seed(1, 0))
    assert all(e.certified for e in res.profile.entries)
    assert res.certified is False
    payload = json.loads(res.to_json())
    assert payload["certified"] is False
    assert all(scale["certified"] is True for scale in payload["scales"])


def test_local_search_reports_exact_minima_the_annealer_misses():
    # The benchmark's n=64, c=1/2 conductance graph of seed 7919: 32 restarts
    # on [9.5, 19] and on [19, 38] reached 1/7 and 5/37 only, while their
    # enumerations fit the budget and find 1/9 and 1/11
    cfg = ExperimentConfig(n_values=(64,), k=1, c=Fraction(1, 2),
                           master_seed=derive_seed(7919, 9), mode="auto")
    (_, res), = run_conductance(cfg)
    entries = res.profile.entries
    assert [(e.phi, e.certified) for e in entries[1:3]] == [
        (Fraction(1, 11), True), (Fraction(1, 9), True)]
    assert not entries[0].certified and all(e.certified for e in entries[1:])
    assert res.total == Fraction(1253, 4)
    g = sample_small_world(GraphSpec(n=64, k=1, c=Fraction(1, 2),
                                     seed=derive_seed(cfg.master_seed, 64, 0)))
    for e in entries[1:3]:
        assert (e.phi, e.witness) == _exact_on(g, (e.vol_lo, e.vol_hi))


def test_local_search_rejects_bad_parameters():
    g = build_ring(12, 1)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            fr_bound(g, mode="local-search", restarts=restarts)
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        fr_bound(g, mode="local-search", iterations=-5)
    fr_bound(g, mode="local-search", restarts=1, iterations=0)


def test_fr_bound_rejects_size_cap_below_one():
    g = build_ring(12, 1)
    for mode in ("exact", "local-search"):
        for size_cap in (0, -1):
            with pytest.raises(ValueError, match="size_cap must be >= 1"):
                fr_bound(g, mode=mode, size_cap=size_cap)
        assert all(len(e.witness) == 1
                   for e in fr_bound(g, mode=mode, size_cap=1).profile.entries
                   if e.witness is not None)


@pytest.mark.parametrize("mode", ["exact", "local-search"])
def test_fr_bound_rejects_a_graph_with_no_edges(mode):
    # one vertex and no edge: connected, but with no volume to split in scales
    lone = UndirectedGraph.from_edges(1, np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="the graph has no edges"):
        fr_bound(lone, mode=mode)


def test_fr_bound_local_search_seed_must_be_an_integer():
    # a float seed is refused, not run as its integer part
    with pytest.raises(ValueError, match="seed must be an integer"):
        fr_bound(build_ring(12, 1), mode="local-search", seed=2.5)


def test_fr_bound_takes_int_and_float_windows():
    L = num_scales(H12.m)
    halves = [(Fraction(2 * i + 3, 2), Fraction(4 * i + 6)) for i in range(L)]
    wholes = [(Fraction(i + 1), Fraction(4 * i + 6)) for i in range(L)]
    for mode in ("exact", "local-search"):
        for windows, same in ((halves, [(float(lo), float(hi)) for lo, hi in halves]),
                              (wholes, [(int(lo), int(hi)) for lo, hi in wholes])):
            want, got = (fr_bound(H12, mode=mode, windows=w) for w in (windows, same))
            assert got.total == want.total
            assert got.profile.entries == want.profile.entries


@pytest.mark.parametrize("mode", ["exact", "local-search"])
def test_fr_bound_rejects_inverted_windows(mode):
    g = build_ring(12, 1)
    L = num_scales(g.m)
    with pytest.raises(ValueError, match=r"window 1 is inverted: .* 10 > .* 1$"):
        fr_bound(g, mode=mode, windows=[(10, 1)] * L)
    windows = [(1, 2), (3, 3), (5, 4.5)] + [(1, 2)] * (L - 3)
    with pytest.raises(ValueError, match=r"window 3 is inverted: .* 5 > .* 9/2$"):
        fr_bound(g, mode=mode, windows=windows)


@pytest.mark.parametrize("mode", ["exact", "local-search"])
def test_fr_bound_rejects_bounds_that_are_not_finite_numbers(mode):
    g = build_ring(12, 1)
    L = num_scales(g.m)
    for bad in (math.inf, -math.inf, math.nan, np.float64(math.inf), "1/2", "2", None):
        for windows, i in (([(bad, 2)] + [(1, 2)] * (L - 1), 1),
                           ([(1, 2), (3, bad)] + [(1, 2)] * (L - 2), 2)):
            with pytest.raises(ValueError, match=f"^window {i} has bound "):
                fr_bound(g, mode=mode, windows=windows)
    # numpy scalars are numbers, taken exactly
    want = fr_bound(g, mode=mode, windows=[(Fraction(7, 2), 8)] * L)
    got = fr_bound(g, mode=mode, windows=[(np.float64(3.5), np.int64(8))] * L)
    assert got.profile.entries == want.profile.entries


def test_anneal_picks_reject_as_numpy_does(monkeypatch):
    # A real stream almost never rejects a pick, (2**32 mod k) / 2**32 <
    # 2**-26 for k <= 64, so the words are crafted: a zero low half rejects
    # every k that is not a power of two (2**32 mod 3 = 1), and a zero word
    # rejects again from its waiting high half.  The annealer must agree
    # with the oracle's annealer drawing by numpy's rules from the same words.
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=0))
    adj, deg = conductance._adjacency_masks(g), g.degrees.tolist()
    nbr = oracles.neighbor_masks(g)
    words = philox(5).random_raw(8000).tolist()
    for i in range(0, len(words), 5):
        words[i] &= ~0xFFFFFFFF
    for i in range(3, len(words), 11):
        words[i] = 0
    rejected = []
    repick = conductance._repick

    def counted(word, k, m, high):
        if m & 0xFFFFFFFF < (1 << 32) % k:
            rejected.append(k)
        return repick(word, k, m, high)

    monkeypatch.setattr(conductance, "_repick", counted)
    unmet = (-1, 1)  # a floor no set meets, so every run goes to the end
    windows = [(Fraction(g.m, 4), Fraction(g.m, 2)), (Fraction(g.m, 2), Fraction(g.m)),
               (Fraction(1), Fraction(8))]
    for window in windows:
        for size_cap in (None, 4):
            penalties = conductance._window_penalties(deg, window, size_cap)
            for start in (0, 7):
                got = conductance._anneal_once(adj, deg, start, window, size_cap,
                                               iter(words), 400, unmet, penalties)
                want = oracles.anneal_once(nbr, deg, start, window, size_cap,
                                           oracles.WordDraws(words), 400)
                assert got == want, (window, size_cap, start)
    assert 3 in rejected and len(set(rejected)) > 3


@pytest.mark.parametrize("g", [build_ring(9, 1), build_ring(11, 2), H12,
                               complete_graph(7),
                               sample_small_world(GraphSpec(n=16, k=1, c=3, seed=4))],
                         ids=["C9", "C11^2", "H12", "K7", "H16"])
def test_connected_set_counts_match_single_counts(g):
    for containing in (None, 0, g.n - 1):
        for j_max in (1, 3, min(6, g.n)):
            counts = connected_set_counts(g, j_max, containing=containing)
            assert counts == [len(list(connected_sets(g, j, containing)))
                              for j in range(1, j_max + 1)]
            # the budget covers every set of at most j_max vertices, no fewer
            total = sum(counts)
            connected_set_counts(g, j_max, containing=containing, budget=total)
            with pytest.raises(EnumerationBudgetError):
                connected_set_counts(g, j_max, containing=containing, budget=total - 1)
    with pytest.raises(ValueError, match="size j"):
        connected_set_counts(g, g.n + 1)
    with pytest.raises(ValueError, match="size j"):
        connected_set_counts(g, 0)
