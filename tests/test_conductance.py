import csv
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwmix import (
    EnumerationBudgetError,
    GraphSpec,
    UndirectedGraph,
    build_ring,
    complete_graph,
    connected_sets,
    count_connected_sets,
    cut_stats,
    fr_bound,
    num_scales,
    phi_at_scale,
    sample_small_world,
)

from nwmix.rng import derive_seed

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
    with pytest.raises(ValueError, match="outside"):
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
    for j in range(1, g.n + 1):
        got = list(connected_sets(g, j))
        assert len(got) == len(set(got)), "a set was produced twice"
        assert {frozenset(s) for s in got} == by_size.get(j, set())
        assert count_connected_sets(g, j) == len(got)


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
        assert count_connected_sets(g, j, containing=v) == len(expected)


def test_connected_sets_validation():
    g = build_ring(8, 1)
    with pytest.raises(ValueError, match="size j"):
        list(connected_sets(g, 0))
    with pytest.raises(ValueError, match="size j"):
        list(connected_sets(g, 9))
    with pytest.raises(ValueError, match="containing"):
        list(connected_sets(g, 2, containing=8))
    with pytest.raises(ValueError, match="containing"):
        count_connected_sets(g, 2, containing=-1)


def test_enumeration_budget():
    g = complete_graph(10)
    with pytest.raises(EnumerationBudgetError):
        count_connected_sets(g, 10, budget=100)
    # generous budget succeeds: 2^10 - 1 nonempty subsets, all connected
    assert sum(count_connected_sets(g, j) for j in range(1, 11)) == 2**10 - 1


def test_num_scales():
    assert num_scales(2) == 1
    assert num_scales(16) == 4
    assert num_scales(17) == 5
    assert num_scales(1) == 1


def test_phi_at_scale_exact_on_cycle():
    g = build_ring(16, 1)
    top = phi_at_scale(g, Fraction(1, 2))
    assert top.phi == Fraction(1, 8) and len(top.witness) == 8
    assert top.certified and not top.empty
    small = phi_at_scale(g, Fraction(1, 16))
    assert small.phi == 1  # window [1, 2] admits only singletons
    assert len(small.witness) == 1
    empty = phi_at_scale(g, Fraction(1, 64))
    assert empty.empty and empty.phi == math.inf and empty.witness is None


def test_phi_at_scale_validation():
    g = build_ring(8, 1)
    with pytest.raises(ValueError, match="scale x"):
        phi_at_scale(g, Fraction(3, 4))
    with pytest.raises(ValueError, match="scale x"):
        phi_at_scale(g, 0)
    with pytest.raises(ValueError, match="mode"):
        phi_at_scale(g, Fraction(1, 2), mode="psychic")
    disconnected = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        phi_at_scale(disconnected, Fraction(1, 2))


def test_phi_witness_consistency():
    entry = phi_at_scale(H12, Fraction(1, 4), scale_index=2)
    assert entry.i == 2
    got = cut_stats(H12, entry.witness)
    assert got.phi == entry.phi
    assert entry.vol_lo <= got.volume <= entry.vol_hi
    phi, _ = oracles.min_phi_in_window(H12, entry.vol_lo, entry.vol_hi)
    assert entry.phi == phi


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


@pytest.mark.parametrize("seed", [0, 1])
def test_local_search_upper_bounds_exact(seed):
    g = sample_small_world(GraphSpec(n=14, k=1, c=2, seed=seed))
    exact = fr_bound(g, mode="exact")
    local = fr_bound(g, mode="local-search", seed=5, restarts=16, iterations=300)
    assert not local.certified and all(not e.certified for e in local.profile.entries)
    for le, ee in zip(local.profile.entries, exact.profile.entries):
        assert le.phi >= ee.phi  # heuristic never beats the true minimum
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
    g = build_ring(16, 1)
    res = fr_bound(g, size_cap=3)  # has both empty and nonempty scales
    path = tmp_path / "profile.csv"
    res.profile.write_csv(path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["i", "x", "phi", "volume_lo", "volume_hi", "certified",
                       "witness_size"]
    assert len(rows) == 1 + len(res.profile.entries)
    assert rows[1][2] == "inf" and rows[1][6] == ""
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
            count_connected_sets(H12, j, budget=nodes - 1, **kwargs)
        count_connected_sets(H12, j, budget=nodes, **kwargs)
    # exact mode: every connected set below the top window's volume, plus roots
    with pytest.raises(EnumerationBudgetError):
        fr_bound(H12, budget=556)
    assert fr_bound(H12, budget=557).total == fr_bound(H12).total


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


def test_local_search_profile_is_pinned():
    # Pool graph of seed 0 (n=20, c=3), as in criterion 10; the profile was
    # recorded from the earlier set-based annealer, so any change in the
    # annealer's random draws or move rules shows here.
    g = sample_small_world(GraphSpec(n=20, k=1, c=3, seed=0))
    res = fr_bound(g, mode="local-search", seed=derive_seed(1, 0))
    assert [(e.phi, e.witness) for e in res.profile.entries] == [
        (Fraction(4, 17), (6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17)),
        (Fraction(3, 8), (4, 5, 6, 10, 11, 12)),
        (Fraction(3, 7), (10, 11, 12)),
        (Fraction(1, 2), (11, 12)),
        (Fraction(1), (4,)),
        (math.inf, None),
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
    # Generators: same profile, witnesses and total
    g = sample_small_world(GraphSpec(n=max(n, 2 * k + 1), k=k, c=c, seed=graph_seed))
    windows = None
    if data is not None and data.draw(st.booleans(), label="custom windows"):
        bound = st.fractions(min_value=Fraction(1, 4), max_value=2 * g.m,
                             max_denominator=8)
        windows = [tuple(sorted(data.draw(st.tuples(bound, bound))))
                   for _ in range(num_scales(g.m))]
    res = fr_bound(g, mode="local-search", seed=seed, iterations=iterations,
                   restarts=restarts, size_cap=size_cap, windows=windows)
    total, per_scale = oracles.local_search_profile(g, seed, iterations, restarts,
                                                    size_cap=size_cap, windows=windows)
    assert [(e.phi, e.witness) for e in res.profile.entries] == [
        (math.inf, None) if phi is None else (phi, witness) for phi, witness in per_scale
    ]
    assert res.total == total
