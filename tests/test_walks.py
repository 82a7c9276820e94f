import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwmix import (
    EscapeResult,
    GraphSpec,
    LazyKernel,
    MixingResult,
    UndirectedGraph,
    WalkError,
    build_ring,
    complete_graph,
    escape_time,
    mixing_time,
    point_mass,
    quiet_arc,
    sample_small_world,
    sample_starts,
    stationary,
    tv_distance,
    validate_distribution,
)
from nwmix import walks
from nwmix.experiments import ExperimentConfig, build_graph, scaling_starts
from nwmix.rng import thread_philox
from nwmix.walks import _region_plan, _shared_offsets, _tv_columns

import oracles


def test_stationary_ring_uniform():
    g = build_ring(10, 1)
    pi = stationary(g)
    assert np.allclose(pi, 0.1)
    assert math.isclose(float(pi.sum()), 1.0)


def test_stationary_proportional_to_degree():
    from nwmix import UndirectedGraph

    g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    pi = stationary(g)
    assert np.allclose(pi, np.array([1, 3, 2, 2]) / 8)
    disconnected = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(WalkError, match="connected"):
        stationary(disconnected)


def test_kernel_matches_dense_oracle():
    for g in (build_ring(9, 2), complete_graph(5)):
        P = LazyKernel(g)._PT.T.toarray()
        assert np.allclose(P, oracles.dense_kernel(g))
        assert np.allclose(P.sum(axis=1), 1.0)
        assert np.all(np.diag(P) >= 0.5)


def test_step_preserves_mass_and_matches_exact():
    g = build_ring(12, 1)
    kernel = LazyKernel(g)
    mu = point_mass(12, 3)
    for _ in range(5):
        mu = kernel.step(mu)
    assert math.isclose(float(mu.sum()), 1.0)
    P = oracles.exact_kernel(g)
    nu = [Fraction(int(v == 3)) for v in range(12)]
    for _ in range(5):
        nu = [sum(nu[w] * P[w][v] for w in range(12)) for v in range(12)]
    assert sum(nu) == 1
    assert np.allclose(mu, [float(q) for q in nu])


def test_distribution_validation():
    with pytest.raises(WalkError, match="negative"):
        validate_distribution(np.array([1.5, -0.5]))
    with pytest.raises(WalkError, match="1-d"):
        validate_distribution(np.eye(2))
    with pytest.raises(WalkError, match="drifted"):
        validate_distribution(np.array([0.6, 0.6]))
    kernel = LazyKernel(build_ring(4, 1))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(WalkError, match="non-finite"):
            validate_distribution(np.array([bad, 1.0]))
        with pytest.raises(WalkError, match="non-finite"):
            kernel.step(np.array([bad, 1.0, 0.0, 0.0]))


def test_point_mass_checks_its_vertex():
    assert point_mass(5, 4).tolist() == [0, 0, 0, 0, 1]
    assert point_mass(5, np.int64(0)).tolist() == [1, 0, 0, 0, 0]
    for bad in (-1, 5):
        with pytest.raises(WalkError, match="out of range"):
            point_mass(5, bad)
    for bad in (2.0, "2", None):
        with pytest.raises(WalkError, match="must be an integer"):
            point_mass(5, bad)


def test_tv_distance_values():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.5, 0.5], [0.75, 0.25]) == 0.25
    with pytest.raises(WalkError, match="mismatch"):
        tv_distance([1.0], [0.5, 0.5])
    # only 1-d distributions: these were flattened, to 0.5 and 0.125
    for mu, nu in ((np.eye(2) / 2, np.full((2, 2), 0.25)), (0.5, 0.25)):
        with pytest.raises(WalkError, match="1-d"):
            tv_distance(mu, nu)


@pytest.mark.parametrize(
    "g",
    [
        build_ring(4, 1),
        build_ring(7, 1),
        build_ring(12, 1),
        build_ring(9, 2),
        complete_graph(5),
        sample_small_world(GraphSpec(n=12, k=1, c=2, seed=0)),
        sample_small_world(GraphSpec(n=12, k=1, c=2, seed=1)),
    ],
    ids=["C4", "C7", "C12", "ring9k2", "K5", "H12a", "H12b"],
)
def test_mixing_time_against_oracles(g):
    res = mixing_time(g, starts="all")
    tau, per = oracles.dense_mixing_time(g)
    assert res.tau == tau
    assert res.per_start == per
    assert not res.censored and res.mode == "exact-all-starts"
    tau_q, per_q = oracles.exact_mixing_time(g)
    assert (res.tau, res.per_start) == (tau_q, per_q)


def test_mixing_start_modes():
    g = build_ring(16, 1)
    full = mixing_time(g, starts="all")
    some = mixing_time(g, starts=[0, 5])
    assert some.mode == "sampled-starts"
    assert some.starts == [0, 5]
    assert some.tau <= full.tau  # sampled starts lower-bound the true tau
    sampled = mixing_time(g, starts=sample_starts(16, 4, 99))
    assert sampled.mode == "sampled-starts" and len(sampled.starts) == 4
    everyone = mixing_time(g, starts=list(range(16)))
    assert everyone.mode == "exact-all-starts" and everyone.tau == full.tau
    with pytest.raises(WalkError, match="start vertex 16 out of range for n = 16"):
        mixing_time(g, starts=[16])


def _no_kernel(*args, **kwargs):
    raise AssertionError("the walk kernel was built")


def test_mixing_rejects_a_disconnected_graph(monkeypatch):
    monkeypatch.setattr(walks, "LazyKernel", _no_kernel)
    g = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(WalkError, match="mixing time requires a connected graph"):
        mixing_time(g, starts="all")


def test_mixing_rejects_no_starts_before_building_the_kernel(monkeypatch):
    monkeypatch.setattr(walks, "LazyKernel", _no_kernel)
    g = build_ring(16, 1)
    with pytest.raises(WalkError, match="no start vertices"):
        mixing_time(g, starts=[])


def test_mixing_rejects_starts_that_are_not_integers():
    g = build_ring(16, 1)
    for bad in (1.5, 1.0, np.float64(3.0), "2", None):
        with pytest.raises(WalkError, match="must be an integer"):
            mixing_time(g, starts=[0, bad])
    # numpy integers are vertices
    ints = mixing_time(g, starts=np.array([1, 9], dtype=np.int32))
    assert ints.starts == [1, 9] and all(type(v) is int for v in ints.starts)
    assert ints.per_start == mixing_time(g, starts=[1, 9]).per_start


def test_mixing_mode_counts_distinct_starts():
    g = build_ring(30, 1)
    repeated = mixing_time(g, starts=[0] * 30)
    assert repeated.mode == "sampled-starts"
    assert repeated.per_start == [repeated.tau] * 30
    shuffled = mixing_time(g, starts=[*range(29, -1, -1), 0])
    assert shuffled.mode == "exact-all-starts"
    assert shuffled.tau == mixing_time(g).tau


def test_sample_starts_rejects_a_negative_count():
    for size in (-1, -100):
        with pytest.raises(WalkError, match="start count must be >= 0"):
            sample_starts(100, size, 7)
    assert sample_starts(100, 0, 7) == []


def test_mixing_censoring_and_json():
    g = build_ring(64, 1)
    res = mixing_time(g, starts="all", cap=3)
    assert res.censored and res.tau is None
    assert all(t is None for t in res.per_start)
    payload = json.loads(res.to_json())
    assert payload["tau"] is None and payload["censored"] is True
    assert payload["cap"] == 3 and payload["n"] == 64
    with pytest.raises(WalkError, match="cap"):
        mixing_time(g, cap=0)


def test_mixing_threshold_override():
    g = build_ring(8, 1)
    res = mixing_time(g, starts="all", threshold=1.0)
    assert res.tau == 0
    loose = mixing_time(g, starts="all", threshold=0.5)
    strict = mixing_time(g, starts="all", threshold=0.25)
    assert loose.tau <= strict.tau


def test_mixing_rejects_a_threshold_no_tv_can_meet(monkeypatch):
    g = build_ring(8, 1)
    with monkeypatch.context() as m:
        # rejected before the kernel is built
        m.setattr(walks, "LazyKernel", _no_loop)
        for bad in (0, 0.0, -1, float("nan"), float("-inf")):
            with pytest.raises(WalkError, match="threshold must be > 0"):
                mixing_time(g, threshold=bad)
    assert mixing_time(g, threshold=2.0).tau == 0


def test_sample_starts_deterministic():
    a = sample_starts(100, 10, 7)
    assert a == sample_starts(100, 10, 7)
    assert a == sorted(set(a)) and all(0 <= v < 100 for v in a)
    assert sample_starts(5, 10, 0) == [0, 1, 2, 3, 4]


def test_escape_time():
    g = build_ring(16, 1)
    with pytest.raises(WalkError, match="inside"):
        escape_time(g, start=5, region=[0, 1], seed=0)
    # a negative start or region vertex must not wrap around to the end
    with pytest.raises(WalkError, match="start vertex -1 out of range for n = 16"):
        escape_time(g, -1, [15, 0, 14], seed=0)
    with pytest.raises(WalkError, match="region vertex 16 out of range for n = 16"):
        escape_time(g, 0, [0, 16], seed=0)
    with pytest.raises(WalkError, match="region vertex -1 out of range for n = 16"):
        escape_time(g, 0, [-1, 0], seed=0)
    # a fractional region vertex is an error, not a truncated vertex
    for bad in ([0, 1.5], np.array([15.0, 0.0, 1.0]), ["0", "1"]):
        with pytest.raises(WalkError, match="region vertices must be integers"):
            escape_time(g, 0, bad, seed=0)
    ring30 = build_ring(30, 1)
    with pytest.raises(WalkError, match="region vertices must be integers"):
        escape_time(ring30, 10, [9.5, 10.2, 11.9], seed=0)
    # integer arrays of any width walk the same region
    want = escape_time(ring30, 10, [9, 10, 11], seed=0)
    for ints in (np.array([9, 10, 11], dtype=np.int32), np.arange(9, 12, dtype=np.uint16)):
        assert escape_time(ring30, 10, ints, seed=0) == want
    # whole graph: nothing to escape to
    res = escape_time(g, 0, range(16), seed=0, cap=50)
    assert res.censored and res.steps == 50
    # singleton region: leaves with probability 1/2 per step
    times = [escape_time(g, 0, [0], seed=s, cap=10_000).steps for s in range(400)]
    assert not any(t <= 0 for t in times)
    mean = sum(times) / len(times)
    se = math.sqrt(2.0 / len(times))  # Geometric(1/2) variance = 2
    assert abs(mean - 2.0) < 4 * se


def test_escape_time_rejects_non_integer_start():
    # a float start is an error, as in mixing_time, not a truncated vertex
    # nor one outside the region
    g = build_ring(30, 1)
    for bad in (10.0, 10.5, "3"):
        with pytest.raises(WalkError, match="start vertex must be an integer"):
            escape_time(g, bad, range(8, 13), seed=0)
    want = escape_time(g, 10, range(8, 13), seed=0)
    assert escape_time(g, np.int64(10), range(8, 13), seed=0) == want
    # nor is a float seed truncated, on the ring path or the move loop
    for region in (range(8, 13), [8, 9, 10, 11, 12, 0]):
        with pytest.raises(ValueError, match="seed must be an integer"):
            escape_time(g, 10, region, seed=3.7)


def test_mixing_result_is_dataclass():
    res = MixingResult(
        n=2, tau=0, mode="exact-all-starts", starts=[0, 1],
        per_start=[0, 0], cap=10, censored=False,
    )
    assert json.loads(res.to_json())["mode"] == "exact-all-starts"


def test_sampled_starts_match_single_start_runs():
    # the starts mix at different steps, so the batched run drops columns from
    # its block at several steps, and in an order unlike the start order
    g = sample_small_world(GraphSpec(n=300, k=1, c=Fraction(1, 2), seed=3))
    res = mixing_time(g, starts=sample_starts(300, 12, 5))
    single = [mixing_time(g, starts=[x]).per_start[0] for x in res.starts]
    assert res.per_start == single
    assert len(set(single)) >= 4
    assert single != sorted(single) and single != sorted(single, reverse=True)


def _small_world(n, c, seed):
    return sample_small_world(GraphSpec(n=n, k=1, c=Fraction(c), seed=seed))


# at c = 2 TV can fall by more than walks._KEEP within one stride, so some
# replays start from a start vertex rather than from a checkpoint's copy
_STEPWISE_GRAPHS = [(64, "1/2", 0), (150, "1/4", 1), (128, "2", 2), (300, "2", 3)]


@pytest.mark.parametrize("spec", _STEPWISE_GRAPHS, ids=lambda s: f"n{s[0]}-c{s[1]}")
@pytest.mark.parametrize("threshold", [0.5, 0.25, 0.01])
def test_strided_search_matches_the_stepwise_oracle(spec, threshold):
    g = _small_world(*spec)
    want = oracles.stepwise_per_start(g, list(range(g.n)), 10**6, threshold)
    assert mixing_time(g, threshold=threshold).per_start == want


@pytest.mark.parametrize("cap", [1, 7, 8, 9, "tau-1", "tau"])
def test_strided_search_matches_the_stepwise_oracle_at_caps(cap):
    g = _small_world(300, "1/2", 4)
    starts = list(range(g.n))
    tau = max(oracles.stepwise_per_start(g, starts, 10**6, 0.25))
    cap = {"tau-1": tau - 1, "tau": tau}.get(cap, cap)
    res = mixing_time(g, cap=cap)
    assert res.per_start == oracles.stepwise_per_start(g, starts, cap, 0.25)
    assert res.censored == (cap < tau)


def test_strided_search_matches_the_stepwise_oracle_on_scaling_starts():
    cfg = ExperimentConfig(n_values=(4096,), c=Fraction(1, 2), reps=1)
    g = build_graph(cfg, 4096, 0)
    starts = scaling_starts(cfg, g, 0)
    want = oracles.stepwise_per_start(g, starts, 10**6, 0.25)
    assert mixing_time(g, starts=starts).per_start == want


def test_strided_search_matches_the_stepwise_oracle_on_lone_columns():
    g = _small_world(300, "1/2", 5)
    one = [17]
    assert mixing_time(g, starts=one).per_start == \
        oracles.stepwise_per_start(g, one, 10**6, 0.25)
    # a threshold between the step-0 TVs 1 - pi(x) of a hub and a leaf: the
    # hub mixes at once and the leaf's column is left alone in the block
    hub, leaf = int(g.degrees.argmax()), int(g.degrees.argmin())
    pi = stationary(g)
    threshold = 1 - (pi[hub] + pi[leaf]) / 2
    res = mixing_time(g, starts=[hub, leaf], threshold=threshold)
    assert res.per_start[0] == 0 and res.per_start[1] > 0
    want = oracles.stepwise_per_start(g, [hub, leaf], 10**6, threshold)
    assert res.per_start == want


@pytest.fixture(scope="module")
def tv_sums():
    """A graph and its starts' TV at steps 0..160, as rows of starts, summed
    as numpy sums a lone column (pairwise) and as `_tv_columns` sums every
    column (rows in order)."""
    g = _small_world(120, "1/2", 7)
    pt, pi = LazyKernel(g)._PT, stationary(g)[:, None]
    X = np.eye(g.n)
    lone, block = np.empty((2, 161, g.n))
    for t in range(161):
        block[t] = 0.5 * np.abs(X - pi).sum(axis=0)
        lone[t] = [0.5 * np.abs(X[:, [j]] - pi).sum() for j in range(g.n)]
        X = pt @ X
    return g, lone, block


def _first_at_most(tv, threshold):
    return int(np.argmax(tv <= threshold))


def _tie(g, starts, threshold, want):
    assert oracles.stepwise_per_start(g, starts, 10**6, threshold) == want
    assert mixing_time(g, starts=starts, threshold=threshold).per_start == want


# Thresholds equal to one of the two sums of a TV, where they differ, so a
# search that sums in the other order finds another step.
def test_a_starts_mixing_step_does_not_depend_on_its_company(tv_sums):
    # x's pairwise TV ties the threshold at t and its in-order TV is higher,
    # so a lone x summed pairwise would mix at t, and in company later
    g, lone, block = tv_sums
    x = 0
    t = next(t for t in range(1, 161) if block[t, x] > lone[t, x])
    threshold = lone[t, x]
    steps = [_first_at_most(block[:, v], threshold) for v in range(g.n)]
    slow = int(np.argmax(steps))
    assert steps[x] > t and steps[slow] > steps[x] + 8
    alone = mixing_time(g, [x], threshold=threshold).per_start
    both = mixing_time(g, [x, slow], threshold=threshold).per_start
    assert alone == both[:1] == [steps[x]]
    assert both[1] == steps[slow]


def test_tv_distance_sums_as_the_blocks_columns():
    g = _small_world(3000, "1/2", 8)
    pt, pi = LazyKernel(g)._PT, stationary(g)
    X = np.zeros((g.n, 9))
    X[sample_starts(g.n, 9, 2), np.arange(9)] = 1.0
    for _ in range(120):
        tv = _tv_columns(X, pi[:, None])
        for j in range(9):
            assert tv_distance(X[:, j], pi) == tv[j]
            assert _tv_columns(X[:, [j]], pi[:, None])[0] == tv[j]
        X = pt @ X


def test_strided_search_sums_a_lone_replay_with_others_in_a_block(tv_sums):
    g, lone, block = tv_sums
    slow = int(np.argmax([_first_at_most(block[:, a], 0.25) for a in range(g.n)]))
    fast = int(np.argmin([_first_at_most(block[:, b], 0.25) for b in range(g.n)]))
    # the slow start is far above the threshold at the next checkpoint, so
    # the fast one leaves the block alone while the slow one is still active
    t = next(t for t in range(1, 161) if lone[t, fast] > block[t, fast]
             and block[-(-t // 8) * 8, slow] > block[t, fast] + 1e-3)
    threshold = block[t, fast]
    _tie(g, [fast, slow], threshold, [t, _first_at_most(block[:, slow], threshold)])


def test_strided_search_replays_a_column_within_the_guard(tv_sums):
    # b's TV ties the threshold at checkpoint c, after a mixed in the
    # stride before c
    g, lone, block = tv_sums
    for c, b in itertools.product(range(8, 161, 8), range(g.n)):
        threshold = block[c, b]
        if block[c - 1, b] > threshold + 1e-6:
            steps = [_first_at_most(block[:, a], threshold) for a in range(g.n)]
            a = next((a for a, t in enumerate(steps) if c - 8 < t < c), None)
            if a is not None:
                return _tie(g, [a, b], threshold, [steps[a], c])
    pytest.fail("no tie within the guard")


def test_strided_search_replays_from_copies_and_from_starts(monkeypatch):
    counts = {"replayed": 0, "rebuilt": 0}
    walk_from, replay = walks._walk_from, walks._replay

    def counted_walk_from(pt, n, starts, steps):
        if steps:
            counts["rebuilt"] += len(starts)
        return walk_from(pt, n, starts, steps)

    def counted_replay(pt, pi, R, *args, **kwargs):
        counts["replayed"] += R.shape[1]
        return replay(pt, pi, R, *args, **kwargs)

    monkeypatch.setattr(walks, "_walk_from", counted_walk_from)
    monkeypatch.setattr(walks, "_replay", counted_replay)
    for spec in _STEPWISE_GRAPHS:
        g = _small_world(*spec)
        want = oracles.stepwise_per_start(g, list(range(g.n)), 10**6, 0.25)
        assert mixing_time(g).per_start == want
    assert counts["rebuilt"] >= 1  # from a start vertex
    assert counts["replayed"] > counts["rebuilt"]  # from a checkpoint's copy


def _recorded_replays(monkeypatch):
    """The mixing search's `_replay` calls, in order.  Each records its
    columns' start steps, the cap and the steps it returns (0 for none)."""
    calls = []
    replay = walks._replay

    def recorded(pt, pi, R, tv, k, cap, threshold):
        at = replay(pt, pi, R, tv, k, cap, threshold)
        calls.append(SimpleNamespace(k=k.copy(), cap=cap, at=at.copy()))
        return at

    monkeypatch.setattr(walks, "_replay", recorded)
    return calls


def test_queued_replays_merge_checkpoints_and_flush(monkeypatch):
    calls = _recorded_replays(monkeypatch)
    g = _small_world(300, "1/2", 4)
    want = oracles.stepwise_per_start(g, list(range(g.n)), 10**6, 0.25)
    assert mixing_time(g).per_start == want
    # each queued column mixes within its own stride, in company
    assert all(((r.at > r.k) & (r.at <= r.k + walks._STRIDE)).all() for r in calls)
    # the crossers of two or more checkpoints share one replay
    assert any(np.unique(r.k).size >= 2 for r in calls)
    # flushed in mid-run once `_FLUSH` columns wait, and, shorter, at the
    # end, with the crossers of the last stride
    assert sum(r.k.size >= walks._FLUSH for r in calls[:-1]) >= 2
    assert calls[-1].k.size < walks._FLUSH
    assert calls[-1].k.max() == (max(want) - 1) // walks._STRIDE * walks._STRIDE


def test_queued_replays_match_the_stepwise_oracle_at_any_width(monkeypatch):
    # a flush at every crossing, after a few crossers, and only at the end;
    # caps 9 and 189 cut a stride short, and the queue stops at the cap
    for spec, threshold in itertools.product(_STEPWISE_GRAPHS, (0.25, 0.01, 1e-6)):
        g = _small_world(*spec)
        for cap in (10**6, 9, 189):
            want = oracles.stepwise_per_start(g, list(range(g.n)), cap, threshold)
            for flush in (1, 3, 10**9):
                monkeypatch.setattr(walks, "_FLUSH", flush)
                assert mixing_time(g, cap=cap, threshold=threshold).per_start == want


def test_a_queued_lone_column_is_summed_in_a_block(monkeypatch, tv_sums):
    # the fast start crosses at a checkpoint while the slow one is far above
    # the threshold, so it waits in the queue alone, and the slow one joins
    # it at its own crossing; the fast one's TV ties the threshold in row
    # order, not summed pairwise
    g, lone, block = tv_sums
    slow = int(np.argmax([_first_at_most(block[:, a], 0.2) for a in range(g.n)]))
    fast = int(np.argmin([_first_at_most(block[:, b], 0.2) for b in range(g.n)]))
    t = next(t for t in range(1, 161) if lone[t, fast] > block[t, fast]
             and block[-(-t // 8) * 8, slow] > block[t, fast] + 1e-3)
    threshold = block[t, fast]
    t_slow = _first_at_most(block[:, slow], threshold)
    calls = _recorded_replays(monkeypatch)
    _tie(g, [fast, slow], threshold, [t, t_slow])
    assert [r.k.tolist() for r in calls] == [[(t - 1) // 8 * 8, (t_slow - 1) // 8 * 8]]


def test_queued_replays_before_a_stride_cut_short_by_the_cap(monkeypatch):
    calls = _recorded_replays(monkeypatch)
    g = _small_world(300, "1/2", 4)
    cap = 189  # 5 steps past the checkpoint at 184, short of tau = 197
    res = mixing_time(g, cap=cap)
    assert res.censored
    assert res.per_start == oracles.stepwise_per_start(g, list(range(g.n)), cap, 0.25)
    # the short stride's crossers wait in the queue too, with k = 184, and
    # the end's flush records no step past the cap
    last = calls[-1]
    assert last.cap == cap and last.k.max() == 184
    assert (last.at[last.k == 184] > 184).all()
    assert all((r.at <= cap).all() for r in calls)


def test_a_guard_band_column_waits_in_the_queue(monkeypatch, tv_sums):
    # b sits one ulp above the threshold at checkpoint c, within the guard,
    # while a crosses in the stride before c and s is far above
    g, lone, block = tv_sums
    for c, b in itertools.product(range(16, 161, 8), range(g.n)):
        threshold = np.nextafter(block[c, b], 0.0)
        if block[c - 1, b] <= threshold + 1e-6:
            continue
        steps = [_first_at_most(block[:, v], threshold) for v in range(g.n)]
        a = next((v for v, t in enumerate(steps) if c - 8 < t <= c), None)
        s = next((v for v in range(g.n) if block[c, v] > threshold + 1e-3
                  and block[-1, v] <= threshold), None)
        if a is not None and s is not None:
            break
    else:
        pytest.fail("no column within the guard")
    calls = _recorded_replays(monkeypatch)
    _tie(g, [a, b, s], threshold, [steps[a], steps[b], steps[s]])
    assert steps[b] > c
    # a and b join the queue at c, b unmixed, and s at the stride it crosses
    # in; b's replay runs past c to its own step
    (only,) = calls
    assert sorted(zip(only.k.tolist(), only.at.tolist())) == sorted(
        [(c - 8, steps[a]), (c - 8, steps[b]), ((steps[s] - 1) // 8 * 8, steps[s])])
    # with a cap between c and b's step, the queue stops b at the cap
    cap = steps[b] - 1
    calls.clear()
    res = mixing_time(g, starts=[a, b, s], cap=cap, threshold=threshold)
    assert res.per_start == oracles.stepwise_per_start(g, [a, b, s], cap, threshold)
    assert res.per_start[1] is None and (calls[-1].at <= cap).all()


def test_queued_replays_are_few_on_scaling_starts(monkeypatch):
    cfg = ExperimentConfig(n_values=(4096,), c=Fraction(1, 2), reps=1)
    g = build_graph(cfg, 4096, 0)
    starts = scaling_starts(cfg, g, 0)
    calls = _recorded_replays(monkeypatch)
    want = oracles.stepwise_per_start(g, starts, 10**6, 0.25)
    assert mixing_time(g, starts=starts).per_start == want
    # the queue makes fewer replays than there are strides with a crossing
    strides = {int(k) for r in calls for k in r.k}
    assert len(calls) <= 6 < len(strides)


@pytest.mark.parametrize("path", ["checkpoint", "replay"])
def test_mixing_search_catches_a_tv_rise(monkeypatch, path):
    # with pi a point mass at vertex 0, TV from vertex 1 is 1 - mu_t(0): it
    # falls while mass flows into vertex 0, then rises as the mass spreads
    g = build_ring(32, 1)
    monkeypatch.setattr(walks, "stationary", lambda g: point_mass(g.n, 0))
    if path == "replay":
        monkeypatch.setattr(walks, "_GUARD", 1.0)  # every column is queued
    with pytest.raises(WalkError, match="TV distance increased"):
        mixing_time(g, starts=[1], cap=200)


def test_caps_must_be_integers():
    g = build_ring(64, 1)
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(WalkError, match="cap must be an integer"):
            mixing_time(g, starts=[0, 5], cap=bad)
        for start, region in ((5, range(3, 8)), (0, range(64))):  # both paths
            with pytest.raises(WalkError, match="cap must be an integer"):
                escape_time(g, start, region, seed=1, cap=bad)
    res = mixing_time(g, starts=[0, 5], cap=np.int64(3))
    assert res.cap == 3 and type(res.cap) is int
    assert res.censored and res.per_start == [None, None]
    for region in (range(3, 8), range(64)):
        esc = escape_time(g, 5, region, seed=1, cap=np.int32(500))
        assert esc == escape_time(g, 5, region, seed=1, cap=500)


@pytest.mark.parametrize("n", [5, 1024, 1025, 3000])
@pytest.mark.parametrize("s", [1, 2, 3, 65])
def test_tv_columns_bit_identical(n, s):
    rng = np.random.default_rng(n * 100 + s)
    X = rng.random((n, s))
    X /= X.sum(axis=0)
    pi = rng.random(n)[:, None]
    pi /= pi.sum()
    total = np.zeros(s)
    for row in np.abs(X - pi):  # strictly in vertex order
        total = total + row
    assert np.array_equal(_tv_columns(X, pi), 0.5 * total)


def _arc_case(n, k, c, gseed, length):
    """A small world, a window of `length` consecutive vertices and its middle."""
    g = sample_small_world(GraphSpec(n=n, k=k, c=c, seed=gseed))
    first = gseed % n
    region = [(first + i) % n for i in range(length)]
    return g, region[length // 2], region


# the window edges of `_moves`, the chunk edges, and a cap past two chunks
_W = walks._WINDOW
_CAPS = [1, _W - 1, _W, _W + 1, 4095, 4096, 4097, 8193, 9000]


def test_escape_time_matches_oracle_across_chunks():
    # long arcs on sparse graphs: walks that escape in a later chunk and
    # walks censored at every cap, next to quick escapes
    cases = [_arc_case(400, 1, 0, 1, 100),
             _arc_case(300, 2, Fraction(1, 50), 2, 200),
             _arc_case(60, 1, 2, 3, 12),
             (build_ring(50, 1), 0, range(50))]
    late = censored = 0
    for g, start, region in cases:
        for seed in range(10):
            for cap in _CAPS:
                got = escape_time(g, start, region, seed=seed, cap=cap)
                want = oracles.escape_time(g, start, region, seed=seed, cap=cap)
                assert (got.steps, got.censored) == want
                late += not got.censored and got.steps > 4096
                censored += got.censored and cap > 1
    assert late >= 3 and censored >= 10


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 120), k=st.integers(1, 2),
       c=st.fractions(0, 6, max_denominator=8), gseed=st.integers(0, 10**6),
       length=st.integers(1, 60), seed=st.integers(0, 2**64 - 1),
       cap=st.sampled_from(_CAPS))
def test_escape_time_matches_oracle(n, k, c, gseed, length, seed, cap):
    g, start, region = _arc_case(n, k, c, gseed, min(length, n))
    got = escape_time(g, start, region, seed=seed, cap=cap)
    assert (got.steps, got.censored) == oracles.escape_time(g, start, region, seed, cap)


def _interior(g, region) -> bool:
    """Whether the region avoids the k vertices at either end of the ring,
    where the sorted neighbor lists wrap around."""
    return min(region) >= g.ring_k and max(region) <= g.n - 1 - g.ring_k


@settings(max_examples=80, deadline=None)
@given(n=st.integers(8, 300), k=st.integers(1, 3), first=st.integers(0, 299),
       length=st.integers(1, 150), spot=st.integers(0, 149),
       seed=st.integers(0, 2**64 - 1), cap=st.sampled_from(_CAPS))
def test_ring_window_escape_matches_oracle(n, k, first, length, spot, seed, cap):
    # every window of a ring is a quiet arc; those clear of the ends make
    # i.i.d. steps, those touching vertex 0 or n-1 take the move loop
    g = build_ring(n, k)
    length = min(length, n)
    region = [(first + i) % n for i in range(length)]
    start = region[spot % length]
    if length >= 3:
        assert (_shared_offsets(g, np.array(region)) is not None) == _interior(g, region)
    got = escape_time(g, start, region, seed=seed, cap=cap)
    assert (got.steps, got.censored) == oracles.escape_time(g, start, region, seed, cap)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 600), k=st.integers(1, 2),
       c=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]),
       gseed=st.integers(0, 10**6), seed=st.integers(0, 2**64 - 1),
       cap=st.sampled_from(_CAPS))
def test_quiet_arc_escape_matches_oracle(n, k, c, gseed, seed, cap):
    g = sample_small_world(GraphSpec(n=n, k=k, c=c, seed=gseed))
    arc = quiet_arc(g)
    if arc.length == 0:
        return
    region = arc.vertices()
    if arc.length >= 3:
        assert (_shared_offsets(g, region) is not None) == _interior(g, region)
    got = escape_time(g, arc.center, region, seed=seed, cap=cap)
    assert (got.steps, got.censored) == oracles.escape_time(g, arc.center, region, seed, cap)


def _no_loop(*args, **kwargs):
    raise AssertionError("the move loop ran")


def test_ring_escape_matches_oracle_across_chunks(monkeypatch):
    # i.i.d. steps only: exits in the first chunk, in later ones, and walks
    # censored at every cap
    arc_graph = sample_small_world(GraphSpec(n=4096, k=1, c=Fraction(1, 4), seed=7))
    arc = quiet_arc(arc_graph)
    assert _interior(arc_graph, arc.vertices())
    cases = [(build_ring(400, 1), 200, range(150, 250)),
             (build_ring(400, 2), 180, range(100, 260)),
             (arc_graph, arc.center, arc.vertices())]
    monkeypatch.setattr(walks, "_Neighbors", _no_loop)
    late = censored = 0
    for g, start, region in cases:
        for seed in range(8):
            for cap in _CAPS:
                got = escape_time(g, start, region, seed=seed, cap=cap)
                want = oracles.escape_time(g, start, region, seed=seed, cap=cap)
                assert (got.steps, got.censored) == want
                late += not got.censored and got.steps > 4096
                censored += got.censored and cap > 1
    assert late >= 3 and censored >= 10


def _first_window_escapes(monkeypatch, start, region):
    """Escapes from `start` that all leave in their first window, each
    reading the coin words of that window only, not of its whole chunk."""
    handed_out = []

    def recorded(*args, **kwargs):
        bitgen = thread_philox(*args, **kwargs)
        handed_out.append(bitgen)
        return bitgen

    monkeypatch.setattr(walks, "thread_philox", recorded)
    g = build_ring(400, 1)
    quick = [escape_time(g, start, region, seed=seed) for seed in range(30)]
    assert all(0 < r.steps <= _W for r in quick)
    coin_words, pick_words = handed_out[-2:]
    counter = coin_words.state["state"]["counter"]
    assert counter[0] <= -(-_W // 4) and not counter[1:].any()
    assert coin_words is thread_philox(0) and coin_words is not pick_words


def test_ring_escape_draws_only_the_windows_it_reaches(monkeypatch):
    monkeypatch.setattr(walks, "_Neighbors", _no_loop)
    _first_window_escapes(monkeypatch, 200, range(195, 206))


def test_loop_escape_draws_only_the_windows_it_reaches(monkeypatch):
    # a window across vertex 0, where the neighbor lists wrap, takes the loop
    monkeypatch.setattr(walks, "_ring_escape", _no_loop)
    _first_window_escapes(monkeypatch, 0, [395, 396, 397, 398, 399, 0, 1, 2, 3, 4, 5])


def _arc_and_loud():
    """A small world, its quiet arc, and the arc with the next vertex, which
    has a shortcut, so that its escape walks take the move loop."""
    g = sample_small_world(GraphSpec(n=2048, k=1, c=Fraction(1, 2), seed=3))
    arc = quiet_arc(g)
    assert _interior(g, arc.vertices())
    loud = arc.vertices()[-1] + 1
    assert g.degrees[loud] > 2
    return g, arc, np.append(arc.vertices(), loud)


def test_escape_path_follows_the_region(monkeypatch):
    g, arc, wider = _arc_and_loud()
    want = [oracles.escape_time(g, arc.center, r, seed=5, cap=4097)
            for r in (arc.vertices(), wider)]
    with monkeypatch.context() as m:
        m.setattr(walks, "_Neighbors", _no_loop)
        got = escape_time(g, arc.center, arc.vertices(), seed=5, cap=4097)
    assert (got.steps, got.censored) == want[0]
    with monkeypatch.context() as m:
        m.setattr(walks, "_ring_escape", _no_loop)
        got = escape_time(g, arc.center, wider, seed=5, cap=4097)
    assert (got.steps, got.censored) == want[1]


def _survival(g, start, region, horizon):
    """P(T > t) for t = 0 .. horizon, where T is the first step of the walk
    from `start` outside `region`: a point mass stepped by the kernel
    restricted to the region, which kills the mass that leaves."""
    region = np.asarray(region)
    Q = oracles.dense_kernel(g)[np.ix_(region, region)]
    mu = (region == start).astype(float)
    out = np.empty(horizon + 1)
    for t in range(horizon + 1):
        out[t] = mu.sum()
        mu = mu @ Q
    return out


def _assert_escape_law(g, start, region, seeds=2000, alpha=1e-6):
    """The empirical CDF of escape_time over `seeds` seeds lies in the DKW
    band of the exact CDF: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2)."""
    times = np.sort([escape_time(g, start, region, seed=s).steps for s in range(seeds)])
    assert times[0] >= 1 and times[-1] < 1_000_000  # none censored
    t = np.arange(times[-1] + 1)
    empirical = np.searchsorted(times, t, side="right") / seeds
    exact = 1.0 - _survival(g, start, region, times[-1])
    eps = math.sqrt(math.log(2 / alpha) / (2 * seeds))
    assert np.abs(empirical - exact).max() <= eps


def test_escape_law_matches_the_killed_chain(monkeypatch):
    # a bare path takes the i.i.d. ring steps
    g, region = build_ring(64, 1), np.arange(10, 22)
    with monkeypatch.context() as m:
        m.setattr(walks, "_Neighbors", _no_loop)
        _assert_escape_law(g, 16, region)
    # its exact mean is 2ab, a and b the start's distances to the exits 9 and 22
    Q = oracles.dense_kernel(g)[np.ix_(region, region)]
    mean = np.linalg.solve(np.eye(region.size) - Q, np.ones(region.size))[16 - 10]
    assert math.isclose(mean, 2 * 7 * 6, rel_tol=1e-12)
    # a k = 2 ring window clear of the ends takes them with four offsets
    g, region = build_ring(64, 2), np.arange(20, 36)
    assert _cached_offsets(g, region).size == 4
    with monkeypatch.context() as m:
        m.setattr(walks, "_Neighbors", _no_loop)
        _assert_escape_law(g, 27, region)
    # a quiet arc and the shortcut vertex past its end take the move loop
    g, arc, wider = _arc_and_loud()
    with monkeypatch.context() as m:
        m.setattr(walks, "_ring_escape", _no_loop)
        _assert_escape_law(g, arc.center, wider)


def _no_generator(*args, **kwargs):
    raise AssertionError("a walker built a numpy Generator")


def test_walkers_read_raw_words_only(monkeypatch):
    g, arc, wider = _arc_and_loud()
    monkeypatch.setattr(walks, "make_rng", _no_generator)
    monkeypatch.setattr(walks, "_ring_escape", _no_loop)
    for seed in range(6):
        for cap in (1, _W, 4097, 9000):
            got = escape_time(g, arc.center, wider, seed=seed, cap=cap)
            want = oracles.escape_time(g, arc.center, wider, seed=seed, cap=cap)
            assert (got.steps, got.censored) == want


def _cached_offsets(g, region):
    return _region_plan(g, np.asarray(region, dtype=np.int64).tobytes())[1]


def test_ring_offsets_are_signed():
    # windows clear of the ends, single end vertices (whose wrapped neighbor
    # lists no other vertex shares) and the quiet arcs of small worlds
    for n, k in ((7, 3), (9, 4), (20, 1), (64, 2), (300, 3), (4096, 4)):
        g = build_ring(n, k)
        for region in ([0], [n - 1], [k], range(k, n - k), range(n // 3, n // 2)):
            off = _cached_offsets(g, region)
            assert off is not None
            assert off.size == 2 * k and off.all()
            assert off.min() >= -k and off.max() <= k
    for gseed in range(20):
        g = sample_small_world(GraphSpec(n=2048, k=2, c=Fraction(1, 2), seed=gseed))
        off = _cached_offsets(g, quiet_arc(g).vertices())
        assert off is not None and off.all() and np.abs(off).max() <= 2


def test_ring_escape_past_the_ring_ends(monkeypatch):
    # a region of all but one vertex: a window's path runs on past vertex 0
    # and vertex n-1 after the exit, and only the exit is read
    g = build_ring(20, 1)
    region = range(1, 19)
    assert _cached_offsets(g, region) is not None
    monkeypatch.setattr(walks, "_Neighbors", _no_loop)
    for seed in range(6):
        for cap in _CAPS:
            got = escape_time(g, 10, region, seed=seed, cap=cap)
            assert (got.steps, got.censored) == oracles.escape_time(g, 10, region, seed, cap)


def test_whole_graph_region_is_censored_without_walking(monkeypatch):
    monkeypatch.setattr(walks, "_Neighbors", _no_loop)
    monkeypatch.setattr(walks, "_ring_escape", _no_loop)
    small_world = sample_small_world(GraphSpec(n=64, k=1, c=Fraction(2), seed=3))
    isolated = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
    for g in (build_ring(64, 1), build_ring(5, 2), small_world, isolated, _one_vertex()):
        for region in (range(g.n), np.arange(g.n)[::-1], list(range(g.n)) * 2):
            res = escape_time(g, g.n - 1, region, seed=1, cap=10**12)
            assert (res.steps, res.censored) == (10**12, True)
    # the region and start checks still come first
    g = build_ring(16, 1)
    with pytest.raises(WalkError, match="start vertex 16 out of range for n = 16"):
        escape_time(g, 16, range(16), seed=0)
    with pytest.raises(WalkError, match="region vertex 16 out of range for n = 16"):
        escape_time(g, 0, range(17), seed=0)
    with pytest.raises(WalkError, match="cap must be >= 1"):
        escape_time(g, 0, range(16), seed=0, cap=0)


def test_escape_time_rejects_cap_below_one():
    g = build_ring(20, 1)
    for cap in (0, -5):
        for start, region in ((5, range(3, 8)), (0, range(20))):  # both paths
            with pytest.raises(WalkError, match="cap must be >= 1"):
                escape_time(g, start, region, seed=1, cap=cap)


def test_walk_stays_at_an_isolated_vertex():
    g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
    assert escape_time(g, 3, [3], seed=1, cap=100).censored


def _one_vertex():
    return UndirectedGraph.from_edges(1, np.empty((0, 2), dtype=np.int64))


def test_one_vertex_stationary_and_kernel():
    g = _one_vertex()
    with np.errstate(all="raise"):
        assert stationary(g).tolist() == [1.0]
        assert LazyKernel(g)._PT.T.toarray().tolist() == [[1.0]]


def test_one_vertex_mixes_at_once():
    with np.errstate(all="raise"):
        res = mixing_time(_one_vertex(), cap=50)
    assert (res.tau, res.per_start, res.censored) == (0, [0], False)


def test_kernel_keeps_mass_at_an_isolated_vertex():
    g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
    P = LazyKernel(g)._PT.T.toarray()
    assert np.allclose(P.sum(axis=1), 1.0)
    assert P[3].tolist() == [0.0, 0.0, 0.0, 1.0]


# -- the (graph, region) memo of escape_time -------------------------------------


def test_escape_memo_keeps_graphs_with_one_region_apart(monkeypatch):
    # the same region bytes on a ring, where the walk makes i.i.d. steps, and
    # on that ring plus a shortcut from inside the region, where it does not
    ring = build_ring(200, 1)
    edges = np.vstack([ring.edge_array(), [[100, 150]]])
    shortcut = UndirectedGraph.from_edges(200, edges, ring_k=1)
    region = np.arange(90, 111)
    ring_calls = []
    real = walks._ring_escape

    def counted(*args):
        ring_calls.append(args)
        return real(*args)

    monkeypatch.setattr(walks, "_ring_escape", counted)
    got = {}
    for seed in range(12):
        for name, g in (("ring", ring), ("shortcut", shortcut)):
            res = escape_time(g, 98, region, seed=seed, cap=5000)
            assert (res.steps, res.censored) == \
                oracles.escape_time(g, 98, region, seed=seed, cap=5000)
            got.setdefault(name, []).append(res.steps)
    assert len(ring_calls) == 12  # the ring's calls only
    assert got["ring"] != got["shortcut"]


def test_escape_region_types_agree():
    g = sample_small_world(GraphSpec(n=4096, k=1, c=Fraction(1, 4), seed=7))
    arc = quiet_arc(g)
    lo, hi = int(arc.vertices().min()), int(arc.vertices().max()) + 1
    wide = range(max(lo - 20, 0), min(hi + 20, g.n))  # takes the move loop
    for span in (range(lo, hi), wide):
        forms = [list(span), span, np.array(span, dtype=np.int32),
                 np.array(span, dtype=np.int64)]
        for seed in (0, 1, 2):
            got = {escape_time(g, arc.center, r, seed=seed) for r in forms}
            assert got == {EscapeResult(*oracles.escape_time(g, arc.center, span,
                                                             seed=seed))}


def test_escape_memo_rejects_bad_input_on_every_call():
    g = build_ring(30, 1)
    region = np.arange(10, 20)
    escape_time(g, 15, region, seed=0)  # the region is memoised now
    for start, reg, msg in ((5, region, "inside"),
                            (15.5, region, "must be an integer"),
                            (30, region, "start vertex 30 out of range for n = 30"),
                            (15, np.append(region, 30),
                             "region vertex 30 out of range for n = 30"),
                            (15, np.append(region, -1),
                             "region vertex -1 out of range for n = 30"),
                            (15, np.empty(0, dtype=np.int64), "inside")):
        for _ in range(2):
            with pytest.raises(WalkError, match=msg):
                escape_time(g, start, reg, seed=0)
        assert escape_time(g, 15, region, seed=0) == escape_time(g, 15, list(region), seed=0)


_SCIPY_FREE_PATHS = textwrap.dedent("""
    import sys
    from fractions import Fraction

    import nwmix
    from nwmix import (GraphSpec, build_ring, constants_for, escape_time,
                       factorial_moments, fr_bound, mixing_time, poisson_law,
                       read_graph, sample_small_world, write_graph)

    def fail_if_loaded(where):
        if "scipy.sparse" in sys.modules:
            sys.exit(f"scipy.sparse loaded by {where}")

    fail_if_loaded("import nwmix")
    g = sample_small_world(GraphSpec(n=64, k=1, c=Fraction(2), seed=1))
    write_graph(g, sys.argv[1])
    read_graph(sys.argv[1])
    fail_if_loaded("graph sample, write and read")
    fr_bound(sample_small_world(GraphSpec(n=12, k=1, c=Fraction(3), seed=0)))
    fail_if_loaded("exact fr_bound")
    constants_for(Fraction(1, 2), 1)
    fail_if_loaded("constants_for")
    escape_time(build_ring(64, 1), 10, list(range(21)), seed=0)
    fail_if_loaded("escape_time on a ring arc")
    factorial_moments(poisson_law(2), 10)
    fail_if_loaded("factorial_moments")
    mixing_time(build_ring(16, 1))
    if "scipy.sparse" not in sys.modules:
        sys.exit("mixing_time ran without loading scipy.sparse")
""")


def test_scipy_loads_only_with_the_walk_kernel(tmp_path):
    # a fresh interpreter, since this one has long since imported scipy; the
    # script reports through sys.exit, so the check also holds under python -O
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_PATHS, str(tmp_path / "g.txt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
