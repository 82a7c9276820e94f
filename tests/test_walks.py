import json
import math
from fractions import Fraction

import numpy as np
import pytest

from nwmix import (
    GraphSpec,
    LazyKernel,
    MixingResult,
    WalkError,
    build_ring,
    complete_graph,
    escape_time,
    mixing_time,
    point_mass,
    sample_small_world,
    sample_starts,
    simulate_walk,
    stationary,
    stationary_exact,
    step_exact,
    tv_distance,
    tv_distance_exact,
    validate_distribution,
)

import oracles


def test_stationary_ring_uniform():
    g = build_ring(10, 1)
    pi = stationary(g)
    assert np.allclose(pi, 0.1)
    assert math.isclose(float(pi.sum()), 1.0)
    exact = stationary_exact(g)
    assert all(q == Fraction(1, 10) for q in exact)


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
        P = LazyKernel(g).matrix.toarray()
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
    nu = [Fraction(0)] * 12
    nu[3] = Fraction(1)
    for _ in range(5):
        nu = step_exact(g, nu)
    assert sum(nu) == 1
    assert np.allclose(mu, [float(q) for q in nu])


def test_distribution_validation():
    with pytest.raises(WalkError, match="negative"):
        validate_distribution(np.array([1.5, -0.5]))
    with pytest.raises(WalkError, match="1-d"):
        validate_distribution(np.eye(2))
    with pytest.raises(WalkError, match="drifted"):
        validate_distribution(np.array([0.6, 0.6]))


def test_tv_distance_values():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.5, 0.5], [0.75, 0.25]) == 0.25
    assert tv_distance_exact(
        [Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 4), Fraction(1, 4)]
    ) == Fraction(1, 4)
    with pytest.raises(WalkError, match="mismatch"):
        tv_distance([1.0], [0.5, 0.5])


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
    exact = mixing_time(g, starts="all", exact=True)
    assert (exact.tau, exact.per_start) == (res.tau, res.per_start)


def test_mixing_start_modes():
    g = build_ring(16, 1)
    full = mixing_time(g, starts="all")
    some = mixing_time(g, starts=[0, 5])
    assert some.mode == "sampled-starts"
    assert some.starts == [0, 5]
    assert some.tau <= full.tau  # sampled starts lower-bound the true tau
    sampled = mixing_time(g, starts=("sample", 4, 99))
    assert sampled.starts == sample_starts(16, 4, 99)
    assert len(sampled.starts) == 4
    everyone = mixing_time(g, starts=list(range(16)))
    assert everyone.mode == "exact-all-starts" and everyone.tau == full.tau
    with pytest.raises(WalkError, match="out of range"):
        mixing_time(g, starts=[16])


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


def test_sample_starts_deterministic():
    a = sample_starts(100, 10, 7)
    assert a == sample_starts(100, 10, 7)
    assert a == sorted(set(a)) and all(0 <= v < 100 for v in a)
    assert sample_starts(5, 10, 0) == [0, 1, 2, 3, 4]


def test_simulate_walk_trajectory():
    g = sample_small_world(GraphSpec(n=20, k=1, c=2, seed=4))
    traj = simulate_walk(g, start=3, steps=200, seed=11)
    assert traj.shape == (201,) and traj[0] == 3
    for a, b in zip(traj[:-1], traj[1:]):
        assert a == b or g.has_edge(int(a), int(b))
    assert np.array_equal(traj, simulate_walk(g, 3, 200, seed=11))
    assert not np.array_equal(traj, simulate_walk(g, 3, 200, seed=12))
    with pytest.raises(WalkError):
        simulate_walk(g, start=20, steps=1, seed=0)


def test_simulate_walk_distribution():
    # empirical k-step law vs the exact kernel power
    g = build_ring(8, 1)
    k, reps = 4, 4000
    counts = np.zeros(8)
    for r in range(reps):
        counts[simulate_walk(g, 0, k, seed=r)[-1]] += 1
    mu = point_mass(8, 0)
    kernel = LazyKernel(g)
    for _ in range(k):
        mu = kernel.step(mu)
    for v in range(8):
        se = math.sqrt(reps * mu[v] * (1 - mu[v]))
        assert abs(counts[v] - reps * mu[v]) < 5 * se + 1


def test_escape_time():
    g = build_ring(16, 1)
    with pytest.raises(WalkError, match="inside"):
        escape_time(g, start=5, region=[0, 1], seed=0)
    # whole graph: nothing to escape to
    res = escape_time(g, 0, range(16), seed=0, cap=50)
    assert res.censored and res.steps == 50
    # singleton region: leaves with probability 1/2 per step
    times = [escape_time(g, 0, [0], seed=s, cap=10_000).steps for s in range(400)]
    assert not any(t <= 0 for t in times)
    mean = sum(times) / len(times)
    se = math.sqrt(2.0 / len(times))  # Geometric(1/2) variance = 2
    assert abs(mean - 2.0) < 4 * se


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
    res = mixing_time(g, starts=("sample", 12, 5))
    single = [mixing_time(g, starts=[x]).per_start[0] for x in res.starts]
    assert res.per_start == single
    assert len(set(single)) >= 4
    assert single != sorted(single) and single != sorted(single, reverse=True)
