import csv
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwmix import (
    MCEstimate,
    binomial_law,
    binomial_plus_law,
    brute_force_mu,
    build_ring,
    complete_graph,
    connected_set_counts,
    count_root_embeddings,
    count_root_subtrees,
    derive_seed,
    deterministic_law,
    deterministic_subtree_count,
    explicit_law,
    factorial_moments,
    make_rng,
    mu_by_functional_equation,
    mu_by_lagrange,
    mu_poisson_closed_form,
    mu_upper_bound_weak,
    poisson_law,
    subset_moments,
)
from nwmix import subtrees
from nwmix.subtrees import _scaled_series

import oracles


def test_law_validation():
    with pytest.raises(ValueError):
        poisson_law(-1)
    with pytest.raises(ValueError):
        binomial_law(-2, Fraction(1, 2))
    with pytest.raises(ValueError):
        binomial_law(5, Fraction(3, 2))
    with pytest.raises(ValueError):
        binomial_plus_law(5, Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        deterministic_law(-3)
    with pytest.raises(ValueError, match="sum to 1"):
        explicit_law([(0, Fraction(1, 2)), (1, Fraction(1, 3))])
    with pytest.raises(ValueError, match="repeated"):
        explicit_law([(1, Fraction(1, 2)), (1, Fraction(1, 2))])
    with pytest.raises(ValueError, match="atom"):
        explicit_law([])


@pytest.mark.parametrize("make, field", [
    (lambda: explicit_law([(1.5, 1)]), "explicit law atom"),
    (lambda: binomial_law(10.0, Fraction(1, 2)), "n"),
    (lambda: binomial_plus_law(10, Fraction(1, 2), 2.5), "extra"),
    (lambda: deterministic_law(2.5), "d"),
], ids=["explicit-atom", "binomial-n", "binomial-plus-extra", "deterministic-d"])
def test_law_counts_must_be_integers(make, field):
    # a float count is refused when the law is built, naming its field, and
    # never truncated (1.5 used to become the atom 1)
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        make()


def test_law_means():
    # q_1 = E[B]: the mean is the first factorial moment, for every kind
    cases = [
        (poisson_law(Fraction(7, 2)), Fraction(7, 2)),
        (binomial_law(10, Fraction(1, 4)), Fraction(5, 2)),
        (binomial_plus_law(10, Fraction(1, 4), 2), Fraction(9, 2)),
        (deterministic_law(3), 3),
        (explicit_law([(0, Fraction(1, 2)), (4, Fraction(1, 2))]), 2),
    ]
    for law, mean in cases:
        assert factorial_moments(law, 1)[1] == mean


def test_law_sampling():
    rng = make_rng(0)
    assert list(deterministic_law(2).sample(rng, 3)) == [2, 2, 2]
    draws = explicit_law([(1, Fraction(1, 2)), (3, Fraction(1, 2))]).sample(rng, 2000)
    assert set(draws.tolist()) <= {1, 3}
    mean = draws.mean()
    assert abs(mean - 2.0) < 5 * 1.0 / math.sqrt(2000)
    bin_draws = binomial_law(6, Fraction(1, 3)).sample(rng, 2000)
    assert bin_draws.min() >= 0 and bin_draws.max() <= 6


def test_factorial_moments_closed_forms():
    J = 12
    assert factorial_moments(poisson_law(3), J) == [Fraction(3) ** j for j in range(J + 1)]
    n, p = 7, Fraction(2, 5)
    qb = factorial_moments(binomial_law(n, p), J)
    for j in range(J + 1):
        expect = Fraction(1)
        for i in range(j):
            expect *= (n - i) * p
        assert qb[j] == expect
    qd = factorial_moments(deterministic_law(4), J)
    assert qd[:6] == [1, 4, 12, 24, 24, 0]
    assert all(q == 0 for q in qd[5:])
    for law in (poisson_law(2), binomial_law(5, Fraction(1, 2)), deterministic_law(3)):
        assert factorial_moments(law, 0) == [1]


def test_factorial_moments_against_explicit_pmf():
    # binomial law vs the same distribution written out atom by atom
    n, p = 6, Fraction(1, 3)
    atoms = [
        (v, Fraction(math.comb(n, v)) * p**v * (1 - p) ** (n - v))
        for v in range(n + 1)
    ]
    assert factorial_moments(binomial_law(n, p), 10) == factorial_moments(
        explicit_law(atoms), 10
    )
    # binomial_plus(n, p, extra) is the binomial shifted by the extras
    extra = 2
    shifted = [(v + extra, w) for v, w in atoms]
    assert factorial_moments(binomial_plus_law(n, p, extra), 10) == factorial_moments(
        explicit_law(shifted), 10
    )


def test_subset_moments():
    J = 8
    q = factorial_moments(poisson_law(2), J)
    s = subset_moments(poisson_law(2), J)
    assert s == [qj / math.factorial(j) for j, qj in enumerate(q)]
    # deterministic d: expected j-subsets of children = C(d, j)
    assert subset_moments(deterministic_law(5), 7) == [
        Fraction(math.comb(5, j)) for j in range(8)
    ]


BATTERY = [
    poisson_law(1),
    poisson_law(Fraction(7, 2)),
    binomial_law(9, Fraction(1, 3)),
    binomial_plus_law(6, Fraction(1, 4), 2),
    deterministic_law(3),
    explicit_law([(0, Fraction(1, 2)), (2, Fraction(1, 2))]),
]


@pytest.mark.parametrize("law", BATTERY, ids=[l.kind for l in BATTERY])
def test_mu_solvers_agree(law):
    J = 20
    q = factorial_moments(law, J)
    assert mu_by_functional_equation(q, J) == mu_by_lagrange(q, J)


def test_mu_solver_validation():
    with pytest.raises(ValueError):
        mu_by_functional_equation([Fraction(1)], 0)
    with pytest.raises(ValueError):
        mu_by_lagrange([Fraction(1)], 0)
    with pytest.raises(ValueError, match="q_0"):
        mu_by_functional_equation([Fraction(1), Fraction(1)], 5)
    with pytest.raises(ValueError, match="q_0"):
        mu_by_lagrange([Fraction(1), Fraction(1)], 5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4,
                unique=True),
       st.data())
def test_mu_solvers_agree_on_random_laws(support, data):
    weights = [data.draw(st.integers(min_value=1, max_value=9)) for _ in support]
    total = sum(weights)
    law = explicit_law([(v, Fraction(w, total)) for v, w in zip(support, weights)])
    q = factorial_moments(law, 8)
    assert mu_by_functional_equation(q, 8) == mu_by_lagrange(q, 8)


MOMENT_LAWS = [
    poisson_law(Fraction(7, 2)),
    poisson_law(0),
    binomial_law(3, Fraction(2, 9)),  # j > n: (n)_j = 0
    binomial_law(0, Fraction(1, 2)),
    binomial_plus_law(4, Fraction(1, 8), 3),
    binomial_plus_law(2, Fraction(5, 7), 0),
    deterministic_law(3),
    deterministic_law(0),
    explicit_law([(0, Fraction(1, 6)), (2, Fraction(1, 2)), (5, Fraction(1, 3))]),
]


@pytest.mark.parametrize("law", MOMENT_LAWS,
                         ids=[f"{l.kind}-{i}" for i, l in enumerate(MOMENT_LAWS)])
def test_factorial_moments_match_oracle(law):
    got = factorial_moments(law, 12)
    assert got == oracles.factorial_moments(law, 12)
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.fractions(min_value=0, max_value=1, max_denominator=200),
       st.integers(min_value=0, max_value=4))
def test_binomial_moments_match_oracle(n, p, extra):
    for law in (binomial_law(n, p), binomial_plus_law(n, p, extra)):
        assert factorial_moments(law, 15) == oracles.factorial_moments(law, 15)


# prime-power denominators (where the greedy scale overshoots), a large prime
# denominator, and a few small ones; ints and floats go through Fraction()
_DENOMINATORS = [1, 2, 3, 7, 8, 9, 27, 64, 100, 2**61 - 1]
_Q_ENTRY = st.one_of(
    st.builds(Fraction, st.integers(min_value=-40, max_value=40),
              st.sampled_from(_DENOMINATORS)),
    st.fractions(min_value=-5, max_value=5, max_denominator=1000),
    st.integers(min_value=-12, max_value=12),
    st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False),
    st.just(0),
)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=20).flatmap(
    lambda J: st.tuples(st.just(J), st.lists(_Q_ENTRY, min_size=J, max_size=J + 2))))
@example((20, [Fraction(1, 9)] * 20))
@example((20, [1] + [Fraction(1, 8)] * 19))
@example((12, [1, 0, Fraction(1, 8), 0, Fraction(1, 9), Fraction(5, 2**61 - 1)] * 2))
@example((10, [Fraction(3, 2), Fraction(1, 4), 0, 0, Fraction(2, 3)] * 2))
@example((9, [0, 1, 2, 3, 0, 5, 6, 7, 8]))
@example((6, [0.1, 2, 0.375, 0, -1.5, 1e-3]))
def test_mu_solvers_match_fraction_oracle(case):
    J, q = case
    exact = [Fraction(x) for x in q]
    a, delta, beta = _scaled_series(q, J)
    assert [Fraction(aj, delta * beta**j) for j, aj in enumerate(a)] == exact[:J]
    fe = mu_by_functional_equation(q, J)
    assert fe == oracles.mu_by_functional_equation(exact, J)
    assert mu_by_lagrange(q, J) == oracles.mu_by_lagrange(q, J) == fe
    assert all(type(x) is Fraction for x in fe)


def test_poisson_closed_form():
    for c in (1, Fraction(7, 2)):
        q = factorial_moments(poisson_law(c), 30)
        mu = mu_by_functional_equation(q, 30)
        assert mu == [mu_poisson_closed_form(c, j) for j in range(1, 31)]
    assert [mu_poisson_closed_form(1, j) for j in range(1, 9)] == [
        1, 1, 2, 5, 14, 42, 132, 429]
    assert mu_by_functional_equation([Fraction(1)] * 30, 30) == [
        mu_poisson_closed_form(1, j) for j in range(1, 31)
    ]


def test_deterministic_distinct_count():
    # subset moments C(d, j) generate the distinct-count closed form
    for d in (2, 3):
        s = subset_moments(deterministic_law(d), 25)
        mu = mu_by_lagrange(s, 25)
        assert mu == [deterministic_subtree_count(d, j) for j in range(1, 26)]
    assert deterministic_subtree_count(2, 3) == 5
    # the ordered count is strictly larger once orderings multiply
    q = factorial_moments(deterministic_law(2), 5)
    assert mu_by_functional_equation(q, 5)[2] == 6


def test_mu_bounds_chain():
    C = 2
    law = poisson_law(C)
    q = factorial_moments(law, 25)
    mu = mu_by_functional_equation(q, 25)
    for j in range(1, 26):
        assert q[j] <= Fraction(C) ** j
        assert mu[j - 1] <= mu_poisson_closed_form(C, j)
        if j == 1:
            assert mu_poisson_closed_form(C, j) == mu_upper_bound_weak(C, j) == 1
        else:
            assert mu_poisson_closed_form(C, j) < mu_upper_bound_weak(C, j)


def _tree(children):
    return [list(kids) for kids in children]


def test_count_root_subtrees_by_hand():
    path = _tree([[1], [2], []])
    assert [count_root_subtrees(path, j) for j in (1, 2, 3)] == [1, 1, 1]
    assert [count_root_embeddings(path, j) for j in (1, 2, 3)] == [1, 1, 1]
    star = _tree([[1, 2, 3], [], [], []])
    assert count_root_subtrees(star, 2) == 3
    assert count_root_embeddings(star, 2) == 3
    assert count_root_subtrees(star, 3) == 3
    assert count_root_embeddings(star, 3) == 6  # ordered pairs of children
    binary = _tree([[1, 2], [3, 4], [5, 6], [], [], [], []])
    assert count_root_subtrees(binary, 3) == 5
    assert count_root_embeddings(binary, 3) == 6
    assert count_root_subtrees(binary, 10) == 0


def test_counts_against_subset_oracle():
    rng = make_rng(77)
    for _ in range(12):
        children = oracles.sample_tree(poisson_law(Fraction(3, 2)), 5, rng)
        if len(children) > 14:
            continue
        for j in range(1, 6):
            sets = oracles.subtree_sets_containing_root(children, j)
            assert count_root_subtrees(children, j) == len(sets)
            assert count_root_embeddings(children, j) == sum(
                oracles.embeddings_weight(children, s) for s in sets
            )


def test_brute_force_mu_distinct_is_exact_for_deterministic():
    est = brute_force_mu(deterministic_law(2), 3, samples=50, seed=1, distinct=True)
    assert est.mean == 5.0 and est.stderr == 0.0


def test_brute_force_mu_matches_solver():
    law = binomial_law(10, Fraction(1, 5))
    q = factorial_moments(law, 4)
    mu = mu_by_functional_equation(q, 4)
    est = brute_force_mu(law, 3, samples=20_000, seed=3)
    assert est.within(mu[2], sigmas=4)
    with pytest.raises(ValueError):
        brute_force_mu(law, 0, samples=10, seed=0)
    with pytest.raises(ValueError):
        brute_force_mu(law, 2, samples=0, seed=0)
    assert brute_force_mu(law, np.int64(3), np.int32(50), 3) == \
        brute_force_mu(law, 3, 50, 3)


@pytest.mark.parametrize("kw, match", [
    ({"j": 2.5}, "j must be an integer"),
    ({"j": "2"}, "j must be an integer"),
    ({"samples": 10.0}, "samples must be an integer"),
    ({"j": 1, "samples": 10.0}, "samples must be an integer"),
], ids=["j-float", "j-string", "samples-float", "one-vertex-samples-float"])
def test_brute_force_mu_reads_j_and_samples_as_integers(kw, match):
    # a float is neither truncated nor run: the integer rule, as for seed
    with pytest.raises(ValueError, match=match):
        brute_force_mu(poisson_law(1), **{"j": 2, "samples": 10, "seed": 0, **kw})


LAWS = [
    poisson_law(Fraction(1, 3)),
    poisson_law(2),
    poisson_law(15),
    binomial_law(10, Fraction(1, 5)),
    binomial_plus_law(6, Fraction(1, 4), 1),
    deterministic_law(2),
    explicit_law([(0, Fraction(1, 2)), (3, Fraction(1, 3)), (1, Fraction(1, 6))]),
]


@settings(max_examples=40, deadline=None)
@given(law=st.sampled_from(LAWS), seed=st.integers(0, 2**64 - 1),
       a=st.integers(0, 300), b=st.integers(0, 300))
def test_law_sample_concatenates(law, seed, a, b):
    """Two draws in a row equal one draw of the summed size: the property
    that lets brute_force_mu draw its offspring stream in blocks."""
    rng = make_rng(seed)
    split = np.concatenate((law.sample(rng, a), law.sample(rng, b)))
    whole = law.sample(make_rng(seed), a + b)
    assert split.dtype == whole.dtype == np.int64
    assert split.tolist() == whole.tolist()


def _block_counts(law, j, samples, seed, distinct, draws):
    with mock.patch.object(subtrees, "_MC_DRAWS", draws):
        return list(subtrees._mc_counts(law, j, samples, seed, distinct))


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(LAWS[:2] + LAWS[3:]), j=st.integers(1, 7),
       seed=st.integers(0, 2**64 - 1), distinct=st.booleans(),
       draws=st.sampled_from([1, 2, 3, 16, 64]), offset=st.integers(-1, 1))
def test_mc_counts_match_oracle(law, j, seed, distinct, draws, offset):
    """Per-tree counts equal the tree-at-a-time oracle, for sample counts
    just below, at and just above the end of the first block."""
    first = _block_counts(law, j, 40, seed, distinct, draws)[0].size
    samples = max(1, first + offset)
    blocks = _block_counts(law, j, samples, seed, distinct, draws)
    got = [int(x) for block in blocks for x in block]
    assert got == oracles.mc_counts(law, j, samples, seed, distinct)


@pytest.mark.parametrize("distinct", [False, True])
def test_brute_force_mu_equals_oracle_at_benchmark_size(distinct):
    law = poisson_law(2)
    seed = derive_seed(20120117, 6, int(distinct))
    assert brute_force_mu(law, 6, 1000, seed, distinct) == \
        oracles.brute_force_mu(law, 6, 1000, seed, distinct)


def test_brute_force_mu_equals_oracle_at_acceptance_size():
    """test_04's five estimates, as the tree-at-a-time oracle gave them
    (12 s to recompute, so kept as literals)."""
    expected = {
        1: (1.0, 0.0),
        2: (0.99701, 0.0031486361711219315),
        3: (1.9943, 0.010951377741030771),
        4: (5.09587, 0.042345123928572995),
        5: (13.80503, 0.15484575725242325),
    }
    for j, (mean, stderr) in expected.items():
        est = brute_force_mu(poisson_law(1), j, samples=100_000,
                             seed=derive_seed(0, 42, j))
        assert est == MCEstimate(mean=mean, stderr=stderr, samples=100_000)


@pytest.mark.parametrize("distinct", [False, True])
def test_mc_counts_past_int64_use_python_ints(distinct):
    """A 40-child atom at j = 13 puts the overflow bound, and some counts,
    past int64 while the trees stay small; the object-dtype path must give
    the oracle's exact integers."""
    law = explicit_law([(0, Fraction(97, 100)), (40, Fraction(3, 100))])
    assert mu_poisson_closed_form(1, 13) * 40**12 > np.iinfo(np.int64).max
    blocks = list(subtrees._mc_counts(law, 13, 300, 3, distinct))
    assert all(block.dtype == object for block in blocks)
    got = [int(x) for block in blocks for x in block]
    ref = oracles.mc_counts(law, 13, 300, 3, distinct)
    assert got == ref
    if not distinct:
        assert max(ref) > np.iinfo(np.int64).max
    assert brute_force_mu(law, 13, 300, 3, distinct) == \
        oracles.brute_force_mu(law, 13, 300, 3, distinct)


def test_counts_of_one_tree_past_int64():
    """The complete 40-ary tree of depth 2 has more than 2^63 ordered
    12-vertex embeddings at its root."""
    tree = [list(range(1, 41))]
    tree += [list(range(41 + 40 * i, 81 + 40 * i)) for i in range(40)]
    tree += [[] for _ in range(1600)]
    for j in (1, 2, 8, 12):
        assert count_root_embeddings(tree, j) == oracles.count_root_embeddings(tree, j)
        assert count_root_subtrees(tree, j) == oracles.count_root_subtrees(tree, j)
    assert count_root_embeddings(tree, 12) > np.iinfo(np.int64).max


def test_counts_at_large_j():
    """Past j = 21, (j-1)! leaves int64 while a path's counts stay 1."""
    path = [[u + 1] for u in range(29)] + [[]]
    for j in (21, 22, 25, 30, 31):
        assert count_root_subtrees(path, j) == int(j <= 30)
        assert count_root_embeddings(path, j) == int(j <= 30)
    est = brute_force_mu(deterministic_law(1), 25, samples=3, seed=0)
    assert (est.mean, est.stderr) == (1.0, 0.0)
    binary = oracles.sample_tree(deterministic_law(2), 8, make_rng(0))
    for j in (8, 22, 25):
        assert count_root_embeddings(binary, j) == oracles.count_root_embeddings(binary, j)
        assert count_root_subtrees(binary, j) == oracles.count_root_subtrees(binary, j)


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(LAWS[:2] + LAWS[3:]), depth=st.integers(1, 6),
       j=st.integers(1, 8), seed=st.integers(0, 2**32))
def test_count_root_matches_oracle(law, depth, j, seed):
    """One tree through the forest engine, against the per-node DP; the
    tree may be deeper or shallower than j."""
    children = oracles.sample_tree(law, depth, make_rng(seed))
    assert count_root_subtrees(children, j) == oracles.count_root_subtrees(children, j)
    assert count_root_embeddings(children, j) == oracles.count_root_embeddings(children, j)


def test_mc_estimate_within():
    est = MCEstimate(mean=10.0, stderr=1.0, samples=100)
    assert est.within(12.9)
    assert not est.within(13.1)


def test_count_subtrees_containing():
    ring = build_ring(10, 1)
    assert connected_set_counts(ring, 9, containing=0) == list(range(1, 10))
    counts = connected_set_counts(complete_graph(5), 3, containing=2)
    assert counts[-1] == math.comb(4, 2)


def test_write_mu_table(tmp_path):
    from nwmix import write_mu_table

    path = tmp_path / "mu.csv"
    write_mu_table(path, poisson_law(1), 4, bound_C=1)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["j", "q_j", "mu_j", "bound_j"]
    assert rows[1:] == [
        ["1", "1", "1", "1"],
        ["2", "1", "1", "1"],
        ["3", "1", "2", "2"],
        ["4", "1", "5", "5"],
    ]
