import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwmix.rng import make_rng, philox_draws

# k = 1 draws nothing, 2**32 - 1 and 2**32 are numpy's edge ranges, and
# 2**31 + 11 rejects about half its draws
_K = st.one_of(st.sampled_from([1, 2, 3, 2**31 + 11, 2**32 - 1, 2**32]),
               st.integers(min_value=1, max_value=2**32))
# (call, k, repeats): runs of one call cross the 512-word refills and chain
# integers calls through the waiting high half of a word
_RUNS = st.lists(st.tuples(st.sampled_from(["random", "integers"]), _K,
                           st.integers(min_value=1, max_value=700)), max_size=10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), _RUNS)
@example(0, [("random", 1, 511), ("integers", 3, 1), ("random", 1, 1),
             ("integers", 3, 3)])  # a word split across a refill and a double
@example(7, [("integers", 2**32, 1023), ("integers", 1, 5), ("random", 1, 2),
             ("integers", 2**31 + 11, 600)])
def test_philox_draws_match_generator(seed, runs):
    random, integers = philox_draws(seed)
    rng = make_rng(seed)
    for call, k, repeats in runs:
        for _ in range(repeats):
            if call == "random":
                got, want = random(), rng.random()
            else:
                got, want = integers(k), rng.integers(k)
                assert type(got) is int
            assert got == want, (call, k)


def test_philox_draws_range():
    _, integers = philox_draws(3)
    for k in (0, -1, 2**32 + 1):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            integers(k)
