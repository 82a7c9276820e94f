import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwmix.rng import derive_seed, make_rng, philox, philox_words, thread_philox

import oracles

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
    # numpy's draw rules as the tests state them, on the raw-word stream
    draws = oracles.WordDraws(philox_words(seed))
    rng = make_rng(seed)
    for call, k, repeats in runs:
        for _ in range(repeats):
            if call == "random":
                got, want = draws.random(), rng.random()
            else:
                got, want = draws.integers(k), rng.integers(k)
                assert type(got) is int
            assert got == want, (call, k)


def test_philox_draws_range():
    draws = oracles.WordDraws(philox_words(3))
    for k in (0, -1, 2**32 + 1):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            draws.integers(k)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -3])
def test_philox_words_are_the_raw_stream(seed):
    # across several 512-word refills, as Python ints
    words = philox_words(seed)
    got = [next(words) for _ in range(1500)]
    assert all(type(w) is int for w in got)
    assert got == philox(seed).random_raw(1500).tolist()


def test_thread_philox_restarts_the_stream():
    seeds = [0, 1, 2**63, 2**64 - 1, 2**64 + 5, -3]
    for seed in seeds:
        want = philox(seed).random_raw(4103)
        bitgen = thread_philox(seed)
        assert np.array_equal(bitgen.random_raw(4103), want)
        # a re-key mid-stream, and after Generator draws that leave a
        # buffered half word, starts over
        np.random.Generator(bitgen).integers(3, size=5)
        gen = np.random.Generator(thread_philox(seed))
        ref = make_rng(seed)
        assert np.array_equal(gen.random(7), ref.random(7))
        assert np.array_equal(gen.integers(10, size=9), ref.integers(10, size=9))
        assert np.array_equal(gen.geometric(0.01, size=9), ref.geometric(0.01, size=9))
    assert thread_philox(1) is thread_philox(2)


_SEEDS = [0, 1, 2**63, 2**64 - 1, -3]
_WORDS = [0, 1, 3, 4, 4095, 4096, 8193]


def test_thread_philox_positions_the_stream():
    for seed in _SEEDS:
        stream = philox(seed).random_raw(max(_WORDS) + 37)
        for word in _WORDS:
            for slot in (0, 1):
                bitgen = thread_philox(seed, word, slot=slot)
                # within a block, across a block edge, then whole blocks
                got = np.concatenate([bitgen.random_raw(1), bitgen.random_raw(4),
                                      bitgen.random_raw(32)])
                assert np.array_equal(got, stream[word:word + 37]), (seed, word, slot)
        # two slots are two cursors on one stream: moving one leaves the other
        coins = thread_philox(seed, 8)
        picks = thread_philox(seed, 4096 + 8, slot=1)
        assert np.array_equal(coins.random_raw(5), stream[8:13])
        assert np.array_equal(picks.random_raw(6), stream[4104:4110])
        assert np.array_equal(coins.random_raw(3), stream[13:16])
    assert thread_philox(1, 5) is thread_philox(2) is not thread_philox(2, slot=1)
    with pytest.raises(ValueError, match="word offset"):
        thread_philox(1, -1)


def test_thread_philox_is_one_generator_per_thread():
    got = {}

    def run(name):
        got[name] = (thread_philox(7), thread_philox(7).random_raw(3),
                     thread_philox(7, 4095, slot=1),
                     thread_philox(7, 4095, slot=1).random_raw(3))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    mine = [thread_philox(7), thread_philox(7, slot=1)]
    ids = {id(b) for b in mine} | {id(v[i]) for v in got.values() for i in (0, 2)}
    assert len(ids) == 6
    for _, words, _, positioned in got.values():
        assert np.array_equal(words, philox(7).random_raw(3))
        assert np.array_equal(positioned, philox(7).random_raw(4098)[4095:])


@pytest.mark.parametrize("func, args", [
    (derive_seed, (1.5, 2)), (derive_seed, (1, 2.0)), (derive_seed, ("1", 2)),
    (philox, ("5",)), (philox, (5.0,)), (make_rng, (1.5,)), (philox_words, ("5",)),
    (thread_philox, (2.5,)), (thread_philox, (1, 2.5)), (thread_philox, (1, "4")),
], ids=["derive-master-float", "derive-part-float", "derive-master-str", "philox-str",
        "philox-float", "make_rng-float", "words-str", "thread-seed-float",
        "thread-word-float", "thread-word-str"])
def test_seeds_must_be_integers(func, args):
    # a float seed is not truncated, nor a string seed parsed
    with pytest.raises(ValueError, match="must be an integer"):
        func(*args)


def test_numpy_integer_seeds_are_integers():
    assert derive_seed(np.int64(1), np.uint64(2)) == derive_seed(1, 2)
    assert philox(np.uint64(5)).random_raw(3).tolist() == philox(5).random_raw(3).tolist()
    bitgen = thread_philox(np.int64(5), np.int32(6))
    assert bitgen.random_raw(2).tolist() == philox(5).random_raw(8)[6:].tolist()
