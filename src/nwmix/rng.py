"""Seed derivation and generator construction.

All randomness in the package flows through counter-based Philox streams so
that results are reproducible from a single master seed, regardless of how
work is split into replications, starts, or restarts.

``philox_words`` serves loops that draw one scalar at a time (the annealer
in ``conductance``): it yields the raw 64-bit Philox words as Python ints,
and the loop turns them into the same floats and bounded integers a
``Generator`` would, bit for bit, without numpy's per-call cost.
``thread_philox`` serves callers that key thousands of short streams (the
escape walks in ``walks``): it re-keys a generator kept per thread and slot
instead of building a new one, and it can position the stream at any
raw-word offset, so a caller reads only the stretches of a stream it uses,
on as many cursors as it has slots.
"""

from __future__ import annotations

import operator
import threading
from itertools import chain, repeat

import numpy as np

_MASK64 = (1 << 64) - 1
_WORDS = 512  # raw words fetched per refill in philox_words
_ZEROS4 = [0, 0, 0, 0]
_THREAD = threading.local()  # .bitgens: the generators thread_philox re-keys


def _integer(v, what: str, error=ValueError) -> int:
    """`v` as an int: an int or numpy integer, never a float that ``int``
    would truncate, nor a string it would parse, which raise `error` (the
    calling module's ValueError).  The package's one integer rule."""
    try:
        return operator.index(v)
    except TypeError:
        raise error(f"{what} must be an integer, got {v!r}") from None


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed as a pure function of (master, *parts).

    Uses numpy's SeedSequence entropy hashing, which is stable across
    platforms and numpy versions.
    """
    entropy = [_integer(master, "master seed") & _MASK64]
    entropy += [_integer(p, "seed part") & _MASK64 for p in parts]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def philox(seed: int) -> np.random.Philox:
    """Philox bit generator keyed directly by a 64-bit seed."""
    return np.random.Philox(key=_integer(seed, "seed") & _MASK64)


def thread_philox(seed: int, word: int = 0, slot: int = 0) -> np.random.Philox:
    """``philox(seed)`` after its first `word` raw words, on this thread's
    reused generator number `slot`.

    Setting ``.state`` skips the entropy seeding that numpy's constructor
    runs and the key then overwrites; given as Python ints, not arrays,
    the state is read without numpy scalar conversions.  Each Philox
    counter value yields a block of four words, and the counter is stepped
    before a block is made, so the stream from `word` on starts with the
    counter at ``word // 4``, an empty buffer, and ``word % 4`` words
    dropped.  The stream is the same word for word.  The generator is the
    caller's only until this thread's next call with the same slot.
    """
    key, word = _integer(seed, "seed") & _MASK64, _integer(word, "word offset")
    if word < 0:
        raise ValueError(f"word offset must be >= 0, got {word}")
    bitgens = getattr(_THREAD, "bitgens", None)
    if bitgens is None:
        bitgens = _THREAD.bitgens = {}
    bitgen = bitgens.get(slot)
    if bitgen is None:
        bitgen = bitgens[slot] = np.random.Philox(0)
    block, skip = divmod(word, 4)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(block >> s) & _MASK64 for s in (0, 64, 128, 192)],
                  "key": [key, 0]},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    if skip:
        bitgen.random_raw(skip)
    return bitgen


def make_rng(seed: int) -> np.random.Generator:
    """Generator on ``philox(seed)``."""
    return np.random.Generator(philox(seed))


def philox_words(seed: int):
    """The raw 64-bit words of ``philox(seed)``, as Python ints.

    An iterator over ``philox(seed).random_raw``'s stream, fetched in blocks
    as it is used up, for loops that read one word at a time (the annealer
    in ``conductance``) without numpy's per-call cost.
    """
    blocks = map(philox(seed).random_raw, repeat(_WORDS))
    return chain.from_iterable(map(np.ndarray.tolist, blocks))
