"""Seed derivation and generator construction.

All randomness in the package flows through counter-based Philox streams so
that results are reproducible from a single master seed, regardless of how
work is split into replications, starts, or restarts.

``philox_draws`` serves loops that draw one scalar at a time (the annealer
in ``conductance``): it reads the raw 64-bit Philox words directly and turns
them into the same floats and bounded integers a ``Generator`` would, bit
for bit, without numpy's per-call cost.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_WORDS = 512  # raw words fetched per refill in philox_draws


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed as a pure function of (master, *parts).

    Uses numpy's SeedSequence entropy hashing, which is stable across
    platforms and numpy versions.
    """
    entropy = [int(master) & _MASK64] + [int(p) & _MASK64 for p in parts]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed directly by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def philox_draws(seed: int):
    """(random, integers): scalar draws equal to those of make_rng(seed).

    ``random()`` equals ``Generator.random()`` and ``integers(k)`` equals
    ``Generator.integers(k)`` for 1 <= k <= 2**32, in any interleaving of
    calls.  Both read raw 64-bit Philox words, fetched in blocks as they are
    used up, and copy numpy's rules: a double is the word's top 53 bits
    times 2**-53; a bounded integer is Lemire's 32-bit multiply-and-reject
    draw, fed by 32-bit halves that take a word's low half first and keep
    its high half for the next 32-bit draw (double draws leave that half
    waiting); k = 1 draws nothing.
    """
    bitgen = np.random.Philox(key=int(seed) & _MASK64)
    blocks = map(bitgen.random_raw, repeat(_WORDS))  # fetched as consumed
    word = chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__
    high = None  # the waiting high half of the last word split for 32 bits

    def random() -> float:
        return (word() >> 11) * 2.0**-53

    def integers(k: int) -> int:
        nonlocal high
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"integers(k) needs 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0
        floor = (1 << 32) % k  # numpy's rejection threshold
        while True:
            if high is None:
                w = word()
                u, high = w & _MASK32, w >> 32
            else:
                u, high = high, None
            m = u * k
            if m & _MASK32 >= floor:
                return m >> 32

    return random, integers
