"""A fixed calibration probe that tracks how fast the machine runs right now.

On a shared machine the same code runs up to twice as slow for spells of
seconds to minutes, and the spells move every wall-clock figure together.
The benchmark runs this probe between units and reports a unit's time as
``unit seconds / probe seconds * PROBE_REF_S``, with the mean of the probe
runs just before and just after the unit: seconds at the speed at which the
probe takes ``PROBE_REF_S``.  The probe calls no nwmix code, so a
change to the program moves the unit's time and not the probe's.

Its four legs mirror the work the units do: ``Fraction`` arithmetic on big
integers, small dict and set operations, a sparse matrix product and a text
file written and parsed.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

# Median probe time on the reference machine of ``manifest.json``.
PROBE_REF_S = 0.135

_N = 1 << 14


class Probe:
    """Times the probe; ``workdir`` takes its scratch file."""

    def __init__(self, workdir):
        # imported here, after the benchmark has capped the thread pools
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self._a = sp.random(_N, _N, density=4 / _N, random_state=rng, format="csr")
        self._x = rng.random((_N, 16))
        self._path = Path(workdir) / "probe.txt"

    def _fraction(self) -> None:
        s = Fraction(0)
        for i in range(1, 2500):
            s += Fraction(1, i * i + 1)

    def _dict(self) -> None:
        d, seen = {}, set()
        for i in range(90000):
            d[i % 997] = d.get(i % 997, 0) + i
            if i % 3:
                seen.add(i * 7 % 5003)

    def _sparse(self) -> None:
        y = self._x
        for _ in range(18):
            y = self._a @ y

    def _io(self) -> None:
        with open(self._path, "w", encoding="utf-8") as fh:
            for i in range(40000):
                fh.write(f"{i} {i * 7 % 65536}\n")
        with open(self._path, encoding="utf-8") as fh:
            sum(int(line.split()[1]) for line in fh)

    def seconds(self) -> float:
        """Wall seconds of one probe run."""
        t0 = time.perf_counter()
        self._fraction()
        self._dict()
        self._sparse()
        self._io()
        return time.perf_counter() - t0
