"""The machine's pace, measured between the benchmark's timed sections.

A shared host's speed is not constant: on the 2-core x86_64 box this
benchmark was tuned on, the same pass over the same file takes anywhere
from 1x to 1.9x its fastest time, in stretches of tens of seconds, as
other tenants come and go.  A run of the program alone cannot tell its
own changes from the neighbours'.

:class:`Pace` times a fixed piece of pure-Python work — the
*yardstick* — right after every timed section, so each section sits
between two yardstick timings.  The yardstick does what the program
does (split text lines, parse addresses and integers, bisect a sorted
table, fold into dicts and sets) on data built once from a constant
seed, so it slows with the machine the way the program does, and no
change to the program can change it.  :meth:`Pace.scale` is the mean of
the two yardstick timings around the section just measured, divided by
:data:`REFERENCE_S`; the benchmark divides that section's times (and
multiplies its rates) by it.  Every timing figure is therefore stated
at the reference pace: the machine speed at which the yardstick takes
:data:`REFERENCE_S` seconds.

The yardstick and :data:`REFERENCE_S` are part of the benchmark's
definition: change either and figures from before and after the change
are no longer comparable.
"""

from __future__ import annotations

import bisect
import gc
import random
from time import perf_counter
from typing import List, Tuple

__all__ = ["REFERENCE_S", "Pace", "FixedPace"]

#: The yardstick's time at the reference pace: roughly its time on an
#: uncontended 2-core x86_64 box with Python 3.11.
REFERENCE_S = 0.065

#: Size of the yardstick's data.
_LINES = 16_000
_TABLE = 60_000
_SEED = 20_000_101


def _build() -> Tuple[List[str], List[int]]:
    rng = random.Random(_SEED)
    lines = [
        f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}"
        f" - - [01/Feb/1998:00:{index // 60 % 60:02d}:{index % 60:02d} +0000]"
        f' "GET /u{rng.randrange(5000)} HTTP/1.0" 200 {rng.randrange(100_000)}'
        for index in range(_LINES)
    ]
    table = sorted(rng.randrange(1 << 32) for _ in range(_TABLE))
    return lines, table


def _yardstick(lines: List[str], table: List[int]) -> int:
    """Group the lines' clients, URLs and bytes by table interval."""
    groups: dict = {}
    for line in lines:
        host, rest = line.split(" ", 1)
        a, b, c, d = host.split(".")
        address = (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)
        url = rest.split('"', 2)[1].split(" ")[1]
        key = bisect.bisect_right(table, address)
        group = groups.get(key)
        if group is None:
            group = groups[key] = [set(), set(), 0]
        group[0].add(address)
        group[1].add(url)
        group[2] += int(rest.rsplit(" ", 1)[1])
    return len(groups)


class Pace:
    """Yardstick timings around timed sections; see the module docstring."""

    def __init__(self) -> None:
        self._lines, self._table = _build()
        #: Every yardstick timing of the run, in seconds.
        self.timings: List[float] = []
        self._measure()

    def _measure(self) -> float:
        # The collector stays off, so the yardstick's time does not
        # depend on how much the program left on the heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = perf_counter()
            _yardstick(self._lines, self._table)
            elapsed = perf_counter() - began
        finally:
            if enabled:
                gc.enable()
        self.timings.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """How much slower than the reference pace the machine ran over
        the section that just ended (1.0 = reference, 2.0 = half speed)."""
        before = self.timings[-1]
        after = self._measure()
        return (before + after) / 2 / REFERENCE_S


class FixedPace:
    """No yardstick: every section counts at its raw time (the traced
    run, whose timings are per-layer shares, not end-to-end figures)."""

    def __init__(self) -> None:
        self.timings: List[float] = []

    def scale(self) -> float:
        return 1.0
