"""Position indexes over chunk-sized arrays.

The chunk engine's in-order trap delivery chains each trapped granule
(or page-trapped VPN) from one occurrence to the next: after handling
position ``i`` it asks for the *first* later position referencing a
location that is trapped at that moment.  Scanning the chunk tail for
it is O(chunk) per lookup.

:class:`PositionIndex` precomputes, once per segment, a stable argsort
of the value array.  Because the sort is stable, the positions of any
one value appear in ascending order inside their sorted run, so "the
first occurrence of value v after position i" is three binary searches
(locate v's run, then bisect the run by i).  The sorted values and
positions are held as Python lists and searched with :mod:`bisect`, so
a lookup costs a few hundred nanoseconds and returns a plain ``int``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.telemetry.profile import phase


class PositionIndex:
    """Sorted-occurrence index: value -> ascending chunk positions."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        order = np.argsort(values, kind="stable")
        #: values in sorted order (runs of equal values are contiguous)
        self._values: list[int] = values[order].tolist()
        #: original positions, ascending within each equal-value run
        self._positions: list[int] = order.tolist()

    def __len__(self) -> int:
        return len(self._values)

    def _run(self, value: int) -> tuple[int, int]:
        lo = bisect_left(self._values, value)
        return lo, bisect_right(self._values, value, lo)

    def first_after(self, value: int, position: int) -> int:
        """The first position > ``position`` holding ``value``, or -1."""
        lo, hi = self._run(value)
        k = bisect_right(self._positions, position, lo, hi)
        return self._positions[k] if k < hi else -1

    def occurrences_after(self, value: int, position: int) -> list[int]:
        """All positions > ``position`` holding ``value``, ascending."""
        lo, hi = self._run(value)
        start = bisect_right(self._positions, position, lo, hi)
        return self._positions[start:hi]

    def occurrences(self, value: int) -> list[int]:
        """All positions holding ``value``, ascending."""
        return self.occurrences_after(value, -1)


class RescanBinding:
    """Lazy, phase-labelled :class:`PositionIndex` over one chunk array.

    The scan kernel's ``bind_rescans`` hands one of these per
    rescannable value array (ECC granules, VPNs); the index is built on
    the *first* lookup — a segment whose traps are all cleared by their
    own handlers and displace nothing later in the chunk never pays the
    argsort — under the ``machine.rescan_index`` phase timer.
    """

    __slots__ = ("_values", "_kind", "_index")

    def __init__(self, values: np.ndarray, kind: str) -> None:
        self._values = values
        self._kind = kind
        self._index: PositionIndex | None = None

    def first_after(self, value: int, position: int) -> int:
        index = self._index
        if index is None:
            with phase("machine.rescan_index", kind=self._kind):
                index = self._index = PositionIndex(self._values)
        return index.first_after(value, position)
