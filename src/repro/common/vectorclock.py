"""Vector clocks (Lamport [LAM78]) as used by Voldemort (§II.B).

Voldemort versions every tuple with a vector clock and delegates
conflict resolution of concurrent versions to the application.  Two
clocks are *concurrent* when neither dominates the other; a replica
holding concurrent versions surfaces both to the reader.

The implementation is immutable: ``incremented`` and ``merged`` return
new clocks, which keeps versions safe to share between simulated nodes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, TypeVar

from repro.common.errors import ConfigurationError


V = TypeVar("V")


class Occurred(Enum):
    """Relationship between two vector clocks."""

    BEFORE = "before"        # self < other
    AFTER = "after"          # self > other
    EQUAL = "equal"          # identical
    CONCURRENT = "concurrent"  # neither dominates


_BEFORE = Occurred.BEFORE
_AFTER = Occurred.AFTER
_EQUAL = Occurred.EQUAL
_CONCURRENT = Occurred.CONCURRENT


class VectorClock:
    """An immutable mapping of node id -> logical counter."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | None = None):
        items = dict(entries or {})
        for node, counter in items.items():
            if counter <= 0:
                raise ConfigurationError(
                    f"counter for node {node} must be positive, "
                    f"got {counter}")
        self._entries: tuple[tuple[int, int], ...] = tuple(sorted(items.items()))

    @property
    def entries(self) -> dict[int, int]:
        return dict(self._entries)

    @property
    def weight(self) -> int:
        """Sum of all counters: the total number of writes this clock
        has seen, which last-writer-wins resolution ranks by."""
        return sum(counter for _, counter in self._entries)

    def counter_of(self, node_id: int) -> int:
        for node, counter in self._entries:
            if node == node_id:
                return counter
        return 0

    def incremented(self, node_id: int) -> "VectorClock":
        """Return a copy with ``node_id``'s counter bumped by one."""
        entries = self.entries
        entries[node_id] = entries.get(node_id, 0) + 1
        return VectorClock(entries)

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum — the join in the version lattice."""
        entries = self.entries
        for node, counter in other._entries:
            entries[node] = max(entries.get(node, 0), counter)
        return VectorClock(entries)

    def compare(self, other: "VectorClock") -> Occurred:
        """One merge walk over both node-sorted entry tuples.

        Counters are always positive, so a node present on one side
        only makes that side bigger.
        """
        mine, theirs = self._entries, other._entries
        if mine == theirs:
            return _EQUAL
        self_bigger = other_bigger = False
        i = j = 0
        mine_len, theirs_len = len(mine), len(theirs)
        while i < mine_len and j < theirs_len:
            node, counter = mine[i]
            other_node, other_counter = theirs[j]
            if node == other_node:
                if counter > other_counter:
                    self_bigger = True
                elif other_counter > counter:
                    other_bigger = True
                i += 1
                j += 1
            elif node < other_node:
                self_bigger = True
                i += 1
            else:
                other_bigger = True
                j += 1
        if i < mine_len:
            self_bigger = True
        if j < theirs_len:
            other_bigger = True
        if self_bigger:
            return _CONCURRENT if other_bigger else _AFTER
        return _BEFORE if other_bigger else _EQUAL

    def dominates(self, other: "VectorClock") -> bool:
        return self.compare(other) is Occurred.AFTER

    def descends_from(self, other: "VectorClock") -> bool:
        """True when ``self`` is equal to or causally after ``other``."""
        return self.compare(other) in (Occurred.AFTER, Occurred.EQUAL)

    def concurrent_with(self, other: "VectorClock") -> bool:
        return self.compare(other) is Occurred.CONCURRENT

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{node}:{counter}" for node, counter in self._entries)
        return f"VectorClock({{{body}}})"


def prune_obsolete(versions: Iterable[V]) -> list[V]:
    """The frontier of ``versions``: every one no other version dominates.

    Each item carries its clock as ``.clock`` (a Voldemort ``Versioned``
    does).  Survivors keep their input order; of several equal clocks
    the first wins.  This is the read-path reconciliation step: after
    collecting versions from R replicas, only the frontier of concurrent
    versions survives; anything causally older is discarded (and
    repaired by ``RoutedStore._read_repair`` in
    :mod:`repro.voldemort.routing`).

    The frontier is built incrementally and is an antichain at every
    step, so one ``compare`` per (incoming, kept) pair decides both
    directions: an incoming version that supersedes some kept ones
    cannot also be dominated by (or equal to) another kept one.
    """
    frontier: list[V] = []
    for incoming in versions:
        clock = incoming.clock
        survivors: list[V] = []
        for kept in frontier:
            relation = clock.compare(kept.clock)
            if relation is _CONCURRENT:
                survivors.append(kept)
            elif relation is not _AFTER:
                break  # dominated by, or a duplicate of, a kept version
        else:
            survivors.append(incoming)
            frontier = survivors
    return frontier
