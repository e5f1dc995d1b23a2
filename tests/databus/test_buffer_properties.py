"""Property-based invariants of the relay's circular event buffer."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.common.errors import SCNGoneError
from repro.databus.events import DatabusEvent, source_filter
from repro.databus.relay import EventBuffer
from repro.sqlstore.binlog import ChangeKind


def window(scn: int, size: int) -> list[DatabusEvent]:
    return [DatabusEvent(scn, "t", ChangeKind.UPDATE, (i,), b"p" * 16,
                         end_of_window=(i == size - 1))
            for i in range(size)]


window_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(window_sizes, st.integers(4, 30))
def test_retained_suffix_is_contiguous_and_complete(sizes, capacity):
    buffer = EventBuffer(max_events=capacity)
    for scn, size in enumerate(sizes, start=1):
        buffer.append_window(window(scn, size))
    # whatever is retained: read it all from the oldest position
    oldest = buffer.oldest_scn
    if oldest is None:
        return
    events = buffer.events_since(oldest - 1)
    # 1. SCNs are non-decreasing and gap-free across windows
    scns = sorted({e.scn for e in events})
    assert scns == list(range(scns[0], scns[-1] + 1))
    # 2. every retained window is complete
    by_scn: dict[int, list[DatabusEvent]] = {}
    for event in events:
        by_scn.setdefault(event.scn, []).append(event)
    for scn, events_of_window in by_scn.items():
        assert len(events_of_window) == sizes[scn - 1]
        assert events_of_window[-1].end_of_window
    # 3. the newest window is always retained
    assert scns[-1] == len(sizes)


@settings(max_examples=60, deadline=None)
@given(window_sizes, st.integers(4, 30), st.integers(0, 45))
def test_reads_are_exact_suffixes_or_scngone(sizes, capacity, from_scn):
    buffer = EventBuffer(max_events=capacity)
    for scn, size in enumerate(sizes, start=1):
        buffer.append_window(window(scn, size))
    evicted_through = buffer._evicted_through
    if from_scn < evicted_through:
        with pytest.raises(SCNGoneError):
            buffer.events_since(from_scn)
        return
    events = buffer.events_since(from_scn)
    expected = [scn for scn in range(max(from_scn + 1, 1), len(sizes) + 1)]
    assert sorted({e.scn for e in events}) == expected


@settings(max_examples=40, deadline=None)
@given(window_sizes)
def test_capacity_never_exceeded_by_more_than_last_window(sizes):
    capacity = 6
    buffer = EventBuffer(max_events=capacity)
    for scn, size in enumerate(sizes, start=1):
        buffer.append_window(window(scn, size))
        # eviction may leave up to capacity events, plus however many a
        # single (oversized) window needs
        assert len(buffer) <= max(capacity, size)


# -- oracle: the SCN-indexed buffer against a linear-scan reference ---------


class LinearBuffer:
    """The relay buffer as a plain list scanned from the oldest event."""

    def __init__(self, max_events: int, max_bytes: int):
        self.max_events = max_events
        self.max_bytes = max_bytes
        self.events: list[DatabusEvent] = []
        self.evicted_through = 0

    def append_window(self, events):
        self.events.extend(events)
        while (len(self.events) > self.max_events
               or sum(e.size_bytes for e in self.events) > self.max_bytes):
            victim = self.events[0].scn
            self.events = [e for e in self.events if e.scn != victim]
            self.evicted_through = victim

    def drop_window(self, scn):
        kept = [e for e in self.events if e.scn != scn]
        removed = len(self.events) - len(kept)
        self.events = kept
        return removed

    def events_since(self, scn, event_filter, max_events):
        if scn < self.evicted_through:
            raise SCNGoneError("gone", oldest_retained=self.oldest_scn)
        out, delivered_through = [], None
        for event in self.events:
            if event.scn <= scn:
                continue
            if len(out) >= max_events and event.scn != delivered_through:
                break
            if event_filter is None or event_filter(event):
                out.append(event)
            delivered_through = event.scn
        while out and not out[-1].end_of_window:
            out.pop()
        return out

    @property
    def oldest_scn(self):
        return self.events[0].scn if self.events else None

    @property
    def newest_scn(self):
        return self.events[-1].scn if self.events else None


def mixed_window(scn, shape):
    """One window; ``shape`` is a list of (source, payload length)."""
    return [DatabusEvent(scn, source, ChangeKind.UPDATE, (i,), b"p" * size,
                         end_of_window=(i == len(shape) - 1))
            for i, (source, size) in enumerate(shape)]


def read(buffer, scn, event_filter, max_events):
    try:
        return buffer.events_since(scn, event_filter, max_events)
    except SCNGoneError as exc:
        return ("gone", exc.oldest_retained)


def assert_matches(buffer, ref, top_scn, event_filter, max_events):
    assert len(buffer) == len(ref.events)
    assert buffer.oldest_scn == ref.oldest_scn
    assert buffer.newest_scn == ref.newest_scn
    assert buffer.size_bytes == sum(e.size_bytes for e in ref.events)
    assert buffer.evicted_through == ref.evicted_through
    for scn in range(-1, top_scn + 2):
        assert buffer.contains_scn(scn) == any(
            e.scn == scn for e in ref.events)
        assert (read(buffer, scn, event_filter, max_events)
                == read(ref, scn, event_filter, max_events))
        assert (read(buffer, scn, None, 10_000)
                == read(ref, scn, None, 10_000))


window_shapes = st.lists(
    st.tuples(st.sampled_from(["t", "u"]), st.integers(0, 64)),
    min_size=1, max_size=4)
buffer_ops = st.lists(
    st.one_of(st.tuples(st.just("append"), window_shapes),
              st.tuples(st.just("drop"), st.integers(1, 60))),
    min_size=1, max_size=60)


@settings(max_examples=80, deadline=None)
@given(buffer_ops, st.integers(1, 30), st.integers(64, 2000),
       st.sampled_from([None, "t", "u"]), st.integers(1, 12))
def test_scn_index_matches_linear_scan(ops, max_events, max_bytes, source,
                                       read_limit):
    buffer = EventBuffer(max_events=max_events, max_bytes=max_bytes)
    ref = LinearBuffer(max_events, max_bytes)
    event_filter = None if source is None else source_filter(source)
    scn = 0
    for op, arg in ops:
        if op == "append":
            scn += 1
            buffer.append_window(mixed_window(scn, arg))
            ref.append_window(mixed_window(scn, arg))
        else:
            assert buffer.drop_window(arg) == ref.drop_window(arg)
        assert_matches(buffer, ref, scn, event_filter, read_limit)


def test_scn_index_matches_linear_scan_after_head_compaction():
    buffer = EventBuffer(max_events=6)
    ref = LinearBuffer(6, 64 * 1024 * 1024)
    compactions = 0
    for scn in range(1, 40):
        shape = [("t", 8)] * (1 + scn % 3)
        stored = len(buffer._events)
        buffer.append_window(mixed_window(scn, shape))
        ref.append_window(mixed_window(scn, shape))
        if len(buffer._events) < stored + len(shape):
            compactions += 1
            assert buffer._head == 0
        if scn == 20:
            buffer.drop_window(18)
            ref.drop_window(18)
        assert_matches(buffer, ref, scn, source_filter("t"), 2)
    assert compactions > 0
