"""Vector clock semantics (Voldemort §II.B)."""

from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.vectorclock import Occurred, VectorClock, prune_obsolete


class Version(NamedTuple):
    """A stand-in for ``Versioned``: prune_obsolete needs only ``.clock``."""

    clock: VectorClock
    value: object


def test_empty_clocks_are_equal():
    assert VectorClock().compare(VectorClock()) is Occurred.EQUAL


def test_increment_creates_new_clock():
    base = VectorClock()
    bumped = base.incremented(1)
    assert base.counter_of(1) == 0
    assert bumped.counter_of(1) == 1
    assert bumped.compare(base) is Occurred.AFTER
    assert base.compare(bumped) is Occurred.BEFORE


def test_concurrent_writes_detected():
    base = VectorClock().incremented(1)
    a = base.incremented(1)
    b = base.incremented(2)
    assert a.compare(b) is Occurred.CONCURRENT
    assert b.compare(a) is Occurred.CONCURRENT


def test_merge_dominates_both_parents():
    a = VectorClock().incremented(1).incremented(1)
    b = VectorClock().incremented(2)
    merged = a.merged(b)
    assert merged.descends_from(a)
    assert merged.descends_from(b)


def test_positive_counters_enforced():
    with pytest.raises(ValueError):
        VectorClock({1: 0})


def test_prune_obsolete_keeps_concurrent_frontier():
    base = VectorClock().incremented(1)
    newer = base.incremented(1)
    sibling = base.incremented(2)
    survivors = prune_obsolete([Version(base, "old"), Version(newer, "new"),
                                Version(sibling, "side")])
    values = {v for _, v in survivors}
    assert values == {"new", "side"}


def test_prune_obsolete_deduplicates_equal_versions():
    clock = VectorClock().incremented(1)
    survivors = prune_obsolete([Version(clock, "a"), Version(clock, "a")])
    assert len(survivors) == 1


def test_repr_is_stable():
    clock = VectorClock().incremented(2).incremented(1)
    assert repr(clock) == "VectorClock({1:1, 2:1})"


# -- property-based laws ----------------------------------------------------

clock_entries = st.dictionaries(st.integers(0, 6), st.integers(1, 5), max_size=5)


@given(clock_entries, clock_entries)
def test_compare_antisymmetry(a_entries, b_entries):
    a, b = VectorClock(a_entries), VectorClock(b_entries)
    relation = a.compare(b)
    inverse = b.compare(a)
    expected = {
        Occurred.BEFORE: Occurred.AFTER,
        Occurred.AFTER: Occurred.BEFORE,
        Occurred.EQUAL: Occurred.EQUAL,
        Occurred.CONCURRENT: Occurred.CONCURRENT,
    }[relation]
    assert inverse is expected


@given(clock_entries, clock_entries)
def test_merge_is_least_upper_bound(a_entries, b_entries):
    a, b = VectorClock(a_entries), VectorClock(b_entries)
    merged = a.merged(b)
    assert merged.descends_from(a)
    assert merged.descends_from(b)
    # least: every entry equals one of the parents' counters
    for node, counter in merged.entries.items():
        assert counter == max(a.counter_of(node), b.counter_of(node))


@given(clock_entries, st.integers(0, 6))
def test_increment_always_moves_forward(entries, node):
    clock = VectorClock(entries)
    assert clock.incremented(node).compare(clock) is Occurred.AFTER


@given(st.lists(clock_entries, max_size=6))
def test_prune_survivors_pairwise_concurrent_or_equalfree(entry_sets):
    versions = [Version(VectorClock(e), i) for i, e in enumerate(entry_sets)]
    survivors = prune_obsolete(versions)
    for i, (clock_a, _) in enumerate(survivors):
        for j, (clock_b, _) in enumerate(survivors):
            if i != j:
                assert clock_a.compare(clock_b) is Occurred.CONCURRENT


# -- the rewritten kernels against reference implementations ---------------

def reference_compare(a: VectorClock, b: VectorClock) -> Occurred:
    """``counter_of`` over the union of both clocks' nodes."""
    nodes = set(a.entries) | set(b.entries)
    a_bigger = any(a.counter_of(n) > b.counter_of(n) for n in nodes)
    b_bigger = any(b.counter_of(n) > a.counter_of(n) for n in nodes)
    if a_bigger and b_bigger:
        return Occurred.CONCURRENT
    if a_bigger:
        return Occurred.AFTER
    if b_bigger:
        return Occurred.BEFORE
    return Occurred.EQUAL


def reference_frontier(versions: list[Version]) -> list[Version]:
    """All-pairs scan: drop a version dominated by any other, or equal to
    an earlier one; survivors in input order."""
    survivors = []
    for i, version in enumerate(versions):
        obsolete = False
        for j, other in enumerate(versions):
            relation = reference_compare(version.clock, other.clock)
            if i != j and relation is Occurred.BEFORE or (
                    j < i and relation is Occurred.EQUAL):
                obsolete = True
                break
        if not obsolete:
            survivors.append(version)
    return survivors


@given(clock_entries, clock_entries)
def test_compare_matches_reference(a_entries, b_entries):
    a, b = VectorClock(a_entries), VectorClock(b_entries)
    assert a.compare(b) is reference_compare(a, b)


# disjoint node ranges, so neither clock's nodes appear in the other
disjoint_a = st.dictionaries(st.integers(0, 3), st.integers(1, 5), max_size=4)
disjoint_b = st.dictionaries(st.integers(4, 7), st.integers(1, 5), max_size=4)


@given(disjoint_a, disjoint_b)
def test_compare_disjoint_node_sets(a_entries, b_entries):
    a, b = VectorClock(a_entries), VectorClock(b_entries)
    expected = reference_compare(a, b)
    assert a.compare(b) is expected
    if a_entries and b_entries:
        assert expected is Occurred.CONCURRENT


@given(clock_entries)
def test_compare_equal_and_empty_clocks(entries):
    clock, empty = VectorClock(entries), VectorClock()
    assert clock.compare(VectorClock(dict(entries))) is Occurred.EQUAL
    assert empty.compare(clock) is reference_compare(empty, clock)
    assert clock.compare(empty) is reference_compare(clock, empty)
    assert empty.compare(VectorClock({})) is Occurred.EQUAL


@given(clock_entries, clock_entries)
def test_weight_and_merge_follow_the_entries(a_entries, b_entries):
    a, b = VectorClock(a_entries), VectorClock(b_entries)
    assert a.weight == sum(a_entries.values())
    assert a.merged(VectorClock()) == a
    assert VectorClock().merged(a) == a
    assert a.merged(b).entries == {
        n: max(a.counter_of(n), b.counter_of(n))
        for n in set(a_entries) | set(b_entries)}


# few distinct clocks, so siblings and exact duplicates both show up
small_clock = st.dictionaries(st.integers(0, 2), st.integers(1, 2), max_size=3)


@given(st.lists(small_clock, max_size=8))
def test_frontier_matches_all_pairs_oracle(entry_sets):
    versions = [Version(VectorClock(e), i) for i, e in enumerate(entry_sets)]
    assert prune_obsolete(versions) == reference_frontier(versions)


def test_frontier_keeps_siblings_and_first_duplicate_in_order():
    base = VectorClock({1: 1})
    left, right = base.incremented(1), base.incremented(2)
    versions = [Version(left, "left"), Version(base, "base"),
                Version(right, "right"), Version(VectorClock({1: 2}), "copy")]
    assert prune_obsolete(versions) == [Version(left, "left"),
                                        Version(right, "right")]
    assert prune_obsolete(versions) == reference_frontier(versions)


@pytest.mark.parametrize("counter", [0, -1])
def test_nonpositive_counter_is_a_configuration_error(counter):
    with pytest.raises(ConfigurationError):
        VectorClock({3: counter})
