"""Property tests for the bounded (LRU) stage cache behind the service.

The shared cross-request cache of ``repro-cpg serve`` must (1) never exceed
its entry/byte budget, (2) evict cheapest-to-recompute entries first within
the recency window, and (3) stay semantically invisible: a post-eviction
re-query recomputes a bit-identical stage result.  (1) and (2) are checked
with hypothesis against an executable model of the documented policy; (3)
against real evaluations on a small problem, including the
``check_integrity`` self-healing path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import random

from repro.exploration import (
    CostWeights,
    ExplorationProblem,
    NeighborhoodSampler,
    StageCache,
    evaluate_candidate,
)
from repro.exploration.cost import (
    _EVICTION_WINDOW,
    schedule_entry_cost,
)
from repro.generator import generate_system

import pytest


class _FakePath:
    def __init__(self, label):
        self.label = label


class _FakeSchedule:
    """Just enough of a PathSchedule for cost accounting and integrity."""

    def __init__(self, label, tasks, broadcasts=0):
        self.path = _FakePath(label)
        self.tasks = [None] * tasks
        self.broadcasts = [None] * broadcasts
        self.delay = float(tasks)


def _run_model(cache, max_entries, max_bytes, operations):
    """Drive cache and model together; return the model's (key, cost) order."""
    model = []  # least recent first, mirroring the cache's recency order

    def model_evict():
        while model and (
            (max_entries and len(model) > max_entries)
            or (max_bytes and sum(cost for _, cost in model) > max_bytes)
        ):
            window = model[:_EVICTION_WINDOW]
            victim = min(window, key=lambda item: item[1])
            model.remove(victim)

    for is_store, key_id, tasks in operations:
        key = (("path", key_id), key_id)
        if is_store:
            schedule = _FakeSchedule(("path", key_id), tasks)
            cost = schedule_entry_cost(schedule)
            cache.store_schedule(key, schedule)
            if not (max_bytes and cost > max_bytes):
                model[:] = [item for item in model if item[0] != key]
                model.append((key, cost))
                model_evict()
        else:
            hit = cache.lookup_schedule(key) is not None
            in_model = any(item[0] == key for item in model)
            assert hit == in_model
            if in_model:
                entry = next(item for item in model if item[0] == key)
                model.remove(entry)
                model.append(entry)
    return model


_OPERATIONS = st.lists(
    st.tuples(
        st.booleans(),  # store (True) or lookup (False)
        st.integers(min_value=0, max_value=24),  # key id
        st.integers(min_value=0, max_value=20),  # schedule size
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(
    operations=_OPERATIONS,
    max_entries=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    max_bytes=st.one_of(
        st.none(), st.integers(min_value=200, max_value=6000)
    ),
)
def test_bounded_cache_matches_the_eviction_model(
    operations, max_entries, max_bytes
):
    if max_entries is None and max_bytes is None:
        max_entries = 4  # at least one budget, else the cache is unbounded
    cache = StageCache(max_entries=max_entries, max_bytes=max_bytes)
    model = _run_model(cache, max_entries, max_bytes, operations)

    stats = cache.stats
    # Budgets are invariants, not targets: never exceeded, not even
    # transiently observable after any operation.
    if max_entries:
        assert stats.schedules <= max_entries
    if max_bytes:
        assert stats.occupancy_bytes <= max_bytes
    # The cache holds exactly what the documented policy says it should:
    # same keys, same recency order, same byte accounting.
    assert list(cache._lru) == [("schedule", key) for key, _ in model]
    assert set(cache._schedules) == {key for key, _ in model}
    assert stats.occupancy_bytes == sum(cost for _, cost in model)
    assert stats.lru_evictions == cache.lru_evictions


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=15),
        min_size=_EVICTION_WINDOW + 1,
        max_size=_EVICTION_WINDOW + 1,
    )
)
def test_eviction_prefers_cheapest_in_the_recency_window(sizes):
    max_entries = _EVICTION_WINDOW
    cache = StageCache(max_entries=max_entries)
    schedules = [
        _FakeSchedule(("path", index), tasks) for index, tasks in enumerate(sizes)
    ]
    for index, schedule in enumerate(schedules[:max_entries]):
        cache.store_schedule((("path", index), index), schedule)
    assert cache.lru_evictions == 0

    # The next store overflows the entry budget; the victim must be the
    # cheapest entry in the window (ties fall to the least recent).
    costs = [schedule_entry_cost(schedule) for schedule in schedules[:max_entries]]
    expected_victim = (("path", costs.index(min(costs))), costs.index(min(costs)))
    cache.store_schedule(
        (("path", max_entries), max_entries), schedules[max_entries]
    )
    assert cache.lru_evictions == 1
    assert cache.lookup_schedule(expected_victim) is None
    # Every other pre-overflow entry survived.
    for index in range(max_entries):
        key = (("path", index), index)
        if key != expected_victim:
            assert cache.lookup_schedule(key) is not None


def test_oversize_entries_are_computed_but_never_memoized():
    cache = StageCache(max_bytes=300)
    small = _FakeSchedule(("path", 0), 1)
    huge = _FakeSchedule(("path", 1), 50)
    assert schedule_entry_cost(huge) > 300
    cache.store_schedule((("path", 0), 0), small)
    cache.store_schedule((("path", 1), 1), huge)
    assert cache.lookup_schedule((("path", 0), 0)) is small
    assert cache.lookup_schedule((("path", 1), 1)) is None
    assert cache.occupancy_bytes == schedule_entry_cost(small)


def test_invalid_budgets_are_rejected():
    with pytest.raises(ValueError):
        StageCache(max_entries=0)
    with pytest.raises(ValueError):
        StageCache(max_bytes=-1)


#: Module-level problem for the re-query tests (hypothesis disallows
#: function-scoped fixtures; building once also keeps them fast).
_PROBLEM = ExplorationProblem.from_system(generate_system(10, 2, seed=5))
_WEIGHTS = CostWeights()
_RNG = random.Random(7)
_SAMPLER = NeighborhoodSampler(_PROBLEM)
_CANDIDATES = [_PROBLEM.initial_candidate()]
for _move, _neighbor in _SAMPLER.sample(_CANDIDATES[0], _RNG, 6):
    _CANDIDATES.append(_neighbor)


def _evaluation_key(evaluation):
    return (
        evaluation.feasible,
        evaluation.cost,
        evaluation.delta_max,
        evaluation.delta_m,
        evaluation.objectives,
    )


def test_post_eviction_requery_recomputes_bit_identical_results():
    # A budget this tight evicts constantly; results must not notice.
    bounded = StageCache(max_entries=3, max_bytes=2048)
    unbounded = StageCache()
    for sweep in range(2):  # second sweep re-queries evicted stages
        for candidate in _CANDIDATES:
            with_bound = evaluate_candidate(
                _PROBLEM, candidate, _WEIGHTS, stage_cache=bounded
            )
            without = evaluate_candidate(
                _PROBLEM, candidate, _WEIGHTS, stage_cache=unbounded
            )
            fresh = evaluate_candidate(_PROBLEM, candidate, _WEIGHTS)
            assert _evaluation_key(with_bound) == _evaluation_key(fresh)
            assert _evaluation_key(without) == _evaluation_key(fresh)
    assert bounded.lru_evictions > 0
    assert bounded.stats.schedules <= 3
    assert bounded.occupancy_bytes <= 2048


def test_integrity_eviction_keeps_bounded_accounting_consistent():
    # The PR 6 self-healing path must stay coherent with LRU bookkeeping:
    # an integrity eviction releases the entry's bytes and recency slot.
    cache = StageCache(max_entries=8)
    honest = _FakeSchedule(("path", 0), 2)
    key_id = cache.intern_key((("path", 0), "locks"))
    cache.store_schedule((key_id, ()), honest)

    liar = _FakeSchedule(("path", "other"), 2)
    liar_id = cache.intern_key((("path", 1), "locks"))
    cache.store_schedule((liar_id, ()), liar)
    occupancy_before = cache.occupancy_bytes

    evicted = cache.check_integrity()
    assert evicted == 1
    assert cache.stats.integrity_evictions == 1
    assert cache.lookup_schedule((liar_id, ())) is None
    assert cache.lookup_schedule((key_id, ())) is honest
    assert cache.occupancy_bytes == occupancy_before - schedule_entry_cost(liar)
    assert ("schedule", (liar_id, ())) not in cache._lru

    # Re-querying after the eviction stores a fresh, equal entry.
    healed = _FakeSchedule(("path", 1), 2)
    cache.store_schedule((liar_id, ()), healed)
    assert cache.lookup_schedule((liar_id, ())) is healed
    assert cache.check_integrity() == 0
