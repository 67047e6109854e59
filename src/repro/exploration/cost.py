"""Cost model of the design-space explorer.

Scoring a candidate runs the full pipeline the repository already trusts —
communication expansion, per-path list scheduling with the candidate's
priority configuration, schedule merging — on the candidate's (possibly
sized) architecture, and condenses the result into a scalar cost plus the
objective vector the multi-objective machinery consumes:

* ``delta_max`` — the worst-case delay of the generated schedule table, the
  paper's primary quality metric;
* ``mean_path_delay`` — the table-execution delay averaged over the
  alternative paths (weights candidates that keep *every* scenario fast, not
  only the worst one);
* ``load_imbalance`` — how far the most loaded processor sits above the mean
  processor load (a dimensionless ratio; 0 is perfectly balanced);
* ``architecture_cost`` — what the candidate's platform costs in abstract
  units: ``processor_cost`` per programmable processor plus ``bus_cost`` per
  bus (hardware processors are fixed and excluded).  Constant unless
  architecture sizing is enabled.
* ``bus_imbalance`` — the same ratio over the *buses*: how far the most
  loaded bus sits above the mean bus communication load.  This is the
  contention objective of communication mapping — a design point that dumps
  every message on one bus of a multi-bus platform scores 1.0 (or worse),
  one that spreads them evenly scores 0.

Evaluations are plain frozen dataclasses of floats and strings so they travel
unchanged through the parallel evaluation pool and the content-hash cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Optional, Tuple

from ..architecture.architecture import Architecture, ArchitectureError
from ..architecture.mapping import MappingError
from ..graph.communication import (
    ExpandedGraph,
    ExpansionStructure,
    assign_buses,
    crossing_edges,
    expand_communications,  # unused; perfbench/tracing.py patches this name
    expansion_structure,
)
from ..graph.paths import AlternativePath, PathEnumerator
from ..scheduling.list_scheduler import PathListScheduler, SchedulingError
from ..scheduling.merging import MergeConflictError, MergeResult, ScheduleMerger
from ..scheduling.priorities import (
    PATH_LOCAL_PRIORITY_FUNCTIONS,
    priority_function,
)
from ..scheduling.schedule import PathSchedule
from .candidate import Candidate
from .problem import ExplorationProblem

_INFEASIBLE_COST = float("inf")

#: Deterministic per-entry size estimates for the bounded-LRU budget.
#: ``sys.getsizeof`` and wall clocks are banned here — eviction decisions
#: feed frozen benchmark anchors, so an entry's cost must be the same on
#: every host and every run.  The estimates are structural proxies for the
#: python-object footprint of the memoized value.
_ENTRY_OVERHEAD_BYTES = 64
_SCHEDULE_TASK_BYTES = 160
_EXPANSION_NODE_BYTES = 96
_PATH_BYTES = 32
#: How many least-recently-used entries compete per eviction: the victim is
#: the *cheapest to recompute* among this window, so one cold-but-expensive
#: merge artefact survives a burst of cheap re-adjustment schedules.
_EVICTION_WINDOW = 8


def schedule_entry_cost(schedule: PathSchedule) -> int:
    """Deterministic size estimate (bytes) of one memoized path schedule.

    Proportional to the number of scheduled tasks and condition broadcasts —
    the objects a :class:`~repro.scheduling.schedule.PathSchedule` actually
    holds — so the estimate doubles when the schedule does.
    """
    return _ENTRY_OVERHEAD_BYTES + _SCHEDULE_TASK_BYTES * (
        len(schedule.tasks) + len(schedule.broadcasts)
    )


def expansion_entry_cost(expanded, paths) -> int:
    """Deterministic size estimate (bytes) of one memoized expansion stage.

    Counts the expanded graph's processes (communication processes included)
    plus the enumerated alternative paths stored alongside it.
    """
    return (
        _ENTRY_OVERHEAD_BYTES
        + _EXPANSION_NODE_BYTES * len(expanded.graph)
        + _PATH_BYTES * len(paths)
    )


#: The context every stage runs in when neither a tracer nor metrics are
#: attached: one shared, stateless instance, so the uninstrumented pipeline
#: allocates nothing per stage.
_UNTIMED = nullcontext()


@contextmanager
def _timed_stage(tracer, metrics, name: str, **attrs):
    """Time one pipeline stage into a tracer span and/or a metrics histogram.

    Only entered on the instrumented path — callers fall back to
    :data:`_UNTIMED` when both ``tracer`` and ``metrics`` are None, so the
    disabled-path overhead the BENCH_core records gate stays ~zero.
    """
    span = tracer.span(f"stage.{name}", **attrs) if tracer is not None else None
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        if span is not None:
            span.close()
        if metrics is not None:
            metrics.observe(f"stage.{name}.seconds", elapsed)


@dataclass(frozen=True)
class StageStats:
    """Hit/miss counters of one :class:`StageCache` (misses = actual work).

    ``expansion_*`` counts communication-expansion + path-enumeration stage
    probes (one per evaluation); ``schedule_*`` counts per-path schedule
    probes (one per alternative path per evaluation).  Sizes are the number
    of memoized entries.
    """

    expansion_hits: int
    expansion_misses: int
    schedule_hits: int
    schedule_misses: int
    expansions: int
    schedules: int
    #: Structure-layer counters: on an expansion miss, the mapping-independent
    #: graph structure + path enumeration may still be reused from a candidate
    #: with the same co-location pattern (only the bus layer is rebuilt).
    structure_hits: int = 0
    structure_misses: int = 0
    structures: int = 0
    #: Entries evicted by :meth:`StageCache.check_integrity` because their
    #: memoized value no longer matched its sub-fingerprint key.
    integrity_evictions: int = 0
    #: Entries evicted by the bounded-LRU budget (cheapest-to-recompute
    #: first within the recency window; see the :class:`StageCache`
    #: docstring).  Zero on unbounded caches.
    lru_evictions: int = 0
    #: Estimated bytes currently held by the LRU-managed memos (expansion +
    #: per-path schedule entries), per the deterministic
    #: :func:`schedule_entry_cost` / :func:`expansion_entry_cost` estimates.
    occupancy_bytes: int = 0
    #: The configured budgets; 0 means unbounded on that axis.
    max_entries: int = 0
    max_bytes: int = 0

    @property
    def expansion_hit_rate(self) -> float:
        """Fraction of expansion-stage probes answered from the cache."""
        total = self.expansion_hits + self.expansion_misses
        return self.expansion_hits / total if total else 0.0

    @property
    def schedule_hit_rate(self) -> float:
        """Fraction of per-path schedule probes answered from the cache."""
        total = self.schedule_hits + self.schedule_misses
        return self.schedule_hits / total if total else 0.0


class StageCache:
    """Memo of the evaluation pipeline's *stages*, keyed by sub-fingerprints.

    The whole-candidate cache (:class:`~repro.exploration.CachedEvaluator`)
    only helps when a design point is revisited exactly.  Most neighbourhood
    moves are *local* — one process remapped, one message repinned — so on a
    whole-candidate miss nearly all of the per-path schedules are still
    bit-identical to ones already computed.  A ``StageCache`` memoizes the
    two expensive stages independently:

    * **expansion** — communication expansion + path enumeration, keyed by
      :meth:`ExplorationProblem.expansion_key` (assignment, platform,
      effective bus pins);
    * **per-path schedules** — one optimal (lock-free) list schedule per
      alternative path, keyed by
      :meth:`ExplorationProblem.path_schedule_key`, i.e. by only the state
      that path can observe.

    Invariants: evaluation must stay **pure** (the cached stages are reused
    verbatim), a cache must serve a **single problem** (keys do not include
    problem identity), and every sub-fingerprint must be **complete** — it
    must cover everything that can change the stage's output (see
    PERFORMANCE.md, "Incremental evaluation").  Sharing one instance across
    threads is safe for correctness: stages are pure, so a store race at
    worst recomputes a stage, and key interning — the one check-then-act
    that could alias two fingerprints to one id — takes a lock.  The
    counters may undercount under contention.

    By default stage memos grow for the lifetime of the cache (per-path
    schedules are the bulky part — one ``PathSchedule`` per distinct
    sub-fingerprint + lock set); call :meth:`clear` between independent long
    searches if memory matters more than cross-search hits.

    **Bounded mode** (``max_entries`` and/or ``max_bytes``) caps the
    LRU-managed memos — expansions and per-path schedules — for long-running
    deployments such as ``repro-cpg serve``, where one shared cache answers
    an unbounded request stream.  Entry sizes are the deterministic
    structural estimates of :func:`schedule_entry_cost` /
    :func:`expansion_entry_cost` (never ``sys.getsizeof`` or wall clocks, so
    eviction decisions replay identically on every host).  When a budget is
    exceeded, the victim is the **cheapest-to-recompute** entry among the
    ``_EVICTION_WINDOW`` least-recently-used ones (ties fall to the least
    recent), so recency decides *who competes* and stage cost decides *who
    goes* — an old-but-expensive artefact outlives a burst of cheap ones.
    An entry larger than ``max_bytes`` on its own is computed but never
    memoized, so occupancy never exceeds the byte budget.  Eviction is
    self-healing by construction: stages are pure, so a re-query after
    eviction recomputes a bit-identical value (the same property
    :meth:`check_integrity` relies on).  The unbounded default skips all
    LRU bookkeeping — the hot paths are unchanged.
    """

    __slots__ = (
        "_expansions",
        "_structures",
        "_schedules",
        "_key_ids",
        "_next_key_id",
        "_intern_lock",
        "_contexts",
        "_bounded",
        "_max_entries",
        "_max_bytes",
        "_lru",
        "_occupancy_bytes",
        "expansion_hits",
        "expansion_misses",
        "structure_hits",
        "structure_misses",
        "schedule_hits",
        "schedule_misses",
        "integrity_evictions",
        "lru_evictions",
    )

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self._expansions: Dict[
            Tuple, Tuple[ExpandedGraph, Tuple[AlternativePath, ...]]
        ] = {}
        # Mapping-independent expansion structures (graph + enumerated
        # paths), keyed by the crossing-edge pattern: candidates that only
        # shuffle processes between processors without co-locating (or
        # splitting) any connected pair share one structure — and everything
        # lazily cached on its graph object (guards, topological order).
        self._structures: Dict[
            Tuple, Tuple[ExpansionStructure, Tuple[AlternativePath, ...]]
        ] = {}
        self._schedules: Dict[Tuple, PathSchedule] = {}
        # Sub-fingerprints are bulky nested tuples; they are hashed once here
        # and replaced by a small integer id, so the (frequent) schedule-memo
        # probes hash two small values instead of the whole fingerprint.
        self._key_ids: Dict[Tuple, int] = {}
        self._next_key_id = 0
        self._intern_lock = threading.Lock()
        # Per-path dependency structures (PathListScheduler contexts), keyed
        # by interned path key and re-adopted across scheduler instances.
        self._contexts: Dict[int, object] = {}
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._max_entries = max_entries or 0
        self._max_bytes = max_bytes or 0
        self._bounded = bool(self._max_entries or self._max_bytes)
        # Recency order of the LRU-managed entries: (kind, key) -> byte cost,
        # least recently used first.  Mutated only under _intern_lock.
        self._lru: "OrderedDict[Tuple[str, Tuple], int]" = OrderedDict()
        self._occupancy_bytes = 0
        self.expansion_hits = 0
        self.expansion_misses = 0
        self.structure_hits = 0
        self.structure_misses = 0
        self.schedule_hits = 0
        self.schedule_misses = 0
        self.integrity_evictions = 0
        self.lru_evictions = 0

    @property
    def stats(self) -> StageStats:
        """A snapshot of the stage-level hit/miss counters."""
        return StageStats(
            expansion_hits=self.expansion_hits,
            expansion_misses=self.expansion_misses,
            schedule_hits=self.schedule_hits,
            schedule_misses=self.schedule_misses,
            expansions=len(self._expansions),
            schedules=len(self._schedules),
            structure_hits=self.structure_hits,
            structure_misses=self.structure_misses,
            structures=len(self._structures),
            integrity_evictions=self.integrity_evictions,
            lru_evictions=self.lru_evictions,
            occupancy_bytes=self._occupancy_bytes,
            max_entries=self._max_entries,
            max_bytes=self._max_bytes,
        )

    # -- bounded-LRU bookkeeping (no-ops on unbounded caches) ----------------

    @property
    def occupancy_bytes(self) -> int:
        """Estimated bytes held by the LRU-managed memos (0 when unbounded)."""
        return self._occupancy_bytes

    def _touch(self, kind: str, key: Tuple) -> None:
        """Mark one LRU-managed entry as most recently used."""
        with self._intern_lock:
            if (kind, key) in self._lru:
                self._lru.move_to_end((kind, key))

    def _admit(self, kind: str, key: Tuple, value, cost: int) -> None:
        """Store one LRU-managed entry and evict back under budget.

        An entry whose cost alone exceeds ``max_bytes`` is not memoized at
        all — the caller keeps the computed value, occupancy never exceeds
        the budget.  Store + bookkeeping share the lock so eviction can
        never orphan a stored value outside the recency order.
        """
        if self._max_bytes and cost > self._max_bytes:
            return
        store = self._expansions if kind == "expansion" else self._schedules
        with self._intern_lock:
            previous = self._lru.pop((kind, key), None)
            if previous is not None:
                self._occupancy_bytes -= previous
            store[key] = value
            self._lru[(kind, key)] = cost
            self._occupancy_bytes += cost
            self._evict_to_budget_locked()

    def _evict_to_budget_locked(self) -> None:
        """Evict until both budgets hold (caller owns ``_intern_lock``)."""
        while self._lru and (
            (self._max_entries and len(self._lru) > self._max_entries)
            or (self._max_bytes and self._occupancy_bytes > self._max_bytes)
        ):
            window = list(islice(self._lru.items(), _EVICTION_WINDOW))
            # min() is stable, so equal costs fall to the least recent.
            (kind, key), _cost = min(window, key=lambda item: item[1])
            self._forget_locked(kind, key)
            self.lru_evictions += 1

    def _forget_locked(self, kind: str, key: Tuple) -> None:
        """Drop one LRU-managed entry (caller owns ``_intern_lock``)."""
        cost = self._lru.pop((kind, key), None)
        if cost is not None:
            self._occupancy_bytes -= cost
        if kind == "expansion":
            self._expansions.pop(key, None)
        else:
            self._schedules.pop(key, None)

    # -- stage probes (used by merge_candidate) ------------------------------

    def expansion(
        self,
        problem: ExplorationProblem,
        candidate: Candidate,
        pins: Optional[Dict[str, str]] = None,
    ) -> Tuple[ExpandedGraph, Tuple[AlternativePath, ...]]:
        """The expansion stage: expanded graph + enumerated paths, memoized.

        Two layers: the full expansion is keyed by everything it can observe
        (:meth:`ExplorationProblem.expansion_key`); on a miss, the
        mapping-independent *structure* (graph + path enumeration) is still
        reused across co-location patterns and only the bus-assignment layer
        is rebuilt.  ``pins`` takes the candidate's already-filtered bus
        pins (empty dict = none) so callers holding them skip refiltering.
        """
        if pins is None:
            pins = problem.bus_assignment_for(candidate) or {}
        key = problem.expansion_key(candidate, pins=pins)
        cached = self._expansions.get(key)
        if cached is not None:
            self.expansion_hits += 1
            if self._bounded:
                self._touch("expansion", key)
            return cached
        self.expansion_misses += 1
        mapping = problem.mapping_for(candidate)
        pattern = crossing_edges(problem.graph, mapping)
        record = self._structures.get(pattern)
        if record is None:
            self.structure_misses += 1
            structure = expansion_structure(problem.graph, pattern)
            record = (structure, PathEnumerator(structure.graph).paths())
            self._structures[pattern] = record
        else:
            self.structure_hits += 1
        structure, paths = record
        expanded = assign_buses(
            structure,
            mapping,
            problem.architecture_for(candidate),
            bus_assignment=pins or None,
            bus_policy=problem.bus_policy,
        )
        if self._bounded:
            self._admit(
                "expansion", key, (expanded, paths),
                expansion_entry_cost(expanded, paths),
            )
        else:
            self._expansions[key] = (expanded, paths)
        return expanded, paths

    def intern_key(self, key: Tuple) -> int:
        """Replace a bulky sub-fingerprint tuple with a stable small id.

        Ids must be unique per fingerprint — an aliased id would make the
        schedule memo serve another path's schedule — so the allocation is
        locked against the shared-cache thread mode (double-checked: the
        fast path is one GIL-atomic dict probe, the lock is only taken on
        first intern of a key).
        """
        cached = self._key_ids.get(key)
        if cached is None:
            with self._intern_lock:
                cached = self._key_ids.get(key)
                if cached is None:
                    cached = self._next_key_id
                    self._next_key_id += 1
                    self._key_ids[key] = cached
        return cached

    def clear(self) -> None:
        """Drop every memoized stage (counters keep running totals).

        The intern counter is monotonic and survives clearing, so ids handed
        out before a ``clear`` can never alias ids interned afterwards —
        clearing concurrently with an in-flight evaluation wastes that
        evaluation's memo entries but cannot corrupt them.
        """
        with self._intern_lock:
            self._expansions.clear()
            self._structures.clear()
            self._schedules.clear()
            self._key_ids.clear()
            self._contexts.clear()
            self._lru.clear()
            self._occupancy_bytes = 0

    def lookup_schedule(self, key: Tuple) -> Optional[PathSchedule]:
        """Probe the per-path schedule memo (counts the hit/miss)."""
        cached = self._schedules.get(key)
        if cached is not None:
            self.schedule_hits += 1
            if self._bounded:
                self._touch("schedule", key)
        else:
            self.schedule_misses += 1
        return cached

    def store_schedule(self, key: Tuple, schedule: PathSchedule) -> None:
        """Record a freshly computed per-path schedule."""
        if self._bounded:
            self._admit("schedule", key, schedule, schedule_entry_cost(schedule))
        else:
            self._schedules[key] = schedule

    def check_integrity(self) -> int:
        """Verify memoized stages against their keys; evict mismatches.

        A stage cache is trusted verbatim on every hit, so an entry whose
        value drifted from its sub-fingerprint key (a torn write from an
        abandoned thread, an in-place mutation by a buggy caller) would
        silently poison every later evaluation that shares the stage.  This
        re-derives the cheap half of each key from the memoized value itself:

        * an expansion entry must map every assigned process to the key's
          processing element and realise every pinned message on its pinned
          bus;
        * a schedule entry must belong to the alternative path its interned
          sub-fingerprint names (the key's first element is the path label).

        Mismatched entries are evicted (self-healing: the next probe simply
        recomputes the stage) and counted in ``integrity_evictions``.
        Called by the evaluation pool after worker respawns and on degrade;
        cheap enough to invoke ad hoc, so it is not on any hot path.
        """
        evicted = 0
        with self._intern_lock:
            for key, (expanded, _paths) in list(self._expansions.items()):
                assignment, _platform, pins = key
                mapping = expanded.mapping
                consistent = all(
                    (pe := mapping.get(name)) is not None and pe.name == pe_name
                    for name, pe_name in assignment
                )
                if consistent and pins:
                    realised = expanded.bus_assignment
                    consistent = all(
                        realised.get(message) == bus_name
                        for message, bus_name in pins
                    )
                if not consistent:
                    self._forget_locked("expansion", key)
                    evicted += 1
            labels = {key_id: key[0] for key, key_id in self._key_ids.items()}
            for key, schedule in list(self._schedules.items()):
                key_id, _locks = key
                label = labels.get(key_id)
                if label is None or schedule.path.label != label:
                    self._forget_locked("schedule", key)
                    self._contexts.pop(key_id, None)
                    evicted += 1
            self.integrity_evictions += evicted
        return evicted


def _locks_key(
    locked_starts: Optional[Dict[str, float]],
    locked_broadcasts: Optional[Dict],
    ordered: bool,
) -> Tuple:
    """Hashable form of one schedule request's lock set.

    ``locked_broadcasts`` values are :class:`ScheduledTask` objects; only
    their primitive content enters the key.  ``ordered`` distinguishes
    adjustment requests (dispatch follows the original start order) from
    optimal ones — the hint *content* is derived from the path's optimal
    schedule and therefore already covered by the path sub-fingerprint.
    """
    starts = (
        tuple(sorted(locked_starts.items())) if locked_starts else ()
    )
    broadcasts = ()
    if locked_broadcasts:
        broadcasts = tuple(sorted(
            (
                str(condition),
                task.start,
                task.duration,
                task.pe.name if task.pe is not None else "",
            )
            for condition, task in locked_broadcasts.items()
        ))
    return (starts, broadcasts, ordered)


class _StagedScheduler:
    """Memoizing facade the staged pipeline hands to the schedule merger.

    Every ``schedule`` request — the optimal per-path schedules *and* the
    locked re-adjustments the merger issues while walking its decision tree —
    is keyed by ``(path sub-fingerprint, lock set)`` in the shared
    :class:`StageCache`.  The inner scheduler is pure, so a request repeated
    for a later candidate whose relevant slice is unchanged (the common case
    under move-local search: the early decision-tree branches lock the same
    times) returns the memoized schedule without re-dispatching.  Requests
    with caller-supplied ``priorities`` (none in the pipeline) bypass the
    memo.

    With a ``tracer``/``metrics`` pair, every memoized request is timed as a
    ``path_schedule`` stage (the initial optimal schedules) or a
    ``merge_readjust`` stage (the locked re-scheduling requests the merger
    issues while walking its decision tree); the span records whether the
    memo answered (``hit``).
    """

    __slots__ = ("_cache", "_inner", "_path_keys", "_tracer", "_metrics")

    def __init__(
        self,
        cache: StageCache,
        inner: PathListScheduler,
        path_keys: Dict,
        tracer=None,
        metrics=None,
    ) -> None:
        self._cache = cache
        self._inner = inner
        self._path_keys = path_keys
        self._tracer = tracer
        self._metrics = metrics

    def schedule(
        self,
        path: AlternativePath,
        *,
        priorities: Optional[Dict[str, float]] = None,
        locked_starts: Optional[Dict[str, float]] = None,
        locked_broadcasts: Optional[Dict] = None,
        order_hint: Optional[Dict[str, float]] = None,
    ) -> PathSchedule:
        if priorities is not None:
            return self._inner.schedule(
                path,
                priorities=priorities,
                locked_starts=locked_starts,
                locked_broadcasts=locked_broadcasts,
                order_hint=order_hint,
            )
        if self._tracer is None and self._metrics is None:
            return self._memoized(
                path, locked_starts, locked_broadcasts, order_hint
            )[0]
        locked = bool(locked_starts or locked_broadcasts) or order_hint is not None
        name = "merge_readjust" if locked else "path_schedule"
        span = (
            self._tracer.span(f"stage.{name}", path=str(path.label))
            if self._tracer is not None
            else None
        )
        started = time.perf_counter()
        schedule, hit = self._memoized(
            path, locked_starts, locked_broadcasts, order_hint
        )
        elapsed = time.perf_counter() - started
        if span is not None:
            span.close(hit=hit)
        if self._metrics is not None:
            self._metrics.observe(f"stage.{name}.seconds", elapsed)
        return schedule

    def _memoized(
        self,
        path: AlternativePath,
        locked_starts: Optional[Dict[str, float]],
        locked_broadcasts: Optional[Dict],
        order_hint: Optional[Dict[str, float]],
    ) -> Tuple[PathSchedule, bool]:
        """The memo probe + compute path; returns (schedule, served-from-memo)."""
        path_key = self._path_keys[path.label]
        key = (
            path_key,
            _locks_key(locked_starts, locked_broadcasts, order_hint is not None),
        )
        cached = self._cache.lookup_schedule(key)
        if cached is not None:
            return cached, True
        context = self._cache._contexts.get(path_key)
        if context is not None:
            self._inner.adopt_context(path, context)
        schedule = self._inner.schedule(
            path,
            locked_starts=locked_starts,
            locked_broadcasts=locked_broadcasts,
            order_hint=order_hint,
        )
        if context is None:
            self._cache._contexts[path_key] = self._inner.export_context(path)
        self._cache.store_schedule(key, schedule)
        return schedule, False


@dataclass(frozen=True)
class CostWeights:
    """Relative weights of the scalar-cost components (see module docstring).

    The default optimises ``delta_max`` alone, matching the paper's metric;
    ``load_imbalance`` is a ratio, so its weight is interpreted in the same
    time unit as the delays (weight 10 adds 10 time units per 100% imbalance).
    ``architecture_cost`` weights the platform cost into the scalar;
    ``processor_cost`` and ``bus_cost`` are the per-element units that make up
    that platform cost (they also feed the fourth objective-vector component,
    whatever the scalar weight is).  ``bus_imbalance`` weights bus contention
    — like ``load_imbalance`` it is a ratio, interpreted in the same time
    unit as the delays.
    """

    delta_max: float = 1.0
    mean_path_delay: float = 0.0
    load_imbalance: float = 0.0
    architecture_cost: float = 0.0
    processor_cost: float = 1.0
    bus_cost: float = 0.5
    bus_imbalance: float = 0.0


@dataclass(frozen=True)
class CandidateEvaluation:
    """The scored outcome of merging one candidate's schedule table."""

    fingerprint: str
    cost: float
    feasible: bool
    delta_max: float = 0.0
    delta_m: float = 0.0
    mean_path_delay: float = 0.0
    load_imbalance: float = 0.0
    architecture_cost: float = 0.0
    bus_imbalance: float = 0.0
    paths: int = 0
    error: str = ""

    @property
    def delay_increase_percent(self) -> float:
        """How far the table's worst case exceeds the ideal delay, in percent."""
        if self.delta_m <= 0:
            return 0.0
        return 100.0 * (self.delta_max - self.delta_m) / self.delta_m

    @property
    def objectives(self) -> Tuple[float, float, float, float, float]:
        """The minimised objective vector (see ``pareto.OBJECTIVE_NAMES``)."""
        return (
            self.delta_max,
            self.mean_path_delay,
            self.load_imbalance,
            self.architecture_cost,
            self.bus_imbalance,
        )


def load_imbalance_of(problem: ExplorationProblem, candidate: Candidate) -> float:
    """``max processor load / mean processor load - 1`` under a candidate.

    Loads sum the execution time of every ordinary process on its assigned
    processor (communications are excluded here: their bus placement is
    priced separately by :func:`bus_imbalance_of`).  With architecture
    sizing, the mean runs
    over the candidate's *active* processors, so emptier, smaller platforms
    are not penalised for processors they no longer instantiate.
    """
    loads: Dict[str, float] = {
        name: 0.0 for name in problem.processors_for(candidate)
    }
    graph = problem.graph
    architecture = problem.architecture_for(candidate)
    for name, pe_name in candidate.assignment:
        loads[pe_name] += graph[name].duration_on(architecture[pe_name])
    mean = sum(loads.values()) / len(loads) if loads else 0.0
    if mean <= 0:
        return 0.0
    return max(loads.values()) / mean - 1.0


def bus_imbalance_of(architecture: Architecture, expanded: ExpandedGraph) -> float:
    """``max bus load / mean bus load - 1`` over an expanded graph.

    Loads sum the duration of every communication process on its assigned bus
    (scaled by bus speed, like the scheduler sees it); the mean runs over
    *every* bus of the architecture, so leaving a bus idle on a multi-bus
    platform registers as contention.  Zero when the architecture has fewer
    than two buses or nothing communicates.
    """
    if len(architecture.buses) < 2:
        return 0.0
    # The expansion already accumulated these sums while assigning buses
    # (ExpandedGraph.bus_loads, shared with the least_loaded policy); buses
    # that carry nothing still enter the mean at zero load.
    loads: Dict[str, float] = {
        pe.name: expanded.bus_loads.get(pe.name, 0.0) for pe in architecture.buses
    }
    mean = sum(loads.values()) / len(loads)
    if mean <= 0:
        return 0.0
    return max(loads.values()) / mean - 1.0


def architecture_cost_of(
    problem: ExplorationProblem,
    candidate: Candidate,
    weights: CostWeights = CostWeights(),
) -> float:
    """Platform cost of a candidate in abstract units.

    ``processor_cost`` per programmable processor plus ``bus_cost`` per bus of
    the candidate's (possibly sized) architecture.  Hardware processors are
    not sizable and carry no cost here.
    """
    architecture = problem.architecture_for(candidate)
    return (
        weights.processor_cost * len(architecture.programmable_processors)
        + weights.bus_cost * len(architecture.buses)
    )


def merge_candidate(
    problem: ExplorationProblem,
    candidate: Candidate,
    stage_cache: Optional[StageCache] = None,
    tracer=None,
    metrics=None,
    slice_memo: Optional[Dict] = None,
) -> Tuple[ExpandedGraph, MergeResult]:
    """Run the staged merge pipeline for one candidate.

    The expansion (communication expansion + path enumeration) and the
    per-path schedules are looked up in ``stage_cache`` by sub-fingerprint
    first, so a move-local candidate recomputes only the paths its move can
    actually affect; the merge itself always runs (its output is the whole
    point of the evaluation, and revisited *candidates* are already absorbed
    by the whole-candidate cache upstream).  Without a ``stage_cache`` the
    call runs on a fresh private one, i.e. it computes every stage.

    The result is bit-identical to the plain pipeline — expand
    communications, list-schedule every alternative path, merge — because the
    staged pipeline feeds the merger the same paths (enumeration is part of
    the memoized expansion stage, preserving order) and the same per-path
    schedules (the scheduler is deterministic and the sub-fingerprints cover
    everything it observes).  Raises the pipeline's errors (``MappingError``
    etc.); callers wanting infinite-cost semantics use
    :func:`evaluate_candidate`.

    ``tracer``/``metrics`` (see :mod:`repro.observability`) time the stages:
    ``expansion``, ``path_keys`` (sub-fingerprint slicing + interning),
    ``path_schedule`` per alternative path, ``merge`` (wall time including
    re-adjustments) and ``merge_readjust`` (the locked re-scheduling share
    within the merge).  Timing never changes the result; with both None (the
    default), every stage runs inside one shared no-op context.

    ``slice_memo`` (supplied by :func:`evaluate_neighbourhood`) shares the
    candidate-independent half of the path sub-fingerprints — the active-set
    and realised-bus slices of :meth:`ExplorationProblem.path_slices` —
    across every candidate of a batch that reuses the same expansion; it is
    a pure-value cache, so passing one never changes any result.
    """
    if stage_cache is None:
        stage_cache = StageCache()
    dispatch_priorities = priority_function(candidate.priority_function)
    architecture = problem.architecture_for(candidate)
    timed = tracer is not None or metrics is not None
    pins = problem.bus_assignment_for(candidate) or {}
    with _timed_stage(tracer, metrics, "expansion") if timed else _UNTIMED:
        expanded, paths = stage_cache.expansion(problem, candidate, pins=pins)
    inner = PathListScheduler(
        expanded.graph,
        expanded.mapping,
        architecture,
        priority_function=dispatch_priorities,
        priority_bias=candidate.bias_dict,
    )
    # Non-path-local priority functions key every path on the full expansion;
    # build that key once per candidate (reusing the filtered pins), not once
    # per path.
    expansion_key = None
    if candidate.priority_function not in PATH_LOCAL_PRIORITY_FUNCTIONS:
        expansion_key = problem.expansion_key(candidate, pins=pins)

    with (
        _timed_stage(tracer, metrics, "path_keys", paths=len(paths))
        if timed
        else _UNTIMED
    ):
        # The candidate-independent slices are keyed on the paths tuple's
        # identity (the memoized expansion returns the same tuple object for
        # every candidate that shares the expansion); holding the tuple in
        # the entry pins the id against reuse.
        slices = None
        if slice_memo is not None:
            entry = slice_memo.get(id(paths))
            if entry is None or entry[0] is not paths:
                entry = (
                    paths,
                    {
                        path.label: problem.path_slices(path, expanded)
                        for path in paths
                    },
                )
                slice_memo[id(paths)] = entry
            slices = entry[1]
        path_keys = {
            path.label: stage_cache.intern_key(
                problem.path_schedule_key(
                    candidate,
                    path,
                    expanded,
                    expansion_key=expansion_key,
                    slices=slices[path.label] if slices is not None else None,
                )
            )
            for path in paths
        }
    scheduler = _StagedScheduler(
        stage_cache, inner, path_keys, tracer=tracer, metrics=metrics
    )
    path_schedules = {path.label: scheduler.schedule(path) for path in paths}
    merger = ScheduleMerger(
        expanded.graph, expanded.mapping, architecture, scheduler
    )
    with _timed_stage(tracer, metrics, "merge") if timed else _UNTIMED:
        result = merger.merge(paths=list(paths), path_schedules=path_schedules)
    return expanded, result


def evaluate_candidate(
    problem: ExplorationProblem,
    candidate: Candidate,
    weights: CostWeights = CostWeights(),
    stage_cache: Optional[StageCache] = None,
    tracer=None,
    metrics=None,
    slice_memo: Optional[Dict] = None,
) -> CandidateEvaluation:
    """Score one candidate by running the merge pipeline end to end.

    Infeasible candidates (unconnectable communications, unschedulable paths,
    unresolvable merge conflicts, malformed sized platforms) get infinite
    cost instead of raising, so a search can step over them.  A shared
    ``stage_cache`` makes the pipeline incremental across calls (see
    :func:`merge_candidate`); the evaluation is bit-identical either way.

    ``tracer``/``metrics`` wrap the whole evaluation in an ``evaluate`` span
    / latency histogram and time the pipeline stages inside (see
    :func:`merge_candidate`); both default to None, which keeps the exact
    uninstrumented code path.
    """
    timed = tracer is not None or metrics is not None
    span = tracer.span("evaluate") if tracer is not None else None
    started = time.perf_counter() if timed else 0.0
    try:
        expanded, result = merge_candidate(
            problem, candidate, stage_cache=stage_cache,
            tracer=tracer, metrics=metrics, slice_memo=slice_memo,
        )
        architecture = problem.architecture_for(candidate)
    except (ArchitectureError, MappingError, SchedulingError, MergeConflictError) as error:
        if timed:
            if metrics is not None:
                metrics.observe("evaluate.seconds", time.perf_counter() - started)
            if span is not None:
                span.close(feasible=False)
        return CandidateEvaluation(
            fingerprint=candidate.fingerprint,
            cost=_INFEASIBLE_COST,
            feasible=False,
            error=str(error),
        )

    path_delays = [result.table_path_delays[path.label] for path in result.paths]
    mean_path_delay = sum(path_delays) / len(path_delays)
    imbalance = load_imbalance_of(problem, candidate)
    platform_cost = architecture_cost_of(problem, candidate, weights)
    contention = bus_imbalance_of(architecture, expanded)
    cost = (
        weights.delta_max * result.delta_max
        + weights.mean_path_delay * mean_path_delay
        + weights.load_imbalance * imbalance
        + weights.architecture_cost * platform_cost
        + weights.bus_imbalance * contention
    )
    if timed:
        if metrics is not None:
            metrics.observe("evaluate.seconds", time.perf_counter() - started)
        if span is not None:
            span.close(feasible=True)
    return CandidateEvaluation(
        fingerprint=candidate.fingerprint,
        cost=cost,
        feasible=True,
        delta_max=result.delta_max,
        delta_m=result.delta_m,
        mean_path_delay=mean_path_delay,
        load_imbalance=imbalance,
        architecture_cost=platform_cost,
        bus_imbalance=contention,
        paths=len(result.paths),
    )


class BatchStats:
    """Running totals of batched neighbourhood evaluation.

    ``batches``/``candidates`` count :func:`evaluate_neighbourhood` calls and
    the candidates they scored; ``payload_bytes`` accumulates the serialized
    bytes shipped to evaluation-pool workers (pickled-once shared problem
    buffers plus per-batch task payloads — zero for in-process evaluation).
    All counters are deterministic, so snapshots are safe to surface in
    byte-compared JSON documents.
    """

    __slots__ = ("batches", "candidates", "payload_bytes")

    def __init__(self) -> None:
        self.batches = 0
        self.candidates = 0
        self.payload_bytes = 0

    def record_batch(self, size: int, payload_bytes: int = 0) -> None:
        """Count one evaluated batch of ``size`` candidates."""
        self.batches += 1
        self.candidates += size
        self.payload_bytes += payload_bytes

    @property
    def mean_batch_size(self) -> float:
        return self.candidates / self.batches if self.batches else 0.0

    def snapshot(self) -> Dict[str, float]:
        """The ``batch`` stats block of ``repro-cpg explore --json``."""
        return {
            "batches": self.batches,
            "candidates": self.candidates,
            "mean_batch_size": self.mean_batch_size,
            "payload_bytes": self.payload_bytes,
        }


def evaluate_neighbourhood(
    problem: ExplorationProblem,
    candidates,
    weights: CostWeights = CostWeights(),
    stage_cache: Optional[StageCache] = None,
    tracer=None,
    metrics=None,
    batch_stats: Optional[BatchStats] = None,
) -> "list[CandidateEvaluation]":
    """Score a whole move batch against one shared expansion state.

    Semantically identical to mapping :func:`evaluate_candidate` over
    ``candidates`` in order — same evaluations, same stage-cache accounting,
    same spans — but the candidate-independent half of every path
    sub-fingerprint (:meth:`ExplorationProblem.path_slices`) is sliced once
    per batch and shared by every candidate that reuses the same memoized
    expansion, instead of being recomputed per candidate.

    ``batch_stats`` (see :class:`BatchStats`) accumulates batch counters for
    the ``batch`` block of ``explore --json``; ``metrics`` additionally gets
    a ``batch.size`` observation per call.
    """
    batch = list(candidates)
    if metrics is not None:
        metrics.observe("batch.size", len(batch))
    if batch_stats is not None:
        batch_stats.record_batch(len(batch))
    slice_memo: Optional[Dict] = {} if stage_cache is not None else None
    return [
        evaluate_candidate(
            problem,
            candidate,
            weights,
            stage_cache=stage_cache,
            tracer=tracer,
            metrics=metrics,
            slice_memo=slice_memo,
        )
        for candidate in batch
    ]
