"""Parallel candidate evaluation on top of ``concurrent.futures``.

Scoring a candidate is an independent, pure computation (expand + schedule +
merge), so a neighbourhood batch parallelises perfectly.  The pool ships the
problem to each worker **once** — the repository's JSON system-description
payload, pickled *once* in the coordinator into a shared bytes blob that every
worker spawn reuses and the worker initialiser rebuilds — and then streams
small pre-pickled candidate units; evaluations come back as flat dataclasses
of floats.  No scheduler state, graph object or condition-universe bitmask
ever crosses the process boundary, so worker-side bit interning stays
internally consistent.  Because the coordinator serialises payloads itself,
it knows exactly how many bytes cross the boundary:
:attr:`EvaluationPool.payload_bytes_shipped` is a cumulative counter feeding
the ``repro-cpg explore --json`` batch-stats block.

Modes
-----
``process``
    One ``ProcessPoolExecutor`` worker per core (default on multi-core
    hosts).  Chunked submission amortises IPC per batch.
``thread``
    A ``ThreadPoolExecutor``; the evaluation is pure Python so threads do not
    scale, but the mode is useful to exercise the batching machinery without
    process start-up cost (tests, small batches).
``serial``
    In-process loop (default on single-core hosts; also the fallback when a
    batch is smaller than two candidates).

Resilience
----------
Pooled evaluation survives worker faults (see
:mod:`repro.exploration.resilience`).  Failures inside a worker come back as
marshalled exceptions and are retried under the :class:`RetryPolicy`; worker
*death* (``BrokenProcessPool``) tears the executor down, respawns it and
resubmits every unfinished unit; per-unit timeouts catch hung workers.  A
candidate that keeps failing attributably is *quarantined* — scored with the
infeasible sentinel instead of killing the run — and when respawned pools
keep dying without making progress, the pool degrades to trusted in-process
evaluation.  Because evaluation is pure and fault decisions are hashed from
``(seed, fingerprint, attempt)``, none of this changes any result: batches
come back in submission order with bit-identical evaluations, faults or not.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .candidate import Candidate
from .cost import (
    CandidateEvaluation,
    CostWeights,
    StageCache,
    StageStats,
    evaluate_candidate,
)
from .problem import ExplorationProblem
from .resilience import (
    FaultInjector,
    InjectedFault,
    ResilienceStats,
    RetryPolicy,
    WorkerInitializationError,
    quarantined_evaluation,
)

# Worker-process globals, set once per worker by _initialise_worker.
_WORKER_PROBLEM: Optional[ExplorationProblem] = None
_WORKER_WEIGHTS: Optional[CostWeights] = None
# Each worker keeps its own stage cache (expansion + per-path schedules, see
# cost.StageCache): stages are pure, so which worker a candidate lands on
# changes only how often stages recompute, never the evaluations — results
# stay submission-order deterministic whatever the chunking does.
_WORKER_STAGE_CACHE: Optional[StageCache] = None
_WORKER_INJECTOR: Optional[FaultInjector] = None


def _initialise_worker(
    payload: Any,
    weights: CostWeights,
    injector: Optional[FaultInjector] = None,
) -> None:
    global _WORKER_PROBLEM, _WORKER_WEIGHTS, _WORKER_STAGE_CACHE, _WORKER_INJECTOR
    if isinstance(payload, (bytes, bytearray, memoryview)):
        # The coordinator ships the payload pickled once as a shared blob;
        # each worker unpickles its copy exactly once, here.
        payload = pickle.loads(payload)
    if injector is not None and injector.fail_worker_init:
        raise WorkerInitializationError(
            f"injected worker-initialisation failure for problem "
            f"{payload.get('name')!r}"
        )
    _WORKER_PROBLEM = ExplorationProblem.from_payload(payload)
    _WORKER_WEIGHTS = weights
    _WORKER_STAGE_CACHE = StageCache()
    _WORKER_INJECTOR = injector


def _worker_probe() -> bool:
    """Cheap liveness check: did the initialiser complete in this worker?"""
    return _WORKER_PROBLEM is not None


def _evaluate_in_worker(candidate: Candidate) -> CandidateEvaluation:
    assert _WORKER_PROBLEM is not None and _WORKER_WEIGHTS is not None
    return evaluate_candidate(
        _WORKER_PROBLEM,
        candidate,
        _WORKER_WEIGHTS,
        stage_cache=_WORKER_STAGE_CACHE,
    )


def _evaluate_unit_in_worker(
    unit: Sequence[Tuple[Candidate, int]]
) -> List[CandidateEvaluation]:
    """Score one resubmittable unit of (candidate, attempt) pairs."""
    results: List[CandidateEvaluation] = []
    for candidate, attempt in unit:
        if _WORKER_INJECTOR is not None:
            _WORKER_INJECTOR.inject(candidate.fingerprint, attempt, in_worker=True)
        results.append(_evaluate_in_worker(candidate))
    return results


def _evaluate_unit_blob(blob: bytes) -> List[CandidateEvaluation]:
    """Score a unit shipped as a pre-pickled blob (process mode).

    The coordinator pickles the unit itself (so the exact byte count is
    known and accounted) and ships the blob; ``concurrent.futures`` then
    only re-serialises a bytes object — a memcpy, not a re-walk of the
    candidate structures.
    """
    return _evaluate_unit_in_worker(pickle.loads(blob))


def default_worker_count() -> int:
    """Worker count used when none is requested: one per available core."""
    return max(1, os.cpu_count() or 1)


@dataclass
class _ResilienceCounters:
    """Mutable tally behind the frozen :class:`ResilienceStats` snapshots."""

    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0
    quarantined: int = 0
    injected: int = 0
    integrity_evictions: int = 0
    degraded: bool = False

    def snapshot(self) -> ResilienceStats:
        return ResilienceStats(
            retries=self.retries,
            timeouts=self.timeouts,
            worker_restarts=self.worker_restarts,
            quarantined=self.quarantined,
            injected=self.injected,
            integrity_evictions=self.integrity_evictions,
            degraded=self.degraded,
        )


class EvaluationPool:
    """Batched scoring of candidates, optionally across worker processes.

    The pool is lazy: no executor exists until the first batch that can use
    one, and ``close()`` (or use as a context manager) tears it down.  Results
    are always returned in submission order, so search engines stay
    deterministic regardless of worker scheduling.

    ``retry`` and ``fault_injector`` arm the resilience layer (see the module
    docstring).  Pooled (process/thread) execution always detects broken
    executors and respawns them; an explicit retry policy additionally bounds
    per-unit evaluation time, and a fault injector exercises the whole
    machinery deterministically.  Serial mode stays a plain zero-overhead
    loop unless armed.
    """

    def __init__(
        self,
        problem: ExplorationProblem,
        weights: CostWeights = CostWeights(),
        workers: Optional[int] = None,
        mode: str = "auto",
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracer=None,
        metrics=None,
        stage_cache: Optional[StageCache] = None,
    ) -> None:
        if mode not in ("auto", "serial", "thread", "process"):
            raise ValueError(
                f"unknown pool mode {mode!r}; choose auto, serial, thread or process"
            )
        self._problem = problem
        self._weights = weights
        self._workers = workers if workers is not None else default_worker_count()
        if mode == "auto":
            mode = "process" if self._workers > 1 else "serial"
        self._mode = mode
        self._executor: Optional[Executor] = None
        # Incremental evaluation (cost.StageCache).  Serial and thread modes
        # share this in-process cache (stages are pure, so thread races at
        # worst recompute a stage); in process mode the worker initialiser
        # gives each worker its own cache instead, and the pool keeps no
        # in-process cache until it degrades to in-process evaluation, so
        # ``stage_stats`` never hides real caching activity.
        # An *injected* cache (repro-cpg serve's shared cross-request cache,
        # possibly bounded) replaces the pool-private one.  Process mode
        # cannot honour it — worker caches live in other processes — so the
        # mismatch is an error rather than a silent private cache.
        if stage_cache is not None:
            if self._mode == "process":
                raise ValueError(
                    "an injected stage_cache requires serial or thread mode; "
                    "process workers keep per-process caches"
                )
            self._stage_cache: Optional[StageCache] = stage_cache
        else:
            self._stage_cache = StageCache() if self._mode != "process" else None
        self._armed = retry is not None or fault_injector is not None
        self._retry = retry if retry is not None else RetryPolicy()
        self._injector = fault_injector
        # Observability (repro.observability): resilience decisions become
        # first-class trace events and pool.* metrics.  Process workers stay
        # uninstrumented — their spans would live in another process; the
        # coordinator-side unit latency / queue depth still tell the story.
        self._tracer = tracer
        self._metrics = metrics
        self._counters = _ResilienceCounters()
        self._degraded = False
        self._payload: Optional[Dict[str, Any]] = None
        self._payload_validated = False
        # Pickled-once problem payload (process mode): every worker spawn
        # reuses this blob instead of re-serialising the nested payload dict.
        self._payload_blob: Optional[bytes] = None
        self._payload_bytes_shipped = 0

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def weights(self) -> CostWeights:
        return self._weights

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def retry(self) -> RetryPolicy:
        return self._retry

    @property
    def degraded(self) -> bool:
        """Whether the pool fell back to in-process evaluation for good."""
        return self._degraded

    @property
    def payload_bytes_shipped(self) -> int:
        """Cumulative bytes serialised across the process boundary.

        Counts the pickled-once problem blob (once per worker, again after a
        restart respawns the pool) plus every pre-pickled candidate unit.
        Serial and thread modes ship nothing, so the counter stays 0 — the
        batch-stats block in ``explore --json`` reports payload traffic only
        where it actually exists.
        """
        return self._payload_bytes_shipped

    @property
    def resilience_stats(self) -> ResilienceStats:
        """Fault/retry counters accumulated over the pool's lifetime."""
        return self._counters.snapshot()

    def _resilience(self, event: str, counter: str, **attrs) -> None:
        """Record one resilience decision as a trace event + pool counter."""
        if self._tracer is not None:
            self._tracer.event(event, **attrs)
        if self._metrics is not None:
            self._metrics.count(counter)

    @property
    def stage_stats(self) -> Optional[StageStats]:
        """Stage-cache counters of the in-process cache, when one exists.

        Serial and thread modes report their shared cache.  Process mode
        returns None until the pool degrades to in-process evaluation: each
        worker owns a private cache in its own process and the counters are
        deliberately not shipped back per batch.
        """
        if self._stage_cache is None:
            return None
        return self._stage_cache.stats

    # -- lifecycle -----------------------------------------------------------

    def _validated_payload(self) -> Dict[str, Any]:
        """The worker payload, proven rebuildable *before* any worker starts.

        A payload the workers cannot rebuild would otherwise surface as an
        opaque ``BrokenProcessPool`` after every worker died trying; failing
        here names the problem instead.
        """
        if self._payload is None:
            self._payload = self._problem.to_payload()
        if not self._payload_validated:
            try:
                ExplorationProblem.from_payload(self._payload)
            except Exception as error:
                raise WorkerInitializationError(
                    f"problem payload {self._problem.name!r} cannot be rebuilt "
                    f"by evaluation workers: {error}"
                ) from error
            self._payload_validated = True
        return self._payload

    def _validated_payload_blob(self) -> bytes:
        """The worker payload pickled exactly once, shared by every spawn."""
        if self._payload_blob is None:
            self._payload_blob = pickle.dumps(
                self._validated_payload(), protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._payload_blob

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self._mode == "process":
                blob = self._validated_payload_blob()
                executor: Executor = ProcessPoolExecutor(
                    max_workers=self._workers,
                    initializer=_initialise_worker,
                    initargs=(
                        blob,
                        self._weights,
                        self._injector,
                    ),
                )
                # Each spawned worker receives its own copy of the initargs
                # blob across the process boundary.
                self._payload_bytes_shipped += len(blob) * self._workers
                if self._metrics is not None:
                    self._metrics.count(
                        "pool.payload_bytes", len(blob) * self._workers
                    )
                probe = executor.submit(_worker_probe)
                try:
                    probe.result(timeout=self._retry.startup_timeout)
                except BrokenExecutor as error:
                    executor.shutdown(wait=False, cancel_futures=True)
                    raise WorkerInitializationError(
                        f"worker initialisation failed for problem "
                        f"{self._problem.name!r} ({self._workers} process "
                        f"worker(s)): {error}"
                    ) from error
                except TimeoutError as error:
                    executor.shutdown(wait=False, cancel_futures=True)
                    raise WorkerInitializationError(
                        f"worker initialisation for problem {self._problem.name!r} "
                        f"timed out after {self._retry.startup_timeout:g}s"
                    ) from error
                self._executor = executor
            else:
                self._executor = ThreadPoolExecutor(max_workers=self._workers)
        return self._executor

    def _restart_executor(self) -> None:
        """Tear down a broken/hung executor so the next round respawns it."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._counters.worker_restarts += 1
        self._resilience(
            "resilience.worker_restart", "pool.worker_restarts", mode=self._mode
        )
        if self._stage_cache is not None:
            # An abandoned hung thread may still be writing into the shared
            # in-process cache; verify the survivors before reusing them.
            self._counters.integrity_evictions += self._stage_cache.check_integrity()

    def _degrade(self) -> None:
        """Give up on pooled execution; evaluate in-process from now on."""
        self._degraded = True
        self._counters.degraded = True
        self._resilience("resilience.degrade", "pool.degraded", mode=self._mode)
        if self._stage_cache is not None:
            self._counters.integrity_evictions += self._stage_cache.check_integrity()
        else:
            self._stage_cache = StageCache()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scoring -------------------------------------------------------------

    def evaluate(self, candidates: Sequence[Candidate]) -> List[CandidateEvaluation]:
        """Score a batch, in submission order."""
        if self._degraded:
            # Trusted in-process evaluation: the injector simulates *worker*
            # faults, and the workers are gone for good.
            return [self._evaluate_one(candidate) for candidate in candidates]
        if self._mode == "serial" or (len(candidates) < 2 and not self._armed):
            return self._evaluate_serial(candidates)
        return self._evaluate_pooled(list(candidates))

    def evaluate_batches(
        self, batches: Sequence[Sequence[Candidate]]
    ) -> List[List[CandidateEvaluation]]:
        """Score several requests' batches as one submission round.

        The service front-end coalesces whatever requests are waiting into
        one call, so small concurrent submissions amortise executor overhead
        the way one big neighbourhood batch does.  Evaluation is pure and
        :meth:`evaluate` returns submission order, so flattening the batches,
        scoring once and splitting the results back is exactly equivalent to
        evaluating each batch alone — batching is a throughput knob, never a
        semantics change.
        """
        flat: List[Candidate] = []
        for batch in batches:
            flat.extend(batch)
        evaluations = self.evaluate(flat)
        split: List[List[CandidateEvaluation]] = []
        cursor = 0
        for batch in batches:
            split.append(evaluations[cursor:cursor + len(batch)])
            cursor += len(batch)
        return split

    def _evaluate_one(self, candidate: Candidate) -> CandidateEvaluation:
        return evaluate_candidate(
            self._problem,
            candidate,
            self._weights,
            stage_cache=self._stage_cache,
            tracer=self._tracer,
            metrics=self._metrics,
        )

    def _evaluate_serial(
        self, candidates: Sequence[Candidate]
    ) -> List[CandidateEvaluation]:
        if not self._armed:
            return [self._evaluate_one(candidate) for candidate in candidates]
        results: List[CandidateEvaluation] = []
        for candidate in candidates:
            attempt, failures = 0, 0
            error = ""
            while True:
                try:
                    if self._injector is not None:
                        # In-process, 'hang' and 'exit' degrade to a raised
                        # fault (see FaultInjector.inject): the coordinator
                        # must survive its own evaluations.
                        self._injector.inject(
                            candidate.fingerprint, attempt, in_worker=False
                        )
                    results.append(self._evaluate_one(candidate))
                    break
                except Exception as exc:
                    if isinstance(exc, InjectedFault):
                        self._counters.injected += 1
                        self._resilience(
                            "resilience.fault_injected", "pool.injected",
                            fingerprint=candidate.fingerprint, attempt=attempt,
                        )
                    attempt += 1
                    failures += 1
                    error = str(exc)
                    if failures >= self._retry.max_attempts:
                        results.append(
                            quarantined_evaluation(
                                candidate.fingerprint, failures, error
                            )
                        )
                        self._counters.quarantined += 1
                        self._resilience(
                            "resilience.quarantine", "pool.quarantined",
                            fingerprint=candidate.fingerprint, failures=failures,
                        )
                        break
                    self._counters.retries += 1
                    self._resilience(
                        "resilience.retry", "pool.retries",
                        fingerprint=candidate.fingerprint, attempt=attempt,
                    )
                    delay = self._retry.delay_for(failures, candidate.fingerprint)
                    if delay > 0:
                        time.sleep(delay)
        return results

    def _evaluate_pooled(
        self, candidates: List[Candidate]
    ) -> List[CandidateEvaluation]:
        """The resilient unit-based submission path (process and thread modes).

        Candidates are grouped into *units* (index tuples).  Each round
        submits every outstanding unit, harvests results, and classifies
        failures:

        * a marshalled exception or a per-unit timeout is *attributable* —
          singleton units count a failure toward quarantine, larger units
          split into singletons so one poison candidate cannot take its
          chunk-mates down with it;
        * a broken executor is *collateral* — unfinished units resubmit with
          bumped attempt numbers (so injected 'exit' faults move to a fresh
          draw) but no candidate is blamed.

        Restart budget: ``RetryPolicy.max_pool_restarts`` consecutive
        restarts without harvesting a single unit degrade the pool to
        in-process evaluation.
        """
        total = len(candidates)
        results: List[Optional[CandidateEvaluation]] = [None] * total
        attempts = [0] * total
        failures = [0] * total
        chunk = max(1, total // (self._workers * 4))
        pending: List[Tuple[int, ...]] = [
            tuple(range(start, min(start + chunk, total)))
            for start in range(0, total, chunk)
        ]
        restarts_without_progress = 0

        while pending:
            if self._degraded:
                for unit in pending:
                    for index in unit:
                        if results[index] is None:
                            results[index] = self._evaluate_one(candidates[index])
                break

            executor = self._ensure_executor()
            if self._metrics is not None:
                # High-water gauges (merges keep the max across snapshots).
                self._metrics.gauge("pool.queue_depth", float(len(pending)))
                self._metrics.gauge("pool.workers", float(self._workers))
            round_started = (
                time.perf_counter() if self._metrics is not None else 0.0
            )
            submitted: List[Tuple[Future, Tuple[int, ...]]] = []
            unsubmitted: List[Tuple[int, ...]] = []
            broken = False
            for position, unit in enumerate(pending):
                try:
                    future = executor.submit(
                        *self._unit_task(candidates, attempts, unit)
                    )
                except BrokenExecutor:
                    # Workers died while the round was still being submitted;
                    # the rest of the round is collateral.
                    broken = True
                    unsubmitted = pending[position:]
                    break
                submitted.append((future, unit))
            pending = []
            for unit in unsubmitted:
                for index in unit:
                    attempts[index] += 1
                pending.append(unit)
            retry_round: List[Tuple[int, ...]] = []
            progress = False

            for future, unit in submitted:
                if broken:
                    # The executor already died this round; collect whatever
                    # finished, treat the rest as collateral.
                    if future.done():
                        try:
                            self._record(results, unit, future.result())
                            progress = True
                            continue
                        except Exception:
                            pass
                    for index in unit:
                        attempts[index] += 1
                    pending.append(unit)
                    continue
                try:
                    values = future.result(timeout=self._unit_timeout(unit))
                    self._record(results, unit, values)
                    progress = True
                    if self._metrics is not None:
                        # Coordinator-side submit-to-harvest latency per unit.
                        self._metrics.observe(
                            "pool.unit.seconds",
                            time.perf_counter() - round_started,
                        )
                except TimeoutError:
                    self._counters.timeouts += 1
                    self._resilience(
                        "resilience.timeout", "pool.timeouts", unit=len(unit)
                    )
                    broken = True  # a worker is stuck; tear the pool down
                    self._attribute_failure(
                        unit, attempts, failures, results, candidates,
                        pending, "evaluation timed out",
                    )
                except BrokenExecutor:
                    broken = True
                    for index in unit:
                        attempts[index] += 1
                    pending.append(unit)
                except Exception as error:
                    # Marshalled worker exception: injected crash or a
                    # genuinely poisoned candidate.
                    self._attribute_failure(
                        unit, attempts, failures, results, candidates,
                        retry_round, str(error),
                    )

            pending.extend(retry_round)
            if broken:
                self._restart_executor()
                restarts_without_progress = (
                    0 if progress else restarts_without_progress + 1
                )
                if restarts_without_progress > self._retry.max_pool_restarts:
                    self._degrade()
            elif retry_round:
                # Plain retries with a healthy pool: deterministic backoff
                # before the next round (the longest delay of the round).
                delay = max(
                    self._retry.delay_for(
                        max(1, failures[unit[0]]),
                        candidates[unit[0]].fingerprint,
                    )
                    for unit in retry_round
                )
                if delay > 0:
                    time.sleep(delay)

        return [evaluation for evaluation in results if evaluation is not None]

    def _unit_task(
        self,
        candidates: List[Candidate],
        attempts: List[int],
        unit: Tuple[int, ...],
    ):
        """The callable + argument submitted for one unit, mode-specific."""
        payload = [(candidates[index], attempts[index]) for index in unit]
        if self._mode == "process":
            # Pickle the unit here, once, so the executor only ships bytes
            # and the exact payload traffic is known for batch stats.
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self._payload_bytes_shipped += len(blob)
            if self._metrics is not None:
                self._metrics.count("pool.payload_bytes", len(blob))
            return (_evaluate_unit_blob, blob)
        return (self._evaluate_unit_in_thread, payload)

    def _evaluate_unit_in_thread(
        self, unit: Sequence[Tuple[Candidate, int]]
    ) -> List[CandidateEvaluation]:
        results: List[CandidateEvaluation] = []
        for candidate, attempt in unit:
            if self._injector is not None:
                fault = self._injector.fault_for(candidate.fingerprint, attempt)
                if fault is not None:
                    self._counters.injected += 1
                    self._resilience(
                        "resilience.fault_injected", "pool.injected",
                        fingerprint=candidate.fingerprint,
                        attempt=attempt, fault=fault,
                    )
                if fault == "hang":
                    time.sleep(self._injector.hang_seconds)
                elif fault is not None:
                    self._injector.inject(
                        candidate.fingerprint, attempt, in_worker=False
                    )
            results.append(self._evaluate_one(candidate))
        return results

    def _unit_timeout(self, unit: Tuple[int, ...]) -> Optional[float]:
        if self._retry.timeout is None:
            return None
        return self._retry.timeout * len(unit)

    @staticmethod
    def _record(
        results: List[Optional[CandidateEvaluation]],
        unit: Tuple[int, ...],
        values: Sequence[CandidateEvaluation],
    ) -> None:
        for index, evaluation in zip(unit, values):
            results[index] = evaluation

    def _attribute_failure(
        self,
        unit: Tuple[int, ...],
        attempts: List[int],
        failures: List[int],
        results: List[Optional[CandidateEvaluation]],
        candidates: List[Candidate],
        resubmit: List[Tuple[int, ...]],
        error: str,
    ) -> None:
        """Handle an attributable unit failure: retry, split or quarantine."""
        for index in unit:
            attempts[index] += 1
        if len(unit) > 1:
            # Isolate the poison: retry members individually.
            self._counters.retries += 1
            self._resilience("resilience.retry", "pool.retries", unit=len(unit))
            for index in unit:
                resubmit.append((index,))
            return
        index = unit[0]
        failures[index] += 1
        if failures[index] >= self._retry.max_attempts:
            results[index] = quarantined_evaluation(
                candidates[index].fingerprint, failures[index], error
            )
            self._counters.quarantined += 1
            self._resilience(
                "resilience.quarantine", "pool.quarantined",
                fingerprint=candidates[index].fingerprint,
                failures=failures[index],
            )
        else:
            self._counters.retries += 1
            self._resilience(
                "resilience.retry", "pool.retries",
                fingerprint=candidates[index].fingerprint,
            )
            resubmit.append(unit)
