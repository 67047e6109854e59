"""Job execution behind the service: job worker processes, scope pins, the job store.

Two pieces sit between a validated request document and its result:

* :class:`ScopedStageCaches` — one **bounded** shared
  :class:`~repro.exploration.StageCache` per *stage scope*
  (:attr:`~repro.exploration.ExplorationProblem.stage_scope_key`).
  Near-duplicate tenants — same graph content, architecture, bus policy and
  sizing bounds; any name or seed mapping — land in the same scope and serve
  each other's expansion and per-path schedule stages.  That cross-request
  reuse is the whole multi-tenant win of serving exploration instead of
  shipping a CLI.  Each job worker process owns the caches of the scopes
  pinned to it.
* :class:`JobManager` — the submit→poll→fetch store.  Each job worker is
  one worker process (a single-process executor started with the manager),
  so ``workers`` jobs really run at once.  The first job of a scope pins the
  scope to the least-loaded worker for the manager's life, which keeps every
  job of a scope on the process holding its cache.  A dispatcher thread per
  worker runs that worker's jobs FIFO, one at a time, and keeps what comes
  back: the result document, the job's ``shared_cache`` slice and the
  scope cache's :class:`~repro.exploration.StageStats` (``GET /cache`` is
  built from those).

Determinism: a job's result document depends only on its request (given a
cold scope also byte-identically matching the one-shot CLI).  Jobs evaluate
through a plain :class:`~repro.exploration.CachedEvaluator` over the scope
cache — the CLI's serial shape.  Stages are pure, so a warm scope cache
changes only the stage hit *counters* in the document, never the search
trajectory, best candidate or front.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, NamedTuple, Optional

from ..exploration import (
    CachedEvaluator,
    Explorer,
    ParetoFront,
    StageCache,
    StageStats,
)
from .documents import explore_document
from .requests import config_from_request, engines_for, problem_and_origin

#: Default budgets of each scope's shared stage cache.  Large enough that a
#: single modest job never evicts its own working set (the CI byte-identity
#: smoke relies on a cold fig1 job staying eviction-free), small enough that
#: a long-running server cannot grow without bound.
DEFAULT_CACHE_MAX_ENTRIES = 4096
DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024

_SPAWN = multiprocessing.get_context("spawn")


class ScopedStageCaches:
    """Shared bounded stage caches, one per problem stage scope."""

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_CACHE_MAX_ENTRIES,
        max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
    ) -> None:
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._caches: Dict[str, StageCache] = {}

    def cache_for(self, scope: str) -> StageCache:
        """The scope's shared cache (created bounded on first use)."""
        cache = self._caches.get(scope)
        if cache is None:
            cache = StageCache(
                max_entries=self._max_entries, max_bytes=self._max_bytes
            )
            self._caches[scope] = cache
        return cache


class JobOutcome(NamedTuple):
    """What one finished job sends back from its worker process."""

    document: Dict[str, Any]
    #: The job's slice of the scope cache's accounting (``Job.shared_cache``).
    shared_cache: Dict[str, Any]
    #: The scope cache's counters after the job.
    stage_stats: StageStats
    #: Fresh evaluation batches the job ran.
    batches: int


# -- the job worker process ---------------------------------------------------

_WORKER_CACHES: Optional[ScopedStageCaches] = None


def _initialise_job_worker(max_entries: Optional[int], max_bytes: Optional[int]) -> None:
    global _WORKER_CACHES
    # Ctrl-C belongs to the server: it lets running jobs finish, then stops
    # the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORKER_CACHES = ScopedStageCaches(max_entries, max_bytes)


def _job_worker_pid() -> int:
    return os.getpid()


def _run_job_in_worker(request: Dict[str, Any]) -> JobOutcome:
    """Run one validated explore request over its scope's shared cache."""
    assert _WORKER_CACHES is not None
    problem, origin = problem_and_origin(request)
    scope = problem.stage_scope_key
    cache = _WORKER_CACHES.cache_for(scope)
    before = cache.stats
    config = config_from_request(request)
    evaluator = CachedEvaluator(
        problem,
        weights=config.weights,
        front=ParetoFront() if config.track_front else None,
        stage_cache=cache,
    )
    explorer = Explorer(problem, config=config, evaluator=evaluator)
    results = [
        explorer.explore(engine) for engine in engines_for(request["engine"])
    ]
    document = explore_document(
        origin,
        request["seed"],
        results,
        include_front=request["pareto"],
        problem=problem,
    )
    after = cache.stats
    shared_cache = {
        "scope": scope,
        "entries_at_start": before.expansions + before.schedules,
        "stage_hits": (
            (after.expansion_hits - before.expansion_hits)
            + (after.schedule_hits - before.schedule_hits)
        ),
        "stage_misses": (
            (after.expansion_misses - before.expansion_misses)
            + (after.schedule_misses - before.schedule_misses)
        ),
        "lru_evictions": after.lru_evictions - before.lru_evictions,
    }
    return JobOutcome(document, shared_cache, after, evaluator.batch_stats.batches)


class Job:
    """One submitted exploration job and everything ever known about it."""

    __slots__ = (
        "id", "request", "state", "error", "origin", "scope", "worker",
        "document", "shared_cache",
    )

    def __init__(self, job_id: str, request: Dict[str, Any]) -> None:
        self.id = job_id
        self.request = request
        self.state = "queued"
        self.error: Optional[str] = None
        self.origin: Optional[str] = None
        self.scope: Optional[str] = None
        #: Index of the job worker the job's scope is pinned to.
        self.worker: Optional[int] = None
        self.document: Optional[Dict[str, Any]] = None
        # Per-job slice of the scope cache's accounting: entries already in
        # the shared cache when the job started (nonzero = a near-duplicate
        # tenant ran before us) and the stage hits this job collected.
        self.shared_cache: Optional[Dict[str, Any]] = None

    def status_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "engine": self.request["engine"],
            "seed": self.request["seed"],
        }
        if self.origin is not None:
            document["problem"] = self.origin
        if self.scope is not None:
            document["cache_scope"] = self.scope
        if self.shared_cache is not None:
            document["shared_cache"] = self.shared_cache
        if self.error is not None:
            document["error"] = self.error
        return document


class _JobWorker:
    """One job worker process, its FIFO job queue and its dispatcher thread."""

    __slots__ = ("index", "executor", "pid", "jobs", "load", "scopes", "thread")

    def __init__(self, index: int, dispatch) -> None:
        self.index = index
        self.executor: Optional[ProcessPoolExecutor] = None
        self.pid: Optional[int] = None
        self.jobs: "queue.SimpleQueue[Optional[Job]]" = queue.SimpleQueue()
        #: Jobs routed here and not yet finished (queued + running).
        self.load = 0
        #: Scopes pinned here.
        self.scopes = 0
        self.thread = threading.Thread(
            target=dispatch, args=(self,), name=f"repro-job-{index}", daemon=True
        )


class JobManager:
    """Submit→poll→fetch job store over scope-affine job worker processes.

    The worker processes start here, with the interpreter's default start
    method when the caller runs no other thread yet (``serve`` builds the
    manager before its event loop), else by ``spawn``: a forked child could
    inherit a lock another thread holds.  A probe per worker makes the
    start-up part of construction rather than of the first job.

    The first job of a scope pins it to the worker with the fewest queued
    and running jobs; ties go to the worker with the fewest pinned scopes,
    then to the lowest index, so scopes that arrive one at a time still
    spread over the workers.  If a worker dies while running a job, that
    job fails with an error saying so; if it dies while idle, the next job
    routed to it has not run yet and goes to its replacement instead.
    Either way the worker is replaced and the scopes pinned to it start
    cold.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_max_entries: Optional[int] = DEFAULT_CACHE_MAX_ENTRIES,
        cache_max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
        metrics=None,
        tracer=None,
    ) -> None:
        self._budget = (cache_max_entries, cache_max_bytes)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._metrics = metrics
        self._tracer = tracer
        # Scope -> worker index, for the manager's life.
        self._pins: Dict[str, int] = {}
        # Per-scope jobs run and the scope cache's latest counters.
        self._tenants: Dict[str, int] = {}
        self._stage_stats: Dict[str, StageStats] = {}
        self._batches = 0
        self._workers = [
            _JobWorker(index, self._dispatch) for index in range(max(1, workers))
        ]
        # Decided before the first worker starts: each executor adds
        # threads of its own.  Replacements always spawn.
        mp_context = _SPAWN if threading.active_count() > 1 else None
        probes = [
            self._start_worker(worker, mp_context) for worker in self._workers
        ]
        for worker, probe in zip(self._workers, probes):
            self._await_start(worker, probe)
        for worker in self._workers:
            worker.thread.start()

    def submit(self, request: Dict[str, Any]) -> Job:
        """Enqueue one validated explore request; returns the queued job."""
        error: Optional[str] = None
        try:
            problem, origin = problem_and_origin(request)
        except Exception as failure:
            error = str(failure)
        with self._lock:
            if self._closed:
                raise RuntimeError("the job manager is closed")
            self._next_id += 1
            job = Job(f"job-{self._next_id}", request)
            self._jobs[job.id] = job
            self._order.append(job.id)
            if error is None:
                job.origin = origin
                job.scope = problem.stage_scope_key
                index = self._pins.get(job.scope)
                if index is None:
                    index = min(
                        self._workers, key=lambda w: (w.load, w.scopes, w.index)
                    ).index
                    self._pins[job.scope] = index
                    self._workers[index].scopes += 1
                job.worker = index
                self._workers[index].load += 1
                # Under the lock, so each worker's queue is in job-id order.
                self._workers[index].jobs.put(job)
        if self._metrics is not None:
            self._metrics.count("service.jobs.submitted")
        if self._tracer is not None:
            self._tracer.event("service.job_submitted", job=job.id)
        if error is not None:
            self._finish(job, error)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def worker_pid(self, job_id: str) -> Optional[int]:
        """The process id of the job worker a job is routed to, if any."""
        job = self.get(job_id)
        if job is None or job.worker is None:
            return None
        return self._workers[job.worker].pid

    def list_documents(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._jobs[job_id].status_document() for job_id in self._order]

    def queue_depth(self) -> int:
        """Jobs submitted but not yet finished (queued + running)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.state in ("queued", "running")
            )

    def batching_document(self) -> Dict[str, int]:
        """The ``batching`` block of ``GET /stats``.

        ``rounds`` and ``batches`` both count the fresh evaluation batches
        the jobs ran.  Each job evaluates on its own worker, so no batch is
        ever merged with another job's: ``coalesced`` is always 0.
        """
        with self._lock:
            return {"rounds": self._batches, "batches": self._batches, "coalesced": 0}

    def cache_document(self) -> Dict[str, Any]:
        """The eviction-stats document behind ``GET /cache``.

        Built from the counters each finished job sent back; a scope appears
        once a job on it has finished.
        """
        max_entries, max_bytes = self._budget
        with self._lock:
            scopes = {}
            totals = {
                "entries": 0,
                "occupancy_bytes": 0,
                "lru_evictions": 0,
                "integrity_evictions": 0,
                "hits": 0,
                "misses": 0,
            }
            for scope, stats in sorted(self._stage_stats.items()):
                entries = stats.expansions + stats.schedules
                hits = stats.expansion_hits + stats.schedule_hits
                misses = stats.expansion_misses + stats.schedule_misses
                scopes[scope] = {
                    "tenants": self._tenants[scope],
                    "entries": entries,
                    "expansions": stats.expansions,
                    "schedules": stats.schedules,
                    "occupancy_bytes": stats.occupancy_bytes,
                    "max_entries": stats.max_entries,
                    "max_bytes": stats.max_bytes,
                    "lru_evictions": stats.lru_evictions,
                    "integrity_evictions": stats.integrity_evictions,
                    "expansion_hits": stats.expansion_hits,
                    "expansion_misses": stats.expansion_misses,
                    "schedule_hits": stats.schedule_hits,
                    "schedule_misses": stats.schedule_misses,
                    "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                }
                totals["entries"] += entries
                totals["occupancy_bytes"] += stats.occupancy_bytes
                totals["lru_evictions"] += stats.lru_evictions
                totals["integrity_evictions"] += stats.integrity_evictions
                totals["hits"] += hits
                totals["misses"] += misses
            return {
                "budget": {
                    "max_entries": max_entries or 0,
                    "max_bytes": max_bytes or 0,
                },
                "scopes": scopes,
                "totals": totals,
            }

    def close(self) -> None:
        """Stop accepting work, let running jobs finish, stop the workers.

        Jobs still queued stay ``queued``.  Safe to call twice.
        """
        with self._lock:
            self._closed = True
        for worker in self._workers:
            worker.jobs.put(None)
        for worker in self._workers:
            worker.thread.join()
            if worker.executor is not None:
                worker.executor.shutdown(wait=True)
                worker.executor = None

    # -- execution -----------------------------------------------------------

    def _start_worker(self, worker: _JobWorker, mp_context=_SPAWN):
        """Start the worker's process; returns the future of its pid probe."""
        worker.executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=mp_context,
            initializer=_initialise_job_worker,
            initargs=self._budget,
        )
        return worker.executor.submit(_job_worker_pid)

    def _await_start(self, worker: _JobWorker, probe) -> None:
        """Wait for the pid probe; a worker that did not start is shut down."""
        try:
            worker.pid = probe.result()
        except BrokenProcessPool as failure:
            worker.executor.shutdown(wait=True)
            worker.executor = None
            raise RuntimeError(
                f"job worker {worker.index} did not start: {failure}"
            ) from failure

    def _replace_worker(self, worker: _JobWorker) -> None:
        """Swap a dead worker for a fresh one; its scopes start cold."""
        if worker.executor is not None:
            worker.executor.shutdown(wait=True)
        worker.executor = worker.pid = None
        with self._lock:
            for scope, index in self._pins.items():
                if index == worker.index:
                    self._stage_stats.pop(scope, None)
                    self._tenants.pop(scope, None)
        self._await_start(worker, self._start_worker(worker))

    def _submit(self, worker: _JobWorker, job: Job):
        """Hand the job to the worker process; returns the job's future.

        A worker found dead here died while idle (or its replacement did
        not start): the job has not run, so it goes to a fresh worker.
        """
        alive = worker.executor is not None and any(
            child.pid == worker.pid for child in multiprocessing.active_children()
        )
        if alive:
            try:
                return worker.executor.submit(_run_job_in_worker, job.request)
            except BrokenProcessPool:
                pass
        self._replace_worker(worker)
        return worker.executor.submit(_run_job_in_worker, job.request)

    def _dispatch(self, worker: _JobWorker) -> None:
        """The worker's dispatcher thread: run its jobs FIFO, one at a time."""
        while True:
            job = worker.jobs.get()
            if job is None or self._closed:
                return
            self._run(worker, job)

    def _run(self, worker: _JobWorker, job: Job) -> None:
        with self._lock:
            self._tenants[job.scope] = self._tenants.get(job.scope, 0) + 1
        job.state = "running"
        span = (
            self._tracer.span("service.job", job=job.id, worker=worker.index)
            if self._tracer is not None
            else None
        )
        error: Optional[str] = None
        try:
            outcome = self._submit(worker, job).result()
        except BrokenProcessPool as failure:
            error = (
                f"job worker {worker.index} (pid {worker.pid}) died while "
                f"running the job: {failure}"
            )
            try:
                self._replace_worker(worker)
            except RuntimeError as start_failure:
                error += f"; {start_failure}"
        except Exception as failure:
            error = str(failure)
        else:
            job.document = outcome.document
            job.shared_cache = outcome.shared_cache
            with self._lock:
                self._stage_stats[job.scope] = outcome.stage_stats
                self._batches += outcome.batches
            if self._metrics is not None:
                self._metrics.count(
                    "service.stage_hits", outcome.shared_cache["stage_hits"]
                )
                self._metrics.gauge(
                    "service.cache.occupancy_bytes",
                    float(outcome.stage_stats.occupancy_bytes),
                )
        finally:
            with self._lock:
                worker.load -= 1
            if span is not None:
                span.close(state="failed" if error is not None else "done")
        self._finish(job, error)

    def _finish(self, job: Job, error: Optional[str]) -> None:
        if error is not None:
            job.error = error
            job.state = "failed"
            if self._metrics is not None:
                self._metrics.count("service.jobs.failed")
        else:
            job.state = "done"
        if self._metrics is not None:
            self._metrics.count("service.jobs.finished")
