"""Content-hash evaluation cache in front of the merge pipeline.

Local search revisits design points constantly — a swap undone two moves
later, simulated annealing bouncing around a basin, a second engine re-walking
the region the first one covered.  The :class:`CachedEvaluator` keys every
evaluation on the candidate's content hash (:attr:`Candidate.fingerprint`), so
a revisited mapping/priority configuration never re-runs communication
expansion, per-path scheduling or schedule merging.

Batches are deduplicated *before* they reach the (possibly parallel)
evaluation pool: within one neighbourhood batch, duplicated candidates are
evaluated once; across batches, the cache answers directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .candidate import Candidate
from .cost import (
    BatchStats,
    CandidateEvaluation,
    CostWeights,
    StageCache,
    StageStats,
    evaluate_candidate,
    evaluate_neighbourhood,
)
from .pareto import ParetoFront
from .pool import EvaluationPool
from .problem import ExplorationProblem


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one evaluator (misses = actual merge runs)."""

    hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedEvaluator:
    """Evaluates candidates through a fingerprint-keyed cache.

    Parameters
    ----------
    problem:
        The exploration problem supplying the evaluation pipeline.
    weights:
        Cost weights (must match the pool's weights when one is given).
    pool:
        Optional :class:`EvaluationPool` scoring cache misses in parallel.
        Its weights must equal ``weights`` (checked at construction — worker
        processes score with the pool's weights, so a mismatch would silently
        optimise the wrong objective); without a pool, misses are evaluated
        serially in-process.
    cache:
        Set to False to disable caching (used by benchmarks to measure the
        naive re-evaluation baseline; every request then runs the merger).
    front:
        Optional :class:`~repro.exploration.ParetoFront`.  When given, every
        *fresh* feasible evaluation is offered to the front, so the front ends
        up covering every distinct design point the evaluator ever scored
        (cache hits were already offered when they were first computed).
    stage_cache:
        The :class:`~repro.exploration.StageCache` that makes the serial
        scoring of whole-candidate cache misses incremental.  None (the
        default) creates a private one; an explicit instance is used as
        given (sharing across evaluators of the *same problem*).  With a
        pool, every miss is scored by the pool's own stage caches, so this
        setting is ignored and no evaluator-side cache is created.
    tracer:
        Optional :class:`~repro.observability.Tracer`.  Serial fresh
        evaluations run inside ``evaluate``/``stage.*`` spans; with a pool
        the pool's own tracer takes over (pass it the same tracer).  None
        (the default) keeps the uninstrumented code path.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` receiving
        ``cache.hits``/``cache.misses`` counters and — on the serial path —
        the stage/evaluate latency histograms.  None disables, with ~zero
        overhead.
    """

    def __init__(
        self,
        problem: ExplorationProblem,
        weights: CostWeights = CostWeights(),
        pool: Optional[EvaluationPool] = None,
        cache: bool = True,
        front: Optional[ParetoFront] = None,
        stage_cache: Optional[StageCache] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if pool is not None and pool.weights != weights:
            raise ValueError(
                f"pool weights {pool.weights} differ from evaluator weights "
                f"{weights}; the search would optimise the wrong objective"
            )
        self._problem = problem
        self._weights = weights
        self._pool = pool
        self._enabled = cache
        self._front = front
        self._tracer = tracer
        self._metrics = metrics
        self._cache: Dict[str, CandidateEvaluation] = {}
        self._hits = 0
        self._misses = 0
        self._batch_stats = BatchStats()
        if pool is not None:
            # Misses never run in-process: the pool's stage caches score
            # them (see the stage_cache parameter doc).
            self._stage_cache: Optional[StageCache] = None
        else:
            self._stage_cache = (
                stage_cache if stage_cache is not None else StageCache()
            )

    @property
    def problem(self) -> ExplorationProblem:
        return self._problem

    @property
    def weights(self) -> CostWeights:
        return self._weights

    @property
    def front(self) -> Optional[ParetoFront]:
        """The Pareto front fresh evaluations feed, or None when not tracking."""
        return self._front

    @property
    def tracer(self):
        """The attached :class:`~repro.observability.Tracer`, or None."""
        return self._tracer

    @property
    def metrics(self):
        """The attached :class:`~repro.observability.MetricsRegistry`, or None."""
        return self._metrics

    @property
    def stats(self) -> CacheStats:
        return CacheStats(self._hits, self._misses, len(self._cache))

    @property
    def stage_cache(self) -> Optional[StageCache]:
        """The serial-path stage cache, or None when a pool scores misses."""
        return self._stage_cache

    @property
    def batch_stats(self) -> BatchStats:
        """Running totals of the batched fresh evaluations (see BatchStats)."""
        return self._batch_stats

    @property
    def resilience_stats(self):
        """The pool's fault/retry counters, or None without a pool.

        (Typed loosely to avoid importing the resilience module here; the
        value is a :class:`repro.exploration.ResilienceStats`.)
        """
        if self._pool is None:
            return None
        return self._pool.resilience_stats

    @property
    def stage_stats(self) -> Optional[StageStats]:
        """Stage-level hit/miss counters of whatever scores the misses.

        With a pool, misses run on the pool's stage caches
        (:meth:`EvaluationPool.stage_stats` — None in process mode, where the
        caches live in the workers and are not aggregated); without one, the
        evaluator's own serial stage cache.
        """
        if self._pool is not None:
            return self._pool.stage_stats
        return self._stage_cache.stats if self._stage_cache is not None else None

    # -- scoring -------------------------------------------------------------

    def evaluate(self, candidate: Candidate) -> CandidateEvaluation:
        """Score one candidate (cache probe first)."""
        return self.evaluate_many([candidate])[0]

    def evaluate_many(
        self, candidates: Sequence[Candidate]
    ) -> List[CandidateEvaluation]:
        """Score a batch, returning evaluations in input order.

        Cache misses are deduplicated by fingerprint and sent to the pool as
        one batch (or evaluated serially without a pool).
        """
        if not self._enabled:
            self._misses += len(candidates)
            if self._metrics is not None:
                self._metrics.count("cache.misses", len(candidates))
            evaluations = self._evaluate_fresh(list(candidates))
            if self._front is not None:
                self._front.offer_many(candidates, evaluations)
            return evaluations

        fresh: List[Candidate] = []
        fresh_keys: Dict[str, int] = {}
        batch_hits = 0
        for candidate in candidates:
            key = candidate.fingerprint
            if key in self._cache:
                self._hits += 1
                batch_hits += 1
            elif key in fresh_keys:
                self._hits += 1
                batch_hits += 1
            else:
                fresh_keys[key] = len(fresh)
                fresh.append(candidate)
                self._misses += 1
        if self._metrics is not None:
            if batch_hits:
                self._metrics.count("cache.hits", batch_hits)
            if fresh:
                self._metrics.count("cache.misses", len(fresh))
        if fresh:
            evaluations = self._evaluate_fresh(fresh)
            for candidate, evaluation in zip(fresh, evaluations):
                self._cache[candidate.fingerprint] = evaluation
            if self._front is not None:
                self._front.offer_many(fresh, evaluations)
        return [self._cache[candidate.fingerprint] for candidate in candidates]

    def _evaluate_fresh(
        self, candidates: List[Candidate]
    ) -> List[CandidateEvaluation]:
        if self._pool is not None:
            shipped_before = self._pool.payload_bytes_shipped
            evaluations = self._pool.evaluate(candidates)
            self._batch_stats.record_batch(
                len(candidates),
                self._pool.payload_bytes_shipped - shipped_before,
            )
            return evaluations
        return evaluate_neighbourhood(
            self._problem,
            candidates,
            self._weights,
            stage_cache=self._stage_cache,
            tracer=self._tracer,
            metrics=self._metrics,
            batch_stats=self._batch_stats,
        )
