"""Tests of the incremental (staged) candidate evaluation.

The contract under test: evaluating a candidate through the sub-fingerprint
stage caches (:class:`repro.exploration.StageCache`) is **bit-identical** to
the plain expand-schedule-merge pipeline — scalar cost, the 5-component
objective vector and the generated schedule table alike — for any sequence of
neighbourhood moves, in-process, as one batch and through every
evaluation-pool mode.  The plain pipeline is a test-local oracle
(:func:`plain_merge` / :func:`plain_evaluation`) that calls the graph and
scheduling layers directly, with no cache anywhere.  On top of the
equivalence property, the sub-fingerprint slicing helpers and the
stage-level hit/miss accounting are covered directly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import format_schedule_table
from repro.architecture import ArchitectureError, MappingError
from repro.data import load_fig1_example
from repro.exploration import (
    ArchitectureBounds,
    BatchStats,
    CachedEvaluator,
    CandidateEvaluation,
    CostWeights,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    NeighborhoodSampler,
    StageCache,
    architecture_cost_of,
    bus_imbalance_of,
    evaluate_candidate,
    evaluate_neighbourhood,
    load_imbalance_of,
    merge_candidate,
)
from repro.generator import generate_system
from repro.graph.communication import (
    assign_buses,
    crossing_edges,
    expand_communications,
    expansion_structure,
)
from repro.graph.paths import PathEnumerator
from repro.scheduling import (
    PATH_LOCAL_PRIORITY_FUNCTIONS,
    MergeConflictError,
    PathListScheduler,
    ScheduleMerger,
    SchedulingError,
    priority_function,
)


def plain_merge(problem, candidate):
    """The oracle pipeline: expand, enumerate, schedule, merge — no caches."""
    architecture = problem.architecture_for(candidate)
    expanded = expand_communications(
        problem.graph,
        problem.mapping_for(candidate),
        architecture,
        bus_assignment=problem.bus_assignment_for(candidate),
        bus_policy=problem.bus_policy,
    )
    paths = PathEnumerator(expanded.graph).paths()
    scheduler = PathListScheduler(
        expanded.graph,
        expanded.mapping,
        architecture,
        priority_function=priority_function(candidate.priority_function),
        priority_bias=candidate.bias_dict,
    )
    merger = ScheduleMerger(
        expanded.graph, expanded.mapping, architecture, scheduler
    )
    return expanded, merger.merge(paths=list(paths))


def plain_evaluation(problem, candidate, weights=CostWeights()):
    """Score a candidate from :func:`plain_merge`, as the cost model defines."""
    try:
        expanded, result = plain_merge(problem, candidate)
    except (
        ArchitectureError, MappingError, SchedulingError, MergeConflictError
    ) as error:
        return CandidateEvaluation(
            fingerprint=candidate.fingerprint,
            cost=float("inf"),
            feasible=False,
            error=str(error),
        )
    delays = [result.table_path_delays[path.label] for path in result.paths]
    mean_path_delay = sum(delays) / len(delays)
    imbalance = load_imbalance_of(problem, candidate)
    platform_cost = architecture_cost_of(problem, candidate, weights)
    contention = bus_imbalance_of(
        problem.architecture_for(candidate), expanded
    )
    return CandidateEvaluation(
        fingerprint=candidate.fingerprint,
        cost=weights.delta_max * result.delta_max
        + weights.mean_path_delay * mean_path_delay
        + weights.load_imbalance * imbalance
        + weights.architecture_cost * platform_cost
        + weights.bus_imbalance * contention,
        feasible=True,
        delta_max=result.delta_max,
        delta_m=result.delta_m,
        mean_path_delay=mean_path_delay,
        load_imbalance=imbalance,
        architecture_cost=platform_cost,
        bus_imbalance=contention,
        paths=len(result.paths),
    )


class _PlainEvaluator(CachedEvaluator):
    """A whole-candidate cache whose misses are scored by the oracle."""

    def _evaluate_fresh(self, candidates):
        return [
            plain_evaluation(self.problem, candidate, self.weights)
            for candidate in candidates
        ]


@pytest.fixture(scope="module")
def problem():
    """A compact comm-mapping problem: every move kind is available."""
    example = load_fig1_example(num_buses=2)
    return ExplorationProblem(
        example.process_graph,
        example.mapping,
        example.architecture,
        name="fig1-two-bus",
        map_communications=True,
    )


@pytest.fixture(scope="module")
def generated_problem():
    return ExplorationProblem.from_system(
        generate_system(16, 2, seed=3), map_communications=True
    )


def _walk(problem, seed, moves):
    """A seeded chain of candidates, one sampler move apart each."""
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(seed)
    current = problem.initial_candidate()
    chain = [current]
    for _ in range(moves):
        neighbors = sampler.sample(current, rng, 1)
        if not neighbors:
            break
        current = neighbors[0][1]
        chain.append(current)
    return chain


class TestEquivalenceProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), moves=st.integers(1, 8))
    def test_random_move_sequences_evaluate_identically(
        self, problem, seed, moves
    ):
        """Replay a random move sequence; staged == the plain pipeline.

        The sampler draws every registered move kind (remap / swap / priority
        switch incl. the non-path-local ``static_order`` / bias / remap_comm
        / swap_bus), so the sub-fingerprint completeness invariant is what
        this property actually exercises.
        """
        cache = StageCache()
        for candidate in _walk(problem, seed, moves):
            staged = evaluate_candidate(problem, candidate, stage_cache=cache)
            fresh = plain_evaluation(problem, candidate)
            assert staged == fresh
            assert staged.objectives == fresh.objectives

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_schedule_tables_are_identical(self, problem, seed):
        cache = StageCache()
        for candidate in _walk(problem, seed, 4):
            _, staged = merge_candidate(problem, candidate, stage_cache=cache)
            _, fresh = plain_merge(problem, candidate)
            assert staged.table == fresh.table
            assert format_schedule_table(staged.table) == format_schedule_table(
                fresh.table
            )
            assert staged.table_path_delays == fresh.table_path_delays
            assert staged.delta_max == fresh.delta_max

    def test_sizing_moves_evaluate_identically(self):
        """Platform changes (add/remove PE/bus) must re-key every stage.

        ``platform`` is a load-bearing component of both sub-fingerprints;
        a bounded problem makes the sampler draw the four sizing kinds too.
        """
        problem = ExplorationProblem.from_system(
            generate_system(16, 2, seed=3),
            bounds=ArchitectureBounds(),
            map_communications=True,
        )
        cache = StageCache()
        platforms = set()
        for seed in (1, 2, 3):
            for candidate in _walk(problem, seed, 10):
                platforms.add(candidate.platform)
                assert evaluate_candidate(
                    problem, candidate, stage_cache=cache
                ) == plain_evaluation(problem, candidate)
        assert len(platforms) > 1, "the walks never resized the platform"

    def test_generated_system_walk_is_identical(self, generated_problem):
        cache = StageCache()
        for candidate in _walk(generated_problem, 11, 20):
            assert evaluate_candidate(
                generated_problem, candidate, stage_cache=cache
            ) == plain_evaluation(generated_problem, candidate)
        stats = cache.stats
        assert stats.schedule_hits > 0  # locality actually paid off


class TestSubFingerprints:
    def test_assignment_and_bias_slices(self, problem):
        initial = problem.initial_candidate()
        names = [name for name, _ in initial.assignment]
        subset = {names[0], names[-1]}
        sliced = initial.assignment_slice(subset)
        assert set(name for name, _ in sliced) == subset
        assert sliced == tuple(
            pair for pair in initial.assignment if pair[0] in subset
        )
        biased = initial.with_bias(names[0], 2.0).with_bias(names[1], -1.0)
        assert biased.bias_slice({names[0]}) == ((names[0], 2.0),)
        assert biased.bias_slice({names[-1]}) == ()

    def test_dormant_pin_does_not_fragment_expansion_key(self, problem):
        initial = problem.initial_candidate()
        message, src, dst = problem.active_messages(initial)[0]
        # Co-locate the endpoints: the pin goes dormant and must not change
        # the expansion key versus the same co-location without the pin.
        pinned = initial.with_communication(
            message, problem.connecting_buses(initial, src, dst)[0]
        )
        colocated = pinned.reassigned(src, pinned.pe_of(dst))
        without = initial.reassigned(src, initial.pe_of(dst))
        assert problem.expansion_key(colocated) == problem.expansion_key(without)

    def test_unaffected_path_keys_survive_a_remap(self, generated_problem):
        problem = generated_problem
        initial = problem.initial_candidate()
        cache = StageCache()
        expanded, paths = cache.expansion(problem, initial)
        # Move a process that is NOT active on some path; that path's
        # schedule key must not change (this is what turns a local move into
        # cache hits everywhere else).
        moved = None
        for path in paths:
            active = set(path.active_processes)
            outside = [p for p in problem.movable_processes if p not in active]
            if outside:
                moved = (path, outside[0])
                break
        assert moved is not None, "need a path not covering every process"
        path, process = moved
        target = next(
            pe
            for pe in problem.processor_names
            if pe != initial.pe_of(process)
        )
        neighbor = initial.reassigned(process, target)
        expanded_n, _ = cache.expansion(problem, neighbor)
        assert problem.path_schedule_key(
            initial, path, expanded
        ) == problem.path_schedule_key(neighbor, path, expanded_n)

    def test_static_order_keys_on_the_whole_expansion(self, generated_problem):
        problem = generated_problem
        assert "static_order" not in PATH_LOCAL_PRIORITY_FUNCTIONS
        initial = problem.initial_candidate().with_priority_function(
            "static_order"
        )
        cache = StageCache()
        expanded, paths = cache.expansion(problem, initial)
        key = problem.path_schedule_key(initial, paths[0], expanded)
        assert problem.expansion_key(initial) in key

    def test_expansion_structure_split_matches_monolithic(self, problem):
        initial = problem.initial_candidate()
        mapping = problem.mapping_for(initial)
        monolithic = expand_communications(
            problem.graph, mapping, problem.architecture
        )
        structure = expansion_structure(
            problem.graph, crossing_edges(problem.graph, mapping)
        )
        relayered = assign_buses(structure, mapping, problem.architecture)
        assert set(relayered.communications) == set(monolithic.communications)
        assert relayered.bus_assignment == monolithic.bus_assignment
        assert relayered.bus_loads == monolithic.bus_loads
        assert sorted(relayered.graph.topological_order()) == sorted(
            monolithic.graph.topological_order()
        )


class TestStageAccounting:
    def test_second_evaluation_hits_every_stage(self, problem):
        cache = StageCache()
        initial = problem.initial_candidate()
        evaluate_candidate(problem, initial, stage_cache=cache)
        first = cache.stats
        assert first.expansion_misses == 1
        assert first.schedule_hits == 0
        evaluate_candidate(problem, initial, stage_cache=cache)
        second = cache.stats
        assert second.expansion_hits == 1
        assert second.schedule_misses == first.schedule_misses
        assert second.schedule_hits > 0

    def test_local_move_hits_unaffected_paths(self, generated_problem):
        problem = generated_problem
        cache = StageCache()
        initial = problem.initial_candidate()
        evaluate_candidate(problem, initial, stage_cache=cache)
        chain = _walk(problem, 5, 6)
        for candidate in chain:
            evaluate_candidate(problem, candidate, stage_cache=cache)
        stats = cache.stats
        assert stats.schedule_hits > 0
        assert 0.0 <= stats.schedule_hit_rate <= 1.0
        assert 0.0 <= stats.expansion_hit_rate <= 1.0

    def test_evaluator_exposes_stage_stats(self, problem):
        evaluator = CachedEvaluator(problem)
        evaluator.evaluate(problem.initial_candidate())
        stats = evaluator.stage_stats
        assert stats is not None and stats.expansion_misses == 1

    def test_shared_stage_cache_instance(self, problem):
        shared = StageCache()
        first = CachedEvaluator(problem, stage_cache=shared)
        second = CachedEvaluator(problem, stage_cache=shared)
        first.evaluate(problem.initial_candidate())
        second.evaluate(problem.initial_candidate())
        assert shared.stats.expansion_hits == 1  # second evaluator reused it

    def test_clear_drops_memos_but_keeps_counters(self, problem):
        cache = StageCache()
        evaluate_candidate(problem, problem.initial_candidate(), stage_cache=cache)
        assert cache.stats.schedules > 0
        cache.clear()
        stats = cache.stats
        assert stats.schedules == 0 and stats.expansions == 0
        assert stats.schedule_misses > 0  # running totals survive
        # and the cache still works after clearing
        evaluate_candidate(problem, problem.initial_candidate(), stage_cache=cache)
        assert cache.stats.expansion_misses == 2

    def test_intern_key_ids_are_unique(self, problem):
        cache = StageCache()
        ids = [cache.intern_key(("key", index)) for index in range(50)]
        assert len(set(ids)) == 50
        assert cache.intern_key(("key", 7)) == ids[7]

    def test_pooled_evaluator_defers_stage_caches_to_the_pool(self, problem):
        with EvaluationPool(problem, workers=2, mode="thread") as pool:
            evaluator = CachedEvaluator(problem, pool=pool)
            assert evaluator.stage_cache is None  # pool owns staged evaluation
            evaluator.evaluate_many(_walk(problem, 21, 3))
            assert evaluator.stage_stats is not None  # reported from the pool


class TestPoolEquivalence:
    def test_thread_pool_with_stage_caches_matches_serial(self, problem):
        batch = _walk(problem, 9, 11)
        serial = [plain_evaluation(problem, candidate) for candidate in batch]
        with EvaluationPool(problem, workers=2, mode="thread") as pool:
            assert pool.evaluate(batch) == serial
            assert pool.stage_stats is not None

    def test_process_pool_with_stage_caches_matches_serial(self, problem):
        batch = _walk(problem, 13, 7)
        serial = [plain_evaluation(problem, candidate) for candidate in batch]
        with EvaluationPool(problem, workers=2, mode="process") as pool:
            assert pool.evaluate(batch) == serial
            # per-worker caches are deliberately not aggregated
            assert pool.stage_stats is None

    def test_explorer_results_identical_with_and_without_stages(self, problem):
        config = ExplorationConfig(seed=4, max_cycles=6, neighbors_per_cycle=4)
        staged = Explorer(problem, config=config).explore("tabu")
        plain = Explorer(
            problem,
            config=config,
            evaluator=_PlainEvaluator(problem, config.weights),
        ).explore("tabu")
        assert staged.best_candidate == plain.best_candidate
        assert staged.best == plain.best
        assert staged.trajectory == plain.trajectory
        assert staged.stages.expansion_misses > 0
        assert plain.stages.expansion_misses == 0  # the oracle scored all


class TestBatchEvaluation:
    """Batched scoring equals the per-candidate loop and the plain pipeline."""

    @staticmethod
    def neighbourhood(problem, count=8, seed=7):
        base = problem.initial_candidate()
        sampler = NeighborhoodSampler(problem)
        rng = random.Random(seed)
        return [base] + [
            candidate for _, candidate in sampler.sample(base, rng, count)
        ]

    @pytest.fixture(scope="class")
    def fig1_problem(self):
        return ExplorationProblem.from_system(load_fig1_example())

    def test_batch_matches_serial_evaluation(self, fig1_problem):
        candidates = self.neighbourhood(fig1_problem)
        serial_cache = StageCache()
        serial = [
            evaluate_candidate(fig1_problem, candidate, stage_cache=serial_cache)
            for candidate in candidates
        ]
        batch_cache = StageCache()
        stats = BatchStats()
        batched = evaluate_neighbourhood(
            fig1_problem, candidates, stage_cache=batch_cache, batch_stats=stats
        )
        assert batched == serial
        # Batched scoring probes the stage cache in the same order as the
        # serial loop, so the hit/miss accounting must be identical, not
        # just similar.
        assert batch_cache.stats == serial_cache.stats
        assert stats.batches == 1
        assert stats.candidates == len(candidates)
        assert stats.mean_batch_size == pytest.approx(len(candidates))
        assert stats.payload_bytes == 0

    def test_batch_stats_snapshot_accumulates(self):
        stats = BatchStats()
        assert stats.snapshot() == {
            "batches": 0,
            "candidates": 0,
            "mean_batch_size": 0.0,
            "payload_bytes": 0,
        }
        stats.record_batch(4)
        stats.record_batch(6, payload_bytes=120)
        snapshot = stats.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["candidates"] == 10
        assert snapshot["mean_batch_size"] == pytest.approx(5.0)
        assert snapshot["payload_bytes"] == 120

    @pytest.mark.parametrize(
        "mode,workers",
        [("serial", 1), ("thread", 2), ("process", 2)],
    )
    def test_pool_modes_score_identically(self, fig1_problem, mode, workers):
        candidates = self.neighbourhood(fig1_problem)
        unique = len({candidate.fingerprint for candidate in candidates})
        expected = [
            plain_evaluation(fig1_problem, candidate) for candidate in candidates
        ]
        with EvaluationPool(fig1_problem, mode=mode, workers=workers) as pool:
            evaluator = CachedEvaluator(fig1_problem, pool=pool)
            got = evaluator.evaluate_many(candidates)
            assert got == expected
            stats = evaluator.batch_stats
            assert stats.batches == 1
            assert stats.candidates == unique
            if mode == "process":
                # The pickled-once problem blob plus the pre-pickled units
                # all crossed the process boundary and were counted.
                assert pool.payload_bytes_shipped > 0
                assert stats.payload_bytes == pool.payload_bytes_shipped
            else:
                # Nothing is serialised in-process.
                assert pool.payload_bytes_shipped == 0
                assert stats.payload_bytes == 0
