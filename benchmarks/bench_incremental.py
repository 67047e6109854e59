"""Incremental evaluation — staged stage-cache speedup on a move-local stream.

Harness view of the ``incremental`` record in ``BENCH_core.json``: scores the
same seeded move-local candidate stream (one process remapped or one message
repinned per step) through the full expand-schedule-merge pipeline and through
the sub-fingerprint stage caches (:class:`repro.exploration.StageCache`),
renders the comparison plus the per-stage hit rates, and asserts a
conservative speedup floor alongside the bit-identity of the two arms.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis import format_table
from repro.exploration import StageCache, evaluate_candidate

from conftest import write_result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from run_benchmarks import (  # noqa: E402
    INCREMENTAL_MIN_SPEEDUP,
    INCREMENTAL_WORKLOAD,
    _incremental_problem_and_stream,
    _measure_incremental,
)


def test_incremental_evaluation_speedup():
    record = _measure_incremental()
    spec = INCREMENTAL_WORKLOAD
    rows = [[
        f"{spec['nodes']} nodes / {spec['programmable_processors']} PEs",
        record["distinct_candidates"],
        record["full_seconds"],
        record["incremental_seconds"],
        f"{record['speedup']}x",
        f"{record['structure_hits']}/{record['structure_hits'] + record['structure_misses']}",
        f"{record['schedule_hits']}/{record['schedule_hits'] + record['schedule_misses']}",
    ]]
    write_result(
        "incremental_evaluation_speedup",
        format_table(
            "Incremental evaluation: staged stage caches vs full pipeline "
            "on a move-local candidate stream",
            ["system", "candidates", "full (s)", "staged (s)", "speedup",
             "structure hits", "schedule hits"],
            rows,
        ),
    )
    # _measure_incremental already asserted bit-identical evaluations per
    # repeat; keep the same noise-tolerant floor as the --check gate.
    assert record["speedup"] >= INCREMENTAL_MIN_SPEEDUP


def test_incremental_evaluation_is_bit_identical():
    problem, stream = _incremental_problem_and_stream()
    sample = stream[:20]
    cache = StageCache()
    staged = [
        evaluate_candidate(problem, candidate, stage_cache=cache)
        for candidate in sample
    ]
    full = [
        evaluate_candidate(problem, candidate, stage_cache=StageCache())
        for candidate in sample
    ]
    assert staged == full
    stats = cache.stats
    assert stats.schedule_hits > 0, "a move-local stream must reuse schedules"
