"""End-to-end benchmark of schedule-table synthesis, exploration and serving.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates untraced rounds with rounds that put spans around
the calls into every layer, and reports the per-layer metrics plus the
tracing overhead.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every output is checked off the clock; any mismatch is a failed operation
and makes the exit code 1.

Other modes::

    python3 perfbench/run.py --steadiness 10 --workload serve --seconds 20
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --freeze-anchors

``--steadiness`` re-runs a workload in fresh processes over consecutive
seeds and prints each metric's median and quartile spread against the bound
in ``BENCHMARK.json``; ``--self-test`` checks the harness itself;
``--freeze-anchors`` recomputes ``perfbench/anchors.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

#: Setup is repeated (at least this often, and until this much time passed)
#: and reported as its median, so one slow start does not decide setup_s.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 40


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def timed_setup(workload):
    """Median normalised set-up time over several set-ups, with the last state.

    Each set-up is scaled to the nominal host's speed by reference-loop
    marks taken just before and just after it (see ``reference.py``).
    """
    import reference

    times, walls, state = [], [], None
    while True:
        if state is not None:
            workload.close(state)
        before = workload.reference.measure()
        started = time.perf_counter()
        state = workload.setup()
        wall = time.perf_counter() - started
        speed = (before + workload.reference.measure()) / 2
        walls.append(wall)
        times.append(wall * reference.NOMINAL_S / speed)
        if len(times) >= SETUP_MAX_REPEATS or (
            len(times) >= SETUP_MIN_REPEATS and sum(walls) >= SETUP_MIN_SECONDS
        ):
            return _median(times), state


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measured(workload, seconds: float, patches=None):
    """Set up (timed), run rounds for ``seconds``, close, then check off the clock."""
    import reference

    workload.reference = reference.Reference(workload.cores)
    try:
        setup_s, state = timed_setup(workload)
        try:
            outcome = workload.measure(
                state, deadline=time.perf_counter() + seconds, patches=patches
            )
        finally:
            workload.close(state)
    finally:
        workload.reference.close()
    workload.check(state, outcome)
    return setup_s, outcome


def end_to_end(workload, seconds: float):
    setup_s, outcome = measured(workload, seconds)
    timed = [(unit, outcome.normalised(unit)) for unit in outcome.units()]
    ops = [seconds for unit, seconds in timed if unit.operation]
    # Closed-loop clients: each one's rate is its work over its busy time.
    streams = {unit.stream for unit, _ in timed}
    busy = {stream: sum(s for u, s in timed if u.stream == stream) for stream in streams}
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_s": (_median(ops), "s"),
        "op_p90_s": (_p90(ops), "s"),
        "ops_per_s": (sum(
            sum(u.operation for u, _ in timed if u.stream == stream) / busy[stream]
            for stream in streams), "1/s"),
        "evals_per_s": (sum(
            sum(u.evaluations for u, _ in timed if u.stream == stream) / busy[stream]
            for stream in streams), "1/s"),
    }
    return outcome, metrics


def per_layer(workload, seconds: float, workload_module):
    """Rounds alternate untraced / traced, so both see the same machine."""
    import tracing

    recorder = tracing.Recorder()
    patches = tracing.Patches(recorder, extra_modules=(workload_module,))
    workload.off_clock = recorder.paused
    _, outcome = measured(workload, seconds, patches=patches)
    outcome.failures.extend(tracing.check_spans(recorder.spans, outcome.elapsed_s))
    return outcome, layer_metrics(recorder.spans, outcome)


def _seconds_per_evaluation(outcome, rounds) -> float:
    units = outcome.units(rounds)
    return sum(outcome.normalised(unit) for unit in units) / sum(
        unit.evaluations for unit in units)


def layer_metrics(spans, outcome):
    import tracing

    summary = tracing.layer_summary(spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def calls(name):
        return get(name, "calls")

    def durations(name):
        return [span.duration for span in spans if span.name == name]

    readjust = tracing.nested_under(
        spans, "scheduling.list_scheduler", "scheduling.merging"
    )
    layer = outcome.layer
    figures = {
        "graph.guards.calls": (calls("graph.guards"), "count"),
        "graph.guards.busy_s": (get("graph.guards", "busy_s"), "s"),
        "graph.paths.calls": (calls("graph.paths"), "count"),
        "graph.paths.busy_s": (get("graph.paths", "busy_s"), "s"),
        "graph.paths.count": (get("graph.paths", "count"), "count"),
        "graph.communication.calls": (calls("graph.communication"), "count"),
        "graph.communication.busy_s": (get("graph.communication", "busy_s"), "s"),
        "graph.communication.messages": (get("graph.communication", "count"), "count"),
        "scheduling.list_scheduler.calls": (calls("scheduling.list_scheduler"), "count"),
        "scheduling.list_scheduler.busy_s":
            (get("scheduling.list_scheduler", "busy_s"), "s"),
        "scheduling.list_scheduler.tasks":
            (get("scheduling.list_scheduler", "count"), "count"),
        "scheduling.merging.calls": (calls("scheduling.merging"), "count"),
        "scheduling.merging.self_s": (get("scheduling.merging", "self_s"), "s"),
        "scheduling.merging.readjust_calls": (len(readjust), "count"),
        "scheduling.merging.readjust_s": (sum(s.duration for s in readjust), "s"),
        "exploration.cost.evaluate_calls": (calls("exploration.cost"), "count"),
        "exploration.cost.busy_s": (get("exploration.cost", "busy_s"), "s"),
        "exploration.cost.infeasible_share": (
            get("exploration.cost", "flags") / calls("exploration.cost")
            if calls("exploration.cost") else 0.0, "ratio"),
        "exploration.evaluator.requests": (get("exploration.evaluator", "count"), "count"),
        "exploration.evaluator.self_s": (get("exploration.evaluator", "self_s"), "s"),
        "exploration.engines.self_s": (get("exploration.engines", "self_s"), "s"),
        "exploration.pool.batches": (calls("exploration.pool"), "count"),
        "exploration.pool.candidates_per_batch": (
            get("exploration.pool", "count") / calls("exploration.pool")
            if calls("exploration.pool") else 0.0, "count"),
        "exploration.pool.wait_s": (get("exploration.pool", "busy_s"), "s"),
        "service.submit_s": (_median(durations("service.submit")), "s"),
        "service.status_s": (_median(durations("service.status")), "s"),
        "service.result_s": (_median(durations("service.result")), "s"),
        "trace.overhead_share": (
            _seconds_per_evaluation(outcome, outcome.rounds[1::2])
            / _seconds_per_evaluation(outcome, outcome.rounds[0::2]) - 1.0, "ratio"),
    }
    for name, unit in LAYER_FIGURES.items():
        figures[name] = (layer.get(name, 0), unit)
    return figures


#: Per-layer figures a workload reports from what it can see itself.
LAYER_FIGURES = {
    "scheduling.merging.delay_increase_pct": "%",
    "simulation.validate.calls": "count",
    "simulation.validate.busy_s": "s",
    "exploration.cost.expansion_hit_ratio": "ratio",
    "exploration.cost.structure_hit_ratio": "ratio",
    "exploration.cost.schedule_hit_ratio": "ratio",
    "exploration.evaluator.hit_ratio": "ratio",
    "exploration.engines.cycles": "count",
    "exploration.engines.best_cost": "units",
    "exploration.pool.payload_bytes": "B",
    "exploration.pool.respawns": "count",
    "exploration.pool.retries": "count",
    "exploration.pool.spawn_s": "s",
    "service.shared_hit_ratio": "ratio",
    "service.lru_evictions": "count",
    "service.batched_candidates": "count",
    "service.coalesced_batches": "count",
    "service.http_errors": "count",
}


def run_workload(arguments) -> int:
    import workloads

    workload = workloads.WORKLOADS[arguments.workload](arguments.seed)
    if arguments.trace:
        outcome, metrics = per_layer(workload, arguments.seconds, workloads)
    else:
        outcome, metrics = end_to_end(workload, arguments.seconds)
    failures = outcome.failures
    for failure in failures:
        print(f"mismatch: {failure}", file=sys.stderr)
    attempted = len(outcome.records)
    document = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)) if attempted else 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(document))
    return 0 if not failures else 1


# -- steadiness report ------------------------------------------------------------


def steadiness(arguments) -> int:
    """Re-run a workload over consecutive seeds; print median and quartile spread."""
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    names = [arguments.workload] if arguments.workload else [
        workload["name"] for workload in spec["workloads"]
    ]
    status = 0
    for name in names:
        values = {}
        for index in range(arguments.steadiness):
            seed = arguments.seed + index
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(arguments.seconds),
                 "--trace", str(arguments.trace)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=600,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {completed.returncode}\n"
                      f"{completed.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            for metric, entry in json.loads(lines[-1])["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {arguments.steadiness} runs, seeds {arguments.seed}.."
              f"{arguments.seed + arguments.steadiness - 1}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None and metric != "setup_s":
                verdict = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {metric:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6} {verdict}")
    return status


# -- self-test -------------------------------------------------------------------


def self_test() -> int:
    """Checks of the harness itself; prints one line per check."""
    import tracing
    import workloads
    from repro.graph.cpg import ConditionalProcessGraph
    from repro.graph.paths import PathEnumerator

    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    # 1. Every synth operation derives guards on a freshly expanded graph.
    synth = workloads.Synth(seed=0)
    state = synth.setup()
    systems = state["systems"]
    arrivals = []
    original = ConditionalProcessGraph.guards

    def spy(graph):
        arrivals.append((id(graph), graph._guard_cache is None))
        return original(graph)

    ConditionalProcessGraph.guards = spy
    try:
        first, _ = workloads.synthesise_table(systems[0])
        second, _ = workloads.synthesise_table(systems[0])
    finally:
        ConditionalProcessGraph.guards = original
    graphs = {graph_id for graph_id, _ in arrivals}
    cold = {graph_id for graph_id, empty in arrivals if empty}
    check(first.graph is not second.graph and len(graphs) == 2 and cold == graphs,
          "each synth table expands a new graph whose guard memo starts empty")

    # 2. ...which matters: enumeration on a reused graph hits the guard memo.
    def enumerate_seconds(graph):
        started = time.perf_counter()
        PathEnumerator(graph).paths()
        return time.perf_counter() - started

    fresh, reused = [], []
    for _ in range(5):
        graph = workloads.expand_communications(
            systems[0].process_graph, systems[0].mapping, systems[0].architecture
        ).graph
        fresh.append(enumerate_seconds(graph))
        reused.append(enumerate_seconds(graph))
    check(_median(reused) < _median(fresh),
          f"path enumeration on a fresh graph {1e3 * _median(fresh):.2f} ms, on a "
          f"reused graph {1e3 * _median(reused):.2f} ms (guard memo hit)")

    # 3. Traced synth: spans nest inside their parents, every graph and
    #    scheduling layer is seen, and the patches come off afterwards.
    recorder = tracing.Recorder()
    before = ConditionalProcessGraph.__dict__["guards"]
    with tracing.Patches(recorder, extra_modules=(workloads,)):
        outcome = synth.measure(state, deadline=0.0)
    names = {span.name for span in recorder.spans}
    expected = {"graph.guards", "graph.paths", "graph.communication",
                "scheduling.list_scheduler", "scheduling.merging"}
    check(expected <= names, f"traced synth records {sorted(expected)}")
    check(not tracing.check_spans(recorder.spans, outcome.elapsed_s),
          "child spans stay inside their parents; self times sum within wall time")
    check(ConditionalProcessGraph.__dict__["guards"] is before
          and workloads.PathEnumerator is PathEnumerator,
          "trace patches are removed after each traced round")

    # 4. A child that outlives its parent is caught by the sanity check.
    parent = tracing.Span("parent", None, 0)
    parent.start, parent.end = 0.0, 1.0
    child = tracing.Span("child", parent, 0)
    child.start, child.end = 0.5, 1.5
    check(bool(tracing.check_spans([child, parent], 1.0)),
          "span sanity check flags a child that exceeds its parent")

    # 5. The frozen anchors cover every engine seed the workloads draw.
    anchors = workloads.load_anchors()
    check(all(len(anchors[engine]) == workloads.ANCHOR_SEEDS
              for engine in ("tabu", "genetic")),
          f"anchors cover {workloads.ANCHOR_SEEDS} seeds per engine")
    return 1 if failures else 0


def freeze_anchors() -> int:
    """Recompute the frozen best-cost / evaluation-count anchors (serially)."""
    import workloads

    problem = workloads.explore_problem()
    anchors = {}
    for engine in ("tabu", "genetic"):
        anchors[engine] = {}
        for seed in range(workloads.ANCHOR_SEEDS):
            result = workloads.Explorer(
                problem, workloads.search_config(engine, seed)
            ).explore(engine)
            anchors[engine][str(seed)] = [result.best.cost, result.evaluations]
    with open(workloads.ANCHORS_PATH, "w") as handle:
        json.dump(anchors, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("synth", "explore", "explore-pool", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--freeze-anchors", action="store_true")
    arguments = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if arguments.steadiness:
        return steadiness(arguments)
    if arguments.self_test:
        return self_test()
    if arguments.freeze_anchors:
        return freeze_anchors()
    if arguments.workload is None:
        parser.error("--workload is required")
    return run_workload(arguments)


if __name__ == "__main__":
    sys.exit(main())
