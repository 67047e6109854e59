"""The four benchmark workloads: synth, explore, explore-pool and serve.

Every workload runs *rounds* of work until the measuring time is up.  A
round is a list of timed *units*: a table, an engine cycle (or a search's
initial evaluation), a served job.  The host's speed drifts, so every
workload times the reference loop of ``reference.py`` at quiet points between
its units (``Workload.mark``), and a unit's time is scaled to the nominal
host's speed by the marks around it (``Outcome.normalised``).  The figures
are medians and rates over every unit of the run.

A workload provides:

* ``setup()`` — systems, problems, the evaluation pool, the server; it is
  what ``setup_s`` times;
* ``run_round(state)`` — one round, returning its units;
* ``check(state, outcome)`` — every output verified off the clock; each
  mismatch is a failed operation;
* ``close(state)`` — releases the pool or stops the server.

All inputs come from the workload seed; the program only ever sees the
generated systems, requests and candidate streams.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.exploration import (
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    StageCache,
    evaluate_candidate,
)
from repro.generator import generate_system
from repro.graph.communication import expand_communications
from repro.graph.paths import PathEnumerator
from repro.io.serialization import system_to_dict, validate_explore_request
from repro.scheduling.list_scheduler import PathListScheduler
from repro.scheduling.merging import ScheduleMerger
from repro.service.client import ServiceClient, ServiceError
from repro.service.documents import explore_document
from repro.service.requests import config_from_request, engines_for, problem_and_origin
from repro.simulation import SimulationError, validate_merge_result

import reference

HERE = Path(__file__).resolve().parent
ANCHORS_PATH = HERE / "anchors.json"

#: Rounds run at least this often (each way, in the traced run).
MIN_ROUNDS = 2

#: synth: stratified sizes (80-240 nodes, 8-16 paths) so that every workload
#: seed draws the same size mix; the seed picks each graph's structure.
SYNTH_SYSTEMS = 96
#: Tables whose merge is re-checked by the run-time simulator (by system
#: index: the two smallest systems, in the first round).  Validation costs
#: ~10x a merge, so it runs on this fixed subset only.
SYNTH_VALIDATED = (0, 1)
#: A host-speed mark is taken after every this many tables.
SYNTH_TABLES_PER_MARK = 4

#: The explore / explore-pool system: the instance the ROADMAP profiled.
EXPLORE_SYSTEM = {"nodes": 80, "paths": 8, "seed": 11,
                  "programmable_processors": 6, "buses": 2}
#: Search budgets (fixed, so best cost and evaluation count are exact).
TABU_CYCLES = 8
GENETIC_CYCLES = 5
GENETIC_POPULATION = 16
#: Engine seeds come from this many frozen-anchor seeds; the workload seed
#: fixes the order in which a run's searches walk through them.
ANCHOR_SEEDS = 32

#: serve: tenants are renamed near-duplicates of a few base systems, plus
#: some distinct systems; each tenant always submits the same request.
#: Each round serves the next of several such tenant sets (a 20 s run fits ~9),
#: because the cost of a search differs widely between random 30-node
#: systems.
SERVE_BASES = 3
SERVE_COPIES = 3
SERVE_DISTINCT = 1
SERVE_TENANT_SETS = 12
SERVE_NODES = 30
SERVE_PATHS = 6
SERVE_CYCLES = 2
SERVE_CLIENTS = 2
SERVE_JOB_WORKERS = 2
POLL_SECONDS = 0.01


@dataclass
class Unit:
    """One timed unit of a round."""

    wall_s: float
    evaluations: int
    #: Whether the unit is an operation (table, engine cycle, job) whose
    #: latency is reported; a search's initial evaluation is not.
    operation: bool = True
    #: What ``check`` verifies (workload-specific dicts).
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: The closed-loop client that ran the unit.
    stream: int = 0
    #: When the unit started (``time.perf_counter``).
    started: float = 0.0


@dataclass
class Outcome:
    """What one measured phase produced."""

    rounds: List[List[Unit]]
    elapsed_s: float
    #: Host-speed marks: (when, reference loop seconds), in time order.
    marks: List[Tuple[float, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Per-layer figures the workload itself can see (hit ratios, counters).
    layer: Dict[str, float] = field(default_factory=dict)

    def normalised(self, unit: Unit) -> float:
        """The unit's wall time at the nominal host's speed.

        The host's speed during the unit is the mean of the reference loop's
        times at the last mark before the unit and the first mark after it.
        """
        times = [when for when, _ in self.marks]
        before = max(bisect.bisect_right(times, unit.started) - 1, 0)
        after = min(bisect.bisect_left(times, unit.started + unit.wall_s),
                    len(self.marks) - 1)
        speed = (self.marks[before][1] + self.marks[after][1]) / 2
        return unit.wall_s * reference.NOMINAL_S / speed

    def units(self, rounds=None) -> List[Unit]:
        rounds = self.rounds if rounds is None else rounds
        return [unit for units in rounds for unit in units]

    @property
    def records(self) -> List[Dict[str, Any]]:
        return [record for unit in self.units() for record in unit.records]


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


class Workload:
    """Round loop shared by all workloads."""

    name = ""
    #: Context for work kept off the clock; the traced run pauses its spans.
    off_clock = staticmethod(nullcontext)
    #: Cores the workload's work runs on at once; its marks use as many.
    cores = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Replaced by a ``Reference(self.cores)`` for a measured run.
        self.reference = reference.Reference()
        self.marks: List[Tuple[float, float]] = []
        #: Whether the running round is traced.
        self.traced = False

    def mark(self) -> None:
        """Time the reference loop now; call only while no unit is running."""
        with self.off_clock():
            speed = self.reference.measure()
        self.marks.append((time.perf_counter(), speed))

    def measure(self, state, deadline: float, patches=None) -> Outcome:
        """Rounds until ``deadline``, and at least MIN_ROUNDS of them.

        A mark is taken before the first round and after every round;
        ``run_round`` may add marks between its units.  With trace
        ``patches``, every second round runs under them, and at least
        MIN_ROUNDS rounds run each way.
        """
        least = MIN_ROUNDS if patches is None else 2 * MIN_ROUNDS
        done: List[List[Unit]] = []
        self.marks = []
        started = time.perf_counter()
        self.mark()
        while len(done) < least or time.perf_counter() < deadline:
            self.traced = patches is not None and len(done) % 2 == 1
            with patches if self.traced else nullcontext():
                done.append(self.run_round(state))
            self.traced = False
            self.mark()
        return Outcome(done, time.perf_counter() - started, marks=self.marks)

    def close(self, state) -> None:
        pass


# -- synth --------------------------------------------------------------------


def synthesise_table(system):
    """The paper's operation: expand, enumerate paths, schedule each, merge."""
    expanded = expand_communications(
        system.process_graph, system.mapping, system.architecture
    )
    paths = PathEnumerator(expanded.graph).paths()
    scheduler = PathListScheduler(expanded.graph, expanded.mapping, system.architecture)
    schedules = {path.label: scheduler.schedule(path) for path in paths}
    merger = ScheduleMerger(
        expanded.graph, expanded.mapping, system.architecture, scheduler
    )
    return expanded, merger.merge(paths=list(paths), path_schedules=schedules)


class Synth(Workload):
    name = "synth"

    def setup(self):
        rng = random.Random(self.seed)
        step = 160 / (SYNTH_SYSTEMS - 1)
        systems = [
            generate_system(
                80 + round(step * index), 8 + (index * 5) % 9,
                seed=rng.randrange(2 ** 31),
            )
            for index in range(SYNTH_SYSTEMS)
        ]
        return {"systems": systems, "rounds": 0}

    def run_round(self, state) -> List[Unit]:
        units = []
        first = state["rounds"] == 0
        for index, system in enumerate(state["systems"]):
            if index and index % SYNTH_TABLES_PER_MARK == 0:
                self.mark()
            started = time.perf_counter()
            expanded, result = synthesise_table(system)
            elapsed = time.perf_counter() - started
            record = {"system": index, "delta_max": result.delta_max,
                      "delta_m": result.delta_m}
            if first and index in SYNTH_VALIDATED:
                record["kept"] = (expanded, result)
            units.append(Unit(elapsed, 1, records=[record], started=started))
        state["rounds"] += 1
        return units

    def check(self, state, outcome: Outcome) -> None:
        systems = state["systems"]
        anchors: Dict[int, Any] = {}
        increases: List[float] = []
        validations: List[float] = []
        for record in outcome.records:
            index = record["system"]
            if index not in anchors:
                problem = ExplorationProblem.from_system(systems[index])
                anchors[index] = evaluate_candidate(
                    problem, problem.initial_candidate(), stage_cache=StageCache()
                )
            anchor = anchors[index]
            found = (record["delta_max"], record["delta_m"])
            if found != (anchor.delta_max, anchor.delta_m):
                outcome.failures.append(
                    f"synth table of system {index}: delta_max / delta_M {found!r}, "
                    f"staged anchor {(anchor.delta_max, anchor.delta_m)!r}"
                )
                continue
            if record["delta_max"] < record["delta_m"]:
                outcome.failures.append(f"synth table of system {index}: delta_max < delta_M")
                continue
            increases.append(
                100.0 * (record["delta_max"] - record["delta_m"]) / record["delta_m"]
            )
            kept = record.pop("kept", None)
            if kept is not None:
                expanded, result = kept
                started = time.perf_counter()
                try:
                    validate_merge_result(
                        expanded.graph, expanded.mapping, result,
                        systems[index].architecture,
                    )
                except SimulationError as error:
                    outcome.failures.append(f"synth table of system {index}: {error}")
                validations.append(time.perf_counter() - started)
        outcome.layer.update({
            "scheduling.merging.delay_increase_pct":
                sum(increases) / len(increases) if increases else 0.0,
            "simulation.validate.calls": len(validations),
            "simulation.validate.busy_s": sum(validations),
        })


# -- explore / explore-pool -----------------------------------------------------


def load_anchors() -> Dict[str, Dict[str, List[float]]]:
    with open(ANCHORS_PATH) as handle:
        return json.load(handle)


def explore_problem() -> ExplorationProblem:
    spec = EXPLORE_SYSTEM
    system = generate_system(
        spec["nodes"], spec["paths"], seed=spec["seed"],
        programmable_processors=spec["programmable_processors"], buses=spec["buses"],
    )
    return ExplorationProblem.from_system(system, map_communications=True)


def search_config(engine: str, seed: int) -> ExplorationConfig:
    if engine == "genetic":
        return ExplorationConfig(
            seed=seed, max_cycles=GENETIC_CYCLES, population_size=GENETIC_POPULATION
        )
    return ExplorationConfig(seed=seed, max_cycles=TABU_CYCLES)


class _CycleClock:
    """Stopping criterion that notes when each cycle ended and takes a mark.

    Engines consult their criteria before the first cycle and after every
    cycle; the built-in cycle budget is consulted first, so the final call
    never reaches this one and the search's return time closes the last
    cycle instead.  The host-speed mark (``mark``, if given) runs between
    the end of one cycle and the start of the next, outside both units.
    """

    def __init__(self, mark=None) -> None:
        self.mark = mark
        #: (end of a cycle, evaluations so far, start of the next cycle)
        self.bounds: List[Tuple[float, int, float]] = []

    def __call__(self, state) -> None:
        ended = time.perf_counter()
        if self.mark is not None:
            self.mark()
        self.bounds.append((ended, state.evaluations, time.perf_counter()))
        return None

    def units(self, started: float, finished: float, evaluations: int) -> List[Unit]:
        """The initial evaluation, then one unit per cycle."""
        bounds = [(started, 0, started)] + self.bounds + [(finished, evaluations, finished)]
        return [
            Unit(end - begin, done - before, operation=index > 0, started=begin)
            for index, ((_, before, begin), (end, done, _))
            in enumerate(zip(bounds, bounds[1:]))
        ]


class Explore(Workload):
    """One tabu search per round.

    The searches walk through the anchor seeds in an order the workload seed
    fixes, so a run covers as many different searches as fit into it (their
    costs differ by a quartile spread of ~0.15).
    """

    name = "explore"
    engine = "tabu"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = random.Random(seed).sample(range(ANCHOR_SEEDS), ANCHOR_SEEDS)

    def setup(self):
        problem = explore_problem()
        problem.initial_candidate()
        return {"problem": problem, "searches": 0}

    def _next_seed(self, state) -> int:
        seed = self.order[state["searches"] % ANCHOR_SEEDS]
        state["searches"] += 1
        return seed

    def run_round(self, state) -> List[Unit]:
        return self._search(state, self._next_seed(state))

    def _search(self, state, seed: int, pool=None) -> List[Unit]:
        # Traced rounds take no marks inside a search, so that the reference
        # loop never lands inside an engine span.
        clock = _CycleClock(None if self.traced else self.mark)
        explorer = Explorer(state["problem"], search_config(self.engine, seed),
                            pool=pool, stopping=[clock])
        started = time.perf_counter()
        result = explorer.explore(self.engine)
        finished = time.perf_counter()
        units = clock.units(started, finished, result.evaluations)
        units[0].records.append({
            "seed": seed, "best_cost": result.best.cost,
            "evaluations": result.evaluations,
            "delta_max": result.best.delta_max, "delta_m": result.best.delta_m,
            "cache": result.cache, "stages": result.stages,
        })
        return units

    def check(self, state, outcome: Outcome) -> None:
        anchors = load_anchors()[self.engine]
        records = outcome.records
        for record in records:
            expected = anchors[str(record["seed"])]
            found = [record["best_cost"], record["evaluations"]]
            if found != expected:
                outcome.failures.append(
                    f"{self.engine} seed {record['seed']}: best cost / evaluations "
                    f"{found!r}, anchor {expected!r}"
                )
            elif record["delta_max"] < record["delta_m"]:
                outcome.failures.append(f"{self.engine} seed {record['seed']}: delta_max < delta_M")

        sums: Dict[str, int] = {}

        def add(key: str, hits: int, misses: int) -> None:
            sums[key] = sums.get(key, 0) + hits
            sums[key + "_probes"] = sums.get(key + "_probes", 0) + hits + misses

        for record in records:
            add("evaluator", record["cache"].hits, record["cache"].misses)
            stages = record["stages"]
            if stages is not None:
                add("expansion", stages.expansion_hits, stages.expansion_misses)
                add("structure", stages.structure_hits, stages.structure_misses)
                add("schedule", stages.schedule_hits, stages.schedule_misses)

        def ratio(key: str) -> float:
            return _ratio(sums.get(key, 0), sums.get(key + "_probes", 0))

        outcome.layer.update({
            "exploration.evaluator.hit_ratio": ratio("evaluator"),
            "exploration.cost.expansion_hit_ratio": ratio("expansion"),
            "exploration.cost.structure_hit_ratio": ratio("structure"),
            "exploration.cost.schedule_hit_ratio": ratio("schedule"),
            "exploration.engines.cycles":
                sum(unit.operation for units in outcome.rounds for unit in units),
            "exploration.engines.best_cost":
                sum(record["best_cost"] for record in records) / len(records),
        })


class ExplorePool(Explore):
    """Genetic searches, each on a freshly spawned two-worker process pool.

    A user's run spawns its own pool, so every search starts with cold
    per-worker stage caches (and worker memory does not grow with the number
    of searches a faster build fits into the run).  The first spawn is part
    of set-up; the re-spawns before later searches are kept off the clock
    and reported as ``exploration.pool.spawn_s``.
    """

    name = "explore-pool"
    engine = "genetic"
    cores = 2

    def setup(self):
        state = super().setup()
        state["pool_totals"] = {"payload_bytes": 0, "respawns": 0, "retries": 0,
                                "spawn_s": []}
        self._spawn(state)
        return state

    def _spawn(self, state) -> None:
        problem = state["problem"]
        started = time.perf_counter()
        pool = EvaluationPool(problem, workers=2, mode="process")
        initial = problem.initial_candidate()
        # Two candidates take the pooled path, which spawns the workers.
        pool.evaluate([initial, initial])
        state["pool_totals"]["spawn_s"].append(time.perf_counter() - started)
        state["pool"] = pool
        state["fresh"] = True

    def close(self, state) -> None:
        pool = state.pop("pool")
        totals = state["pool_totals"]
        totals["payload_bytes"] += pool.payload_bytes_shipped
        totals["respawns"] += pool.resilience_stats.worker_restarts
        totals["retries"] += pool.resilience_stats.retries
        pool.close()

    def run_round(self, state) -> List[Unit]:
        if not state["fresh"]:
            with self.off_clock():
                self.close(state)
                self._spawn(state)
            self.mark()
        state["fresh"] = False
        return self._search(state, self._next_seed(state), pool=state["pool"])

    def check(self, state, outcome: Outcome) -> None:
        super().check(state, outcome)
        totals = state["pool_totals"]
        outcome.layer.update({
            "exploration.pool.payload_bytes": totals["payload_bytes"],
            "exploration.pool.respawns": totals["respawns"],
            "exploration.pool.retries": totals["retries"],
            "exploration.pool.spawn_s": statistics.median(totals["spawn_s"]),
        })


# -- serve ----------------------------------------------------------------------


def serve_tenants(seed: int) -> List[Dict[str, Any]]:
    """Tenant requests: renamed near-duplicates of a few bases, plus distinct ones."""
    rng = random.Random(seed)
    requests: List[Dict[str, Any]] = []

    def add(system, name: str, search_seed: int) -> None:
        document = system_to_dict(
            system.process_graph, system.architecture, system.mapping, name=name
        )
        requests.append({"system": document, "seed": search_seed,
                         "engine": "tabu", "cycles": SERVE_CYCLES})

    # A near-duplicate differs from its base only by name, so its search
    # walks the same candidates and can reuse every stage the base computed.
    for base in range(SERVE_BASES):
        system = generate_system(SERVE_NODES, SERVE_PATHS, seed=rng.randrange(2 ** 31))
        for copy in range(SERVE_COPIES):
            add(system, f"tenant-{base}-{copy}", base)
    for distinct in range(SERVE_DISTINCT):
        system = generate_system(SERVE_NODES, SERVE_PATHS, seed=rng.randrange(2 ** 31))
        add(system, f"tenant-distinct-{distinct}", SERVE_BASES + distinct)
    return requests


def reference_document(request: Dict[str, Any], searches: Dict[str, Any]) -> Dict[str, Any]:
    """What the in-process ``Explorer`` produces for one request.

    ``searches`` keeps the engine results per request without the system's
    name: the name enters only the document's ``problem`` label, so renamed
    copies of a system share one in-process search.
    """
    normalised = validate_explore_request(request)
    problem, origin = problem_and_origin(normalised)
    unnamed = dict(request, system=dict(request["system"], name=""))
    key = json.dumps(unnamed, sort_keys=True)
    if key not in searches:
        config = config_from_request(normalised)
        searches[key] = [
            Explorer(problem, config=config).explore(engine)
            for engine in engines_for(normalised["engine"])
        ]
    document = explore_document(
        origin, normalised["seed"], searches[key],
        include_front=normalised["pareto"], problem=problem,
    )
    return json.loads(json.dumps(document))


def _without_stage_counters(document: Dict[str, Any]) -> Dict[str, Any]:
    # A warm shared scope cache changes only the stage hit counters.
    stripped = dict(document)
    stripped["results"] = [
        {key: value for key, value in result.items() if key != "stages"}
        for result in document["results"]
    ]
    return stripped


class Serve(Workload):
    """Two closed-loop clients against a ``repro-cpg serve`` process.

    Each round runs on a server whose scoped caches start cold (set-up starts
    the first one; later ones are restarted off the clock) and serves the
    next of the tenant sets.  In a round, each client submits every tenant's
    request once, in its own seeded order, so every tenant is served twice
    per round and the near-duplicates warm each other's scope.
    """

    name = "serve"
    #: The server's job workers beside the clients.
    cores = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.root = HERE.parent
        tenants = SERVE_BASES * SERVE_COPIES + SERVE_DISTINCT
        self.orders = [
            random.Random(seed * 1000 + client).sample(range(tenants), tenants)
            for client in range(SERVE_CLIENTS)
        ]

    def setup(self):
        rng = random.Random(self.seed)
        state = {"tenant_sets": [serve_tenants(rng.randrange(2 ** 31))
                                 for _ in range(SERVE_TENANT_SETS)],
                 "rounds": 0,
                 "totals": {"hits": 0, "misses": 0, "lru_evictions": 0, "coalesced": 0}}
        self._start(state)
        return state

    def _start(self, state) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.root / "src"), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--job-workers", str(SERVE_JOB_WORKERS)],
            cwd=str(self.root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        state["process"], state["url"], state["fresh"] = process, None, True
        try:
            line = process.stdout.readline()
            url = line.split("listening on ", 1)[1].split()[0]
            client = ServiceClient(url, timeout=60.0)
            for _ in range(500):
                try:
                    client.health()
                    break
                except OSError:
                    time.sleep(0.01)
            state["url"] = url
        except Exception:
            self.close(state)
            raise

    def close(self, state) -> None:
        process = state["process"]
        if process.poll() is None and state["url"] is not None:
            try:
                ServiceClient(state["url"], timeout=10.0).shutdown()
            except (OSError, ServiceError):
                pass
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def run_round(self, state) -> List[Unit]:
        if not state["fresh"]:
            with self.off_clock():
                self.close(state)
                self._start(state)
            self.mark()
        state["fresh"] = False
        tenant_set = state["rounds"] % SERVE_TENANT_SETS
        state["rounds"] += 1
        tenants = state["tenant_sets"][tenant_set]
        streams: List[List[Unit]] = [[] for _ in range(SERVE_CLIENTS)]

        def client_loop(index: int) -> None:
            client = ServiceClient(state["url"], timeout=120.0)
            for tenant in self.orders[index]:
                started = time.perf_counter()
                record = {"set": tenant_set, "tenant": tenant, "document": None,
                          "http_error": False}
                try:
                    job = client.submit(tenants[tenant])["job"]
                    while True:
                        status = client.status(job)
                        if status["state"] in ("done", "failed"):
                            break
                        time.sleep(POLL_SECONDS)
                    if status["state"] == "done":
                        record["document"] = client.result(job)
                    else:
                        record["error"] = status.get("error", "job failed")
                except (OSError, ServiceError) as error:
                    record["http_error"] = True
                    record["error"] = str(error)
                evaluations = sum(
                    result["evaluations"] for result in record["document"]["results"]
                ) if record["document"] is not None else 0
                streams[index].append(Unit(
                    time.perf_counter() - started, evaluations,
                    records=[record], stream=index, started=started,
                ))

        threads = [threading.Thread(target=client_loop, args=(index,))
                   for index in range(SERVE_CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        client = ServiceClient(state["url"], timeout=60.0)
        cache = client.cache_stats()["totals"]
        totals = state["totals"]
        for key in ("hits", "misses", "lru_evictions"):
            totals[key] += cache[key]
        totals["coalesced"] += client.stats()["batching"]["coalesced"]
        return [unit for stream in streams for unit in stream]

    def check(self, state, outcome: Outcome) -> None:
        references: Dict[Tuple[int, int], Dict[str, Any]] = {}
        searches: Dict[str, Any] = {}
        served = []
        for record in outcome.records:
            key = (record["set"], record["tenant"])
            if record["document"] is None:
                outcome.failures.append(
                    f"serve tenant {key}: {record.get('error', 'no result')}"
                )
                continue
            served.append(record["document"])
            if key not in references:
                request = state["tenant_sets"][key[0]][key[1]]
                references[key] = _without_stage_counters(
                    reference_document(request, searches)
                )
            if _without_stage_counters(record["document"]) != references[key]:
                outcome.failures.append(
                    f"serve tenant {key}: served result differs from the "
                    f"in-process Explorer result"
                )
        totals = state["totals"]
        outcome.layer.update({
            "service.shared_hit_ratio":
                _ratio(totals["hits"], totals["hits"] + totals["misses"]),
            "service.lru_evictions": totals["lru_evictions"],
            "service.batched_candidates": sum(
                result["cache"]["misses"] for document in served
                for result in document["results"]
            ),
            "service.coalesced_batches": totals["coalesced"],
            "service.http_errors": sum(r["http_error"] for r in outcome.records),
            "exploration.engines.best_cost": (
                sum(document["results"][0]["best"]["cost"] for document in served)
                / len(served) if served else 0.0
            ),
        })


WORKLOADS = {cls.name: cls for cls in (Synth, Explore, ExplorePool, Serve)}
