"""Service-level tests: the async job server over shared LRU stage caches.

Everything here exercises a **real** localhost socket — the asyncio server
of :mod:`repro.service.server` on an ephemeral port, spoken to with the
stdlib client — because the service's promises (byte-identity with the
one-shot CLI, cross-request stage-cache reuse, offender-naming errors) are
wire-level promises.  Servers register with the conftest timeout-cleanup
registry so a hung test tears its server down instead of leaking it.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.generator import generate_system
from repro.io import save_system, system_to_dict
from repro.observability import RingBufferSink, Tracer
from repro.service import ServiceClient, ServiceError, start_in_thread


@pytest.fixture()
def service(timeout_cleanup):
    """A running service on an ephemeral port (torn down even on timeout)."""
    running = start_in_thread(job_workers=2)
    timeout_cleanup(running.close)
    try:
        yield running
    finally:
        running.close()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=60.0)


FIG1_REQUEST = {"fig1": True, "cycles": 4, "neighbors": 4, "seed": 1}


def _system_payload(small_system, name):
    return system_to_dict(
        small_system["graph"],
        small_system["architecture"],
        small_system["mapping"],
        name,
    )


def test_submit_poll_fetch_roundtrip(client):
    assert client.health() == {"status": "ok"}
    submitted = client.submit(dict(FIG1_REQUEST))
    assert submitted["state"] in ("queued", "running")
    assert submitted["job"].startswith("job-")

    status = client.wait(submitted["job"], timeout=120)
    assert status["state"] == "done"
    assert status["problem"] == "the paper's Fig. 1 example"
    assert status["cache_scope"]
    assert status["shared_cache"]["entries_at_start"] == 0

    document = client.result(submitted["job"])
    assert document["problem"] == "the paper's Fig. 1 example"
    assert document["seed"] == 1
    assert document["best_engine"] == "tabu"
    result = document["results"][0]
    assert result["best"]["feasible"] is True
    # The served job runs in the CLI's serial shape: no pool, no resilience.
    assert result["resilience"] is None
    assert result["stages"]["schedule_misses"] > 0

    trajectory = client.trajectory(submitted["job"])
    assert trajectory["trajectories"]["tabu"] == result["trajectory"]

    listed = client.jobs()["jobs"]
    assert [entry["job"] for entry in listed] == [submitted["job"]]


def test_served_result_is_byte_identical_to_one_shot_cli(client, capsys):
    assert main([
        "explore", "--fig1", "--cycles", "4", "--neighbors", "4",
        "--seed", "1", "--json",
    ]) == 0
    one_shot = capsys.readouterr().out

    submitted = client.submit(dict(FIG1_REQUEST))
    client.wait(submitted["job"], timeout=120)
    document = client.result(submitted["job"])
    served = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert served == one_shot


def test_concurrent_clients_same_request_get_identical_results(service):
    documents = [None] * 4
    errors = []

    def _one_client(index):
        try:
            client = ServiceClient(service.url, timeout=60.0)
            submitted = client.submit(dict(FIG1_REQUEST))
            client.wait(submitted["job"], timeout=120)
            documents[index] = client.result(submitted["job"])
        except Exception as error:  # surfaced below; threads must not die silently
            errors.append(error)

    threads = [
        threading.Thread(target=_one_client, args=(index,))
        for index in range(len(documents))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # Concurrent jobs of one scope share its worker's stage cache, yet every
    # client sees the same document — stage sharing may only change
    # counters, never results.
    first = documents[0]
    assert first is not None
    stripped = [
        {key: value for key, value in doc.items()} for doc in documents
    ]
    for doc in stripped[1:]:
        assert doc["best_engine"] == first["best_engine"]
        for ours, theirs in zip(doc["results"], first["results"]):
            assert ours["best"] == theirs["best"]
            assert ours["trajectory"] == theirs["trajectory"]
            assert ours["evaluations"] == theirs["evaluations"]


def test_near_duplicate_tenants_share_the_stage_cache(client, small_system):
    # Two tenants, same graph/architecture but different system names and
    # seeds: they land in one cache scope, and the second answers partly
    # from the first's stage entries.
    first = client.submit({
        "system": _system_payload(small_system, "tenant-a"),
        "cycles": 4, "neighbors": 4, "seed": 1,
    })
    status_a = client.wait(first["job"], timeout=120)
    assert status_a["shared_cache"]["entries_at_start"] == 0

    second = client.submit({
        "system": _system_payload(small_system, "tenant-b"),
        "cycles": 4, "neighbors": 4, "seed": 2,
    })
    status_b = client.wait(second["job"], timeout=120)
    assert status_b["cache_scope"] == status_a["cache_scope"]
    assert status_b["shared_cache"]["entries_at_start"] > 0
    assert status_b["shared_cache"]["stage_hits"] > 0

    cache = client.cache_stats()
    scope = cache["scopes"][status_a["cache_scope"]]
    assert scope["tenants"] == 2
    assert scope["entries"] > 0
    assert scope["occupancy_bytes"] > 0
    assert scope["max_entries"] > 0 and scope["max_bytes"] > 0
    assert cache["totals"]["hits"] >= status_b["shared_cache"]["stage_hits"]


def test_identical_tenant_replays_entirely_from_cache(client):
    first = client.submit(dict(FIG1_REQUEST))
    client.wait(first["job"], timeout=120)
    second = client.submit(dict(FIG1_REQUEST))
    status = client.wait(second["job"], timeout=120)
    # Same request, warm scope: every stage query hits.
    assert status["shared_cache"]["stage_misses"] == 0
    assert status["shared_cache"]["stage_hits"] > 0
    # A warm cache may only change the stage hit counters, nothing else.
    cold, warm = client.result(first["job"]), client.result(second["job"])
    for document in (cold, warm):
        for result in document["results"]:
            result.pop("stages")
    assert cold == warm


def test_malformed_payloads_name_the_offender(client, small_system):
    status, document = client.request("POST", "/jobs", {"fig1": True, "cycles": "x"})
    assert status == 400
    assert "'cycles'" in document["error"]

    status, document = client.request("POST", "/jobs", {"cycles": 4})
    assert status == 400
    assert "exactly one problem source" in document["error"]

    status, document = client.request(
        "POST", "/jobs", {"fig1": True, "budget": 9}
    )
    assert status == 400
    assert "'budget'" in document["error"]

    broken = _system_payload(small_system, "broken")
    offender = broken["processes"][0]["name"]
    broken["processes"][0].pop("execution_time")
    status, document = client.request("POST", "/jobs", {"system": broken})
    assert status == 400
    assert offender in document["error"]
    assert "execution_time" in document["error"]

    status, document = client.request("POST", "/jobs", None)
    assert status == 400
    assert "empty" in document["error"]

    status, document = client.request("GET", "/jobs/job-999")
    assert status == 404
    assert "job-999" in document["error"]

    status, document = client.request("DELETE", "/healthz")
    assert status == 405


def test_schedule_and_sweep_queries(client, small_system, capsys, tmp_path):
    payload = _system_payload(small_system, "query-demo")
    served = client.schedule({"system": payload, "validate": True})

    path = tmp_path / "system.json"
    save_system(
        path,
        small_system["graph"],
        small_system["architecture"],
        small_system["mapping"],
        name="query-demo",
    )
    assert main(["schedule", str(path), "--validate", "--json"]) == 0
    one_shot = json.loads(capsys.readouterr().out)
    assert served == one_shot

    swept = client.sweep({"nodes": [10], "paths": [2], "graphs": 1})
    assert main([
        "sweep", "--nodes", "10", "--paths", "2", "--graphs", "1", "--json",
    ]) == 0
    assert swept == json.loads(capsys.readouterr().out)


def test_pareto_job_exposes_fronts(client):
    submitted = client.submit(dict(FIG1_REQUEST, pareto=True))
    client.wait(submitted["job"], timeout=120)
    fronts = client.front(submitted["job"])
    assert fronts["fronts"]["tabu"]["size"] >= 1

    plain = client.submit(dict(FIG1_REQUEST))
    client.wait(plain["job"], timeout=120)
    with pytest.raises(ServiceError, match="Pareto front"):
        client.front(plain["job"])


def test_stats_track_requests_and_batching(client):
    submitted = client.submit(dict(FIG1_REQUEST))
    client.wait(submitted["job"], timeout=120)
    stats = client.stats()
    assert stats["requests"]["total"] > 0
    assert stats["requests"]["by_route"]["/jobs"] >= 1
    assert stats["requests_per_second"] > 0
    assert stats["jobs"]["by_state"] == {"done": 1}
    assert stats["jobs"]["queue_depth"] == 0
    assert stats["batching"]["rounds"] > 0
    assert stats["batching"]["batches"] >= stats["batching"]["rounds"]


def test_shutdown_endpoint_stops_the_server(timeout_cleanup):
    running = start_in_thread(job_workers=1)
    timeout_cleanup(running.close)
    client = ServiceClient(running.url, timeout=30.0)
    assert client.shutdown() == {"status": "shutting down"}
    running._thread.join(timeout=30)
    assert not running._thread.is_alive()
    with pytest.raises(OSError):
        client.health()


def _submit_together(url, requests):
    """Submit every request from its own client thread at the same moment."""
    submitted = [None] * len(requests)
    start = threading.Barrier(len(requests))

    def _submit(index):
        start.wait(timeout=30)
        submitted[index] = ServiceClient(url, timeout=60.0).submit(requests[index])

    threads = [
        threading.Thread(target=_submit, args=(index,))
        for index in range(len(requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return [document["job"] for document in submitted]


def _without_problem_and_stages(document):
    stripped = dict(document, problem=None)
    stripped["results"] = [
        {key: value for key, value in result.items() if key != "stages"}
        for result in document["results"]
    ]
    return stripped


def test_same_scope_jobs_run_on_one_warm_worker(service, client, capsys, tmp_path):
    system = generate_system(16, 2, seed=3)
    path = tmp_path / "system.json"
    save_system(
        path, system.process_graph, system.architecture, system.mapping,
        name="tenant",
    )
    assert main([
        "explore", str(path), "--cycles", "4", "--neighbors", "4",
        "--seed", "1", "--json",
    ]) == 0
    one_shot = _without_problem_and_stages(json.loads(capsys.readouterr().out))

    requests = [
        {
            "system": system_to_dict(
                system.process_graph, system.architecture, system.mapping, name
            ),
            "cycles": 4, "neighbors": 4, "seed": 1,
        }
        for name in ("tenant-a", "tenant-b")
    ]
    jobs = _submit_together(service.url, requests)
    statuses = [client.wait(job, timeout=120) for job in jobs]
    assert [status["state"] for status in statuses] == ["done", "done"]
    for job in jobs:
        assert _without_problem_and_stages(client.result(job)) == one_shot

    # One scope, one worker: the job that ran second found the first one's
    # entries in its worker's cache.
    manager = service.service.jobs
    assert statuses[0]["cache_scope"] == statuses[1]["cache_scope"]
    assert manager.worker_pid(jobs[0]) == manager.worker_pid(jobs[1])
    first, second = sorted(jobs, key=lambda job: int(job.split("-")[1]))
    by_job = dict(zip(jobs, statuses))
    assert by_job[first]["shared_cache"]["entries_at_start"] == 0
    assert by_job[second]["shared_cache"]["entries_at_start"] > 0
    scope = client.cache_stats()["scopes"][statuses[0]["cache_scope"]]
    assert scope["tenants"] == 2
    assert client.stats()["batching"]["coalesced"] == 0


def test_distinct_scopes_run_side_by_side_on_separate_workers(
    timeout_cleanup, small_system
):
    sink = RingBufferSink()
    running = start_in_thread(job_workers=2, tracer=Tracer(sink))
    timeout_cleanup(running.close)
    try:
        jobs = _submit_together(running.url, [
            dict(FIG1_REQUEST, cycles=20),
            {
                "system": _system_payload(small_system, "other"),
                "cycles": 20, "neighbors": 4, "seed": 1,
            },
        ])
        client = ServiceClient(running.url, timeout=60.0)
        for job in jobs:
            assert client.wait(job, timeout=120)["state"] == "done"
        manager = running.service.jobs
        assert manager.worker_pid(jobs[0]) != manager.worker_pid(jobs[1])
    finally:
        running.close()
    workers = {
        record["attrs"]["job"]: record["attrs"]["worker"]
        for record in sink.records
        if record["type"] == "span" and record["name"] == "service.job"
    }
    assert sorted(workers) == sorted(jobs)
    assert sorted(workers.values()) == [0, 1]


def test_killed_worker_fails_its_job_and_is_replaced(timeout_cleanup):
    running = start_in_thread(job_workers=2)
    timeout_cleanup(running.close)
    client = ServiceClient(running.url, timeout=60.0)
    manager = running.service.jobs
    long_job = {
        "random": {"nodes": 40, "paths": 4}, "seed": 7,
        "cycles": 400, "neighbors": 8, "stall": 0,
    }
    try:
        job = client.submit(dict(long_job))["job"]
        deadline = time.monotonic() + 60
        while client.status(job)["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        killed = manager.worker_pid(job)
        os.kill(killed, signal.SIGKILL)
        with pytest.raises(ServiceError, match="died"):
            client.wait(job, timeout=120)
        status = client.status(job)
        assert status["state"] == "failed"
        assert f"job worker 0 (pid {killed}) died" in status["error"]

        # The same scope lands on the replacement worker, which starts cold.
        retry = client.submit(dict(long_job, cycles=1))["job"]
        retried = client.wait(retry, timeout=120)
        assert retried["state"] == "done"
        assert retried["cache_scope"] == status["cache_scope"]
        assert retried["shared_cache"]["entries_at_start"] == 0
        assert manager.worker_pid(retry) not in (None, killed)
    finally:
        running.close()
    assert multiprocessing.active_children() == []


def test_scopes_arriving_one_at_a_time_spread_over_the_workers(
    service, client, small_system
):
    # Every worker is idle whenever a new scope arrives, so the pin falls
    # to the worker with fewer scopes pinned, not always to worker 0.
    requests = [
        FIG1_REQUEST,
        {
            "system": _system_payload(small_system, "other"),
            "cycles": 4, "neighbors": 4, "seed": 1,
        },
    ]
    jobs = []
    for request in requests:
        jobs.append(client.submit(request)["job"])
        assert client.wait(jobs[-1], timeout=120)["state"] == "done"
    manager = service.service.jobs
    assert sorted(manager.get(job).worker for job in jobs) == [0, 1]


def test_worker_killed_while_idle_is_replaced_before_the_next_job(
    timeout_cleanup,
):
    running = start_in_thread(job_workers=1)
    timeout_cleanup(running.close)
    client = ServiceClient(running.url, timeout=60.0)
    manager = running.service.jobs
    try:
        first = client.submit(FIG1_REQUEST)["job"]
        assert client.wait(first, timeout=120)["state"] == "done"
        killed = manager.worker_pid(first)
        os.kill(killed, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while any(child.pid == killed for child in multiprocessing.active_children()):
            assert time.monotonic() < deadline
            time.sleep(0.01)

        # The job never ran on the dead worker, so it must not fail.
        retry = client.submit(FIG1_REQUEST)["job"]
        retried = client.wait(retry, timeout=120)
        assert retried["state"] == "done"
        assert retried["shared_cache"]["entries_at_start"] == 0
        assert manager.worker_pid(retry) not in (None, killed)
    finally:
        running.close()
    assert multiprocessing.active_children() == []
