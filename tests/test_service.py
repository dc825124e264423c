"""Tests for :mod:`repro.service`: the wire protocol, the asyncio
daemon (request coalescing, micro-batching, per-scale runners, graceful
drain), both client libraries, and the service-backed tuning path.

The server fixture runs the real daemon — real unix socket, real event
loop — on a background thread against a tmp-path sharded store, so
every test exercises the same code paths ``repro serve`` does.
"""

import asyncio
import dataclasses
import socket
import threading

import pytest

from repro.experiments import ExperimentRunner, ResultStore, RunSpec
from repro.service import (AsyncServiceClient, ExperimentService,
                           PROTOCOL_VERSION, ServiceClient, ServiceError)
from repro.service import protocol
from repro.service.metrics import ServiceMetrics, describe_status

SCALE = 0.1


def start_service(tmp_path, **kw):
    """Run an ExperimentService on a background thread; returns
    (service, socket path, thread) once it is accepting connections."""
    kw.setdefault("scale", SCALE)
    kw.setdefault("batch_window", 0.05)
    kw.setdefault("store", ResultStore(tmp_path / "cache"))
    svc = ExperimentService(**kw)
    sock = tmp_path / "svc.sock"
    ready = threading.Event()
    thread = threading.Thread(
        target=svc.run, kwargs=dict(socket_path=sock, ready=ready.set),
        daemon=True)
    thread.start()
    assert ready.wait(15), "service did not come up"
    return svc, sock, thread


def stop_service(sock, thread):
    if thread.is_alive():
        try:
            with ServiceClient(socket_path=sock) as client:
                client.shutdown()
        except (ServiceError, protocol.ProtocolError):
            pass
        thread.join(15)
    assert not thread.is_alive()


@pytest.fixture()
def service(tmp_path):
    svc, sock, thread = start_service(tmp_path)
    yield svc, sock
    stop_service(sock, thread)


# -- protocol ------------------------------------------------------------------

class TestProtocol:
    def test_spec_round_trip(self):
        from repro.sim.specs import DEFAULT_COST_MODEL

        spec = RunSpec(app="sssp", variant="consolidated", strategy="block",
                       allocator="halloc", config=(1, 13, 128),
                       threshold=32, workload="star",
                       cost=DEFAULT_COST_MODEL.scaled(atomic_cycles=7))
        # every field non-default: no axis may be dropped on the wire
        for field in dataclasses.fields(RunSpec):
            if field.name != "dataset":  # exclusive with workload
                assert getattr(spec, field.name) != field.default
        wire = protocol.spec_to_wire(spec)
        assert protocol.spec_from_wire(wire) == spec
        with_dataset = dataclasses.replace(spec, workload=None,
                                           dataset="dataset1")
        assert protocol.spec_from_wire(
            protocol.spec_to_wire(with_dataset)) == with_dataset

    def test_defaults_stay_off_the_wire(self):
        wire = protocol.spec_to_wire(RunSpec(app="spmv", variant="no-dp"))
        assert wire == {"app": "spmv", "variant": "no-dp"}

    def test_unknown_field_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="grannularity"):
            protocol.spec_from_wire({"app": "sssp", "variant": "basic-dp",
                                     "grannularity": "warp"})

    def test_bad_config_shape_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="config"):
            protocol.spec_from_wire({"app": "sssp", "variant": "basic-dp",
                                     "config": [1, 2]})

    def test_non_scalar_config_elements_rejected(self):
        # a nested list would make the RunSpec unhashable and break the
        # server's in-flight keying — must die at the protocol layer
        with pytest.raises(protocol.ProtocolError, match="config"):
            protocol.spec_from_wire({"app": "sssp", "variant": "basic-dp",
                                     "config": ["moldable", [2], 3]})

    def test_bad_cost_field_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="cost"):
            protocol.spec_from_wire({"app": "sssp", "variant": "basic-dp",
                                     "cost": {"not_a_knob": 3}})

    def test_non_scalar_axis_values_rejected(self):
        # every axis must stay hashable: a list-valued threshold (or a
        # dict-valued cost entry) would make the frozen RunSpec
        # unhashable and kill the server's in-flight keying
        for bad in ({"threshold": [1, 2]}, {"strategy": ["warp"]},
                    {"workload": {"name": "star"}},
                    {"cost": {"atomic_cycles": [1]}}):
            with pytest.raises(protocol.ProtocolError):
                protocol.spec_from_wire({"app": "sssp",
                                         "variant": "basic-dp", **bad})

    def test_unhashable_axis_gets_a_reply_not_a_hang(self, service):
        """The live-reproduced regression: a submit whose spec survives
        parsing but cannot be hashed must be answered with an error."""
        _, sock = service
        replies = _raw_exchange(sock, [
            {"op": "hello", "protocol": PROTOCOL_VERSION},
            {"op": "submit", "id": 7,
             "spec": {"app": "sssp", "variant": "basic-dp",
                      "threshold": [1, 2]}},
        ], expect=2)
        assert replies[1]["ok"] is False

    def test_numpy_scalars_encode(self):
        import numpy as np

        line = protocol.encode({"a": np.int64(3), "b": np.float32(0.5),
                                "c": {"d": [np.bool_(True)]}})
        assert protocol.decode(line) == {"a": 3, "b": 0.5, "c": {"d": [True]}}

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")

    def test_metrics_rate_properties(self):
        m = ServiceMetrics()
        assert m.dedup_rate == 0.0 and m.cache_hit_rate == 0.0
        m.requests, m.coalesced, m.cache_hits = 8, 2, 4
        assert m.dedup_rate == 0.25
        assert m.cache_hit_rate == 0.5


# -- handshake -----------------------------------------------------------------

def _raw_exchange(sock_path, messages, expect=None):
    """Send raw wire lines; read ``expect`` responses (default: until
    the server hangs up)."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10)
    s.connect(str(sock_path))
    fh = s.makefile("rwb")
    for msg in messages:
        fh.write(protocol.encode(msg))
    fh.flush()
    out = []
    while expect is None or len(out) < expect:
        line = fh.readline()
        if not line:
            break
        out.append(protocol.decode(line))
    s.close()
    return out


class TestHandshake:
    def test_version_mismatch_rejected_cleanly(self, service):
        _, sock = service
        replies = _raw_exchange(sock, [{"op": "hello", "protocol": 99},
                                       {"op": "status", "id": 1}])
        # one error reply, then the server hung up (no status reply)
        assert len(replies) == 1
        assert replies[0]["ok"] is False
        assert "protocol" in replies[0]["error"]
        assert str(PROTOCOL_VERSION) in replies[0]["error"]

    def test_non_hello_first_message_rejected(self, service):
        _, sock = service
        replies = _raw_exchange(sock, [{"op": "status", "id": 1}])
        assert len(replies) == 1 and replies[0]["ok"] is False

    def test_hello_reports_server_context(self, service):
        svc, sock = service
        with ServiceClient(socket_path=sock) as client:
            info = client.server_info
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["scale"] == SCALE
        assert info["device"] == svc.spec.name


# -- the metrics op / feature advertisement (PR 8) -----------------------------

class TestMetricsOp:
    def test_hello_advertises_metrics_feature(self, service):
        _, sock = service
        with ServiceClient(socket_path=sock) as client:
            assert "metrics" in client.server_info["features"]
            assert client.supports("metrics")
            assert not client.supports("time-travel")

    def test_metrics_round_trip(self, service):
        svc, sock = service
        with ServiceClient(socket_path=sock) as client:
            client.submit("spmv", "no-dp")
            resp = client.metrics()
        assert resp["metrics"] == svc.metrics.snapshot()
        assert resp["metrics"]["requests"] >= 1
        registry = resp["registry"]
        assert registry["service_requests"]["value"] == \
            resp["metrics"]["requests"]
        # the daemon-only histograms ride along in the same registry
        assert registry["service_request_seconds"]["kind"] == "histogram"
        assert registry["service_batch_size"]["count"] >= 1
        assert resp["text"].startswith("# HELP")
        assert "service_requests" in resp["text"]

    def test_async_client_metrics(self, service):
        _, sock = service

        async def go():
            client = await AsyncServiceClient.connect(socket_path=sock)
            try:
                assert client.supports("metrics")
                return await client.metrics()
            finally:
                await client.close()

        resp = asyncio.run(go())
        assert resp["metrics"]["connections"] >= 1

    def test_v1_exchange_unchanged_for_old_clients(self, service):
        """A pre-PR-8 client speaks exactly this: hello + status on
        protocol 1, never reading ``features``. Both replies must stay
        well-formed v1 responses."""
        _, sock = service
        replies = _raw_exchange(sock, [
            {"op": "hello", "protocol": PROTOCOL_VERSION},
            {"op": "status", "id": 1},
        ], expect=2)
        assert replies[0]["ok"] is True
        assert replies[0]["protocol"] == PROTOCOL_VERSION
        assert replies[1]["ok"] is True
        assert "metrics" in replies[1]  # the v1 status payload, as ever
        assert describe_status(replies[1])  # still renders

    def test_new_client_degrades_against_old_daemon(self):
        """Against a daemon whose hello carries no ``features``, the
        client must refuse the op with a clear error, not send it."""
        client = ServiceClient(socket_path="/nonexistent.sock")
        client._fh = object()  # pretend connected...
        client.server_info = {"ok": True, "protocol": 1}  # ...pre-PR-8
        assert not client.supports("metrics")
        with pytest.raises(ServiceError, match="metrics"):
            client.metrics()

    def test_daemon_trace_written_on_shutdown(self, tmp_path):
        import json

        from repro.telemetry import validate_chrome_trace

        trace = tmp_path / "daemon-trace.json"
        svc, sock, thread = start_service(tmp_path, trace=str(trace))
        try:
            with ServiceClient(socket_path=sock) as client:
                client.submit("spmv", "no-dp")
        finally:
            stop_service(sock, thread)
        with open(trace, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert validate_chrome_trace(obj) > 0
        names = {e["name"] for e in obj["traceEvents"] if e["ph"] == "X"}
        assert {"service.accept", "service.request",
                "service.reply"} <= names


# -- submit / coalescing / batching --------------------------------------------

class TestSubmit:
    def test_cold_then_warm(self, service):
        svc, sock = service
        with ServiceClient(socket_path=sock) as client:
            cold = client.submit("spmv", "no-dp")
        assert cold.source == "executed"
        assert cold.checked
        assert cold.metrics.cycles > 0
        assert cold.stats.executed == 1
        with ServiceClient(socket_path=sock) as client:
            warm = client.submit("spmv", "no-dp")
        assert warm.source == "cached"
        assert warm.stats.executed == 0
        assert warm.metrics.cycles == cold.metrics.cycles
        assert svc.metrics.executed == 1

    def test_matches_local_runner(self, service, tmp_path):
        _, sock = service
        with ServiceClient(socket_path=sock) as client:
            remote = client.submit("sssp", "grid-level")
        local = ExperimentRunner(scale=SCALE).run("sssp", "grid-level")
        assert remote.metrics.cycles == local.metrics.cycles
        assert remote.metrics.dram_transactions == \
            local.metrics.dram_transactions

    def test_bad_app_is_clean_and_connection_survives(self, service):
        _, sock = service
        with ServiceClient(socket_path=sock) as client:
            with pytest.raises(ServiceError, match="nope"):
                client.submit("nope", "basic-dp")
            ok = client.submit("spmv", "no-dp")
        assert ok.source in ("executed", "cached")

    def test_backend_axis_reaches_the_server(self, service):
        """A submit carrying a backend reaches the server and is
        rejected as an unknown RunSpec field, never silently run on the
        simulator (where a run executes is not part of its identity);
        the connection survives it."""
        _, sock = service
        replies = _raw_exchange(sock, [
            {"op": "hello", "protocol": PROTOCOL_VERSION},
            {"op": "submit", "id": 1,
             "spec": {"app": "sssp", "variant": "no-dp", "backend": "cpu"}},
            {"op": "submit", "id": 2,
             "spec": {"app": "sssp", "variant": "no-dp"}},
        ], expect=3)
        rejected, sim = replies[1], replies[2]
        assert not rejected["ok"]
        assert "unknown RunSpec field(s): backend" in rejected["error"]
        assert sim["ok"] and sim["run"]["metrics"]["cycles"] > 0

    def test_variant_strategy_contradiction_is_clean(self, service):
        _, sock = service
        with ServiceClient(socket_path=sock) as client:
            with pytest.raises(ServiceError, match="contradicts"):
                client.submit("sssp", "warp-level", strategy="grid")

    def test_missing_tuned_config_is_clean(self, service):
        _, sock = service
        with ServiceClient(socket_path=sock) as client:
            with pytest.raises(ServiceError, match="tuned"):
                client.submit("sssp", "tuned")

    def test_bad_scale_rejected(self, service):
        _, sock = service
        with ServiceClient(socket_path=sock) as client:
            with pytest.raises(ServiceError, match="scale"):
                client.submit("spmv", "no-dp", scale=-1.0)

    def test_non_numeric_scale_gets_a_reply(self, service):
        """A malformed submit must be answered, never leave the client
        hanging on a silently-dead handler task."""
        _, sock = service
        replies = _raw_exchange(sock, [
            {"op": "hello", "protocol": PROTOCOL_VERSION},
            {"op": "submit", "id": 7,
             "spec": {"app": "spmv", "variant": "no-dp"}, "scale": {}},
            {"op": "submit", "id": 8,
             "spec": {"app": "spmv", "variant": "no-dp"}, "scale": "x"},
        ], expect=3)
        by_id = {r.get("id"): r for r in replies}
        assert by_id[7]["ok"] is False
        assert by_id[8]["ok"] is False

    def test_non_finite_scale_rejected(self, service):
        """NaN never equals itself, so it would poison the in-flight
        and runner maps; it must be rejected at validation."""
        _, sock = service
        replies = _raw_exchange(sock, [
            {"op": "hello", "protocol": PROTOCOL_VERSION},
            {"op": "submit", "id": 1,
             "spec": {"app": "spmv", "variant": "no-dp"},
             "scale": float("nan")},
            {"op": "submit", "id": 2,
             "spec": {"app": "spmv", "variant": "no-dp"},
             "scale": float("inf")},
        ], expect=3)
        by_id = {r.get("id"): r for r in replies}
        assert by_id[1]["ok"] is False and "scale" in by_id[1]["error"]
        assert by_id[2]["ok"] is False and "scale" in by_id[2]["error"]

    def test_failing_spec_does_not_fail_batchmates(self, service,
                                                   monkeypatch):
        """One broken run in a batch: its batchmates still get their
        results (prefetch aborts fall back to per-spec isolation)."""
        svc, sock = service
        real = ExperimentRunner.prefetch

        def flaky(self, specs, jobs=None, executed=None):
            real(self, specs, jobs=jobs, executed=executed)
            raise RuntimeError("injected batch failure")

        monkeypatch.setattr(ExperimentRunner, "prefetch", flaky)
        with ServiceClient(socket_path=sock) as client:
            results = client.submit_many([RunSpec("spmv", "no-dp"),
                                          RunSpec("spmv", "basic-dp")])
        assert [r.checked for r in results] == [True, True]
        assert svc.metrics.failed == 0

    def test_runner_map_is_lru_bounded(self, service):
        """A client sweeping arbitrary scales must not grow the daemon
        by one runner (and its pinned datasets) per distinct float."""
        from repro.service.server import MAX_RUNNERS

        svc, sock = service
        scales = [round(0.05 + 0.01 * i, 3) for i in range(MAX_RUNNERS + 3)]
        with ServiceClient(socket_path=sock) as client:
            for s in scales:
                client.submit("spmv", "no-dp", scale=s)
        assert len(svc._runners) <= MAX_RUNNERS
        # an evicted scale still works (runner is rebuilt, run is cached)
        with ServiceClient(socket_path=sock) as client:
            res = client.submit("spmv", "no-dp", scale=scales[0])
        assert res.source == "cached"
        assert res.stats.executed == 0

    def test_second_daemon_refuses_live_socket(self, service):
        _, sock = service
        other = ExperimentService(scale=SCALE)
        with pytest.raises(RuntimeError, match="already listening"):
            asyncio.run(other.serve(socket_path=sock))

    def test_stale_socket_file_is_replaced(self, tmp_path):
        sock = tmp_path / "svc.sock"
        # a dead daemon's leftover: a bound-then-abandoned socket file
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(sock))
        leftover.close()  # closed without listening: connect refuses
        assert sock.exists()
        svc, sock2, thread = start_service(tmp_path)
        assert sock2 == sock
        try:
            with ServiceClient(socket_path=sock) as client:
                assert client.status()["metrics"]["requests"] == 0
        finally:
            stop_service(sock, thread)

    def test_daemon_does_not_hoard_result_arrays(self, service):
        """With a store attached, the in-process AppRun cache is
        dropped after every batch — a long-lived daemon must not grow
        by one result array per unique run."""
        svc, sock = service
        with ServiceClient(socket_path=sock) as client:
            client.submit("spmv", "no-dp")
            warm = client.submit("spmv", "no-dp")
        assert svc._runners[SCALE]._cache == {}
        assert warm.source == "cached"
        assert warm.stats.executed == 0

    def test_pipelined_submit_many_dedupes(self, service):
        svc, sock = service
        specs = [RunSpec("spmv", "no-dp"), RunSpec("spmv", "basic-dp"),
                 RunSpec("spmv", "no-dp"), RunSpec("spmv", "basic-dp"),
                 RunSpec("spmv", "no-dp")]
        with ServiceClient(socket_path=sock) as client:
            results = client.submit_many(specs)
        assert len(results) == 5
        # two unique runs executed, duplicates coalesced or cached
        assert svc.metrics.executed == 2
        assert svc.metrics.completed == 5
        by_variant = {r.variant: r.metrics.cycles for r in results}
        for r in results:
            assert r.metrics.cycles == by_variant[r.variant]

    def test_scale_axis_keeps_runs_apart(self, service):
        svc, sock = service
        with ServiceClient(socket_path=sock) as client:
            a = client.submit("spmv", "no-dp")
            b = client.submit("spmv", "no-dp", scale=0.15)
        assert svc.metrics.executed == 2
        assert a.metrics.cycles != b.metrics.cycles

    def test_status_endpoint(self, service):
        svc, sock = service
        with ServiceClient(socket_path=sock) as client:
            client.submit("spmv", "no-dp")
            payload = client.status()
        assert payload["queue_depth"] == 0
        assert payload["inflight"] == 0
        assert payload["metrics"]["executed"] == 1
        assert payload["store"]["shards"] == svc.store.shards
        assert payload["store"]["entries"] == 1
        # and the human rendering holds the load-bearing counters
        text = describe_status(payload)
        assert "dedup rate" in text and "executed  : 1" in text


class TestConcurrentClients:
    def test_unique_specs_execute_exactly_once(self, service):
        """12 racing clients over 3 unique specs: 3 executions total,
        every client gets the (identical) result."""
        svc, sock = service
        specs = [RunSpec("spmv", "no-dp"), RunSpec("spmv", "basic-dp"),
                 RunSpec("spmv", "grid-level")]
        n = 12
        barrier = threading.Barrier(n)
        results, errors = [None] * n, []

        def worker(i):
            try:
                with ServiceClient(socket_path=sock) as client:
                    barrier.wait(timeout=15)
                    results[i] = client.submit_spec(specs[i % len(specs)])
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        assert all(r is not None and r.checked for r in results)
        assert svc.metrics.executed == len(specs)
        assert svc.metrics.completed == n
        assert svc.metrics.coalesced + svc.metrics.cache_hits == \
            n - len(specs)
        # value-identical responses per spec, regardless of source
        for i, r in enumerate(results):
            assert r.metrics.cycles == results[i % len(specs)].metrics.cycles

    def test_async_client_coalesces_on_one_connection(self, service):
        svc, sock = service

        async def drive():
            client = await AsyncServiceClient.connect(socket_path=sock)
            try:
                spec = RunSpec("spmv", "no-dp")
                return await asyncio.gather(
                    *(client.submit_spec(spec) for _ in range(5)))
            finally:
                await client.close()

        results = asyncio.run(drive())
        sources = sorted(r.source for r in results)
        assert sources == ["coalesced"] * 4 + ["executed"]
        assert svc.metrics.executed == 1
        assert len({r.metrics.cycles for r in results}) == 1


class TestShutdown:
    def test_graceful_shutdown_drains_queue(self, tmp_path):
        """A shutdown racing queued work: every accepted submit still
        gets its result before the server stops."""
        svc, sock, thread = start_service(tmp_path, batch_window=0.5)
        specs = [RunSpec("spmv", "no-dp"), RunSpec("spmv", "basic-dp"),
                 RunSpec("spmv", "grid-level")]
        results, errors = [], []

        def submitter():
            try:
                with ServiceClient(socket_path=sock) as client:
                    results.extend(client.submit_many(specs))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        t = threading.Thread(target=submitter)
        t.start()
        # land the shutdown inside the batching window, while the
        # submits are still queued
        import time

        time.sleep(0.15)
        with ServiceClient(socket_path=sock) as client:
            report = client.shutdown()
        t.join(60)
        thread.join(15)
        assert not thread.is_alive()
        assert not errors
        assert len(results) == len(specs)
        assert all(r.checked for r in results)
        assert report["metrics"]["completed"] == len(specs)
        assert svc.metrics.executed == len(specs)

    def test_submit_after_drain_starts_is_rejected(self, tmp_path):
        svc, sock, thread = start_service(tmp_path)
        with ServiceClient(socket_path=sock) as client:
            client.shutdown()
        thread.join(15)
        with pytest.raises(ServiceError):
            ServiceClient(socket_path=sock).submit("spmv", "no-dp")

    def test_socket_file_removed_on_exit(self, tmp_path):
        svc, sock, thread = start_service(tmp_path)
        with ServiceClient(socket_path=sock) as client:
            client.shutdown()
        thread.join(15)
        assert not sock.exists()


# -- tuning through the service ------------------------------------------------

class TestServiceTuning:
    def test_tune_matches_local_and_warm_resubmits_zero(self, service,
                                                        tmp_path):
        from repro.tuning import TunedConfigRegistry, Tuner

        _, sock = service
        with ServiceClient(socket_path=sock) as client:
            remote = Tuner(scale=SCALE, service=client,
                           registry=TunedConfigRegistry(tmp_path / "t.json"))
            first = remote.tune("sssp", algorithm="random", budget=4, seed=3)
            again = remote.tune("sssp", algorithm="random", budget=4, seed=3)
        local = Tuner(scale=SCALE).tune("sssp", algorithm="random",
                                        budget=4, seed=3)
        assert first.best.candidate == local.best.candidate
        assert first.best.value == local.best.value
        assert first.stats.executed > 0
        # deterministic re-tune through the warm service: zero executions
        assert again.stats.executed == 0
        # and the winner persisted for `repro run sssp tuned`
        assert len(remote.registry) == 1

    def test_tuned_variant_submits_after_tune(self, tmp_path):
        from repro.tuning import TunedConfigRegistry, Tuner

        # the daemon reads the same registry the tuner writes
        registry = TunedConfigRegistry(tmp_path / "tuned.json")
        svc, sock, thread = start_service(tmp_path, tuned=registry)
        try:
            with ServiceClient(socket_path=sock) as client:
                Tuner(scale=SCALE, service=client, registry=registry).tune(
                    "sssp", algorithm="random", budget=4, seed=3)
                res = client.submit("sssp", "tuned")
        finally:
            stop_service(sock, thread)
        assert res.variant != "tuned"  # lowered onto a concrete variant
        assert res.checked
