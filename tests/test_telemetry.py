"""Tests for :mod:`repro.telemetry` and its hard invariants.

Three families:

* the subsystem itself — span nesting/scoping/bounding, the Chrome
  trace exporter (every export is schema-checked), the metrics
  registry and its Prometheus rendering;
* the **never-perturb** invariants: telemetry off allocates no spans,
  a spec resolved or keyed under ``tracing()`` is the untraced one
  (``RunSpec`` has no trace field), and a traced run's ``RunMetrics``
  are bitwise-identical to an untraced one;
* the ``ServiceMetrics`` fold onto the registry — the original
  attribute surface, ``snapshot()`` and ``describe_status`` rendering
  must survive the re-backing byte for byte.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.telemetry import (NULL_SPAN, MetricsRegistry, Tracer, attribution,
                             attribution_table, chrome_trace, coverage,
                             enabled, install, span, span_tree, tracing,
                             uninstall, validate_chrome_trace,
                             write_chrome_trace)

SCALE = 0.05


# -- spans ---------------------------------------------------------------------

class TestSpans:
    def test_off_path_is_the_null_singleton(self):
        assert not enabled()
        s = span("anything", app="sssp")
        assert s is NULL_SPAN
        with span("nested") as inner:
            assert inner is NULL_SPAN
            assert inner.set(key="value") is NULL_SPAN

    def test_nesting_links_parents(self):
        tracer = Tracer()
        with tracing(tracer):
            assert enabled()
            with span("outer") as outer:
                with span("inner") as inner:
                    assert inner.parent is outer
            assert outer.parent is None
        assert not enabled()
        names = [s.name for s in tracer.spans()]
        # children finish (and record) first; spans() re-sorts by start
        assert names == ["outer", "inner"]

    def test_attrs_and_live_set(self):
        tracer = Tracer()
        with tracing(tracer):
            # the name parameter is positional-only, so instrumentation
            # may attach a `name=...` attribute without a collision
            with span("phase", name="citeseer", scale=0.5) as sp:
                sp.set(rounds=3)
        (rec,) = tracer.spans()
        assert rec.attrs == {"name": "citeseer", "scale": 0.5, "rounds": 3}
        assert rec.duration >= 0.0

    def test_collector_is_bounded(self):
        tracer = Tracer(max_spans=3)
        with tracing(tracer):
            for i in range(5):
                with span(f"s{i}"):
                    pass
        assert len(tracer) == 3
        assert tracer.dropped == 2
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_scoped_tracer_wins_over_global(self):
        global_tracer, scoped = Tracer(), Tracer()
        install(global_tracer)
        try:
            with span("to-global"):
                pass
            with tracing(scoped):
                with span("to-scoped"):
                    pass
        finally:
            uninstall(global_tracer)
        assert [s.name for s in global_tracer.spans()] == ["to-global"]
        assert [s.name for s in scoped.spans()] == ["to-scoped"]
        assert span("off-again") is NULL_SPAN

    def test_global_tracer_crosses_threads(self):
        # the daemon's executor threads have fresh contexts; only the
        # installed global tracer can see their spans
        tracer = Tracer()
        install(tracer)
        try:
            worker = threading.Thread(target=lambda: span("in-thread")
                                      .__enter__().__exit__(None, None, None))
            worker.start()
            worker.join()
        finally:
            uninstall(tracer)
        (rec,) = tracer.spans()
        assert rec.name == "in-thread"
        assert rec.thread != threading.get_ident()

    def test_uninstall_only_removes_its_own(self):
        first, second = Tracer(), Tracer()
        install(first)
        install(second)
        uninstall(first)  # stale uninstall must not evict the newer one
        try:
            with span("kept"):
                pass
        finally:
            uninstall(second)
        assert len(second) == 1 and len(first) == 0


# -- chrome trace export -------------------------------------------------------

def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracing(tracer):
        with span("outer", app="sssp"):
            with span("inner", kernel="sssp_parent"):
                time.sleep(0.001)
    return tracer


class TestChromeExport:
    def test_export_validates_and_orders(self):
        tracer = _sample_tracer()
        obj = chrome_trace(tracer)
        assert validate_chrome_trace(obj) == 2
        complete = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["outer", "inner"]
        assert complete[0]["args"] == {"app": "sssp"}
        assert obj["otherData"]["spans"] == 2
        assert obj["otherData"]["dropped"] == 0
        meta = [e for e in obj["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "thread_name"

    def test_export_is_deterministic(self):
        tracer = _sample_tracer()
        assert chrome_trace(tracer) == chrome_trace(tracer)

    def test_write_round_trips(self, tmp_path):
        tracer = _sample_tracer()
        path = write_chrome_trace(tmp_path / "out" / "trace.json", tracer)
        with open(path, encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == 2

    def test_validator_rejects_bad_events(self):
        for bad in ([{"ph": "B", "name": "x", "pid": 1, "tid": 1}],
                    [{"ph": "X", "name": 3, "pid": 1, "tid": 1,
                      "ts": 0, "dur": 0}],
                    [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                      "ts": 0, "dur": -1}],
                    "not-a-list"):
            with pytest.raises(ValueError):
                validate_chrome_trace({"traceEvents": bad})

    def test_attribution_self_time(self):
        tracer = _sample_tracer()
        rows = {r["phase"]: r for r in attribution(tracer)}
        outer, inner = rows["outer"], rows["inner"]
        # the parent's self-time excludes its child's whole duration
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"])
        assert coverage(tracer, outer["total_s"]) == pytest.approx(1.0)

    def test_text_renderings(self):
        tracer = _sample_tracer()
        table = attribution_table(tracer)
        assert "outer" in table and "inner" in table
        assert "2 spans cover" in table and "0 dropped" in table
        tree = span_tree(tracer)
        assert tree.splitlines()[0].startswith("outer")
        assert tree.splitlines()[1].startswith("  inner")
        empty = Tracer()
        assert attribution_table(empty) == "(no spans recorded)"
        assert span_tree(empty) == "(no spans recorded)"


# -- metrics registry ----------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", help="requests")
        c.inc()
        c.inc(2)
        assert c.value == 3 and isinstance(c.value, int)
        g = reg.gauge("queue_depth")
        g.set(5)
        g.dec(2)
        assert g.value == 3
        h = reg.histogram("latency_seconds", edges=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=0.1, <=1.0, +Inf
        assert h.count == 3 and h.sum == pytest.approx(2.55)

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")
        with pytest.raises(TypeError):
            reg.gauge("hits")  # same name, different type
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c"] == {"kind": "counter", "value": 1}
        assert snap["h"] == {"kind": "histogram", "edges": [1.0],
                             "counts": [1, 0], "sum": 0.5, "count": 1}

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("service_requests", help="submit requests").inc(7)
        h = reg.histogram("request_seconds", edges=(0.5, 1.0))
        h.observe(0.25)
        h.observe(0.75)
        text = reg.render()
        assert "# HELP service_requests submit requests" in text
        assert "# TYPE service_requests counter" in text
        assert "service_requests 7" in text
        # buckets are cumulative and +Inf-terminated, per exposition spec
        assert 'request_seconds_bucket{le="0.5"} 1' in text
        assert 'request_seconds_bucket{le="1"} 2' in text
        assert 'request_seconds_bucket{le="+Inf"} 2' in text
        assert "request_seconds_sum 1" in text
        assert "request_seconds_count 2" in text


# -- never-perturb invariants --------------------------------------------------

class TestNonPerturbation:
    """Observing a run is ``tracing()``'s job, never the run's: a spec
    has no trace field, so resolution, keys, store entries and metrics
    cannot depend on whether a tracer is active."""

    def test_trace_is_not_identity(self):
        from repro.experiments import ExperimentRunner, RunSpec

        assert "trace" not in {f.name for f in dataclasses.fields(RunSpec)}
        runner = ExperimentRunner(scale=SCALE)
        spec = RunSpec("sssp", "consolidated", strategy="warp")
        plain = runner.resolve(spec)
        with tracing(Tracer()):
            traced = runner.resolve(spec)
        assert traced == plain
        assert hash(traced) == hash(plain)

    def test_trace_never_reaches_the_cache_key(self):
        from repro.experiments import ExperimentRunner, RunSpec

        def key(runner):
            return runner._content_key(
                runner.resolve(RunSpec("sssp", "grid-level")))

        plain = key(ExperimentRunner(scale=SCALE))
        tracer = Tracer()
        with tracing(tracer):
            assert key(ExperimentRunner(scale=SCALE)) == plain
        assert len(tracer) > 0  # the tracer was live, and still no fork

    def test_traced_store_entry_is_shared(self, tmp_path):
        from repro.experiments import ExperimentRunner, ResultStore, RunSpec

        store = ResultStore(tmp_path / "cache")
        spec = RunSpec("sssp", "basic-dp")
        ExperimentRunner(scale=SCALE, verify=False, store=store).run_spec(spec)
        traced = ExperimentRunner(scale=SCALE, verify=False, store=store)
        with tracing(Tracer()):
            traced.run_spec(spec)
        # a disk hit on the untraced run's entry, not a fork
        assert traced.stats.executed == 0 and traced.stats.disk_hits == 1

    def test_traced_run_metrics_bitwise_identical(self, tmp_path):
        from repro.apps import get_app
        from repro.experiments import RunSpec

        app = get_app("sssp")
        dataset = app.default_dataset(SCALE)
        spec = RunSpec("sssp", "consolidated")
        plain = app.run(spec, dataset=dataset)
        tracer = Tracer()
        with tracing(tracer):
            traced = app.run(spec, dataset=dataset)
        assert dataclasses.asdict(plain.metrics) == \
            dataclasses.asdict(traced.metrics)
        assert traced.checked == plain.checked
        obj = chrome_trace(tracer)
        assert validate_chrome_trace(obj) >= 3
        names = {e["name"] for e in obj["traceEvents"] if e["ph"] == "X"}
        # the deterministic sim-phase taxonomy
        assert {"app.verify", "sim.codegen", "sim.round-loop"} <= names

    def test_untraced_run_records_no_spans(self):
        from repro.apps import get_app
        from repro.experiments import RunSpec

        tracer = Tracer()
        app = get_app("sssp")
        dataset = app.default_dataset(SCALE)
        app.run(RunSpec("sssp", "basic-dp"), dataset=dataset, verify=False)
        assert len(tracer) == 0 and not enabled()

    def test_cli_trace_covers_wall_clock(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["trace", "sssp", "consolidated", "--scale", str(SCALE),
                     "--trace", str(out), "--tree"]) == 0
        text = capsys.readouterr().out
        assert "repro.trace" in text and "spans cover" in text
        # the acceptance bar: the root span brackets the measured wall,
        # so coverage is structural — assert it stays >= 95%
        pct = float(text.split(" spans cover ")[1].split("%")[0])
        assert pct >= 95.0
        with open(out, encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) > 0


# -- the ServiceMetrics fold ---------------------------------------------------

class TestServiceMetricsFold:
    def test_original_attribute_surface(self):
        from repro.service.metrics import ServiceMetrics

        m = ServiceMetrics()
        m.requests += 1
        m.requests += 1
        m.coalesced, m.cache_hits = 1, 1
        assert m.requests == 2
        assert m.dedup_rate == 0.5 and m.cache_hit_rate == 0.5
        assert m == ServiceMetrics(requests=2, coalesced=1, cache_hits=1)
        with pytest.raises(TypeError):
            ServiceMetrics(not_a_counter=1)

    def test_snapshot_is_dataclass_era_shape(self):
        from repro.service.metrics import ServiceMetrics

        snap = ServiceMetrics(requests=8, completed=7, failed=1,
                              coalesced=2, executed=3, cache_hits=2,
                              batches=2, max_batch=3,
                              connections=4).snapshot()
        assert snap == {
            "requests": 8, "completed": 7, "failed": 1, "coalesced": 2,
            "executed": 3, "cache_hits": 2, "batches": 2, "max_batch": 3,
            "connections": 4, "dedup_rate": 0.25, "cache_hit_rate": 0.25,
        }

    def test_counters_flow_into_the_registry(self):
        from repro.service.metrics import ServiceMetrics

        m = ServiceMetrics()
        m.requests += 3
        assert m.registry.get("service_requests").value == 3
        assert "service_requests 3" in m.registry.render()

    def test_describe_status_byte_identical(self):
        from repro.service.metrics import ServiceMetrics, describe_status

        payload = {
            "server": "repro-service", "version": "1.0.0", "protocol": 1,
            "endpoint": "unix:/tmp/svc.sock", "device": "Tesla K20c "
            "(simulated)", "scale": 0.1, "jobs": 1, "verify": True,
            "uptime_s": 3.04, "queue_depth": 0, "inflight": 0,
            "batch_window": 0.05,
            "metrics": ServiceMetrics(requests=1, completed=1, executed=1,
                                      batches=1, max_batch=1,
                                      connections=2).snapshot(),
            "store": {"root": "/tmp/svc", "entries": 1, "shards": 16},
        }
        assert describe_status(payload) == (
            "service   : repro-service v1.0.0 (protocol 1)\n"
            "endpoint  : unix:/tmp/svc.sock\n"
            "device    : Tesla K20c (simulated)  scale 0.1  jobs 1  "
            "verify True\n"
            "uptime    : 3.0s  connections 2\n"
            "queue     : depth 0  in-flight 0\n"
            "requests  : 1 (1 completed, 0 failed)\n"
            "executed  : 1\n"
            "cache hits: 0 (rate 0.0%)\n"
            "coalesced : 0 (dedup rate 0.0%)\n"
            "batches   : 1 (largest 1, window 0.05s)\n"
            "store     : /tmp/svc (1 entries, 16 shards)")


# -- span-overflow surfacing (repro.perf PR) ----------------------------------

class TestDroppedSpanSurfacing:
    """An overflowed tracer must announce itself at export time: once as
    a RuntimeWarning, and cumulatively as the
    ``repro_trace_dropped_spans`` counter in the default registry."""

    def _overflowed_tracer(self):
        tracer = Tracer(max_spans=2)
        with tracing(tracer):
            for i in range(5):
                with span(f"s{i}"):
                    pass
        assert tracer.dropped == 3
        return tracer

    def test_export_warns_once_and_counts(self):
        from repro.telemetry import default_registry

        registry = default_registry()
        counter = registry.counter("repro_trace_dropped_spans")
        before = counter.value
        tracer = self._overflowed_tracer()
        with pytest.warns(RuntimeWarning, match="dropped 3 span"):
            obj = chrome_trace(tracer)
        assert obj["otherData"]["dropped"] == 3
        assert counter.value == before + 3
        # a second export of the same tracer neither re-warns nor
        # double-counts
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            chrome_trace(tracer)
        assert counter.value == before + 3

    def test_clean_export_stays_silent(self):
        import warnings as _warnings

        tracer = Tracer()
        with tracing(tracer), span("only"):
            pass
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            obj = chrome_trace(tracer)
        assert obj["otherData"]["dropped"] == 0

    def test_counter_events_validate(self):
        # the profiler's occupancy track uses ph "C"; the validator must
        # accept it and still reject malformed counters
        obj = {"traceEvents": [
            {"name": "occupancy", "ph": "C", "ts": 1.0, "pid": 0,
             "tid": 0, "args": {"resident_warps": 8}},
        ]}
        assert validate_chrome_trace(obj) == 0
        bad = {"traceEvents": [
            {"name": "occupancy", "ph": "C", "ts": 1.0, "pid": 0,
             "tid": 0, "args": {"resident_warps": "eight"}},
        ]}
        with pytest.raises(ValueError, match="numeric"):
            validate_chrome_trace(bad)
