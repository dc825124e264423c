"""Tests for :mod:`repro.perf` — the deep profiler and the perf ledger.

Four families:

* **attribution** — the profiler's books must balance: the re-scheduled
  makespan equals ``RunMetrics.cycles`` bitwise, attributed per-kernel
  DRAM plus scheduler-charged overhead traffic equals the metrics
  total, and the scalar and vectorized engines agree on every
  attribution column. The rendered table for sssp/consolidated is
  pinned as a golden file (``--update-goldens`` rewrites it). The
  batching counter counts only operand-uniform reads: a round that
  writes is never batched.
* **never-perturb** — a spec resolved or keyed under ``profiling()``
  is the unprofiled one, and a profiled run's ``RunMetrics`` are
  bitwise-identical to plain and traced runs.
* **ledger** — idempotent content-keyed ingestion, direction
  heuristics, the noise floor, and the regression gate (pass fresh,
  fail on an injected regression, unknown cells never gate).
* **CLI** — ``repro profile`` determinism and ``repro perf``
  ingest/history/check round trips, including the nonzero exit.
"""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.apps import get_app
from repro.backends import SimBackend
from repro.perf import profiling
from repro.perf.ledger import (DEFAULT_NOISE_FLOOR, LEDGER_FORMAT, PerfLedger,
                               cell_direction, envelope_sha, flatten_payload)
from repro.perf.report import (PROFILE_FORMAT, build_profile,
                               profile_chrome_trace, profile_to_json,
                               render_occupancy, render_profile)
from repro.experiments import ExperimentRunner, ResultStore, RunSpec
from repro.sim.device import ENGINES, Device
from repro.telemetry import Tracer, tracing, validate_chrome_trace

SCALE = 0.05
GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_profile"


def _profiled_run(variant="consolidated", backend=None):
    app = get_app("sssp")
    dataset = app.default_dataset(SCALE)
    with profiling() as collector:
        run = app.run(RunSpec("sssp", variant), dataset=dataset,
                      backend=backend)
    return run, build_profile(collector, label=f"sssp {variant}")


def _float_bits(value):
    """Floats as their IEEE-754 bit pattern so == means bit-identical."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_float_bits(v) for v in value]
    return value


# -- attribution reconciliation ------------------------------------------------

class TestAttribution:
    def test_makespan_reconciles_with_metrics(self):
        run, prof = _profiled_run("consolidated")
        # the memsys-free re-schedule replays the same canonical order,
        # so its makespan must equal the run's priced cycles exactly
        assert prof.rescheduled_cycles == run.metrics.cycles
        assert prof.total_cycles == run.metrics.cycles
        assert prof.busy_cycles > 0
        assert prof.max_resident_warps > 0
        assert 0.0 < prof.achieved_occupancy <= 1.0

    def test_dram_attribution_balances(self):
        run, prof = _profiled_run("basic-dp")
        assert prof.dram_transactions == run.metrics.dram_transactions
        assert prof.attributed_dram + prof.scheduler_dram == \
            run.metrics.dram_transactions
        assert prof.attributed_dram > 0

    def test_kernel_rows_are_ranked_and_consistent(self):
        _, prof = _profiled_run("consolidated")
        assert prof.kernels
        busy = [row.busy_cycles for row in prof.kernels]
        assert busy == sorted(busy, reverse=True)
        for row in prof.kernels:
            assert row.instances >= 1
            assert row.rounds == row.rounds_uniform + row.rounds_divergent
            assert 0.0 <= row.warp_efficiency <= 1.0
        assert prof.hotspots(1)[0] is prof.kernels[0]

    def test_rendered_table_matches_golden(self, update_goldens):
        _, prof = _profiled_run("consolidated")
        text = render_profile(prof) + "\n"
        golden = GOLDEN_DIR / "sssp_consolidated.txt"
        if update_goldens:
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(text, encoding="utf-8")
            pytest.skip(f"rewrote {golden}")
        assert golden.exists(), \
            f"golden missing; run pytest --update-goldens ({golden})"
        assert text == golden.read_text(encoding="utf-8")

    def test_two_runs_render_byte_identical(self):
        _, first = _profiled_run("consolidated")
        _, second = _profiled_run("consolidated")
        assert render_profile(first) == render_profile(second)
        assert render_occupancy(first) == render_occupancy(second)
        assert profile_to_json(first) == profile_to_json(second)

    def test_scalar_and_vectorized_attribution_agree(self):
        # the two engines share the canonical schedule; every per-kernel
        # attribution column except the batching counter must match
        def columns(profile):
            return [(row.name, row.from_device, row.instances,
                     row.rounds_uniform, row.rounds_divergent,
                     row.dram_transactions, row.l2_hits, row.l2_misses,
                     row.pushes_by_scope, row.push_cycles,
                     row.pops, row.pop_cycles)
                    for row in profile.kernels]

        for variant in ("basic-dp", "warp-level"):
            _, vec = _profiled_run(variant)
            _, scalar = _profiled_run(variant,
                                      SimBackend(engine="scalar"))
            assert columns(vec) == columns(scalar), variant
            assert vec.rescheduled_cycles == scalar.rescheduled_cycles
            assert vec.occupancy == scalar.occupancy
            assert vec.spans == scalar.spans


class TestBatchedRounds:
    """The vectorized engine batches only operand-uniform reads, so a
    batched round never writes; the scalar engine batches nothing."""

    #: kernels whose every round is a 32-lane uniform round that writes:
    #: stores to one array, distinct-address atomics, pushes into one
    #: buffer (after the acquire, which every lane calls alike)
    _WRITES = {
        "store": "out[threadIdx.x] = 7;",
        "atomic": "atomicAdd(&out[threadIdx.x], 1);",
        "push": "int h = __dp_buf_acquire(1, 64, 1);"
                " __dp_buf_push1(h, threadIdx.x);",
    }
    #: kernels with a 32-lane round reading one operand
    _READS = {
        "load": "out[threadIdx.x] = out[40];",
        "buf_get": "int h = __dp_buf_acquire(1, 64, 1);"
                   " if (threadIdx.x == 0) { __dp_buf_push1(h, 5); }"
                   " __syncthreads();"
                   " out[threadIdx.x] = __dp_buf_get(h, 0, 0);",
    }

    @staticmethod
    def _profile(engine, body):
        with profiling() as collector:
            dev = Device(engine=engine)
            prog = dev.load(f"__global__ void k(int* out) {{ {body} }}")
            out = dev.from_numpy("out", np.zeros(64, np.int32))
            prog.launch("k", 1, 32, out)
            dev.synchronize()
        (prof,) = collector.instances.values()
        return prof

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("kind", sorted(_WRITES))
    def test_a_batched_round_never_writes(self, engine, kind):
        prof = self._profile(engine, self._WRITES[kind])
        assert prof.rounds_divergent == 0
        assert prof.active_lane_events == 32 * prof.rounds_uniform
        assert prof.rounds_batched == 0

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("kind", sorted(_READS))
    def test_an_operand_uniform_read_is_batched(self, engine, kind):
        prof = self._profile(engine, self._READS[kind])
        if engine == "scalar":
            assert prof.rounds_batched == 0
        else:
            assert prof.rounds_batched > 0


# -- never-perturb invariants --------------------------------------------------

class TestNonPerturbation:
    def test_profile_is_not_identity(self):
        assert "profile" not in {f.name for f in dataclasses.fields(RunSpec)}
        runner = ExperimentRunner(scale=SCALE)
        spec = RunSpec("sssp", "consolidated", strategy="warp")
        plain = runner.resolve(spec)
        with profiling():
            profiled = runner.resolve(spec)
        assert profiled == plain
        assert hash(profiled) == hash(plain)

    def test_profile_never_reaches_the_cache_key(self):
        def key(runner):
            return runner._content_key(
                runner.resolve(RunSpec("sssp", "grid-level")))

        plain = key(ExperimentRunner(scale=SCALE))
        with profiling():
            assert key(ExperimentRunner(scale=SCALE)) == plain

    def test_profiled_store_entry_is_shared(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = RunSpec("sssp", "basic-dp")
        ExperimentRunner(scale=SCALE, verify=False, store=store).run_spec(spec)
        profiled = ExperimentRunner(scale=SCALE, verify=False, store=store)
        with profiling():
            profiled.run_spec(spec)
        # a disk hit on the unprofiled run's entry, not a fork
        assert profiled.stats.executed == 0
        assert profiled.stats.disk_hits == 1

    def test_three_way_metrics_bitwise_identical(self, tmp_path):
        app = get_app("sssp")
        dataset = app.default_dataset(SCALE)
        spec = RunSpec("sssp", "consolidated")
        plain = app.run(spec, dataset=dataset)
        with tracing(Tracer()):
            traced = app.run(spec, dataset=dataset)
        with profiling() as collector:
            profiled = app.run(spec, dataset=dataset)
        reference = _float_bits(dataclasses.asdict(plain.metrics))
        assert _float_bits(dataclasses.asdict(traced.metrics)) == reference
        assert _float_bits(dataclasses.asdict(profiled.metrics)) == reference
        obj = profile_to_json(build_profile(collector, label="sssp"))
        assert obj["format"] == PROFILE_FORMAT
        assert obj["total_cycles"] == plain.metrics.cycles


# -- Chrome trace export -------------------------------------------------------

class TestProfileTrace:
    def test_profile_trace_validates(self):
        _, prof = _profiled_run("consolidated")
        obj = profile_chrome_trace(prof)
        assert validate_chrome_trace(obj) > 0
        by_ph = {}
        for event in obj["traceEvents"]:
            by_ph.setdefault(event["ph"], []).append(event)
        assert len(by_ph["X"]) == len(prof.spans)
        assert len(by_ph["C"]) == len(prof.occupancy)
        for event in by_ph["C"]:
            assert all(isinstance(v, (int, float))
                       for v in event["args"].values())
        assert obj["otherData"]["profile"] == PROFILE_FORMAT
        assert obj["otherData"]["unit"] == "cycles"


# -- the perf ledger -----------------------------------------------------------

def _envelope(payload, bench="fig_demo", version="0"):
    return {"format": 1, "bench": bench, "version": version,
            "payload": payload}


class TestLedger:
    def test_ingest_is_idempotent_by_content(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        env = _envelope({"speedup": 2.0, "wall_s": 1.25,
                         "cells": {"sssp": {"grid-level": 2.07}}})
        assert ledger.ingest_envelope(env, sha="aaa", ts=1.0) == 3
        assert len(ledger) == 3
        assert ledger.ingest_envelope(env, sha="bbb", ts=2.0) == 0
        assert len(ledger) == 3
        cells = {rec["cell"] for rec in ledger.records()}
        assert cells == {"speedup", "wall_s", "cells.sssp.grid-level"}

    def test_envelope_sha_ignores_key_order(self):
        a = {"bench": "x", "payload": {"p": 1, "q": 2}, "format": 1}
        b = {"format": 1, "payload": {"q": 2, "p": 1}, "bench": "x"}
        assert envelope_sha(a) == envelope_sha(b)
        assert envelope_sha(a) != envelope_sha(
            {"bench": "x", "payload": {"p": 1, "q": 3}, "format": 1})

    def test_flatten_skips_labels_and_indexes_lists(self):
        flat = flatten_payload({"scale": 1.0, "name": "sssp", "ok": True,
                                "series": [3, 5], "sub": {"x": 2}})
        assert flat == {"scale": 1.0, "series.0": 3.0, "series.1": 5.0,
                        "sub.x": 2.0}

    def test_direction_heuristics(self):
        assert cell_direction("speedups.sssp.grid-level") == "higher"
        assert cell_direction("cache_hit_rate") == "higher"
        assert cell_direction("wall_s") == "lower"
        assert cell_direction("kron_like_loops_s") == "lower"
        assert cell_direction("dram_transactions") == "lower"
        assert cell_direction("widgets") is None

    def test_diff_honors_the_noise_floor(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        ledger.ingest_envelope(_envelope({"speedup": 2.0}), sha="a", ts=1.0)
        ledger.ingest_envelope(_envelope({"speedup": 2.02}), sha="b", ts=2.0)
        assert ledger.diff() == []  # +1% sits under the 2% floor
        ledger.ingest_envelope(_envelope({"speedup": 2.5}), sha="c", ts=3.0)
        (delta,) = ledger.diff()
        assert delta.cell == "speedup" and delta.baseline == 2.02
        assert delta.direction == "higher" and delta.worsening < 0

    def test_check_passes_fresh_and_fails_on_regression(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        base = {"speedup": 2.0, "wall_s": 1.0, "widgets": 5.0}
        ledger.ingest_envelope(_envelope(base), sha="a", ts=1.0)
        regressions, other = ledger.check()
        assert regressions == [] and other == []  # single ingest: no baseline
        bad = {"speedup": 1.5, "wall_s": 1.3, "widgets": 50.0}
        ledger.ingest_envelope(_envelope(bad), sha="b", ts=2.0)
        regressions, other = ledger.check()
        assert {d.cell for d in regressions} == {"speedup", "wall_s"}
        # the unknown-direction cell moved 10x but can never gate
        assert {d.cell for d in other} == {"widgets"}
        # improvements land in `other`, not in the gate
        ledger.ingest_envelope(_envelope({"speedup": 3.0, "wall_s": 0.5,
                                          "widgets": 5.0}), sha="c", ts=3.0)
        regressions, other = ledger.check()
        assert regressions == []
        assert {d.cell for d in other} == {"speedup", "wall_s", "widgets"}

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = PerfLedger(path)
        ledger.ingest_envelope(_envelope({"speedup": 2.0}), sha="a", ts=1.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"format": 99, "alien": true}\n')
            fh.write('{"bench": "torn", "val')  # no trailing newline either
        assert len(ledger) == 1
        # appends still work after the torn tail (new line starts clean)
        env = _envelope({"speedup": 2.5})
        n = ledger.ingest_envelope(env, sha="b", ts=2.0)
        assert n == 1 and len(ledger) == 2

    def test_ingest_rejects_non_envelopes(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(ValueError, match="bench"):
            ledger.ingest_envelope({"payload": {}})
        # numeric-free payloads append nothing
        assert ledger.ingest_envelope(_envelope({"note": "hi"})) == 0
        assert len(ledger) == 0


# -- the CLI surface -----------------------------------------------------------

class TestCli:
    def test_profile_command_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "profile.json"
        trace_path = tmp_path / "trace.json"
        assert main(["profile", "sssp", "consolidated",
                     "--scale", str(SCALE), "--occupancy",
                     "--json", str(json_path),
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "hotspots" in out
        assert "occupancy" in out
        with open(json_path, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["format"] == PROFILE_FORMAT and obj["kernels"]
        with open(trace_path, encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) > 0

    def test_profile_command_is_deterministic(self, capsys):
        from repro.cli import main

        argv = ["profile", "sssp", "consolidated", "--scale", str(SCALE)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_profile_command_rejects_unknown_app(self, capsys):
        from repro.cli import main

        assert main(["profile", "nope", "consolidated"]) == 2
        assert "error" in capsys.readouterr().err

    def test_perf_cli_gate(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_GIT_SHA", "cafe123")
        out_dir = tmp_path / "bench-out"
        out_dir.mkdir()
        ledger_path = tmp_path / "ledger.jsonl"

        def write(payload, stamp):
            envelope = _envelope(payload, bench="demo", version=stamp)
            (out_dir / "BENCH_demo.json").write_text(
                json.dumps(envelope), encoding="utf-8")

        write({"speedup": 2.0}, "one")
        assert main(["perf", "ingest", str(out_dir),
                     "--ledger", str(ledger_path)]) == 0
        assert "1 records appended" in capsys.readouterr().out
        assert main(["perf", "history", "--ledger", str(ledger_path)]) == 0
        assert "cafe123" in capsys.readouterr().out
        assert main(["perf", "check", "--ledger", str(ledger_path)]) == 0
        assert "OK" in capsys.readouterr().out
        # inject a >10% regression and the gate must trip with exit 1
        write({"speedup": 1.5}, "two")
        assert main(["perf", "ingest", str(out_dir),
                     "--ledger", str(ledger_path)]) == 0
        capsys.readouterr()
        assert main(["perf", "check", "--ledger", str(ledger_path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and "speedup" in captured.err
        # diff reports the same move without gating
        assert main(["perf", "diff", "--ledger", str(ledger_path)]) == 0
        assert "-25.0%" in capsys.readouterr().out

    def test_perf_ingest_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["perf", "ingest", str(bad),
                     "--ledger", str(tmp_path / "l.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
