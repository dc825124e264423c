"""Telemetry overhead bench: tracing off must be free, on must be honest.

Three modes of the same end-to-end cell (sssp consolidated, the most
span-dense variant), interleaved best-of-``--reps``:

* **control** — the instrumented modules' ``span`` bindings patched to
  a bare function returning ``NULL_SPAN``: the cost of the code with
  telemetry compiled out. The baseline the off-path is held against.
* **off** — the shipping default: the real :func:`repro.telemetry.span`
  with no active tracer (one global read + one ContextVar read per
  call site, no allocation). **Asserted** to be within
  ``--max-overhead`` (default 2%) of control.
* **on** — inside ``tracing(Tracer())``, spans recorded and exported.
  The overhead is *reported* (it is the price of asking for a trace,
  not a regression gate).

RunMetrics are equality-asserted across all three modes in both
directions (off vs on and on vs off against the control run of the same
rep): telemetry must never perturb what the simulator computes, only
observe it.

Emits ``BENCH_telemetry.json`` through :mod:`_emit`::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --scale 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from _emit import emit_json

from repro.apps import CONS, get_app
from repro.experiments import RunSpec
from repro.telemetry import NULL_SPAN, Tracer, chrome_trace, tracing

#: modules holding a ``span`` binding on the traced app path; the
#: control mode rebinds each to a no-op (runner is off-path for
#: ``app.run`` but patched anyway so the list is the full roster)
INSTRUMENTED = ("repro.apps.common", "repro.sim.device",
                "repro.sim.engine", "repro.experiments.runner")


def _noop_span(name, /, **attrs):
    return NULL_SPAN


class patched_out:
    """Rebind ``span`` to a no-op in every instrumented module."""

    def __enter__(self):
        import importlib

        self._saved = []
        for modname in INSTRUMENTED:
            mod = importlib.import_module(modname)
            self._saved.append((mod, mod.span))
            mod.span = _noop_span
        return self

    def __exit__(self, *exc):
        for mod, original in self._saved:
            mod.span = original
        return False


def time_modes(scale: float, reps: int) -> tuple[dict, dict]:
    app = get_app("sssp")
    dataset = app.default_dataset(scale)

    def cell():
        t0 = time.perf_counter()
        run = app.run(RunSpec(app.key, CONS), dataset=dataset, verify=False)
        return time.perf_counter() - t0, dataclasses.asdict(run.metrics)

    control_s, off_s, on_s = [], [], []
    spans = 0
    for _ in range(reps):  # alternated, best-of: tames scheduler noise
        with patched_out():
            t, m_control = cell()
        control_s.append(t)
        t, m_off = cell()
        off_s.append(t)
        tracer = Tracer()
        with tracing(tracer):
            t, m_on = cell()
        on_s.append(t)
        spans = len(tracer)
        # never-perturb, both ways: tracing off and tracing on each
        # reproduce the control metrics bit for bit
        if m_off != m_control or m_control != m_off:
            raise AssertionError("tracing-off run perturbed RunMetrics")
        if m_on != m_control or m_control != m_on:
            raise AssertionError("tracing-on run perturbed RunMetrics")
        if m_on != m_off or m_off != m_on:
            raise AssertionError("traced and untraced RunMetrics diverge")
    # the exporter is part of the tracing-on price; time it once
    t0 = time.perf_counter()
    events = len(chrome_trace(tracer)["traceEvents"])
    export_s = time.perf_counter() - t0

    best = {"control_s": min(control_s), "off_s": min(off_s),
            "on_s": min(on_s)}
    detail = {"spans": spans, "events": events,
              "export_s": round(export_s, 5), "reps": reps}
    return best, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=0.1,
                    help="dataset scale for the cell (default 0.1)")
    ap.add_argument("--reps", type=int, default=5,
                    help="interleaved repetitions, best-of (default 5)")
    ap.add_argument("--max-overhead", type=float, default=0.02,
                    help="tracing-off overhead gate vs control "
                         "(fraction, default 0.02)")
    args = ap.parse_args(argv)

    best, detail = time_modes(args.scale, args.reps)
    off_overhead = max(0.0, best["off_s"] / best["control_s"] - 1.0)
    on_overhead = max(0.0, best["on_s"] / best["control_s"] - 1.0)

    print(f"{'mode':<10} {'best':>9}   overhead vs control")
    print(f"{'control':<10} {best['control_s']:>8.4f}s   -")
    print(f"{'off':<10} {best['off_s']:>8.4f}s   {100 * off_overhead:.2f}%"
          f"   (gate: <{100 * args.max_overhead:.0f}%)")
    print(f"{'on':<10} {best['on_s']:>8.4f}s   {100 * on_overhead:.2f}%"
          f"   ({detail['spans']} spans, export {detail['export_s']}s)")

    if off_overhead >= args.max_overhead:
        raise AssertionError(
            f"tracing-off overhead {100 * off_overhead:.2f}% breaches the "
            f"{100 * args.max_overhead:.0f}% gate: the disabled span path "
            "is supposed to be one global + one ContextVar read")

    path = emit_json("telemetry", {
        "scale": args.scale,
        "cell": "sssp:consolidated",
        "control_s": round(best["control_s"], 4),
        "off_s": round(best["off_s"], 4),
        "on_s": round(best["on_s"], 4),
        "off_overhead": round(off_overhead, 4),
        "on_overhead": round(on_overhead, 4),
        "metrics_equal": True,
        **detail,
    })
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
