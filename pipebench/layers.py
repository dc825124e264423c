"""Per-layer accounting for the traced run.

:class:`Layers` rebinds the public functions through which a run crosses
from one layer into the next (the way ``benchmarks/bench_telemetry.py``
rebinds ``span``) with wrappers that count calls, add up seconds and open
a span named after the wrapped function, so the Chrome trace and the
attribution table show the benchmark's boundaries beside the spans the
program already records (``sim.round-loop``, ``sim.dp-drain``,
``sim.timing``, ``app.verify``, ``runner.*``). The wrappers are installed
only around traced passes: untraced passes run the program untouched.

A wrapped name that a later version of the program no longer has is
skipped and listed in :attr:`Layers.missing`; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from repro.telemetry import attribution, span

#: (module, class or None, attribute, layer) for every rebound function.
#: A function imported by name into several modules is rebound in each
#: module whose callers are on the measured paths.
BOUNDARIES = (
    ("repro.workloads", None, "materialize_for_app", "workloads.materialize"),
    ("repro.sim.device", None, "parse", "frontend.parse"),
    ("repro.compiler.pipeline", None, "parse", "frontend.parse"),
    ("repro.sim.device", None, "check_module", "frontend.typecheck"),
    ("repro.compiler.consolidator", None, "check_module",
     "frontend.typecheck"),
    ("repro.sim.device", None, "compile_module", "backend.codegen"),
    ("repro.apps.common", None, "consolidate_source", "compiler.consolidate"),
    ("repro.apps.common", "App", "run", "apps.run"),
    ("repro.sim.device", "Device", "load", "sim.load"),
    ("repro.sim.device", "Device", "launch", "sim.launch"),
    ("repro.sim.device", "Device", "synchronize", "sim.synchronize"),
    ("repro.experiments.store", "ResultStore", "get", "store.get"),
    ("repro.experiments.store", "ResultStore", "put", "store.put"),
    ("repro.experiments", None, "figure_plan", "runner.plan"),
    ("repro.experiments.runner", "ExperimentRunner", "prefetch",
     "runner.prefetch"),
    ("repro.experiments.runner", "ExperimentRunner", "_resolve",
     "runner.resolve"),
)

#: timed layers reported as ``<layer>_s`` (and ``<layer>_calls`` where
#: the call count is a per-layer metric of its own)
TIMED = ("workloads.materialize", "frontend.parse", "frontend.typecheck",
         "backend.codegen", "compiler.consolidate", "sim.launch",
         "sim.synchronize", "apps.verify", "store.get", "store.put",
         "runner.plan", "runner.resolve", "report.render")
COUNTED = ("workloads.materialize", "frontend.parse", "frontend.typecheck",
           "backend.codegen", "compiler.consolidate", "apps.verify")

#: spans the program records itself, reported as total seconds
PROGRAM_SPANS = {"sim.round-loop": "sim.round_loop_s",
                 "sim.dp-drain": "sim.dp_drain_s"}


class Layers:
    """Call counts, seconds and exact counters per layer."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.efficiencies: list = []
        self.max_pending = 0
        self.verify_datasets = 0
        self.passes = 0
        self.missing: list = []
        self._saved: list = []
        self._verified: set = set()

    # -- installation ----------------------------------------------------------

    def install(self, apps=(), figures=None) -> "Layers":
        """Rebind every boundary, each app's ``check`` and each figure's
        ``main``; :meth:`uninstall` restores the originals."""
        self.missing = []
        after = {"apps.run": self._after_run,
                 "store.get": self._after_get,
                 "store.put": self._after_put,
                 "runner.prefetch": self._after_prefetch}
        for modname, clsname, attr, layer in BOUNDARIES:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{modname}.{clsname or ''}.{attr}")
                continue
            label = f"{clsname}.{attr}" if clsname else attr
            self._rebind(owner, attr, layer, label, after.get(layer))
        for app in apps:
            self._rebind(app, "check", "apps.verify", f"{app.key}.check",
                         self._verify_hook(app.key))
        for name, module in (figures or {}).items():
            self._rebind(module, "main", "report.render", f"{name}.main")
        return self

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:  # was inherited from the class: drop the shadow
                delattr(owner, attr)
        self._saved.clear()

    def __enter__(self) -> "Layers":
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def _rebind(self, owner, attr, layer, label, after=None) -> None:
        original = getattr(owner, attr)
        calls, seconds = self.calls, self.seconds

        def timed(*args, **kwargs):
            with span(label):
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    seconds[layer] += time.perf_counter() - t0
                    calls[layer] += 1
            if after is not None:
                after(result, args)
            return result

        self._saved.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, timed)

    # -- hooks -------------------------------------------------------------------

    def _after_run(self, run, args) -> None:
        metrics = run.metrics
        self.counts["sim.kernel_instances"] += metrics.kernel_instances
        self.counts["sim.device_launches"] += metrics.device_launches
        self.counts["sim.virtual_pool_kernels"] += metrics.virtual_pool_kernels
        self.efficiencies.append(metrics.warp_execution_efficiency)
        self.max_pending = max(self.max_pending, metrics.max_pending_kernels)

    def _after_get(self, run, args) -> None:
        self.counts["store.hits"] += run is not None

    def _after_put(self, result, args) -> None:
        store, key = args[0], args[1]
        self.counts["store.bytes_written"] += store.path_for(key).stat().st_size

    def _after_prefetch(self, stats, args) -> None:
        self.counts["runner.executed"] += stats.executed
        self.counts["runner.disk_hits"] += stats.disk_hits

    def _verify_hook(self, app_key):
        def after(good, args):
            # a dataset is one object for the life of a pass; the ids are
            # forgotten at end_pass, before any could be reused
            self._verified.add((app_key, id(args[1])))
        return after

    # -- passes and metrics --------------------------------------------------

    def end_pass(self) -> None:
        self.passes += 1
        self.verify_datasets += len(self._verified)
        self._verified.clear()

    def metrics(self, tracer=None) -> dict:
        """Per-layer metrics, per pass (per set-up for materialization
        when these layers only saw set-up)."""
        n = max(1, self.passes)
        out = {}
        for layer in TIMED:
            out[f"{layer}_s"] = self.seconds[layer] / n
        for layer in COUNTED:
            out[f"{layer}_calls"] = self.calls[layer] / n
        for name in ("sim.kernel_instances", "sim.device_launches",
                     "sim.virtual_pool_kernels", "store.bytes_written",
                     "runner.executed", "runner.disk_hits"):
            out[name] = self.counts[name] / n
        out["sim.warp_efficiency"] = (
            sum(self.efficiencies) / len(self.efficiencies)
            if self.efficiencies else 0.0)
        out["sim.max_pending_kernels"] = self.max_pending
        out["apps.verify_datasets"] = self.verify_datasets / n
        gets = self.calls["store.get"]
        out["store.hit_ratio"] = self.counts["store.hits"] / gets if gets else 0.0
        totals = ({row["phase"]: row["total_s"] for row in attribution(tracer)}
                  if tracer is not None else {})
        for phase, name in PROGRAM_SPANS.items():
            out[name] = totals.get(phase, 0.0) / n
        return out
