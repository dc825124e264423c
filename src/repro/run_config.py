"""Deprecated spellings of a run, kept as shims.

:class:`~repro.experiments.plan.RunSpec` is the only type that describes
a run and :meth:`RunSpec.canonical` its only canonicalizer. The old
spellings below survive under :data:`repro.errors.DeprecationPolicy`:
each warns, lowers onto a ``RunSpec`` and so keeps its results and its
cache entry exactly.

* :class:`RunConfig`, an app-less bundle of the axes, and its
  ``trace``/``profile`` hooks (observe runs with
  ``repro.telemetry.tracing()`` and ``repro.perf.profiling()``);
* ``RunSpec.from_config``, ``ExperimentRunner.run_config`` and
  ``ServiceClient.submit_config``;
* the per-axis keywords of ``App.run`` (``app.run("warp-level",
  threshold=16)``).

At load time this module imports only :mod:`repro.errors`, so every
old entry point can import it and dispatch here in one line.
"""

from __future__ import annotations

import os
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import DeprecationPolicy


def _deprecated(old: str, new: str, stacklevel: int = 3) -> None:
    warnings.warn(f"{old} is deprecated; use {new} ({DeprecationPolicy})",
                  DeprecationWarning, stacklevel=stacklevel)


@dataclass(frozen=True)
class RunConfig:
    """Deprecated: every axis of one run, without the app.

    Canonicalized at construction by :meth:`RunSpec.canonical` (all axes
    but ``workload``, whose default fold needs the app). ``trace`` and
    ``profile`` are observation hooks, not axes: ``compare=False`` keeps
    them out of equality, hashing and :meth:`axes`.
    """

    variant: str = "basic-dp"
    strategy: Optional[str] = None
    threshold: Optional[int] = None
    workload: Optional[str] = None
    backend: Optional[str] = None
    oracle: Optional[str] = None
    allocator: str = "custom"
    config: Optional[tuple] = None
    #: write a Chrome trace of the run here (``repro.telemetry``)
    trace: Optional[str] = field(default=None, compare=False)
    #: write the run's per-kernel profile here as JSON (``repro.perf``)
    profile: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _deprecated("RunConfig", "repro.experiments.RunSpec", stacklevel=4)
        folded = _lift("", self, workload=None).canonical()
        for name in ("variant", "strategy", "threshold", "backend",
                     "oracle", "config"):
            object.__setattr__(self, name, getattr(folded, name))
        for name in ("trace", "profile"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, os.fspath(getattr(self, name)))

    def describe(self) -> str:
        """Compact one-line spelling (CLI/report output)."""
        parts = [self.variant]
        for name in ("strategy", "threshold", "workload", "backend",
                     "oracle"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.allocator != "custom":
            parts.append(f"allocator={self.allocator}")
        if self.config is not None:
            parts.append(f"config={self.config}")
        return " ".join(parts)

    def axes(self) -> dict:
        """The identity axes as a plain dict (``trace``/``profile``
        excluded)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.compare}


def _lift(app: str, config: RunConfig, dataset: Optional[str] = None,
          cost=None, **overrides):
    """The RunSpec a RunConfig describes for one app."""
    from .experiments.plan import RunSpec

    axes = {name: getattr(config, name) for name in (
        "variant", "allocator", "config", "threshold", "strategy",
        "workload", "backend", "oracle")}
    return RunSpec(app=app, dataset=dataset, cost=cost,
                   **{**axes, **overrides})


def spec_from_config(cls, app: str, config: RunConfig,
                     dataset: Optional[str] = None, cost=None):
    """Deprecated ``RunSpec.from_config``: lift a RunConfig for one app."""
    _deprecated("RunSpec.from_config", "RunSpec(app, variant, ...)")
    return _lift(app, config, dataset, cost)


def runner_run_config(runner, app_key: str, config: RunConfig,
                      dataset_name: Optional[str] = None, cost=None):
    """Deprecated ``ExperimentRunner.run_config``."""
    _deprecated("ExperimentRunner.run_config", "ExperimentRunner.run_spec")
    return runner.run_spec(_lift(app_key, config, dataset_name, cost))


def submit_config(client, app: str, config: RunConfig,
                  scale: Optional[float] = None):
    """Deprecated ``ServiceClient.submit_config``."""
    _deprecated("ServiceClient.submit_config", "ServiceClient.submit_spec")
    return client.submit_spec(_lift(app, config), scale=scale)


def app_run(app, run, dataset=None, *, scale, spec, heap_bytes, verify,
            **axes):
    """Deprecated ``App.run`` spellings: a variant name with per-axis
    keywords, or a RunConfig (whose hooks trace/profile the run)."""
    from .experiments.plan import RunSpec

    if isinstance(run, RunSpec):
        raise ValueError("a RunSpec already carries every axis; drop the "
                         f"keyword(s) {', '.join(axes)}")
    if isinstance(run, str):
        _deprecated("App.run(variant, **axes)", "App.run(RunSpec(...))", 4)
        return app.run(RunSpec(app.key, run, **axes), dataset, scale=scale,
                       spec=spec, heap_bytes=heap_bytes, verify=verify)
    _deprecated("App.run(RunConfig)", "App.run(RunSpec(...))", 4)
    cost = axes.pop("cost", None)
    clashing = [name for name, value in axes.items()
                if value not in (None, "custom")]
    if clashing:
        raise ValueError(
            "a RunConfig already carries every axis; drop the per-axis "
            f"keyword(s) {', '.join(clashing)}")
    tracer = collector = None
    with ExitStack() as stack:
        if run.trace is not None:
            from .telemetry import Tracer, span, tracing

            tracer = stack.enter_context(tracing(Tracer()))
            stack.enter_context(span("app.run", app=app.key,
                                     variant=run.variant))
        if run.profile is not None:
            from .perf import profiling

            collector = stack.enter_context(profiling())
        result = app.run(_lift(app.key, run, cost=cost), dataset,
                         scale=scale, spec=spec, heap_bytes=heap_bytes,
                         verify=verify)
    if tracer is not None:
        from .telemetry import write_chrome_trace

        write_chrome_trace(run.trace, tracer)
    if collector is not None:
        from .perf.report import build_profile, write_profile

        write_profile(run.profile, build_profile(
            collector, label=f"{app.key} {result.variant}"))
    return result
