"""Work plans: declarative run matrices for the experiment harnesses.

Each figure module declares the set of application executions it needs as
a list of :class:`RunSpec` values (its ``plan()`` function). Plans are
plain data, so ``repro all`` can take the *union* of every requested
figure's plan, deduplicate it, and hand the whole batch to
:meth:`repro.experiments.runner.ExperimentRunner.prefetch` for parallel
dispatch — the figures then render against a warm cache and never trigger
a simulation themselves.

A canonical :class:`RunSpec` is hashable plain data (no live
:class:`~repro.sim.occupancy.LaunchConfig` or dataset objects) so it can
serve directly as the in-memory cache key and be shipped to worker
processes; see DESIGN.md §8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from ..apps import canonicalize_variant, get_app
from ..sim.occupancy import LaunchConfig
from ..sim.specs import CostModel, DeviceSpec
from ..workloads.spec import canonical_for_app


@dataclass(frozen=True)
class RunSpec:
    """One application execution, as plain hashable data.

    The only type that describes a run. Construction never validates or
    folds anything (so it stays as cheap as a tuple); :meth:`canonical`
    does, and the runner, ``App.run`` and the service all go through
    it, so every spelling of a run lands on one cache key.

    ``config`` is the ``(mode, blocks, threads)`` triple of a
    :class:`LaunchConfig` (the spec field is supplied by the runner);
    ``cost`` / ``threshold`` of ``None`` mean "the runner's / the app's
    default". ``strategy`` names a registered consolidation strategy for
    the ``'consolidated'`` variant.

    ``workload`` is a :mod:`repro.workloads` registry reference naming
    the dataset to run on (``None`` means the app's default); ``dataset``
    names a dataset explicitly registered on the runner
    (:meth:`ExperimentRunner.register_dataset`, e.g. Fig. 6's tree
    datasets) — at most one of the two may be set.

    Only what changes a run's answer is a field. *Where* it executes is
    an argument of ``App.run`` (``backend=``), never part of its
    identity or its cache key.
    """

    app: str
    variant: str
    allocator: str = "custom"
    config: Optional[tuple] = None
    dataset: Optional[str] = None
    cost: Optional[CostModel] = None
    threshold: Optional[int] = None
    strategy: Optional[str] = None
    workload: Optional[str] = None

    # the from_config shim was removed per repro.errors.DeprecationPolicy

    def canonical(self, **fill) -> "RunSpec":
        """This spec with every axis in its one canonical spelling.

        The one place a run's axes are validated and folded:

        * variant/strategy — redundant spellings collapse
          (``('consolidated', 'warp')`` is ``('warp-level', None)``)
          and contradictions are rejected
          (:func:`~repro.apps.common.canonicalize_variant`);
        * config and threshold — a live :class:`LaunchConfig` folds to
          its triple, a threshold is coerced to ``int`` and folds onto
          ``None`` for apps without the ``deg > threshold`` delegation
          guard, whose code never reads it;
        * workload — the reference is canonicalized and the app's own
          default folds onto ``None``; a spec naming both a registered
          dataset and a workload is rejected.

        Every fold maps onto ``None`` or a value the axis already had
        before it existed, so pre-existing cache keys stay put.
        ``fill`` gives values for fields still ``None`` after folding
        (the runner's cost model and the app's threshold), so resolving
        copies a spec at most once. Returns ``self`` when nothing
        changes.
        """
        if self.dataset is not None and self.workload is not None:
            raise ValueError(
                "a RunSpec takes either a registered dataset name or a "
                f"workload reference, not both (got dataset="
                f"{self.dataset!r}, workload={self.workload!r})")
        app = get_app(self.app)
        variant, strategy = canonicalize_variant(self.variant, self.strategy)
        config = self.config
        if config is not None and not isinstance(config, tuple):
            config = self.config_key(config)
        axes = {
            "variant": variant, "strategy": strategy, "config": config,
            "threshold": (None if self.threshold is None
                          or not app.has_delegation_guard
                          else int(self.threshold)),
            "workload": (None if self.workload is None else
                         canonical_for_app(app, self.workload)),
        }
        for name, value in fill.items():
            if axes.get(name, getattr(self, name)) is None:
                axes[name] = value
        changes = {}
        for name, value in axes.items():
            old = getattr(self, name)
            if value != old or type(value) is not type(old):
                changes[name] = value
        return replace(self, **changes) if changes else self

    @staticmethod
    def config_key(config: Optional[LaunchConfig]) -> Optional[tuple]:
        """Collapse a LaunchConfig to its hashable identity."""
        if config is None:
            return None
        return (config.mode, config.blocks, config.threads)

    def launch_config(self, spec: DeviceSpec) -> Optional[LaunchConfig]:
        """Rebuild the live LaunchConfig against a device spec."""
        if self.config is None:
            return None
        mode, blocks, threads = self.config
        return LaunchConfig(mode=mode, blocks=blocks, threads=threads,
                            spec=spec)


class WorkPlan:
    """An ordered, duplicate-free collection of :class:`RunSpec`.

    Insertion order is preserved so serial execution visits runs in the
    order the figures declared them — parallel execution merges results
    by key, so completion order never affects output.
    """

    def __init__(self, specs: Iterable[RunSpec] = ()):
        self._specs: dict[RunSpec, None] = {}
        self.extend(specs)

    def add(self, spec: RunSpec) -> None:
        self._specs.setdefault(spec, None)

    def extend(self, specs: Iterable[RunSpec]) -> None:
        for spec in specs:
            self.add(spec)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec in self._specs

    def __repr__(self) -> str:
        return f"WorkPlan({len(self)} runs)"


def union(plans: Iterable[Iterable[RunSpec]]) -> WorkPlan:
    """Union several plans (or bare RunSpec iterables), deduplicated."""
    out = WorkPlan()
    for plan in plans:
        out.extend(plan)
    return out
