"""Benchmark-application framework.

Every paper benchmark is an :class:`App` with:

* an **annotated basic-dp source** — the naive dynamic-parallelism CUDA of
  Fig. 1, carrying the ``#pragma dp`` directive. Run as-is, this *is* the
  paper's ``basic-dp`` baseline (directives are inert at runtime);
* a **flat source** — the ``no-dp`` baseline (inline serial inner loops);
* a **host driver** that uploads the dataset, launches kernels (looping
  until convergence where the algorithm iterates) and reads results back;
* a NumPy/SciPy **reference** and a **check** predicate.

Consolidated variants are *not hand-written*: they are produced by the
compiler from the annotated source (``variant_source``), and reuse the same
host driver because the transforms keep the parent kernel's name and
signature.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backend.codegen import CompiledModule
from ..backends import DEFAULT_BACKEND, get_backend
from ..compiler import consolidate_source
from ..compiler.consolidator import ConsolidationReport
from ..errors import ReproError
from ..registry import Registry
from ..sim.device import Device, compile_program
from ..sim.occupancy import LaunchConfig
from ..sim.profiler import RunMetrics
from ..sim.specs import DEFAULT_COST_MODEL, DeviceSpec, K20C
from ..telemetry import span

#: variant identifiers, matching the paper's figure legends
BASIC = "basic-dp"
FLAT = "no-dp"
WARP = "warp-level"
BLOCK = "block-level"
GRID = "grid-level"

#: the generic consolidated variant: which granularity is applied comes
#: from the ``strategy`` axis (a registered consolidation strategy name;
#: None means the pragma's ``consldt`` clause decides)
CONS = "consolidated"

#: the autotuned variant: resolved through the tuned-config registry
#: (``repro tune`` / :mod:`repro.tuning`) onto a concrete consolidated
#: configuration before anything executes — apps never see it
TUNED = "tuned"

VARIANTS = (BASIC, FLAT, WARP, BLOCK, GRID)
CONSOLIDATED = {WARP: "warp", BLOCK: "block", GRID: "grid"}
#: built-in strategy name -> its legacy per-granularity variant label
VARIANT_FOR_STRATEGY = {gran: variant for variant, gran in CONSOLIDATED.items()}


def canonicalize_variant(variant: str,
                         strategy: Optional[str]) -> tuple[str, Optional[str]]:
    """Collapse redundant (variant, strategy) pairs to one spelling.

    ``("consolidated", "warp")`` and ``("warp-level", None)`` request the
    same run; canonicalizing to the legacy variant keeps one cache entry
    (and one figure label) per distinct execution, while strategies
    outside the built-in three stay on the generic variant. Contradictory
    pairs (a per-granularity variant with a *different* strategy, or a
    strategy on basic-dp/no-dp/tuned) are rejected.
    """
    if variant == TUNED and strategy is not None:
        raise ValueError(
            "variant 'tuned' takes its strategy from the stored config; "
            f"drop the explicit strategy {strategy!r} or use variant "
            "'consolidated'")
    if variant == CONS:
        legacy = VARIANT_FOR_STRATEGY.get(strategy)
        if legacy is not None:
            return legacy, None
        return variant, strategy
    if strategy is not None:
        expected = CONSOLIDATED.get(variant)
        if expected is None:
            raise ValueError(
                f"variant {variant!r} does not take a consolidation "
                f"strategy (got {strategy!r})")
        if strategy != expected:
            raise ValueError(
                f"variant {variant!r} contradicts strategy {strategy!r}; "
                f"use variant 'consolidated' to select a strategy")
        return variant, None
    return variant, None


@dataclass
class AppRun:
    """Result of one measured application run."""

    app: str
    variant: str
    dataset: str
    metrics: RunMetrics
    result: np.ndarray
    report: Optional[ConsolidationReport] = None
    checked: bool = False
    #: consolidation strategy, when the variant alone doesn't imply one
    #: (i.e. a non-builtin strategy ran under the 'consolidated' variant)
    strategy: Optional[str] = None


class App(abc.ABC):
    """One paper benchmark. Subclasses provide sources and the host driver."""

    #: short key ('sssp') and figure label ('SSSP')
    key: str = ""
    label: str = ""
    #: default work-delegation threshold for irregular-loop apps
    threshold: int = 8
    #: whether the template guards delegation with ``deg > threshold``
    #: (Fig. 1(b)); False for the parallel-recursion apps, whose runs are
    #: threshold-independent (the tuner drops the axis — DESIGN.md §11)
    has_delegation_guard: bool = True
    #: dataset kind the host driver consumes ('graph' | 'tree'); the
    #: runner refuses workloads of the other kind up front
    kind: str = "graph"
    #: whether the algorithm relies on an undirected (symmetrized) graph
    #: (GC's independent-set argument, BFS-Rec's level check); asymmetric
    #: workloads are rejected before anything executes
    requires_symmetric: bool = False
    #: whether the algorithm recurses once per dataset level (BFS-Rec):
    #: workloads declared ``deep`` would exceed the device's DP nesting
    #: limit and are rejected before anything executes
    requires_shallow: bool = False
    #: canonical workload reference this app runs when none is requested
    #: (the paper's dataset for the benchmark); ``--workload`` spellings
    #: equal to this canonicalize onto ``None``, so the workload axis
    #: leaves every pre-existing cache key unchanged (DESIGN.md §12)
    default_workload: str = ""

    # -- sources -------------------------------------------------------------

    @abc.abstractmethod
    def annotated_source(self) -> str:
        """Basic-dp CUDA annotated with #pragma dp (Fig. 1 template)."""

    @abc.abstractmethod
    def flat_source(self) -> str:
        """Flat (no-dp) CUDA."""

    def variant_source(self, variant: str,
                       config: Optional[LaunchConfig] = None,
                       spec: DeviceSpec = K20C,
                       strategy: Optional[str] = None, *,
                       build: Optional["BuildCache"] = None
                       ) -> tuple[str, Optional[ConsolidationReport]]:
        """Source text + consolidation report for a variant.

        ``strategy`` names a registered consolidation strategy; it is
        only meaningful with the ``consolidated`` variant (or, redundantly,
        with the matching per-granularity variant). ``build`` serves the
        consolidation from a :class:`BuildCache`.
        """
        variant, strategy = canonicalize_variant(variant, strategy)
        if variant == TUNED:
            raise ValueError(
                "variant 'tuned' is resolved through the tuned-config "
                "registry, not compiled directly; use `repro run <app> "
                "tuned` or an ExperimentRunner with a tuned registry "
                "(see repro.tuning)")
        if variant == BASIC:
            return self.annotated_source(), None
        if variant == FLAT:
            return self.flat_source(), None
        if variant == CONS:
            gran = strategy  # non-builtin (or pragma-default) strategy
        else:
            gran = CONSOLIDATED.get(variant)
            if gran is None:
                raise ValueError(f"unknown variant {variant!r}")
        if build is not None:
            return build.consolidate(self.annotated_source(), gran, config,
                                     spec)
        res = consolidate_source(self.annotated_source(), granularity=gran,
                                 config=config, spec=spec)
        return res.source, res.report

    # -- dataset + driver ------------------------------------------------------

    def default_dataset(self, scale: float = 1.0):
        """The dataset the paper uses for this benchmark (scaled):
        :attr:`default_workload` materialized through the registry."""
        from ..workloads import materialize

        return materialize(self.default_workload, scale)

    @abc.abstractmethod
    def host_run(self, device: Device, program, dataset, run) -> np.ndarray:
        """Upload, launch (loop as needed) and return the result array.

        ``run`` is the canonical :class:`~repro.experiments.plan.RunSpec`
        with the app's default threshold filled in: drivers read the
        delegation threshold from ``run.threshold`` and branch on
        ``run.variant``. Must work unchanged for BASIC and all
        consolidated variants (the transforms preserve the parent kernel
        interface); FLAT drivers may branch on the variant.
        """

    # -- verification -----------------------------------------------------------

    @abc.abstractmethod
    def reference(self, dataset) -> np.ndarray:
        """Ground-truth result computed with NumPy/SciPy."""

    def check(self, result: np.ndarray, dataset,
              reference: Optional[np.ndarray] = None) -> bool:
        """Default check: exact match against the reference.

        ``reference`` is ``self.reference(dataset)`` when the caller
        already has it (:meth:`BuildCache.reference`); None computes it.
        """
        ref = self.reference(dataset) if reference is None else reference
        return np.array_equal(result, ref)

    # -- measured execution ------------------------------------------------------

    def run(self, run, dataset=None, *, scale: float = 1.0,
            spec: DeviceSpec = K20C, heap_bytes: Optional[int] = None,
            verify: bool = True, backend=None,
            build: Optional["BuildCache"] = None) -> AppRun:
        """Execute one run of this app on a fresh device and profile it.

        ``run`` is a :class:`~repro.experiments.plan.RunSpec` for this
        app; it is canonicalized here (:meth:`RunSpec.canonical`, filling
        the app's default threshold), so any spelling of a run executes
        the same way. ``dataset`` is the materialized dataset; ``None``
        materializes the spec's workload (or the app's default) at
        ``scale``. ``backend`` is where the run executes: a
        :class:`repro.backends.Backend` that executes programs, e.g.
        ``get_backend("cpu")`` or ``SimBackend(engine="scalar")`` for
        differential checks; ``None`` means the simulator. It is not part
        of the run's identity, so the experiment runner never passes it.
        The returned :class:`AppRun` is plain picklable data, so the
        runner can execute runs in worker processes and persist them in
        its result store. To observe a run, wrap the call in
        ``repro.telemetry.tracing()`` or ``repro.perf.profiling()``;
        neither can change its result.

        ``build`` is a :class:`BuildCache` that serves a simulator run's
        consolidation, compiled program and reference from earlier runs
        with the same inputs; ``None`` builds everything from scratch.
        The experiment runner passes its own. Other backends always
        build from source.

        A :class:`~repro.errors.ReproError` raised while consolidating,
        compiling, driving or synchronizing keeps its type and text,
        prefixed with the app and variant.
        """
        # per-axis/RunConfig shims removed per repro.errors.DeprecationPolicy
        run = run.canonical(threshold=self.threshold)
        if run.app != self.key:
            raise ValueError(f"{self.label} cannot run a spec for app "
                             f"{run.app!r}")
        if dataset is None:
            if run.dataset is not None:
                raise ValueError(
                    f"dataset {run.dataset!r} names a dataset registered on "
                    "an ExperimentRunner; pass the dataset itself")
            if run.workload is None:
                dataset = self.default_dataset(scale)
            else:
                from ..workloads import materialize_for_app

                dataset = materialize_for_app(self, run.workload, scale)
        cost = DEFAULT_COST_MODEL if run.cost is None else run.cost
        if backend is None:
            backend = get_backend(DEFAULT_BACKEND)
        device = backend.make_device(spec=spec, cost=cost,
                                     allocator=run.allocator,
                                     heap_bytes=heap_bytes)
        if not isinstance(device, Device):
            build = None  # e.g. the CPU interpreter, which walks the AST
        try:
            source, report = self.variant_source(
                run.variant, config=run.launch_config(spec), spec=spec,
                strategy=run.strategy, build=build)
            program = device.load(
                source if build is None else build.program(source))
            result = self.host_run(device, program, dataset, run)
            metrics = device.synchronize()
        except ReproError as exc:
            exc.args = (f"{self.label} [{run.variant}]: {exc}",)
            raise
        checked = False
        if verify:
            with span("app.verify", app=self.key):
                reference = (None if build is None
                             else build.reference(self, dataset))
                good = self.check(result, dataset, reference=reference)
            if not good:
                raise AssertionError(
                    f"{self.label} [{run.variant}] produced a wrong result "
                    f"on {getattr(dataset, 'name', dataset)}"
                )
            checked = True
        try:
            dataset_name = dataset.name
        except AttributeError:  # only then render the dataset itself
            dataset_name = str(dataset)
        return AppRun(
            app=self.key, variant=run.variant,
            dataset=dataset_name,
            metrics=metrics, result=result, report=report, checked=checked,
            strategy=run.strategy,
        )


class BuildCache:
    """What simulator runs build before they execute, memoized by content.

    The figure plan's 144 runs consolidate only 72 distinct inputs into
    83 distinct programs and verify against 9 datasets, so an
    :class:`~repro.experiments.ExperimentRunner` owns one cache and
    passes it to :meth:`App.run` (each ``--jobs N`` worker owns its
    own). Three memos, each keyed by every input of its value:

    * consolidation: (annotated source, strategy, launch config, device
      spec) -> (consolidated source, shared frozen report);
    * program: MiniCUDA source text -> :class:`CompiledModule`;
    * reference: (app, dataset fingerprint) -> read-only array.

    A consolidation miss compiles the consolidator's checked module
    rather than parsing the source it prints; both give the same Python
    (DESIGN.md §8). Entries are text, generated code and arrays, never
    an AST or ``ModuleInfo``. A build that raises stores nothing.
    """

    def __init__(self) -> None:
        self._consolidations: dict = {}
        self._programs: dict[str, CompiledModule] = {}
        self._references: dict = {}

    def __len__(self) -> int:
        return (len(self._consolidations) + len(self._programs)
                + len(self._references))

    def clear(self) -> None:
        self._consolidations.clear()
        self._programs.clear()
        self._references.clear()

    def consolidate(self, annotated: str, strategy: Optional[str],
                    config: Optional[LaunchConfig], spec: DeviceSpec
                    ) -> tuple[str, ConsolidationReport]:
        """:func:`~repro.compiler.consolidate_source`'s source and report,
        compiling a miss's program from its checked module."""
        key = (annotated, strategy, config, spec)
        hit = self._consolidations.get(key)
        if hit is None:
            res = consolidate_source(annotated, granularity=strategy,
                                     config=config, spec=spec)
            if res.source not in self._programs:
                self._programs[res.source] = compile_program(res.info)
            hit = self._consolidations[key] = (res.source, res.report)
        return hit

    def program(self, source: str) -> CompiledModule:
        """The simulator program of a MiniCUDA source text."""
        compiled = self._programs.get(source)
        if compiled is None:
            compiled = self._programs[source] = compile_program(source)
        return compiled

    def reference(self, app: App, dataset) -> np.ndarray:
        """``app.reference(dataset)``, read-only."""
        from ..experiments.store import dataset_fingerprint

        key = (app.key, dataset_fingerprint(dataset))
        ref = self._references.get(key)
        if ref is None:
            ref = np.array(app.reference(dataset))
            ref.setflags(write=False)
            self._references[key] = ref
        return ref


#: key -> app singleton, populated by repro.apps.__init__
REGISTRY: Registry[App] = Registry("app", App, key="key")


def register(app_cls):
    """Class decorator: instantiate and register an App."""
    app = app_cls()
    if not app.key or not app.label:
        raise ValueError(f"{app_cls.__name__} must define key and label")
    if not app.default_workload:
        raise ValueError(
            f"{app_cls.__name__} must name a default_workload (a "
            "repro.workloads registry reference)")
    REGISTRY.register(app, replace=True)
    return app_cls


def get_app(key: str) -> App:
    return REGISTRY[key]


def all_apps() -> list[App]:
    return [REGISTRY[k] for k in sorted(REGISTRY)]
