"""Parallel, persistently-cached experiment runner.

The paper profiles the *same* executions for Figs. 7, 8, 9 and 10
(overall speedup, warp efficiency, occupancy, DRAM transactions), and
Fig. 5/6 sweep allocators and kernel configurations over a shared
baseline. The runner therefore treats application runs as cacheable
values addressed by their full input description:

1. **In-memory memoization** — runs are keyed by a resolved
   :class:`~repro.experiments.plan.RunSpec` (app, variant, allocator,
   launch config, dataset, *cost-model values*, threshold), so the four
   profiling harnesses share runs exactly the way the paper gathered its
   numbers. Keys compare by value: two equal cost models share an entry
   (the seed's ``id(cost_obj)`` key did not, and could collide after
   garbage collection reused an id).
2. **On-disk persistence** — with a :class:`~repro.experiments.store.ResultStore`
   attached, every executed run is written to a content-addressed cache,
   so repeated figure regeneration is warm-start across processes.
3. **Parallel prefetch** — :meth:`ExperimentRunner.prefetch` takes a
   :class:`~repro.experiments.plan.WorkPlan` (typically the deduplicated
   union of several figures' plans), filters out cached runs, and fans
   the rest across a process pool. Results are merged by key, so figure
   output is byte-identical regardless of worker count or completion
   order.

See DESIGN.md §8 for the architecture and the determinism argument.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..apps import get_app
from ..apps.common import CONS, TUNED, AppRun, BuildCache
from ..sim.specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C
from ..telemetry import span
from .plan import RunSpec, WorkPlan
from .store import ResultStore, dataset_fingerprint, run_key

#: default dataset scale for experiment runs: keeps each simulated run in
#: the seconds range on a laptop while preserving degree/fanout skew
DEFAULT_SCALE = 1.0


@dataclass
class RunStats:
    """Where the runner's results came from.

    ``executed`` counts distinct simulations; the hit counters count
    *lookups served* — a run executed once and then recalled twice is
    1 executed + 2 memory hits.
    """

    executed: int = 0
    memory_hits: int = 0
    disk_hits: int = 0

    def describe(self) -> str:
        return (f"{self.executed} executed, {self.memory_hits} memory hits, "
                f"{self.disk_hits} disk hits")


def _execute(spec: RunSpec, dataset, device_spec: DeviceSpec,
             verify: bool, build: BuildCache) -> AppRun:
    """Execute one resolved RunSpec against a materialized dataset."""
    return get_app(spec.app).run(spec, dataset, spec=device_spec,
                                 verify=verify, build=build)


#: per-worker state installed by :func:`_init_worker` — the datasets are
#: shipped once per worker (pool initializer), not once per task, and
#: each worker builds into its own cache
_WORKER_STATE = None


def _init_worker(datasets, device_spec, verify) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (datasets, device_spec, verify, BuildCache())


def _dataset_name(spec: RunSpec):
    """The name the runner materializes for a spec: its workload
    reference when set, else its registered-dataset name (or None)."""
    return spec.workload if spec.workload is not None else spec.dataset


def _spelling(spec: RunSpec) -> tuple:
    """What the runner's resolution and key memos key a spec on.

    Equal specs can still key apart: a cost model or launch config
    holding ``80`` equals one holding ``80.0`` but serializes
    differently. So the cost model counts by identity (the memo's key
    holds the spec, hence the model, so its id is never reused) and the
    launch config by the types of its members."""
    config = spec.config
    if config is not None and not isinstance(config, tuple):
        config = RunSpec.config_key(config)
    return (spec, id(spec.cost),
            None if config is None else tuple(map(type, config)))


def _execute_in_worker(spec: RunSpec) -> AppRun:
    datasets, device_spec, verify, build = _WORKER_STATE
    return _execute(spec, datasets[(spec.app, _dataset_name(spec))],
                    device_spec, verify, build)


def _pool_context():
    import multiprocessing
    import sys
    import threading

    # fork is cheap and inherits the app registry, but is only safe on
    # Linux (macOS system frameworks can abort forked children) and only
    # from a single-threaded process: the experiment service calls
    # prefetch from a worker thread while its event-loop thread is live,
    # and fork()ing then can deadlock the child on a lock some other
    # thread held at fork time — so any sign of threading selects spawn
    if (sys.platform == "linux"
            and threading.current_thread() is threading.main_thread()
            and threading.active_count() == 1):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


@dataclass
class ExperimentRunner:
    scale: float = DEFAULT_SCALE
    spec: DeviceSpec = K20C
    cost: CostModel = DEFAULT_COST_MODEL
    verify: bool = True
    #: optional on-disk cache; None keeps the runner purely in-memory
    store: Optional[ResultStore] = None
    #: optional on-disk cache of materialized datasets
    #: (:class:`repro.workloads.DatasetCache`), typically beside ``store``
    dataset_cache: Optional[object] = None
    #: default worker count for :meth:`prefetch`
    jobs: int = 1
    #: optional tuned-config registry backing the ``'tuned'`` variant
    #: (:class:`repro.tuning.TunedConfigRegistry`; run ``repro tune``)
    tuned: Optional[object] = None
    #: which tuned objective the ``'tuned'`` variant resolves against
    tuned_objective: str = "cycles"
    #: surrogate training log (:class:`repro.oracle.TrainingLog`): every
    #: executed run on a registry workload appends one (axes -> metrics)
    #: row.
    #: ``None`` auto-derives the conventional log beside ``store`` when
    #: one is attached; pass ``False`` to disable logging entirely
    training_log: Optional[object] = None
    stats: RunStats = field(default_factory=RunStats, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)
    #: optional named datasets (e.g. Fig. 6's tree dataset1/dataset2)
    _datasets: dict = field(default_factory=dict, repr=False)
    _fingerprints: dict = field(default_factory=dict, repr=False)
    #: spelling -> resolved spec, and spelling of a resolved spec ->
    #: content key (:func:`_spelling`); per runner, like the build cache
    _resolutions: dict = field(default_factory=dict, repr=False)
    _keys: dict = field(default_factory=dict, repr=False)
    #: consolidations, programs and references of this runner's runs;
    #: scoped to the runner (not the process) so that every new runner,
    #: like every `repro all`, pays its own first builds
    _build: BuildCache = field(default_factory=BuildCache, repr=False)

    def __post_init__(self) -> None:
        if self.training_log is None and self.store is not None:
            from ..oracle import TrainingLog

            self.training_log = TrainingLog.for_store(self.store)
        elif self.training_log is False:
            self.training_log = None

    # -- datasets -------------------------------------------------------------

    def dataset(self, app_key: str, name: Optional[str] = None):
        """The dataset an app runs on, cached per (app, name).

        ``None`` is the app's default workload; other names resolve to
        an explicitly registered dataset first (Fig. 6's tree datasets),
        then to the workload registry — materialized at this runner's
        scale, validated against the app's kind/symmetry requirements,
        and served through the on-disk dataset cache when one is
        attached."""
        key = (app_key, name)
        if key not in self._datasets:
            from ..workloads import materialize_for_app

            app = get_app(app_key)
            with span("runner.dataset", app=app_key, name=name,
                      scale=self.scale):
                self._datasets[key] = materialize_for_app(
                    app, name if name is not None else app.default_workload,
                    self.scale, cache=self.dataset_cache)
        return self._datasets[key]

    def register_dataset(self, app_key: str, name: str, dataset) -> None:
        self._datasets[(app_key, name)] = dataset
        # the content address, the memoized keys and the memoized runs
        # must track the dataset actually registered
        self._fingerprints.pop((app_key, name), None)

        def stale(spec):
            return spec.app == app_key and _dataset_name(spec) == name
        for spec in [spec for spec in self._cache if stale(spec)]:
            del self._cache[spec]
        for spelling in [s for s in self._keys if stale(s[0])]:
            del self._keys[spelling]

    def _fingerprint(self, app_key: str, name: Optional[str]) -> str:
        key = (app_key, name)
        if key not in self._fingerprints:
            self._fingerprints[key] = dataset_fingerprint(
                self.dataset(app_key, name))
        return self._fingerprints[key]

    # -- keying ---------------------------------------------------------------

    def tuned_entry(self, app: str, workload: Optional[str] = None):
        """The stored tuned config the ``'tuned'`` variant would run for
        an app x workload: the exact entry for this runner's tuning
        context (device spec, cost model, scale, verify flag, package
        version) when one exists, else the closest stored match by scale
        and device *for the same workload*. Returns None when nothing
        matching is stored."""
        if self.tuned is None:
            raise RuntimeError(
                "the 'tuned' variant needs a tuned-config registry "
                "attached to the runner (ExperimentRunner(tuned=...)); "
                f"run `repro tune {app}` to create one")
        from .. import __version__
        from ..tuning.registry import tuned_key
        from ..workloads import canonical_for_app

        workload = canonical_for_app(get_app(app), workload)
        key = tuned_key(app=app, objective=self.tuned_objective,
                        spec=self.spec, cost=self.cost, scale=self.scale,
                        verify=self.verify, version=__version__,
                        workload=workload)
        entry = self.tuned.get(key)
        if entry is None:
            entry = self.tuned.lookup(app, self.tuned_objective,
                                      scale=self.scale,
                                      device=self.spec.name,
                                      workload=workload)
        return entry

    def _resolve_tuned(self, spec: RunSpec) -> RunSpec:
        """Lower a canonical ``'tuned'`` spec onto the stored winning
        configuration (explicit per-spec threshold/config overrides still
        win)."""
        entry = self.tuned_entry(spec.app, spec.workload)
        if entry is None:
            what = (f"app {spec.app!r}" if spec.workload is None else
                    f"app {spec.app!r} / workload {spec.workload!r}")
            raise KeyError(
                f"no tuned config for {what} / objective "
                f"{self.tuned_objective!r} in {self.tuned.path}; run "
                f"`repro tune {spec.app}` first")
        cand = entry.candidate
        return replace(
            spec, variant=CONS, strategy=cand.strategy,
            threshold=(spec.threshold if spec.threshold is not None
                       else cand.threshold),
            config=(spec.config if spec.config is not None
                    else cand.config_key(self.spec)))

    def _resolve(self, spec: RunSpec) -> RunSpec:
        """Canonicalize a spec (:meth:`RunSpec.canonical`), lower the
        ``'tuned'`` variant and fill the runner/app defaults, so the
        result fully determines (and uniquely keys) the run.

        Memoized per spelling, except ``'tuned'`` specs: their
        resolution reads the tuned registry, which the tuner and the
        daemon update."""
        if spec.variant == TUNED:
            spec = self._resolve_tuned(spec.canonical())
            return spec.canonical(cost=self.cost,
                                  threshold=get_app(spec.app).threshold)
        spelling = _spelling(spec)
        resolved = self._resolutions.get(spelling)
        if resolved is None:
            resolved = self._resolutions[spelling] = spec.canonical(
                cost=self.cost, threshold=get_app(spec.app).threshold)
        return resolved

    def _content_key(self, resolved: RunSpec) -> str:
        """The store address of a resolved spec, memoized per spelling
        (:meth:`register_dataset` drops the keys of a name it rebinds)."""
        spelling = _spelling(resolved)
        key = self._keys.get(spelling)
        if key is None:
            from .. import __version__

            key = self._keys[spelling] = run_key(
                app=resolved.app,
                variant=resolved.variant,
                allocator=resolved.allocator,
                config=resolved.config,
                dataset_fp=self._fingerprint(resolved.app,
                                             _dataset_name(resolved)),
                cost=resolved.cost,
                spec=self.spec,
                threshold=resolved.threshold,
                verify=self.verify,
                version=__version__,
                strategy=resolved.strategy,
                workload=resolved.workload,
            )
        return key

    # -- execution ------------------------------------------------------------

    def _admit(self, resolved: RunSpec, run: AppRun) -> None:
        """Record a freshly *executed* run (memory + disk + stats)."""
        self.stats.executed += 1
        self._cache[resolved] = run
        if self.store is not None:
            with span("runner.store-put", app=resolved.app,
                      variant=resolved.variant):
                self.store.put(self._content_key(resolved), run)
        if self.training_log is not None and resolved.dataset is None:
            # surrogate training pair: only runs on registry workloads
            # are reproducible training contexts (explicitly registered
            # datasets have no stable reference to featurize)
            self.training_log.record(
                app=resolved.app, workload=resolved.workload,
                device=self.spec.name, cost=resolved.cost,
                scale=self.scale, verify=self.verify,
                variant=resolved.variant, strategy=resolved.strategy,
                threshold=resolved.threshold, config=resolved.config,
                metrics=run.metrics)

    def _lookup(self, resolved: RunSpec) -> Optional[AppRun]:
        """Memory first, then the on-disk store (promoting hits)."""
        run = self._cache.get(resolved)
        if run is not None:
            self.stats.memory_hits += 1
            return run
        if self.store is not None:
            with span("runner.store-get", app=resolved.app,
                      variant=resolved.variant):
                run = self.store.get(self._content_key(resolved))
            if run is not None:
                self.stats.disk_hits += 1
                self._cache[resolved] = run
                return run
        return None

    def trim_memory(self) -> None:
        """Drop the in-process AppRun cache, the build cache and the
        resolution and key memos (the batch hook a long-lived service
        calls between batches).

        Only sensible with an on-disk store attached: the store keeps
        every result, so later lookups become disk hits instead of
        memory hits — whereas a one-shot figure run without a store
        would lose its only cache. AppRuns hold full result arrays,
        which is exactly what must not accumulate in a daemon that only
        ever ships metrics. Datasets and fingerprints are kept: they
        are bounded by the workload registry and expensive to rebuild.
        """
        self._cache.clear()
        self._build.clear()
        self._resolutions.clear()
        self._keys.clear()

    def resolve(self, spec: RunSpec) -> RunSpec:
        """Public :meth:`_resolve`: fill every runner/app default so the
        returned spec fully determines (and uniquely keys) the run.

        Idempotent — resolving a resolved spec returns it unchanged —
        which is what lets the experiment service (:mod:`repro.service`)
        use resolved specs as coalescing keys and feed them straight
        back into :meth:`prefetch`.
        """
        return self._resolve(spec)

    def run_spec(self, spec: RunSpec) -> AppRun:
        """Execute (or recall) one RunSpec."""
        with span("runner.resolve", app=spec.app):
            resolved = self._resolve(spec)
        run = self._lookup(resolved)
        if run is None:
            dataset = self.dataset(resolved.app, _dataset_name(resolved))
            with span("runner.execute", app=resolved.app,
                      variant=resolved.variant):
                run = _execute(resolved, dataset, self.spec, self.verify,
                               self._build)
            self._admit(resolved, run)
        return run

    def run(self, app_key: str, variant: str, **axes) -> AppRun:
        """Execute (or recall) ``RunSpec(app_key, variant, **axes)``."""
        return self.run_spec(RunSpec(app_key, variant, **axes))

    # the run_config shim was removed per repro.errors.DeprecationPolicy

    def prefetch(self, specs: Iterable[RunSpec],
                 jobs: Optional[int] = None,
                 executed: Optional[set] = None) -> RunStats:
        """Materialize every spec's run, fanning cache misses across a
        process pool.

        Returns the stats delta for this prefetch. With ``jobs <= 1`` (or
        one miss) execution is serial and in-process; either way the
        cache ends up in the same state, so downstream figure rendering
        is byte-identical.

        ``executed``, when given, is a set the runner fills with the
        *resolved* specs it actually simulated — the batch hook the
        experiment service uses to report per-request provenance
        (executed vs. served-from-cache) without re-probing the cache.
        """
        jobs = self.jobs if jobs is None else jobs
        before = replace(self.stats)
        missing = WorkPlan()
        for spec in specs:
            resolved = self._resolve(spec)
            if resolved not in missing and self._lookup(resolved) is None:
                missing.add(resolved)
        pending = list(missing)
        if executed is not None:
            executed.update(pending)
        datasets = {(r.app, _dataset_name(r)):
                    self.dataset(r.app, _dataset_name(r))
                    for r in pending}
        if jobs > 1 and len(pending) > 1:
            workers = min(jobs, len(pending))
            # worker processes are untraced; the pool shows up as one
            # span covering the whole fan-out
            with span("runner.prefetch", runs=len(pending), jobs=workers), \
                    ProcessPoolExecutor(
                    max_workers=workers, mp_context=_pool_context(),
                    initializer=_init_worker,
                    initargs=(datasets, self.spec, self.verify)) as pool:
                futures = {pool.submit(_execute_in_worker, r): r
                           for r in pending}
                for future in as_completed(futures):
                    self._admit(futures[future], future.result())
        else:
            with span("runner.prefetch", runs=len(pending), jobs=1):
                for resolved in pending:
                    with span("runner.execute", app=resolved.app,
                              variant=resolved.variant):
                        run = _execute(
                            resolved,
                            datasets[(resolved.app, _dataset_name(resolved))],
                            self.spec, self.verify, self._build)
                    self._admit(resolved, run)
        return RunStats(
            executed=self.stats.executed - before.executed,
            memory_hits=self.stats.memory_hits - before.memory_hits,
            disk_hits=self.stats.disk_hits - before.disk_hits,
        )

    # -- helpers --------------------------------------------------------------

    def speedup_over_basic(self, app_key: str, variant: str, **kw) -> float:
        base = self.run(app_key, "basic-dp",
                        **{k: v for k, v in kw.items()
                           if k in ("dataset", "workload")})
        other = self.run(app_key, variant, **kw)
        return base.metrics.cycles / other.metrics.cycles
