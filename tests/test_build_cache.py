"""The build cache: each runner consolidates, compiles and computes each
reference once per distinct input.

``repro all``'s figure plan sweeps seven annotated sources over variants,
kernel configurations and allocators, so its runs share most of what
they build. An :class:`~repro.experiments.ExperimentRunner` owns one
:class:`~repro.apps.common.BuildCache` that memoizes three things by
content: consolidations, compiled programs and references. These tests
pin the counts of real work per runner, the keys (content, never a name
or an object identity), the cache's lifetime (per runner, per worker,
emptied by ``trim_memory``), that a cached build never changes a run's
metrics or key, and that the program the simulator runs is the one
``repro compile`` prints.
"""

import dataclasses

import numpy as np
import pytest

import repro.apps.common as common
import repro.compiler.consolidator as consolidator
import repro.compiler.pipeline as pipeline
import repro.experiments as experiments
import repro.sim.device as device
from repro.apps import all_apps, get_app
from repro.apps.common import CONS, BuildCache
from repro.apps.sssp import ANNOTATED, SSSPApp
from repro.backend.codegen import CompiledModule, generate_module_source
from repro.backends import CpuDevice, get_backend
from repro.compiler import consolidate_all, consolidate_source
from repro.errors import PragmaError, TypeCheckError
from repro.experiments import ExperimentRunner, RunSpec, WorkPlan
from repro.frontend import check_module, parse

#: the scale of the pinned run-key and metrics fixtures
SCALE = 0.08

#: the figure plan's distinct builds at any scale: 7 apps' basic-dp and
#: no-dp sources plus 72 distinct consolidations, which print 69
#: distinct sources. TD's default tree is Fig. 6's dataset2, so its 9
#: datasets hold 8 distinct contents.
PLAN_BUILDS = {"consolidate": 72, "codegen": 83, "parse": 86,
               "typecheck": 218, "reference": 8}


def _count_builds(monkeypatch) -> dict:
    """Count calls through the names the layer benchmark rebinds."""
    counts = dict.fromkeys(PLAN_BUILDS, 0)

    def counting(owner, attr, what):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[what] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counting(common, "consolidate_source", "consolidate")
    counting(device, "compile_module", "codegen")
    counting(device, "parse", "parse")
    counting(pipeline, "parse", "parse")
    counting(device, "check_module", "typecheck")
    counting(consolidator, "check_module", "typecheck")
    for app in all_apps():
        counting(app, "reference", "reference")
    return counts


def _plan(runner):
    return experiments.figure_plan(list(experiments.FIGURES), runner)


class _BrokenSSSP(SSSPApp):
    """SSSP whose annotated source fails to build."""

    def __init__(self, annotated: str):
        self._annotated = annotated

    def annotated_source(self) -> str:
        return self._annotated


UNDECLARED = ANNOTATED.replace("row_ptr[u + 1] - beg;\n    int t",
                               "row_ptr[u + 1] - undeclared;\n    int t", 1)
BAD_PRAGMA = ANNOTATED.replace("work(u)", "work(u) work(u)", 1)


class TestPlanBuilds:
    def test_each_runner_builds_each_distinct_input_once(self, monkeypatch):
        """One runner over the figure plan does each distinct build once;
        a second, fresh runner pays the same first builds again."""
        counts = _count_builds(monkeypatch)
        for _ in range(2):
            runner = ExperimentRunner(scale=SCALE)
            stats = runner.prefetch(_plan(runner), jobs=1)
            assert stats.executed == 145
            assert counts == PLAN_BUILDS
            counts.update(dict.fromkeys(counts, 0))

    def test_cached_build_equals_fresh_build(self):
        """Runs served by a warm cache equal runs built from scratch."""
        runner = ExperimentRunner(scale=SCALE)
        plan = [spec for spec in _plan(runner) if spec.app == "sssp"]
        runner.prefetch(plan, jobs=1)
        assert len(runner._build) > 0
        for spec in plan:
            resolved = runner.resolve(spec)
            dataset = runner.dataset(spec.app, spec.workload or spec.dataset)
            fresh = get_app(spec.app).run(resolved, dataset, scale=SCALE)
            cached = runner.run_spec(spec)
            assert fresh.metrics == cached.metrics, spec
            assert fresh.report == cached.report, spec
            np.testing.assert_array_equal(fresh.result, cached.result)


class TestKeys:
    def test_reregistered_dataset_recomputes_reference(self, monkeypatch):
        """References are keyed by dataset content, not by name."""
        counts = _count_builds(monkeypatch)
        app = get_app("sssp")
        small, large = app.default_dataset(0.08), app.default_dataset(0.15)
        runner = ExperimentRunner(scale=SCALE)
        runner.register_dataset("sssp", "d", small)
        runner.run("sssp", "basic-dp", dataset="d")
        runner.run("sssp", "warp-level", dataset="d")
        assert counts["reference"] == 1
        runner.register_dataset("sssp", "d", large)
        second = runner.run("sssp", "basic-dp", dataset="d")
        assert counts["reference"] == 2
        assert second.checked and len(second.result) == large.num_nodes

    def test_cached_references_are_read_only(self):
        app = get_app("spmv")
        dataset = app.default_dataset(SCALE)
        build = BuildCache()
        ref = build.reference(app, dataset)
        assert not ref.flags.writeable
        with pytest.raises(ValueError):
            ref[0] = 1
        assert build.reference(app, dataset) is ref
        np.testing.assert_array_equal(ref, app.reference(dataset))

    def test_consolidation_key_holds_config_and_spec(self):
        """Runs differing only in launch config consolidate separately;
        runs differing only in allocator share one consolidation, one
        program and one frozen report."""
        runner = ExperimentRunner(scale=SCALE)
        a = runner.run("sssp", "grid-level")
        b = runner.run("sssp", "grid-level", allocator="halloc")
        c = runner.run("sssp", "grid-level", config=("explicit", 4, 128))
        assert a.report is b.report
        assert c.report is not a.report and c.report.config == (4, 128)
        assert len(runner._build._consolidations) == 2

    def test_shared_report_is_frozen(self):
        runner = ExperimentRunner(scale=SCALE)
        report = runner.run("sssp", "warp-level").report
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.granularity = "grid"


class TestLifetime:
    def test_trim_memory_empties_the_cache(self):
        runner = ExperimentRunner(scale=SCALE)
        runner.run("spmv", "grid-level")
        assert len(runner._build) > 0
        runner.trim_memory()
        assert len(runner._build) == 0

    def test_jobs2_matches_serial(self):
        """Workers build into their own caches; metrics and keys match a
        serial runner's."""
        def runs(jobs):
            runner = ExperimentRunner(scale=SCALE)
            plan = WorkPlan(spec for spec in _plan(runner)
                            if spec.app in ("sssp", "th"))
            runner.prefetch(plan, jobs=jobs)
            return {runner._content_key(runner.resolve(spec)):
                    runner.run_spec(spec).metrics for spec in plan}
        serial, parallel = runs(1), runs(2)
        assert list(serial) == list(parallel)
        assert serial == parallel

    def test_cpu_backend_loads_source(self, monkeypatch):
        """The CPU interpreter walks the AST, so it is never handed a
        simulator-compiled program, and its runs leave the cache empty."""
        loaded = []
        original = CpuDevice.load

        def load(self, module):
            loaded.append(module)
            return original(self, module)
        monkeypatch.setattr(CpuDevice, "load", load)
        build = BuildCache()
        app = get_app("th")
        dataset = app.default_dataset(0.05)
        for variant in ("basic-dp", "grid-level"):
            run = app.run(RunSpec("th", variant), dataset, build=build,
                          backend=get_backend("cpu"))
            assert run.checked
        assert len(loaded) == 2
        assert all(isinstance(m, str) for m in loaded)
        assert len(build) == 0

    def test_simulator_loads_the_cached_program(self, monkeypatch):
        loaded = []
        original = device.Device.load

        def load(self, module):
            loaded.append(module)
            return original(self, module)
        monkeypatch.setattr(device.Device, "load", load)
        runner = ExperimentRunner(scale=SCALE)
        runner.run("th", "grid-level")
        runner.run("th", "grid-level", allocator="halloc")
        assert len(loaded) == 2
        assert isinstance(loaded[0], CompiledModule)
        assert loaded[0] is loaded[1]
        with pytest.raises(TypeError):
            loaded[0].kernels["th_parent"] = None


class TestFailedBuilds:
    """A build error names the app and variant on every variant, and a
    failed build is never cached: a retry fails the same way."""

    VARIANTS = ("basic-dp", "warp-level", "block-level", "grid-level",
                CONS)

    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_undeclared_identifier(self, variant, cached):
        app = _BrokenSSSP(UNDECLARED)
        dataset = get_app("sssp").default_dataset(0.05)
        build = BuildCache() if cached else None
        messages = []
        for _ in range(2):
            with pytest.raises(TypeCheckError) as info:
                app.run(RunSpec("sssp", variant), dataset, build=build)
            messages.append(str(info.value))
            assert build is None or len(build) == 0
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"SSSP [{variant}]: ")
        assert "use of undeclared identifier 'undeclared'" in messages[0]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_pragma_clause(self, variant):
        app = _BrokenSSSP(BAD_PRAGMA)
        dataset = get_app("sssp").default_dataset(0.05)
        build = BuildCache()
        for _ in range(2):
            with pytest.raises(PragmaError,
                               match=rf"^SSSP \[{variant}\]: .*duplicate"):
                app.run(RunSpec("sssp", variant), dataset, build=build)
            assert len(build) == 0


def _same_python(result) -> None:
    """The Python compiled from the consolidator's checked module equals
    the Python compiled from the source text it prints."""
    reparsed = check_module(parse(result.source), allow_reserved=True)
    assert (generate_module_source(result.info)
            == generate_module_source(reparsed))


class TestHandOff:
    """A consolidation miss compiles ``ConsolidationResult.info`` rather
    than re-parsing ``ConsolidationResult.source``; the two must give
    the same program, so what the simulator runs is what ``repro
    compile`` prints."""

    def test_every_plan_consolidation(self):
        runner = ExperimentRunner(scale=SCALE)
        seen = set()
        for spec in _plan(runner):
            resolved = runner.resolve(spec)
            if resolved.variant not in common.CONSOLIDATED \
                    and resolved.variant != CONS:
                continue
            app = get_app(resolved.app)
            gran = common.CONSOLIDATED.get(resolved.variant,
                                           resolved.strategy)
            config = resolved.launch_config(runner.spec)
            key = (app.key, gran, config)
            if key in seen:
                continue
            seen.add(key)
            _same_python(consolidate_source(
                app.annotated_source(), granularity=gran, config=config,
                spec=runner.spec))
        assert len(seen) == PLAN_BUILDS["consolidate"]

    @pytest.mark.parametrize("app_key", sorted(a.key for a in all_apps()))
    def test_every_strategy(self, app_key):
        results = consolidate_all(get_app(app_key).annotated_source())
        assert {"warp", "block", "grid"} <= set(results)
        for result in results.values():
            _same_python(result)
