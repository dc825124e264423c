"""Tests for the workload subsystem: registry + canonicalization,
generator/loader structural properties (hypothesis), golden-file loader
checks, the dataset cache, the workload axis through the runner and
tuner, cache-key backward compatibility, and the sensitivity harness."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_app
from repro.data.structures import Graph, Tree
from repro.experiments import ExperimentRunner, RunSpec, WorkPlan
from repro.experiments.store import STORE_FORMAT, run_key
from repro.sim.specs import DEFAULT_COST_MODEL, K20C
from repro.workloads import (
    DatasetCache,
    WorkloadSpec,
    available_workloads,
    canonical_workload,
    dataset_key,
    get_workload,
    incompatibility,
    materialize,
    parse_workload,
    register_workload,
    unregister_workload,
)
from repro.workloads.loaders import (
    load_dimacs_gr,
    load_graph,
    load_matrix_market,
    load_snap_edgelist,
)

FIXTURES = Path(__file__).parent / "fixtures"
SCALE = 0.12

#: one representative scale per generator property check keeps the
#: hypothesis sweep fast while still fuzzing the scaling path
GEN_SCALES = st.floats(0.1, 1.0)


class TestRegistry:
    def test_builtin_workloads_present(self):
        names = available_workloads()
        for expected in ("citeseer", "kron", "uniform", "road", "star",
                         "chain", "bimodal", "tree1", "tree2",
                         "tree-skewed", "tree-balanced", "tree-deep",
                         "usa-tiny"):
            assert expected in names

    def test_kind_filter(self):
        trees = available_workloads("tree")
        assert "tree1" in trees and "citeseer" not in trees

    def test_unknown_workload_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            get_workload("nope")

    def test_register_requires_spec(self):
        with pytest.raises(TypeError):
            register_workload("not-a-spec")

    def test_duplicate_rejected_unless_replace(self):
        spec = get_workload("star")
        with pytest.raises(ValueError, match="already registered"):
            register_workload(spec)
        register_workload(spec, replace=True)  # no-op

    def test_plugin_workload_end_to_end(self):
        """A registered plugin workload is immediately runnable through
        the experiment runner, like plugin strategies/searches."""
        from repro.workloads.generators import uniform_graph

        spec = WorkloadSpec(
            "plugin-test", "graph", "registry plug-in",
            lambda scale, seed: uniform_graph(scale, seed=seed),
            defaults={"seed": 77})
        register_workload(spec)
        try:
            runner = ExperimentRunner(scale=SCALE)
            run = runner.run("sssp", "basic-dp",
                             workload="plugin-test(seed=78)")
            assert run.checked
            assert run.dataset.startswith("uniform")
        finally:
            unregister_workload("plugin-test")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            WorkloadSpec("x", "matrix", "bad", lambda scale: None)


class TestImportOrder:
    def test_workloads_importable_first(self):
        """Regression: importing repro.workloads before anything else
        must not trip the workloads <-> experiments import cycle."""
        import subprocess
        import sys

        for mod in ("repro.workloads", "repro.workloads.loaders",
                    "repro.workloads.cache"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import {mod}"],
                capture_output=True, text=True)
            assert proc.returncode == 0, (mod, proc.stderr)


class TestCanonicalization:
    def test_parse_forms(self):
        assert parse_workload("star") == ("star", {})
        assert parse_workload("citeseer(seed=9)") == ("citeseer",
                                                      {"seed": 9})
        name, params = parse_workload("bimodal(high=64, low=2)")
        assert name == "bimodal" and params == {"high": 64, "low": 2}

    def test_malformed_rejected(self):
        for bad in ("", "a b", "star(seed)", "star(=3)",
                    "star(seed=abc)", "citeseer(seed=1))"):
            with pytest.raises(ValueError):
                parse_workload(bad)

    def test_defaults_collapse(self):
        assert canonical_workload("citeseer(seed=1)") == "citeseer"
        assert canonical_workload("uniform(avg_degree=8,seed=3)") == \
            "uniform"

    def test_params_sorted_and_kept(self):
        assert canonical_workload("bimodal(low=2,high=64)") == \
            canonical_workload("bimodal(high=64,low=2)") == \
            "bimodal(high=64,low=2)"

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            canonical_workload("star(fanout=3)")

    def test_app_defaults_are_canonical(self):
        """Every app's default_workload reference must already be in
        canonical form (the fold-onto-None comparison depends on it)."""
        from repro.apps import all_apps

        for app in all_apps():
            assert canonical_workload(app.default_workload) == \
                app.default_workload, app.key


class TestGeneratorProperties:
    """Every registered generator produces a structurally valid dataset
    at any scale, honouring its declared symmetry and the block-launch
    degree cap."""

    @pytest.mark.parametrize("name", [
        n for n in available_workloads()
        if get_workload(n).source is None])
    @given(scale=GEN_SCALES)
    @settings(max_examples=3, deadline=None)
    def test_valid_and_declared_properties(self, name, scale):
        spec = get_workload(name)
        dataset = spec.build(scale)
        dataset.validate()  # CSR monotonicity / tree multiplicity
        if spec.kind == "graph":
            assert isinstance(dataset, Graph)
            if dataset.num_edges:
                # basic-dp children launch <<<1, deg>>>: one block max
                assert dataset.degrees.max() <= 1023
            if spec.symmetric:
                src = np.repeat(np.arange(dataset.num_nodes),
                                np.diff(dataset.row_ptr))
                fwd = set(zip(src.tolist(), dataset.col_idx.tolist()))
                assert fwd == {(b, a) for a, b in fwd}
        else:
            assert isinstance(dataset, Tree)
            fanout = np.diff(dataset.child_ptr)
            assert fanout.max() <= 1023

    @pytest.mark.parametrize("name", ["road", "star", "chain", "bimodal"])
    def test_deterministic(self, name):
        a = materialize(name, 0.3)
        b = materialize(name, 0.3)
        arrays = [f.name for f in dataclasses.fields(a)
                  if isinstance(getattr(a, f.name), np.ndarray)]
        for field in arrays:
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_builder_bounds_rejected_cleanly(self):
        """Exposed numeric knobs at silly values raise ValueError (the
        CLI's clean-error path), never raw numpy/index errors."""
        with pytest.raises(ValueError, match="depth"):
            materialize("chain(depth=0)", 0.2)
        with pytest.raises(ValueError, match="hub"):
            materialize("star(hubs=0)", 0.2)
        with pytest.raises(ValueError, match="modes"):
            materialize("bimodal(low=0)", 0.2)
        # an oversized high mode clamps to the block limit, not a crash
        g = materialize("bimodal(high=2048)", 0.2)
        assert g.degrees.max() <= 1023

    def test_bimodal_is_bimodal(self):
        g = materialize("bimodal", 0.5)
        d = g.degrees
        assert (d > 64).sum() > 0 and (d <= 8).sum() > len(d) // 2

    def test_road_is_mostly_low_degree(self):
        g = materialize("road", 0.5)
        d = g.degrees
        assert np.median(d) <= 4 and d.max() > 8

    def test_tree_balanced_has_one_fanout(self):
        t = materialize("tree-balanced", 0.5)
        fanout = np.diff(t.child_ptr)
        assert len(set(fanout[fanout > 0].tolist())) == 1

    def test_tree_deep_is_deeper(self):
        assert materialize("tree-deep", 0.3).depth > \
            materialize("tree1", 0.3).depth


class TestLoaderGoldenFiles:
    """Hand-checked expectations for the tiny checked-in fixtures, in
    plain and gzipped form."""

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_dimacs_gr(self, suffix):
        g = load_dimacs_gr(FIXTURES / f"tiny.gr{suffix}")
        g.validate()
        assert g.num_nodes == 4 and g.num_edges == 6
        assert g.row_ptr.tolist() == [0, 2, 3, 5, 6]
        assert g.col_idx.tolist() == [1, 2, 2, 0, 3, 0]
        assert g.weights.tolist() == [3, 9, 1, 9, 2, 5]

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_matrix_market_symmetric(self, suffix):
        g = load_matrix_market(FIXTURES / f"tiny.mtx{suffix}")
        g.validate()
        assert g.num_nodes == 4 and g.num_edges == 8  # mirrored
        assert g.row_ptr.tolist() == [0, 2, 4, 6, 8]
        assert g.col_idx.tolist() == [1, 3, 0, 2, 1, 3, 0, 2]
        assert g.weights.tolist() == [5, 2, 5, 7, 7, 1, 2, 1]
        assert g.weights.dtype == np.int32  # integer field

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_snap_edgelist_compacts_ids(self, suffix):
        g = load_snap_edgelist(FIXTURES / f"tiny_edges.txt{suffix}")
        g.validate()
        assert g.num_nodes == 4  # ids {0,1,2,5} compacted
        assert g.row_ptr.tolist() == [0, 1, 2, 3, 4]
        assert g.col_idx.tolist() == [1, 2, 0, 2]
        assert g.weights.tolist() == [1, 1, 1, 1]

    def test_dispatch_by_suffix(self):
        assert load_graph(FIXTURES / "tiny.gr.gz").num_edges == 6
        assert load_graph(FIXTURES / "tiny.mtx").num_edges == 8
        assert load_graph(FIXTURES / "tiny_edges.txt").num_edges == 4

    def test_gzip_sniffed_by_magic_not_name(self, tmp_path):
        """A gzipped file without the .gz suffix still loads."""
        disguised = tmp_path / "tiny.gr"
        disguised.write_bytes((FIXTURES / "tiny.gr.gz").read_bytes())
        assert load_dimacs_gr(disguised).num_edges == 6

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.gr"
        bad.write_text("a 1 2 3\n")
        with pytest.raises(ValueError, match="p sp"):
            load_dimacs_gr(bad)
        bad = tmp_path / "bad.mtx"
        bad.write_text("1 1 0\n")
        with pytest.raises(ValueError, match="MatrixMarket"):
            load_matrix_market(bad)

    def test_complex_field_rejected(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex "
                        "general\n2 2 1\n1 2 3.7 1.5\n")
        with pytest.raises(ValueError, match="complex"):
            load_matrix_market(path)

    def test_skew_symmetric_mirrors_negated(self, tmp_path):
        path = tmp_path / "skew.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real "
                        "skew-symmetric\n3 3 2\n2 1 4.0\n3 2 1.5\n")
        g = load_matrix_market(path)
        got = dict(zip(zip(
            np.repeat(np.arange(3), np.diff(g.row_ptr)).tolist(),
            g.col_idx.tolist()), g.weights.tolist()))
        assert got[(1, 0)] == 4.0 and got[(0, 1)] == -4.0
        assert got[(2, 1)] == 1.5 and got[(1, 2)] == -1.5

    def test_usa_tiny_workload_registered(self):
        spec = get_workload("usa-tiny")
        assert spec.symmetric and spec.source is not None
        g = materialize("usa-tiny", 1.0)
        assert g.num_nodes == 16 and g.num_edges == 38


class TestLoaderRoundTrip:
    """Property: a random edge set written in each format loads back to
    a validating Graph with the same edges."""

    @given(edges=st.lists(st.tuples(st.integers(0, 11),
                                    st.integers(0, 11),
                                    st.integers(1, 9)),
                          min_size=1, max_size=40))
    @settings(max_examples=15, deadline=None)
    def test_dimacs_round_trip(self, tmp_path_factory, edges):
        tmp = tmp_path_factory.mktemp("rt")
        n = 12
        path = tmp / "g.gr"
        lines = [f"p sp {n} {len(edges)}"]
        lines += [f"a {u + 1} {v + 1} {w}" for u, v, w in edges]
        path.write_text("\n".join(lines) + "\n")
        g = load_dimacs_gr(path)
        g.validate()
        assert g.num_nodes == n
        got = sorted(zip(
            np.repeat(np.arange(n), np.diff(g.row_ptr)).tolist(),
            g.col_idx.tolist(), g.weights.tolist()))
        assert got == sorted(edges)

    @given(edges=st.lists(st.tuples(st.integers(0, 9),
                                    st.integers(0, 9)),
                          min_size=1, max_size=30, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_edgelist_round_trip(self, tmp_path_factory, edges):
        tmp = tmp_path_factory.mktemp("rt")
        path = tmp / "g.txt"
        path.write_text("# header\n" +
                        "".join(f"{u} {v}\n" for u, v in edges))
        g = load_snap_edgelist(path)
        g.validate()
        ids = sorted({x for e in edges for x in e})
        remap = {x: i for i, x in enumerate(ids)}
        got = sorted(zip(
            np.repeat(np.arange(g.num_nodes),
                      np.diff(g.row_ptr)).tolist(),
            g.col_idx.tolist()))
        assert got == sorted((remap[u], remap[v]) for u, v in edges)


class TestDatasetCache:
    def test_materialize_through_cache(self, tmp_path):
        cache = DatasetCache(tmp_path)
        a = materialize("star", 0.2, cache=cache)
        assert len(cache) == 1
        b = materialize("star", 0.2, cache=cache)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert len(cache) == 1

    def test_key_tracks_params_and_scale(self):
        spec = get_workload("star")
        base = dataset_key(spec, spec.resolve_params(), 0.5)
        assert base == dataset_key(spec, spec.resolve_params(), 0.5)
        assert base != dataset_key(spec, spec.resolve_params(), 0.6)
        assert base != dataset_key(
            spec, spec.resolve_params({"hubs": 3}), 0.5)

    def test_file_workload_key_tracks_content_not_scale(self, tmp_path):
        from repro.workloads.loaders import file_workload

        path = tmp_path / "a.gr"
        path.write_text("p sp 2 1\na 1 2 1\n")
        spec = file_workload("tmp-file", path, description="t")
        k1 = dataset_key(spec, {}, 0.5)
        assert k1 == dataset_key(spec, {}, 1.0)  # scale is ignored
        path.write_text("p sp 2 2\na 1 2 1\na 2 1 1\n")
        assert dataset_key(spec, {}, 0.5) != k1  # content is not

    def test_cache_clear_reports_count(self, tmp_path):
        cache = DatasetCache(tmp_path)
        materialize("star", 0.2, cache=cache)
        materialize("chain", 0.2, cache=cache)
        assert cache.clear() == 2 and len(cache) == 0


def _legacy_pr3_run_key(**kw):
    """The exact PR-3 run_key payload, frozen for the byte-compat
    regression below (see run_key's docstring + DESIGN.md §12)."""
    payload = {
        "format": STORE_FORMAT,
        "version": kw["version"],
        "app": kw["app"],
        "variant": kw["variant"],
        "strategy": kw["strategy"],
        "allocator": kw["allocator"],
        "config": list(kw["config"]) if kw["config"] is not None else None,
        "dataset": kw["dataset_fp"],
        "cost": dataclasses.asdict(kw["cost"]),
        "spec": dataclasses.asdict(kw["spec"]),
        "threshold": kw["threshold"],
        "verify": kw["verify"],
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestRunnerWorkloadAxis:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(scale=SCALE)

    def test_default_workload_folds_onto_none(self, runner):
        a = runner.run("sssp", "basic-dp")
        b = runner.run("sssp", "basic-dp", workload="citeseer")
        c = runner.run("sssp", "basic-dp", workload="citeseer(seed=1)")
        assert a is b is c
        assert runner.run("spmv", "basic-dp") is \
            runner.run("spmv", "basic-dp", workload="citeseer(seed=21)")

    def test_spellings_of_one_workload_share_entry(self, runner):
        a = runner.run("sssp", "basic-dp", workload="star")
        b = runner.run("sssp", "basic-dp",
                       workload="star(hubs=2,seed=5)")
        assert a is b

    def test_run_keys_byte_identical_when_workload_omitted(self):
        """Acceptance regression: with no workload, run keys must equal
        the PR-3 formula byte for byte (existing caches stay valid)."""
        kw = dict(app="sssp", variant="grid-level", allocator="custom",
                  config=None, dataset_fp="f" * 64,
                  cost=DEFAULT_COST_MODEL, spec=K20C, threshold=8,
                  verify=True, version="1.0.0", strategy=None)
        assert run_key(**kw) == _legacy_pr3_run_key(**kw)
        assert run_key(workload=None, **kw) == _legacy_pr3_run_key(**kw)
        assert run_key(workload="star", **kw) != _legacy_pr3_run_key(**kw)

    def test_workload_and_dataset_are_exclusive(self, runner):
        with pytest.raises(ValueError, match="not both"):
            runner.run_spec(RunSpec("sssp", "basic-dp",
                                    dataset="x", workload="star"))
        # checked on the raw field: sssp's own default workload folds
        # onto None, but naming it beside a dataset still contradicts
        with pytest.raises(ValueError, match="not both"):
            runner.run_spec(RunSpec("sssp", "basic-dp",
                                    dataset="d", workload="citeseer"))

    def test_kind_and_symmetry_guards(self, runner):
        with pytest.raises(ValueError, match="tree dataset"):
            runner.run("sssp", "basic-dp", workload="tree1")
        with pytest.raises(ValueError, match="symmetric"):
            runner.run("gc", "basic-dp", workload="bimodal")

    def test_depth_guard_for_level_recursion(self, runner):
        assert incompatibility(get_app("bfs_rec"),
                               get_workload("chain")) is not None
        with pytest.raises(ValueError, match="nesting"):
            runner.run("bfs_rec", "basic-dp", workload="chain")

    def test_default_dataset_goes_through_cache(self, tmp_path):
        """Review fix: the app-default workload (the most common
        dataset) must hit the dataset cache too, not only named ones."""
        cache = DatasetCache(tmp_path)
        runner = ExperimentRunner(scale=SCALE, dataset_cache=cache)
        runner.dataset("sssp")
        assert len(cache) == 1
        fresh = ExperimentRunner(scale=SCALE, dataset_cache=cache)
        d = fresh.dataset("sssp")
        assert len(cache) == 1  # served from the cache, not regenerated
        assert np.array_equal(d.col_idx, runner.dataset("sssp").col_idx)

    def test_canonical_for_app_shared_rule(self):
        from repro.workloads import canonical_for_app

        app = get_app("spmv")
        assert canonical_for_app(app, None) is None
        assert canonical_for_app(app, "citeseer(seed=21)") is None
        assert canonical_for_app(app, "star(seed=5)") == "star"

    def test_workload_runs_persist_and_warm_start(self, tmp_path):
        from repro.experiments import ResultStore

        store = ResultStore(tmp_path)
        cache = DatasetCache(tmp_path / "datasets")
        cold = ExperimentRunner(scale=SCALE, store=store,
                                dataset_cache=cache)
        cold.run("sssp", "grid-level", workload="bimodal")
        assert cold.stats.executed == 1
        assert len(cache) == 1  # the materialized bimodal graph

        warm = ExperimentRunner(scale=SCALE, store=store,
                                dataset_cache=cache)
        warm.run("sssp", "grid-level", workload="bimodal")
        assert warm.stats.executed == 0
        assert warm.stats.disk_hits == 1

    def test_parallel_prefetch_with_workloads(self):
        runner = ExperimentRunner(scale=SCALE)
        plan = WorkPlan([
            RunSpec("sssp", "basic-dp", workload="star"),
            RunSpec("sssp", "grid-level", workload="star"),
            RunSpec("sssp", "basic-dp", workload="road"),
        ])
        stats = runner.prefetch(plan, jobs=2)
        assert stats.executed == 3
        assert runner.run("sssp", "basic-dp", workload="star").checked

    def test_six_workloads_run_including_fixture(self):
        """Acceptance: >= 6 registered workloads run end to end for one
        app x variant, one of them loaded from a checked-in file."""
        runner = ExperimentRunner(scale=SCALE)
        for ref in ("citeseer", "uniform", "road", "star", "chain",
                    "bimodal", "usa-tiny"):
            run = runner.run("sssp", "consolidated", workload=ref)
            assert run.checked, ref


class TestTunedWorkloadAxis:
    def test_tuned_key_back_compat(self):
        from repro.tuning.registry import tuned_key

        kw = dict(app="sssp", objective="cycles", spec=K20C,
                  cost=DEFAULT_COST_MODEL, scale=0.5, verify=True,
                  version="1.0.0")
        assert tuned_key(**kw) == tuned_key(workload=None, **kw)
        assert tuned_key(workload="star", **kw) != tuned_key(**kw)

    def test_tuned_config_round_trips_without_workload(self):
        from repro.tuning import Candidate, TunedConfig

        old_style = {
            "app": "sssp", "objective": "cycles",
            "candidate": {"strategy": None, "threshold": None,
                          "kc_x": None, "threads": None, "one2one": False},
            "value": 1.0, "baseline_value": 1.0, "algorithm": "grid",
            "evaluations": 1, "scale": 0.5, "device": "K20c",
            "version": "1.0.0",
        }
        config = TunedConfig.from_json(old_style)
        assert config.workload is None
        assert config.candidate == Candidate()
        again = TunedConfig.from_json(config.to_json())
        assert again == config

    def test_lookup_filters_by_workload(self, tmp_path):
        from repro.tuning import Candidate, TunedConfig, TunedConfigRegistry

        reg = TunedConfigRegistry(tmp_path / "tuned.json")

        def entry(workload, value):
            return TunedConfig(
                app="sssp", objective="cycles", candidate=Candidate(),
                value=value, baseline_value=value, algorithm="grid",
                evaluations=1, scale=0.5, device="K20c",
                version="1.0.0", workload=workload)

        reg.put("k1", entry(None, 100.0))
        reg.put("k2", entry("star", 50.0))
        assert reg.lookup("sssp", "cycles").workload is None
        assert reg.lookup("sssp", "cycles",
                          workload="star").workload == "star"
        assert reg.lookup("sssp", "cycles", workload="road") is None

    def test_tune_and_consume_per_workload(self, tmp_path):
        """End to end: tune on a workload, then the 'tuned' variant with
        the same workload resolves the per-workload entry."""
        from repro.tuning import (ConfigChoice, Tuner,
                                  TunedConfigRegistry, TuningSpace)

        registry = TunedConfigRegistry(tmp_path / "tuned.json")
        space = TuningSpace(strategies=(None, "warp"),
                            thresholds=(None,),
                            configs=(ConfigChoice(),))
        tuner = Tuner(scale=SCALE, registry=registry)
        result = tuner.tune("sssp", algorithm="grid", space=space,
                            workload="star")
        assert result.config.workload == "star"
        # the default-workload slot stays empty: nothing shadows it
        assert registry.lookup("sssp", "cycles") is None

        runner = ExperimentRunner(scale=SCALE, tuned=registry)
        run = runner.run("sssp", "tuned", workload="star")
        assert run.checked
        with pytest.raises(KeyError, match="workload"):
            runner.run("sssp", "tuned", workload="road")

    def test_default_workload_tunes_as_none(self, tmp_path):
        from repro.tuning import (ConfigChoice, Tuner,
                                  TunedConfigRegistry, TuningSpace)

        registry = TunedConfigRegistry(tmp_path / "tuned.json")
        space = TuningSpace(strategies=(None,), thresholds=(None,),
                            configs=(ConfigChoice(),))
        tuner = Tuner(scale=SCALE, registry=registry)
        result = tuner.tune("sssp", algorithm="grid", space=space,
                            workload="citeseer(seed=1)")
        assert result.config.workload is None


class TestSensitivity:
    def test_workloads_for_respects_requirements(self):
        from repro.experiments import input_sensitivity as sens

        sssp = sens.workloads_for(get_app("sssp"))
        assert sssp == [None, "road", "star", "chain", "bimodal"]
        bfs = sens.workloads_for(get_app("bfs_rec"))
        assert bfs == [None, "star"]  # symmetric + shallow only
        th = sens.workloads_for(get_app("th"))
        assert th == [None, "tree-skewed", "tree-balanced", "tree-deep"]

    def test_paper_granularity_parsed_from_pragma(self):
        from repro.experiments import input_sensitivity as sens

        assert sens.paper_granularity(get_app("sssp")) == "grid"

    def test_plan_covers_basic_plus_strategies(self):
        from repro.compiler.strategies import available_strategies
        from repro.experiments import input_sensitivity as sens

        runner = ExperimentRunner(scale=SCALE)
        plan = sens.plan(runner, apps=["bfs_rec"])
        per_workload = 1 + len(available_strategies())
        assert len(plan) == 2 * per_workload

    def test_compute_one_app(self):
        from repro.experiments import input_sensitivity as sens

        runner = ExperimentRunner(scale=SCALE)
        runner.prefetch(sens.plan(runner, apps=["th"]), jobs=2)
        before = runner.stats.executed
        table = sens.compute(runner, apps=["th"])
        assert runner.stats.executed == before  # plan was complete
        assert len(table.rows) == 4
        assert table.rows[0][1].endswith("(default)")
        for claim in sens.claims(table):
            assert claim.render()


class TestWorkloadCli:
    def test_workloads_list(self, capsys):
        from repro.cli import main

        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        assert "usa-tiny" in out and "file-backed" in out
        assert "[default for pagerank, spmv, sssp]" in out

    def test_workloads_info(self, capsys):
        from repro.cli import main

        assert main(["workloads", "info", "star(hubs=3)"]) == 0
        out = capsys.readouterr().out
        assert "canonical : star(hubs=3)" in out

    def test_workloads_gen_and_cache(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["workloads", "gen", "usa-tiny",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "16 nodes" in out and "cached under" in out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "datasets  : 1 cached" in capsys.readouterr().out

    def test_workloads_gen_requires_name(self, capsys):
        from repro.cli import main

        assert main(["workloads", "gen"]) == 2
        assert "needs a workload" in capsys.readouterr().err

    def test_workloads_unknown_name_errors(self, capsys):
        from repro.cli import main

        assert main(["workloads", "info", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_run_with_workload_warm_start(self, capsys, tmp_path):
        from repro.cli import main

        args = ["run", "sssp", "consolidated", "--workload", "usa-tiny",
                "--scale", "0.1", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "1 executed" in cold and "usa-tiny" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert ": 0 executed" in warm

    def test_run_incompatible_workload_errors(self, capsys):
        from repro.cli import main

        assert main(["run", "gc", "basic-dp", "--workload", "bimodal",
                     "--scale", "0.1"]) == 2
        assert "symmetric" in capsys.readouterr().err

    def test_sensitivity_command(self, capsys):
        from repro.cli import main

        assert main(["sensitivity", "--apps", "bfs_rec",
                     "--scale", "0.12", "--no-cache", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Input sensitivity" in out
        assert "star" in out

    def test_tune_incompatible_workload_errors_cleanly(self, capsys):
        from repro.cli import main

        assert main(["tune", "sssp", "--workload", "tree1",
                     "--scale", "0.1", "--no-cache"]) == 2
        assert "tree dataset" in capsys.readouterr().err

    def test_sensitivity_unknown_app_errors_cleanly(self, capsys):
        from repro.cli import main

        assert main(["sensitivity", "--apps", "nope", "--scale", "0.1",
                     "--no-cache"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_workloads_list_tags_parameterized_defaults(self, capsys):
        from repro.cli import main

        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        kron_line = next(line for line in out.splitlines()
                         if line.startswith("kron "))
        assert "default for" in kron_line  # gc + bfs_rec use kron(seed=N)

    def test_list_shows_workloads(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "workloads" in capsys.readouterr().out
