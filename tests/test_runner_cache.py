"""Tests for the parallel, cache-backed experiment runner: value-based
cache keys, the content-addressed on-disk store, work-plan dedup, and
``--jobs N`` producing output identical to serial execution."""

import pickle

import pytest

from repro.experiments import (
    ExperimentRunner,
    FIGURES,
    ResultStore,
    RunSpec,
    WorkPlan,
    fig5_allocators,
    figure_plan,
)
from repro.experiments.store import dataset_fingerprint, run_key
from repro.sim.specs import CostModel, DEFAULT_COST_MODEL, K20C

SCALE = 0.15


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE)


class TestCostModelKeying:
    """The cache must key on cost-model *values*, not object identity
    (the seed used id(cost_obj), which misses sharing between equal
    models and can collide once the GC reuses an id)."""

    def test_equal_cost_models_share_entry(self, runner):
        a = runner.run("spmv", "basic-dp", cost=CostModel())
        b = runner.run("spmv", "basic-dp", cost=CostModel())
        assert a is b

    def test_default_cost_is_an_equal_value(self, runner):
        a = runner.run("spmv", "basic-dp")
        b = runner.run("spmv", "basic-dp", cost=CostModel())
        assert a is b

    def test_differing_cost_models_do_not_share(self, runner):
        a = runner.run("spmv", "basic-dp")
        b = runner.run("spmv", "basic-dp",
                       cost=DEFAULT_COST_MODEL.scaled(dram_transaction_cycles=41))
        assert a is not b

    def test_gc_id_reuse_cannot_collide(self, runner):
        """Run with a scaled cost model, drop it, build another scaled
        model (which may reuse the freed id), and check each keys its
        own entry."""
        before = runner.stats.executed
        cost1 = DEFAULT_COST_MODEL.scaled(atomic_cycles=13)
        run1 = runner.run("spmv", "no-dp", cost=cost1)
        del cost1
        cost2 = DEFAULT_COST_MODEL.scaled(atomic_cycles=14)
        run2 = runner.run("spmv", "no-dp", cost=cost2)
        assert run1 is not run2
        assert runner.stats.executed == before + 2

    def test_threshold_in_key(self, runner):
        a = runner.run("sssp", "grid-level", threshold=8)
        b = runner.run("sssp", "grid-level", threshold=32)
        c = runner.run("sssp", "grid-level")  # sssp's default is 8
        assert a is not b
        assert a is c


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        warm = ExperimentRunner(scale=SCALE, store=store)
        executed = warm.run("spmv", "grid-level")
        assert warm.stats.executed == 1
        assert len(store) == 1

        fresh = ExperimentRunner(scale=SCALE, store=store)
        recalled = fresh.run("spmv", "grid-level")
        assert fresh.stats.executed == 0
        assert fresh.stats.disk_hits == 1
        assert recalled.metrics.cycles == executed.metrics.cycles
        assert recalled.metrics.dram_transactions == \
            executed.metrics.dram_transactions
        assert (recalled.result == executed.result).all()
        assert recalled.checked == executed.checked

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        warm = ExperimentRunner(scale=SCALE, store=store)
        warm.run("spmv", "no-dp")
        entry = next(tmp_path.glob("*/*.pkl"))
        entry.write_bytes(b"not a pickle")

        fresh = ExperimentRunner(scale=SCALE, store=store)
        fresh.run("spmv", "no-dp")
        assert fresh.stats.executed == 1
        # the corrupt file was evicted and replaced by the re-execution
        assert pickle.load(next(tmp_path.glob("*/*.pkl")).open("rb"))

    def test_scale_changes_address(self, tmp_path):
        store = ResultStore(tmp_path)
        ExperimentRunner(scale=SCALE, store=store).run("spmv", "no-dp")
        other = ExperimentRunner(scale=0.2, store=store)
        other.run("spmv", "no-dp")
        assert other.stats.executed == 1  # different dataset -> different key

    def test_cost_fields_change_address(self):
        ds_fp = "0" * 64
        base = dict(app="spmv", variant="no-dp", allocator="custom",
                    config=None, dataset_fp=ds_fp, cost=DEFAULT_COST_MODEL,
                    spec=K20C, threshold=8, verify=True, version="1.0")
        k1 = run_key(**base)
        assert k1 == run_key(**base)
        k2 = run_key(**{**base, "cost": DEFAULT_COST_MODEL.scaled(swap_cycles=1)})
        assert k1 != k2

    def test_dataset_fingerprint_tracks_content(self):
        from repro.apps import get_app

        d1 = get_app("spmv").default_dataset(SCALE)
        d2 = get_app("spmv").default_dataset(SCALE)
        assert dataset_fingerprint(d1) == dataset_fingerprint(d2)
        d2.col_idx = d2.col_idx.copy()
        d2.col_idx[0] += 1
        assert dataset_fingerprint(d1) != dataset_fingerprint(d2)

    def test_clear_and_info(self, tmp_path):
        store = ResultStore(tmp_path)
        ExperimentRunner(scale=SCALE, store=store).run("spmv", "no-dp")
        assert len(store) == 1 and store.size_bytes() > 0
        assert store.clear() == 1
        assert len(store) == 0


class TestShardedLayout:
    """The store spreads writes over shard directories while reading
    the pre-shard flat layout transparently (DESIGN.md §13)."""

    KEY = "7f" + "e" * 62

    def test_put_lands_in_computed_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, {"v": 1})
        path = store.path_for(self.KEY)
        assert path.exists()
        assert path.parent.name == f"shard-{store.shard_for(self.KEY):02d}"
        assert store.get(self.KEY) == {"v": 1}

    def test_legacy_flat_entries_are_read(self, tmp_path):
        legacy = tmp_path / self.KEY[:2] / f"{self.KEY}.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(pickle.dumps({"v": "old"}))
        store = ResultStore(tmp_path)
        assert self.KEY in store
        assert store.get(self.KEY) == {"v": "old"}
        assert len(store) == 1

    @staticmethod
    def _backdate(path, seconds=60):
        import os
        import time

        old = time.time() - seconds
        os.utime(path, (old, old))

    def test_put_migrates_legacy_entry(self, tmp_path):
        legacy = tmp_path / self.KEY[:2] / f"{self.KEY}.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(pickle.dumps({"v": "old"}))
        self._backdate(legacy)
        store = ResultStore(tmp_path)
        store.put(self.KEY, {"v": "new"})
        assert not legacy.exists()
        assert len(store) == 1
        assert store.get(self.KEY) == {"v": "new"}

    def test_shard_info_counts_both_layouts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, {"v": 1})
        legacy_key = "1a" + "b" * 62
        legacy = tmp_path / legacy_key[:2] / f"{legacy_key}.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(pickle.dumps({"v": "old"}))
        info = store.shard_info()
        assert info["sharded_entries"] == 1
        assert info["legacy_entries"] == 1
        assert info["populated"] == 1
        assert len(store) == 2
        assert store.clear() == 2

    def test_cache_info_cli_reports_layout(self, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path)
        store.put(self.KEY, {"v": 1})
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "16 shards" in out
        assert "entries   : 1" in out


class TestMissingCacheDir:
    """Regression: ``repro cache info`` on a --cache-dir that does not
    exist must report an empty cache, not raise (and must not create
    the directory as a side effect — only ``put`` may)."""

    def test_cache_info_cli_reports_empty(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "never" / "created"
        assert main(["cache", "info", "--cache-dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert not missing.exists()

    def test_cache_clear_cli_on_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope"
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert not missing.exists()

    def test_reads_do_not_create_directory(self, tmp_path):
        missing = tmp_path / "sub" / "cache"
        store = ResultStore(missing)
        assert len(store) == 0
        assert store.size_bytes() == 0
        assert store.get("0" * 64) is None
        assert "0" * 64 not in store
        assert store.clear() == 0
        assert not missing.exists()

    def test_first_put_creates_directory(self, tmp_path):
        missing = tmp_path / "sub" / "cache"
        runner = ExperimentRunner(scale=SCALE, store=ResultStore(missing))
        runner.run("spmv", "no-dp")
        assert missing.is_dir()
        assert len(runner.store) == 1


class TestRegisteredDatasets:
    def test_reregistering_a_name_drops_its_runs(self):
        """Re-registering a dataset name must not serve the old
        dataset's memoized run (a memory hit would also skip verify);
        runs on other names stay cached."""
        from repro.apps import get_app

        app = get_app("sssp")
        small, large = app.default_dataset(0.08), app.default_dataset(0.15)
        runner = ExperimentRunner(scale=SCALE)
        runner.register_dataset("sssp", "d", small)
        runner.register_dataset("sssp", "other", small)
        first = runner.run("sssp", "basic-dp", dataset="d")
        kept = runner.run("sssp", "basic-dp", dataset="other")
        spec = runner.resolve(RunSpec("sssp", "basic-dp", dataset="d"))
        old_key = runner._content_key(spec)
        runner.register_dataset("sssp", "d", large)
        second = runner.run("sssp", "basic-dp", dataset="d")
        assert runner.stats.executed == 3
        assert len(first.result) == small.num_nodes
        assert len(second.result) == large.num_nodes != small.num_nodes
        assert second.checked
        assert runner.run("sssp", "basic-dp", dataset="other") is kept
        # the memoized key went with the dataset it addressed
        fresh = ExperimentRunner(scale=SCALE)
        fresh.register_dataset("sssp", "d", large)
        assert runner._content_key(spec) == \
            fresh._content_key(fresh.resolve(spec)) != old_key


class TestIdentityMemos:
    """A runner memoizes each spec's resolution and each resolved spec's
    content key for its own lifetime (DESIGN.md §8)."""

    def test_tuned_spec_follows_the_registry(self, tmp_path):
        """A 'tuned' spec is resolved afresh each time: re-tuning under a
        live runner changes what it runs."""
        from repro import __version__
        from repro.tuning import TunedConfig, TunedConfigRegistry
        from repro.tuning.registry import tuned_key
        from repro.tuning.space import Candidate

        registry = TunedConfigRegistry(tmp_path / "tuned.json")
        runner = ExperimentRunner(scale=SCALE, tuned=registry)
        key = tuned_key(app="sssp", objective="cycles", spec=runner.spec,
                        cost=runner.cost, scale=SCALE, verify=True,
                        version=__version__)
        spec = RunSpec("sssp", "tuned")
        for strategy, threshold, variant in (("warp", 2, "warp-level"),
                                             ("grid", 4, "grid-level")):
            registry.put(key, TunedConfig(
                app="sssp", objective="cycles",
                candidate=Candidate(strategy=strategy, threshold=threshold),
                value=1.0, baseline_value=2.0, algorithm="grid",
                evaluations=1, scale=SCALE, device=K20C.name,
                version=__version__))
            resolved = runner.resolve(spec)
            assert (resolved.variant, resolved.threshold) == \
                (variant, threshold)

    def test_trim_memory_empties_the_memos(self):
        runner = ExperimentRunner(scale=SCALE)
        runner._content_key(runner.resolve(RunSpec("spmv", "grid-level")))
        assert runner._resolutions and runner._keys
        runner.trim_memory()
        assert not runner._resolutions and not runner._keys


class TestWorkPlans:
    def test_dedupe_preserves_order(self):
        a = RunSpec("spmv", "basic-dp")
        b = RunSpec("spmv", "no-dp")
        plan = WorkPlan([a, b, a, b, a])
        assert list(plan) == [a, b]

    def test_union_across_figures_dedupes(self, runner):
        p8 = FIGURES["fig8"].plan(runner)
        p9 = FIGURES["fig9"].plan(runner)
        assert set(p8) == set(p9)
        assert len(figure_plan(["fig8", "fig9"], runner)) == len(p8)

    def test_fig7_plan_covers_fig8(self, runner):
        p7 = set(FIGURES["fig7"].plan(runner))
        assert set(FIGURES["fig8"].plan(runner)) <= p7

    def test_plans_are_complete(self):
        """After prefetching a figure's plan, rendering it must not
        execute a single additional run."""
        for fig in ("fig5", "fig10"):
            r = ExperimentRunner(scale=SCALE)
            r.prefetch(FIGURES[fig].plan(r))
            before = r.stats.executed
            FIGURES[fig].main(r)
            assert r.stats.executed == before, fig


class TestParallelPrefetch:
    def test_jobs2_output_identical_to_serial(self):
        serial = ExperimentRunner(scale=SCALE)
        expected = fig5_allocators.main(serial)

        parallel = ExperimentRunner(scale=SCALE)
        stats = parallel.prefetch(fig5_allocators.plan(parallel), jobs=2)
        assert stats.executed == len(fig5_allocators.plan(parallel))
        got = fig5_allocators.main(parallel)
        assert got == expected

    def test_prefetch_skips_cached(self, runner):
        runner.run("spmv", "basic-dp")
        stats = runner.prefetch(WorkPlan([RunSpec("spmv", "basic-dp")]),
                                jobs=2)
        assert stats.executed == 0

    def test_parallel_results_persist_to_store(self, tmp_path):
        store = ResultStore(tmp_path)
        r = ExperimentRunner(scale=SCALE, store=store)
        plan = WorkPlan([RunSpec("spmv", "basic-dp"),
                         RunSpec("spmv", "no-dp"),
                         RunSpec("spmv", "grid-level")])
        r.prefetch(plan, jobs=2)
        assert len(store) == 3


class TestWarmStartSkipsAllRuns:
    def test_second_invocation_executes_nothing(self, tmp_path):
        """Acceptance: a warm-cache figure regeneration runs zero
        simulations and produces identical output."""
        store = ResultStore(tmp_path)
        cold = ExperimentRunner(scale=SCALE, store=store)
        cold.prefetch(fig5_allocators.plan(cold), jobs=2)
        cold_text = fig5_allocators.main(cold)
        assert cold.stats.executed > 0

        warm = ExperimentRunner(scale=SCALE, store=store)
        warm.prefetch(fig5_allocators.plan(warm), jobs=2)
        warm_text = fig5_allocators.main(warm)
        assert warm.stats.executed == 0
        assert warm_text == cold_text
