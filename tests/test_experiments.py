"""Experiment-harness tests: runner memoization and figure regeneration at
tiny scale (shape smoke tests; the full-scale claims live in benchmarks/)."""

import pytest

from repro.experiments import (
    ExperimentRunner,
    FIGURES,
    fig5_allocators,
    fig7_overall,
    fig8_warp_efficiency,
    fig10_dram,
)
from repro.experiments.reporting import PaperClaim, Table, bar_chart, geomean

SCALE = 0.2


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE)


class TestRunner:
    def test_memoization(self, runner):
        a = runner.run("spmv", "basic-dp")
        b = runner.run("spmv", "basic-dp")
        assert a is b

    def test_different_variants_not_shared(self, runner):
        a = runner.run("spmv", "basic-dp")
        b = runner.run("spmv", "no-dp")
        assert a is not b

    def test_allocator_in_key(self, runner):
        a = runner.run("spmv", "block-level", allocator="custom")
        b = runner.run("spmv", "block-level", allocator="default")
        assert a is not b

    def test_speedup_helper(self, runner):
        s = runner.speedup_over_basic("spmv", "grid-level")
        assert s > 1.0

    def test_runs_are_verified(self, runner):
        assert runner.run("spmv", "grid-level").checked


class TestReporting:
    def test_table_render_aligns(self):
        t = Table("T", ["a", "bb"], [[1.0, "x"], [2.5, "yy"]])
        text = t.render()
        assert "T" in text and "bb" in text and "2.50" in text

    def test_table_column(self):
        t = Table("T", ["a", "b"], [[1, 2], [3, 4]])
        assert t.column("b") == [2, 4]

    def test_bar_chart(self):
        text = bar_chart(["x", "longer"], [1.0, 10.0])
        assert "#" in text and "longer" in text

    def test_bar_chart_log(self):
        text = bar_chart(["a", "b"], [1.0, 1000.0], log=True)
        assert text.count("\n") == 1

    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([]) == 0.0

    def test_paper_claim_render(self):
        c = PaperClaim("x", "1", "2", False)
        assert "DIFF" in c.render()
        assert "OK" in PaperClaim("x", "1", "1", True).render()


class TestFigures:
    def test_fig5_shape(self, runner):
        table = fig5_allocators.compute(runner)
        assert table.columns == ["granularity", "default", "halloc",
                                 "pre-alloc", "no-dp"]
        assert len(table.rows) == 3
        # pre-alloc never loses to default at any granularity
        for row in table.rows:
            assert row[3] >= row[1] * 0.9

    def test_fig7_shape(self, runner):
        table = fig7_overall.compute(runner)
        assert len(table.rows) == 8
        apps = [row[0] for row in table.rows[:-1]]
        assert set(apps) == {"SSSP", "SpMV", "PR", "GC", "BFS-Rec", "TH", "TD"}
        for row in table.rows[:-1]:
            assert all(v > 1.0 for v in row[1:]), row

    def test_fig8_efficiency_ordering(self, runner):
        fig8_warp_efficiency.compute(runner)
        claims = fig8_warp_efficiency.claims(runner)
        assert claims[0].holds, claims[0].render()
        assert claims[1].holds, claims[1].render()

    def test_fig9_occupancy_improves(self, runner):
        # the full warp<block<grid ordering needs realistic dataset scale
        # (checked by benchmarks/bench_fig9_occupancy.py); at smoke scale we
        # require the scale-robust part: consolidation lifts occupancy and
        # grid-level lifts it the most
        from repro.apps import all_apps

        apps = [a.key for a in all_apps()]
        avg = {}
        for variant in ("basic-dp", "warp-level", "block-level", "grid-level"):
            vals = [runner.run(k, variant).metrics.achieved_occupancy
                    for k in apps]
            avg[variant] = sum(vals) / len(vals)
        assert avg["basic-dp"] < avg["warp-level"]
        assert avg["basic-dp"] < avg["block-level"]
        assert avg["grid-level"] == max(avg.values())

    def test_fig10_reduction(self, runner):
        table = fig10_dram.compute(runner)
        geo = table.rows[-1]
        assert all(v < 1.0 for v in geo[1:])

    def test_all_figures_registered(self):
        assert set(FIGURES) == {"fig5", "fig6", "fig7", "fig8", "fig9",
                                "fig10", "granularity"}

    def test_fig_main_renders(self, runner):
        text = fig5_allocators.main(runner)
        assert "Fig. 5" in text


class TestFig6:
    def test_fig6_without_exhaustive(self, runner):
        from repro.experiments import fig6_kernel_config

        table = fig6_kernel_config.compute(runner, exhaustive=False)
        assert len(table.rows) == 6
        col = table.columns.index
        for row in table.rows:
            # every KC config must beat basic-dp
            assert row[col("KC_1")] > 1.0

    def test_warm_regeneration_grows_no_tree(self, tmp_path, monkeypatch):
        """Fig. 6's tree datasets come through the workload registry, so
        a fresh runner over a filled store and dataset cache builds
        neither tree again."""
        from repro.experiments import ResultStore, fig6_kernel_config
        from repro.workloads import DatasetCache, generators

        store = ResultStore(tmp_path / "store")
        cache = DatasetCache(tmp_path / "datasets")

        def regenerate():
            fresh = ExperimentRunner(scale=0.05, store=store,
                                     dataset_cache=cache)
            fresh.prefetch(fig6_kernel_config.plan(fresh, exhaustive=False))
            return fresh, fig6_kernel_config.main(fresh, exhaustive=False)

        _, cold_text = regenerate()
        grown = []
        grow_tree = generators.grow_tree
        monkeypatch.setattr(generators, "grow_tree",
                            lambda *a, **kw: grown.append(a[0])
                            or grow_tree(*a, **kw))
        warm, warm_text = regenerate()
        assert grown == []
        assert warm.stats.executed == 0
        assert warm_text == cold_text
