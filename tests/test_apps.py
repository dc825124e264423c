"""Application correctness tests: every benchmark, every variant, verified
against its NumPy/SciPy reference at a small dataset scale.

The full-scale variant matrix is the benchmark harness's job; these tests
keep each run under ~2s. The *consolidated variants here execute code
generated by the compiler*, so this doubles as an end-to-end check of the
whole pipeline per app.
"""

import numpy as np
import pytest

from repro.apps import BASIC, BLOCK, FLAT, GRID, VARIANTS, WARP, all_apps, get_app
from repro.experiments import RunSpec

SCALE = 0.25

APP_KEYS = [a.key for a in all_apps()]


@pytest.fixture(scope="module")
def datasets():
    return {key: get_app(key).default_dataset(SCALE) for key in APP_KEYS}


class TestRegistry:
    def test_seven_benchmarks(self):
        assert len(all_apps()) == 7
        assert set(APP_KEYS) == {"sssp", "spmv", "pagerank", "gc", "bfs_rec",
                                 "th", "td"}

    def test_labels_match_paper(self):
        labels = {a.label for a in all_apps()}
        assert labels == {"SSSP", "SpMV", "PR", "GC", "BFS-Rec", "TH", "TD"}

    def test_annotated_sources_carry_pragma(self):
        for app in all_apps():
            assert "#pragma dp" in app.annotated_source()

    def test_flat_sources_have_no_dp(self):
        for app in all_apps():
            assert "<<<" not in app.flat_source()


@pytest.mark.parametrize("key", APP_KEYS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_correct(key, variant, datasets):
    app = get_app(key)
    run = app.run(RunSpec(app.key, variant), dataset=datasets[key])
    assert run.checked
    if variant in (WARP, BLOCK, GRID):
        assert run.report is not None
        assert run.report.granularity in variant
        assert run.report.consolidated_kernel.endswith(run.report.granularity)


@pytest.mark.parametrize("key", APP_KEYS)
def test_consolidation_reduces_launches(key, datasets):
    app = get_app(key)
    basic = app.run(RunSpec(app.key, BASIC), dataset=datasets[key])
    grid = app.run(RunSpec(app.key, GRID), dataset=datasets[key])
    assert grid.metrics.device_launches < basic.metrics.device_launches / 4


@pytest.mark.parametrize("key", APP_KEYS)
def test_grid_consolidation_beats_basic(key, datasets):
    app = get_app(key)
    basic = app.run(RunSpec(app.key, BASIC), dataset=datasets[key])
    grid = app.run(RunSpec(app.key, GRID), dataset=datasets[key])
    assert grid.metrics.cycles < basic.metrics.cycles


@pytest.mark.parametrize("key", APP_KEYS)
def test_warp_efficiency_improves(key, datasets):
    app = get_app(key)
    basic = app.run(RunSpec(app.key, BASIC), dataset=datasets[key])
    grid = app.run(RunSpec(app.key, GRID), dataset=datasets[key])
    assert (grid.metrics.warp_execution_efficiency
            > basic.metrics.warp_execution_efficiency)


class TestAllocatorChoice:
    def test_sssp_runs_with_all_allocators(self, datasets):
        app = get_app("sssp")
        cycles = {}
        for alloc in ("default", "halloc", "custom"):
            run = app.run(RunSpec(app.key, BLOCK, allocator=alloc),
                          dataset=datasets["sssp"])
            assert run.checked
            cycles[alloc] = run.metrics.cycles
        assert cycles["custom"] < cycles["default"]

    def test_allocator_is_irrelevant_for_flat(self, datasets):
        app = get_app("spmv")
        a = app.run(RunSpec(app.key, FLAT, allocator="default"),
                    dataset=datasets["spmv"])
        b = app.run(RunSpec(app.key, FLAT, allocator="custom"),
                    dataset=datasets["spmv"])
        assert a.metrics.cycles == b.metrics.cycles


class TestAppDetails:
    def test_sssp_unreachable_nodes_stay_inf(self):
        from repro.apps.sssp import INF
        from repro.data.structures import Graph

        # node 2 is unreachable from 0
        g = Graph("t", np.array([0, 1, 1, 1]),
                  np.array([1], dtype=np.int32), np.array([5], dtype=np.int32))
        app = get_app("sssp")
        run = app.run(RunSpec(app.key, BASIC), dataset=g)
        assert run.result[2] == INF
        assert run.result[1] == 5

    def test_gc_coloring_is_proper(self, datasets):
        app = get_app("gc")
        run = app.run(RunSpec(app.key, GRID), dataset=datasets["gc"])
        g = datasets["gc"]
        src = np.repeat(np.arange(g.num_nodes), np.diff(g.row_ptr))
        assert not np.any(run.result[src] == run.result[g.col_idx])

    def test_bfs_flat_gives_true_distances(self, datasets):
        app = get_app("bfs_rec")
        run = app.run(RunSpec(app.key, FLAT), dataset=datasets["bfs_rec"])
        assert np.array_equal(run.result, app.reference(datasets["bfs_rec"]))

    def test_th_height_exact(self, datasets):
        app = get_app("th")
        for variant in (BASIC, GRID):
            run = app.run(RunSpec(app.key, variant), dataset=datasets["th"])
            assert run.result[0] == datasets["th"].height()

    def test_td_solo_thread_launch_explosion(self, datasets):
        # TD's basic-dp launches one kernel per node: the paper's worst case
        app = get_app("td")
        run = app.run(RunSpec(app.key, BASIC), dataset=datasets["td"])
        assert run.metrics.device_launches == datasets["td"].num_nodes - 1

    def test_nesting_limit_error_names_app_variant_and_kernel(self):
        """BFS-Rec recurses once per level, so a 25-level chain exceeds
        the 24-level DP nesting limit: the typed error names the app,
        the variant and the kernel that launched too deep."""
        from repro.errors import LaunchError
        from repro.workloads import materialize

        with pytest.raises(LaunchError) as info:
            get_app("bfs_rec").run(RunSpec("bfs_rec", BASIC),
                                   materialize("chain", 0.05))
        message = str(info.value)
        assert message.startswith("BFS-Rec [basic-dp]: kernel bfs_rec: ")
        assert "nesting depth 25 exceeds the device limit of 24" in message

    def test_heap_exhaustion_error_names_app_variant_and_kernel(self):
        """Warp-level SSSP acquires a 2 KB consolidation buffer per warp;
        a 64-byte device heap cannot hold the first, so the typed error
        names the app, the variant and the kernel, each once."""
        from repro.errors import AllocationError

        with pytest.raises(AllocationError) as info:
            get_app("sssp").run(RunSpec("sssp", WARP), scale=0.05,
                                heap_bytes=64)
        message = str(info.value)
        assert message.startswith(
            "SSSP [warp-level]: kernel sssp_parent: pre-allocated pool "
            "exhausted (2048 bytes requested, 64 left)")
        assert message.count("kernel ") == 1
        assert info.value.kernel == "sssp_parent"

    def test_errors_keep_type_and_text_under_the_prefix(self):
        """App.run prefixes a failing run's ReproError with the app and
        variant, keeping its type and original text."""
        from repro.errors import ParseError

        class Broken(type(get_app("spmv"))):
            def flat_source(self):
                return "__global__ void k( {"

        with pytest.raises(ParseError) as info:
            Broken().run(RunSpec("spmv", FLAT), scale=0.05)
        assert str(info.value).startswith("SpMV [no-dp]: ")
        assert str(info.value).endswith(info.value.message)
