"""Tuning-oracle registry + scalar-vs-vectorized differential harness +
surrogate unit tests.

The headline property of the engine split is *bitwise*: for every
benchmark app under every dynamic-parallelism variant — and for a fuzzed
stream of MiniCUDA programs — the vectorized engine must produce exactly
the scalar reference engine's RunMetrics, field for field, and the same
functional output. The vectorized engine batches the scalar engine's
per-event bookkeeping into array ops without reordering any observable
effect (DESIGN.md §15 carries the equivalence argument), so any
divergence is an engine bug, not noise.

The scalar engine is reached as ``App.run(...,
backend=SimBackend(engine="scalar"))``: it is a differential reference,
not a run axis or an oracle.

Alongside the harness: oracle registry contract tests, Device engine
selection, and the learned surrogate's unit behaviour (fit/predict
round-trip, rank-correlation floor, cold-log fallback, the
never-predict-full-fidelity rule).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.apps import BASIC, BLOCK, GRID, WARP, all_apps, get_app
from repro.backends import SimBackend
from repro.errors import SimulationError
from repro.experiments import RunSpec
from repro.oracle import (
    BUILTIN_ORACLES,
    DEFAULT_ORACLE,
    LearnedOracle,
    MIN_TRAIN_ROWS,
    Oracle,
    OracleError,
    SimOracle,
    SurrogateModel,
    SurrogateOracle,
    TrainingLog,
    available_oracles,
    cost_fingerprint,
    get_oracle,
    register_oracle,
    spearman,
    unregister_oracle,
)
from repro.sim.device import DEFAULT_ENGINE, ENGINES, Device
from repro.sim.engine import FunctionalEngine
from repro.sim.engine_vec import VectorizedEngine
from repro.sim.occupancy import LaunchConfig
from repro.sim.specs import DEFAULT_COST_MODEL, K20C
from repro.tuning import Candidate, get_objective

from tests.helpers import (
    LANE_ORDER_FUZZ_BODIES,
    SHADOWING_FUZZ_BODIES,
    make_fuzz_kernel,
    minicuda_body,
    run_kernel,
    run_source,
)

DP_VARIANTS = (BASIC, WARP, BLOCK, GRID)

#: small enough to keep the 7 apps x 4 variants x 2 engines matrix in
#: test time, large enough that every app actually delegates work
SCALE = 0.08


# -- registry contract --------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert available_oracles() == ("sim", "surrogate")
        assert tuple(o.name for o in BUILTIN_ORACLES) == available_oracles()
        assert DEFAULT_ORACLE == "sim"

    def test_builtin_shapes(self):
        """Oracles score tuner candidates only: neither built-in selects
        a sim engine (that is ``SimBackend(engine=...)``)."""
        assert isinstance(get_oracle("sim"), SimOracle)
        assert isinstance(get_oracle("surrogate"), LearnedOracle)
        for oracle in BUILTIN_ORACLES:
            assert not hasattr(oracle, "engine")

    def test_get_oracle_instance_passthrough(self):
        sim = get_oracle("sim")
        assert get_oracle(sim) is sim

    def test_unknown_oracle_lists_available(self):
        with pytest.raises(OracleError, match="surrogate"):
            get_oracle("crystal-ball")

    def test_register_validates_and_replaces(self):
        class Fake(Oracle):
            name = "fake"
            summary = "test double"

        fake = Fake()
        register_oracle(fake)
        try:
            assert "fake" in available_oracles()
            with pytest.raises(ValueError, match="already registered"):
                register_oracle(fake)
            register_oracle(fake, replace=True)
        finally:
            unregister_oracle("fake")
        assert "fake" not in available_oracles()
        with pytest.raises(KeyError):
            unregister_oracle("fake")

    def test_register_rejects_nameless_and_non_oracle(self):
        class Nameless(Oracle):
            summary = "forgot the name"

        with pytest.raises(ValueError, match="name"):
            register_oracle(Nameless())
        with pytest.raises(TypeError, match="Oracle"):
            register_oracle(object())

    def test_default_scorer_is_identity(self):
        """Exact oracles pass the tuner's simulation oracle through
        unchanged; only learned ones wrap it."""
        sentinel = object()
        assert get_oracle("sim").scorer(sentinel) is sentinel
        wrapped = get_oracle("surrogate").scorer(sentinel)
        assert isinstance(wrapped, SurrogateOracle)
        assert wrapped.sim is sentinel


# -- Device engine selection --------------------------------------------------


class TestEngineSelection:
    def test_engines_registered(self):
        assert set(ENGINES) == {"scalar", "vectorized"}
        assert DEFAULT_ENGINE == "vectorized"

    def test_device_selects_engine(self):
        assert isinstance(Device().engine, VectorizedEngine)
        assert isinstance(Device(engine="scalar").engine, FunctionalEngine)
        assert Device(engine="scalar").engine_name == "scalar"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown sim engine"):
            Device(engine="quantum")

    def test_app_run_rejects_learned_oracle(self):
        """An oracle is a tuner option, never a way to run: App.run and
        RunSpec take none."""
        with pytest.raises(TypeError, match="oracle"):
            get_app("sssp").run(RunSpec("sssp", "no-dp"), scale=SCALE,
                                oracle="surrogate")
        with pytest.raises(TypeError, match="oracle"):
            RunSpec("sssp", "no-dp", oracle="surrogate")

    def test_sim_backend_selects_engine(self):
        """The simulator backend owns the engine choice."""
        assert SimBackend().make_device().engine_name == "vectorized"
        scalar = SimBackend(engine="scalar").make_device()
        assert isinstance(scalar.engine, FunctionalEngine)
        assert not isinstance(scalar.engine, VectorizedEngine)


# -- the differential harness -------------------------------------------------


APP_KEYS = [a.key for a in all_apps()]


@pytest.fixture(scope="module")
def datasets():
    return {key: get_app(key).default_dataset(SCALE) for key in APP_KEYS}


def _assert_engines_agree(key, variant, dataset, **axes):
    app = get_app(key)
    spec = RunSpec(key, variant, **axes)
    vec = app.run(spec, dataset=dataset, verify=False)
    ref = app.run(spec, dataset=dataset, verify=False,
                  backend=SimBackend(engine="scalar"))
    assert (dataclasses.asdict(vec.metrics)
            == dataclasses.asdict(ref.metrics)), \
        f"vectorized metrics diverged from scalar on {key} [{variant}]"
    np.testing.assert_array_equal(
        vec.result, ref.result,
        err_msg=f"vectorized result diverged from scalar on {key} "
                f"[{variant}]")


@pytest.mark.parametrize("key", APP_KEYS)
@pytest.mark.parametrize("variant", DP_VARIANTS)
def test_vectorized_engine_matches_scalar(key, variant, datasets):
    """Every app x DP-variant pair: the vectorized engine's RunMetrics
    must equal the scalar reference engine's field for field (bitwise),
    and the functional result element for element."""
    _assert_engines_agree(key, variant, datasets[key])


#: run axes that move what the batched rounds see: the Fig. 5 allocators
#: move the heap addresses (hence L2 segments) of consolidation buffers,
#: and Fig. 6's 1-1 mapping reshapes the consolidated child grids
_AXIS_CELLS = [
    pytest.param("sssp", variant, {"allocator": allocator},
                 id=f"sssp-{variant}-{allocator}")
    for variant in (WARP, BLOCK, GRID) for allocator in ("halloc", "default")
] + [
    pytest.param("td", variant, {"config": LaunchConfig(mode="one2one")},
                 id=f"td-{variant}-one2one")
    for variant in (WARP, BLOCK, GRID)
]


@pytest.mark.parametrize("key, variant, axes", _AXIS_CELLS)
def test_vectorized_engine_matches_scalar_across_run_axes(key, variant, axes,
                                                          datasets):
    _assert_engines_agree(key, variant, datasets[key], **axes)


_fuzz_body = minicuda_body()


@given(_fuzz_body)
@example(SHADOWING_FUZZ_BODIES[0])
@example(SHADOWING_FUZZ_BODIES[1])
@example(LANE_ORDER_FUZZ_BODIES[0])
@example(LANE_ORDER_FUZZ_BODIES[1])
@settings(max_examples=60, deadline=None)
def test_fuzzed_programs_match_scalar(body):
    """>=50 hypothesis-fuzzed MiniCUDA programs (the same space as
    test_fuzz_programs): vectorized-engine output equals scalar-engine
    output exactly, including racy interleaved writes — both engines
    run the identical canonical schedule."""
    src = make_fuzz_kernel(body)
    arrays = [("out", np.arange(8, dtype=np.int32))]
    ref = run_source(src, "fuzz", 1, 8, arrays, (5,),
                     device_factory=lambda: Device(engine="scalar"))
    vec = run_source(src, "fuzz", 1, 8, arrays, (5,),
                     device_factory=lambda: Device(engine="vectorized"))
    np.testing.assert_array_equal(vec[0], ref[0], err_msg=src)


_DP_SRC = """
__global__ void child(int* buf, int* out, int u, int n) {
    out[u] = buf[u % 16] + u;
}
__global__ void parent(int* buf, int* out, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        int w = buf[u % 16];
        #pragma dp consldt(block) work(u)
        if (w > 8) {
            child<<<1, 1>>>(buf, out, u, n);
        } else {
            out[u] = 0 - w;
        }
    }
}
"""


@pytest.mark.parametrize("consolidate", [False, True])
def test_dp_template_metrics_match_scalar(consolidate):
    """The Fig. 1 DP template, basic and consolidated: both engines
    agree on the functional output AND the full RunMetrics (cycles,
    launches, buffer traffic) — the profiler counters are part of the
    bitwise contract."""
    from repro.compiler import consolidate_source

    src = _DP_SRC
    if consolidate:
        src = consolidate_source(src, granularity="block").source
    rng = np.random.default_rng(23)
    arrays = {"buf": rng.integers(0, 32, 64).astype(np.int32),
              "out": np.zeros(64, np.int32)}
    runs = {}
    for engine in ("scalar", "vectorized"):
        _, metrics, handles = run_kernel(
            src, "parent", 2, 32,
            {k: v.copy() for k, v in arrays.items()}, (64,),
            device=Device(engine=engine))
        runs[engine] = (metrics, handles["out"].to_numpy())
    ref_metrics, ref_out = runs["scalar"]
    vec_metrics, vec_out = runs["vectorized"]
    assert dataclasses.asdict(vec_metrics) == dataclasses.asdict(ref_metrics)
    np.testing.assert_array_equal(vec_out, ref_out)


# -- the surrogate ------------------------------------------------------------


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 40, 80]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_constant_is_nan(self):
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))


def _synthetic_rows(n, *, seed=7, workload=None):
    """Training-log rows whose cycles metric is a clean monotone
    function of (threshold, scale) — learnable by a linear model on the
    surrogate's log-space features."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        threshold = int(2 ** (i % 8))
        scale = (0.1, 0.25, 0.5, 1.0)[i % 4]
        strategy = ("warp", "block", "grid")[i % 3]
        cycles = 1e4 * scale * (1 + 0.3 * math.log2(1 + threshold))
        cycles *= 1 + 0.01 * rng.random()
        rows.append({
            "v": 1, "app": "sssp", "workload": workload,
            "device": K20C.name, "cost": "x", "scale": scale,
            "verify": True, "variant": "consolidated",
            "strategy": strategy, "threshold": threshold, "config": None,
            "metrics": {"cycles": cycles,
                        "warp_execution_efficiency": 0.5,
                        "dram_transactions": cycles / 3},
        })
    return rows


class TestSurrogateModel:
    def test_too_few_rows_is_none(self):
        rows = _synthetic_rows(MIN_TRAIN_ROWS - 1)
        assert SurrogateModel.fit(rows, get_objective("cycles"),
                                  default_threshold=32) is None

    def test_min_rows_boundary_fits(self):
        model = SurrogateModel.fit(_synthetic_rows(MIN_TRAIN_ROWS),
                                   get_objective("cycles"),
                                   default_threshold=32)
        assert model is not None and model.n_rows == MIN_TRAIN_ROWS

    def test_fit_predict_rank_correlation(self):
        """Round-trip on held-out axes: predictions must rank the
        candidates essentially like the generating function does."""
        model = SurrogateModel.fit(_synthetic_rows(64),
                                   get_objective("cycles"),
                                   default_threshold=32)
        axes = [("consolidated", "warp", t, None)
                for t in (1, 4, 16, 64, 256)]
        predicted = model.predict_axes(axes, 0.3)
        truth = [1e4 * 0.3 * (1 + 0.3 * math.log2(1 + t))
                 for t in (1, 4, 16, 64, 256)]
        assert spearman(predicted, truth) >= 0.9
        assert (predicted > 0).all()

    def test_maximized_objective_not_log_transformed(self):
        model = SurrogateModel.fit(_synthetic_rows(32),
                                   get_objective("warp-eff"),
                                   default_threshold=32)
        assert model is not None and not model.log_target


class _FakeSim:
    """The slice of SimulationOracle the surrogate consumes, with call
    recording — lets the unit tests pin the delegation rules without
    running any simulation."""

    def __init__(self, scale=0.4):
        self.app = "sssp"
        self.objective = get_objective("cycles")
        self.scale = scale
        self.workload = None
        self.cost = DEFAULT_COST_MODEL
        self.spec = K20C
        self.verify = True
        self.evaluated = []

    def _rung_scale(self, factor):
        from repro.tuning.oracle import MIN_RUNG_SCALE

        return min(self.scale, max(self.scale * factor, MIN_RUNG_SCALE))

    def evaluate(self, candidates, factor=1.0):
        from repro.tuning.oracle import Trial

        self.evaluated.append((len(list(candidates)), factor))
        return [Trial(candidate=c, value=100.0, loss=100.0,
                      scale=self._rung_scale(factor))
                for c in candidates]

    def is_full_fidelity(self, trial):
        return trial.scale == self.scale

    def stats(self):
        return "fake-stats"


class TestSurrogateOracle:
    CANDS = [Candidate(strategy="warp", threshold=t) for t in (2, 16, 128)]

    def _warm_log(self, tmp_path):
        log = TrainingLog(tmp_path / "train.jsonl")
        fp = cost_fingerprint(DEFAULT_COST_MODEL)
        for row in _synthetic_rows(24):
            log.record(app=row["app"], workload=None, device=row["device"],
                       cost=DEFAULT_COST_MODEL, scale=row["scale"],
                       verify=True, variant=row["variant"],
                       strategy=row["strategy"], threshold=row["threshold"],
                       config=None,
                       metrics=type("M", (), row["metrics"]))
        assert len(log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                            verify=True)) == 24
        return log

    def test_cold_log_falls_back_to_sim(self, tmp_path):
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, TrainingLog(tmp_path / "empty.jsonl"))
        trials = oracle.evaluate(self.CANDS, factor=0.25)
        assert len(trials) == 3
        assert oracle.fallbacks == 1 and oracle.predicted == 0
        assert sim.evaluated == [(3, 0.25)]

    def test_no_log_falls_back_to_sim(self):
        oracle = SurrogateOracle(_FakeSim(), training_log=None)
        oracle.evaluate(self.CANDS, factor=0.25)
        assert oracle.fallbacks == 1 and oracle.model() is None

    def test_warm_log_predicts_cheap_rungs(self, tmp_path):
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, self._warm_log(tmp_path))
        trials = oracle.evaluate(self.CANDS, factor=0.25)
        assert oracle.predicted == 3 and oracle.fallbacks == 0
        assert sim.evaluated == []  # nothing simulated
        # predictions carry the rung scale, natural-unit values, and the
        # objective's loss transform
        for t in trials:
            assert t.scale == sim._rung_scale(0.25) < sim.scale
            assert not oracle.is_full_fidelity(t)
            assert t.loss == sim.objective.loss(t.value)
        # the generating function grows with threshold; the model must
        # rank the candidates the same way
        values = [t.value for t in trials]
        assert values == sorted(values)

    def test_surrogate_report_warm(self, tmp_path):
        """The decision trail ``repro tune`` prints: per-rung
        predicted/simulated counts plus the training-set Spearman."""
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, self._warm_log(tmp_path))
        oracle.evaluate(self.CANDS, factor=0.25)
        oracle.evaluate(self.CANDS, factor=1.0)
        rep = oracle.surrogate_report()
        assert rep["oracle"] == "surrogate"
        assert rep["predicted"] == 3 and rep["fallbacks"] == 0
        assert rep["train_rows"] == 24
        assert rep["spearman"] is not None
        assert -1.0 <= rep["spearman"] <= 1.0
        assert [d["mode"] for d in rep["decisions"]] == \
            ["predicted", "simulated"]
        assert all(d["candidates"] == 3 for d in rep["decisions"])

    def test_surrogate_report_cold(self, tmp_path):
        oracle = SurrogateOracle(_FakeSim(),
                                 TrainingLog(tmp_path / "empty.jsonl"))
        oracle.evaluate(self.CANDS, factor=0.25)
        rep = oracle.surrogate_report()
        assert rep["train_rows"] == 0 and rep["spearman"] is None
        assert [d["mode"] for d in rep["decisions"]] == ["fallback"]

    def test_full_fidelity_always_simulated(self, tmp_path):
        """A prediction must never be eligible as the tuner's winner:
        factor=1.0 (and any rung at or above the sim scale) delegates
        even with a warm model."""
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, self._warm_log(tmp_path))
        trials = oracle.evaluate(self.CANDS, factor=1.0)
        assert sim.evaluated == [(3, 1.0)]
        assert oracle.predicted == 0
        assert all(oracle.is_full_fidelity(t) for t in trials)

    def test_mirrors_sim_context(self):
        sim = _FakeSim()
        oracle = SurrogateOracle(sim)
        assert (oracle.app, oracle.objective, oracle.scale,
                oracle.workload, oracle.cost, oracle.spec,
                oracle.verify) == (sim.app, sim.objective, sim.scale,
                                   sim.workload, sim.cost, sim.spec,
                                   sim.verify)
        assert oracle.stats() == "fake-stats"


class TestTrainingLog:
    def test_rows_filter_context_and_skip_torn_lines(self, tmp_path):
        log = TrainingLog(tmp_path / "t.jsonl")
        log.record(app="sssp", workload=None, device=K20C.name,
                   cost=DEFAULT_COST_MODEL, scale=0.2, verify=True,
                   variant="consolidated", strategy="warp", threshold=8,
                   config=("explicit", 4, 128),
                   metrics=type("M", (), {"cycles": 9.0,
                                          "warp_execution_efficiency": 0.5,
                                          "dram_transactions": 3.0}))
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write("{torn json\n")
            fh.write('{"v": 999, "app": "sssp"}\n')
        fp = cost_fingerprint(DEFAULT_COST_MODEL)
        rows = log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                        verify=True)
        assert len(rows) == 1 and rows[0]["config"] == ["explicit", 4, 128]
        # different workload / device / verify contexts see nothing
        assert log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                        verify=True, workload="kron(seed=9)") == []
        assert log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                        verify=False) == []
        assert len(log) == 3  # raw line count, filtering is read-side

    def test_missing_file_is_empty(self, tmp_path):
        log = TrainingLog(tmp_path / "absent.jsonl")
        assert len(log) == 0
        assert log.rows(app="sssp", device=K20C.name, cost_fp="x",
                        verify=True) == []


class TestTunerWiring:
    def test_tuner_builds_surrogate_oracle(self, tmp_path):
        from repro.experiments import ResultStore
        from repro.tuning import SimulationOracle, Tuner

        store = ResultStore(tmp_path / "store")
        tuner = Tuner(scale=SCALE, store=store, oracle="surrogate")
        oracle = tuner._oracle("sssp", get_objective("cycles"), None)
        assert isinstance(oracle, SurrogateOracle)
        assert type(oracle.sim) is SimulationOracle  # sims on the default
        assert oracle.training_log.path.parent == store.root
