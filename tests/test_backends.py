"""Backend registry + CPU-backend differential harness.

The headline property of the backend subsystem is *differential*: for
every benchmark app under every consolidation strategy — and for a fuzzed
stream of MiniCUDA programs — the NumPy/multiprocessing CPU backend must
produce exactly the simulator's functional output, element for element.
The CPU interpreter mirrors the simulator's canonical schedule (block
order, warp rounds, lockstep lanes), so even schedule-dependent results
(float atomicAdd accumulation order, CAS claim winners) must match
bitwise; any divergence is an interpreter/codegen semantics bug, not
noise.

Alongside the harness: registry contract tests, CpuDevice/CpuJob unit
tests, the run-key backward-compatibility regression (no backend ever
enters a cache address), and ``App.run(..., backend=)`` — the one way
to run on another backend, which never touches a result store.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro import __version__
from repro.apps import BASIC, BLOCK, GRID, WARP, all_apps, get_app
from repro.backends import (
    Backend,
    BackendError,
    CpuDevice,
    CpuJob,
    available_backends,
    get_backend,
    register_backend,
    run_job,
    run_jobs,
    unregister_backend,
)
from repro.errors import LaunchError, SimulationError
from repro.experiments.plan import RunSpec
from repro.experiments.store import STORE_FORMAT, run_key
from repro.sim.device import Device
from repro.sim.specs import DEFAULT_COST_MODEL, K20C

from tests.helpers import (
    LANE_ORDER_FUZZ_BODIES,
    LANE_ORDER_OUTPUTS,
    SHADOWING_FUZZ_BODIES,
    make_fuzz_kernel,
    minicuda_body,
    minicuda_expr,
    run_source,
)

DP_VARIANTS = (BASIC, WARP, BLOCK, GRID)

#: small enough to keep the 7 apps x 4 variants x 2 backends matrix in
#: test time, large enough that every app actually delegates work
SCALE = 0.08


# -- registry contract --------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("sim", "cpu", "cuda")

    def test_get_backend_by_name_and_instance(self):
        cpu = get_backend("cpu")
        assert cpu.name == "cpu" and cpu.executes and not cpu.emits
        assert get_backend(cpu) is cpu

    def test_sim_is_default_and_executes(self):
        sim = get_backend("sim")
        assert sim.executes
        dev = sim.make_device(spec=K20C, cost=DEFAULT_COST_MODEL,
                              allocator="custom", heap_bytes=None)
        assert isinstance(dev, Device)

    def test_cuda_emits_only(self):
        cuda = get_backend("cuda")
        assert cuda.emits and not cuda.executes
        with pytest.raises(BackendError, match="repro compile"):
            cuda.make_device(spec=K20C, cost=DEFAULT_COST_MODEL,
                             allocator="custom", heap_bytes=None)

    def test_unknown_backend_lists_available(self):
        with pytest.raises(BackendError, match="cpu"):
            get_backend("tpu")

    def test_register_validates_and_replaces(self):
        class Fake(Backend):
            name = "fake"
            summary = "test double"
            executes = True

            def make_device(self, **kwargs):
                raise NotImplementedError

        register_backend(Fake())
        try:
            assert "fake" in available_backends()
            with pytest.raises(ValueError, match="already registered"):
                register_backend(Fake())
            register_backend(Fake(), replace=True)
        finally:
            unregister_backend("fake")
        assert "fake" not in available_backends()
        with pytest.raises(KeyError):
            unregister_backend("fake")

    def test_register_rejects_inert_backend(self):
        class Inert(Backend):
            name = "inert"
            summary = "neither executes nor emits"

        with pytest.raises(ValueError, match="execute|emit"):
            register_backend(Inert())


# -- CpuDevice unit behaviour -------------------------------------------------


_ADD_ONE = """
__global__ void add_one(int* out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = out[i] + 1; }
}
"""


class TestCpuDevice:
    def test_roundtrip_preserves_dtype(self):
        dev = CpuDevice()
        for dtype in (np.int32, np.int64, np.float32, np.float64):
            arr = np.arange(5, dtype=dtype)
            h = dev.from_numpy("a", arr)
            back = h.to_numpy()
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)

    def test_launch_validation(self):
        dev = CpuDevice()
        prog = dev.load(_ADD_ONE)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(LaunchError):
            prog.launch("add_one", 0, 32, out, 4)
        with pytest.raises(LaunchError):
            prog.launch("add_one", 1, dev.spec.max_threads_per_block + 1,
                        out, 4)

    def test_load_collision_rejected(self):
        dev = CpuDevice()
        dev.load(_ADD_ONE)
        with pytest.raises(SimulationError, match="already loaded"):
            dev.load(_ADD_ONE)

    def test_out_of_bounds_access_raises(self):
        # unlike the sim (which defers work to synchronize), the CPU
        # backend executes eagerly, so the fault surfaces at launch
        dev = CpuDevice()
        prog = dev.load(_ADD_ONE)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(SimulationError, match="out-of-bounds"):
            prog.launch("add_one", 1, 32, out, 99)

    def test_metrics_are_functional_only(self):
        dev = CpuDevice()
        prog = dev.load(_ADD_ONE)
        out = dev.from_numpy("out", np.zeros(64, np.int32))
        prog.launch("add_one", 2, 32, out, 64)
        metrics = dev.synchronize()
        assert metrics.cycles == 0
        assert metrics.host_launches == 1
        assert metrics.allocator_kind == "cpu"
        np.testing.assert_array_equal(out.to_numpy(),
                                      np.ones(64, np.int32))


class TestCpuJobs:
    def _job(self, n):
        return CpuJob(
            source=_ADD_ONE,
            arrays={"out": np.arange(n, dtype=np.int32)},
            launches=[("add_one", 2, 32, ("out", n))],
        )

    def test_run_job(self):
        result = run_job(self._job(40))
        np.testing.assert_array_equal(result["out"],
                                      np.arange(40, dtype=np.int32) + 1)

    def test_run_jobs_parallel_matches_serial(self):
        jobs = [self._job(n) for n in (8, 16, 24)]
        serial = run_jobs(jobs, processes=1)
        parallel = run_jobs(jobs, processes=2)
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s["out"], p["out"])


# -- the differential harness -------------------------------------------------


APP_KEYS = [a.key for a in all_apps()]


@pytest.fixture(scope="module")
def datasets():
    return {key: get_app(key).default_dataset(SCALE) for key in APP_KEYS}


@pytest.mark.parametrize("key", APP_KEYS)
@pytest.mark.parametrize("variant", DP_VARIANTS)
def test_cpu_backend_matches_sim(key, variant, datasets):
    """Every app x strategy pair: the CPU backend's functional result
    must equal the simulator's element for element (bitwise — the CPU
    interpreter replays the sim's exact schedule)."""
    app = get_app(key)
    sim = app.run(RunSpec(key, variant), dataset=datasets[key], verify=False)
    cpu = app.run(RunSpec(key, variant), dataset=datasets[key], verify=False,
                  backend=get_backend("cpu"))
    assert cpu.metrics.cycles == 0 and sim.metrics.cycles > 0
    np.testing.assert_array_equal(
        cpu.result, sim.result,
        err_msg=f"cpu backend diverged from sim on {key} [{variant}]")


_fuzz_body = minicuda_body()


@given(_fuzz_body)
@example(SHADOWING_FUZZ_BODIES[0])
@example(SHADOWING_FUZZ_BODIES[1])
@example(LANE_ORDER_FUZZ_BODIES[0])
@example(LANE_ORDER_FUZZ_BODIES[1])
@settings(max_examples=60, deadline=None)
def test_fuzzed_programs_match_sim(body):
    """>=50 hypothesis-fuzzed MiniCUDA programs (the same space as
    test_fuzz_programs): CPU backend output equals sim output exactly,
    including racy interleaved writes — both engines run the identical
    canonical schedule."""
    src = make_fuzz_kernel(body)
    arrays = [("out", np.arange(8, dtype=np.int32))]
    sim = run_source(src, "fuzz", 1, 8, arrays, (5,))
    cpu = run_source(src, "fuzz", 1, 8, arrays, (5,),
                     device_factory=CpuDevice)
    np.testing.assert_array_equal(cpu[0], sim[0], err_msg=src)



@pytest.mark.parametrize("body, expected",
                         zip(LANE_ORDER_FUZZ_BODIES, LANE_ORDER_OUTPUTS))
@pytest.mark.parametrize("device_factory", [
    pytest.param(lambda: Device(engine="scalar"), id="scalar"),
    pytest.param(lambda: Device(engine="vectorized"), id="vectorized"),
    pytest.param(CpuDevice, id="cpu"),
])
def test_lane_order_examples_give_the_lane_order_answer(body, expected,
                                                        device_factory):
    """Both sim engines share one round loop, so comparing them cannot
    catch a wrong application order in it; the pinned answers can."""
    out = run_source(make_fuzz_kernel(body), "fuzz", 1, 8,
                     [("out", np.arange(8, dtype=np.int32))], (5,),
                     device_factory=device_factory)
    assert out[0].tolist() == expected

_DP_TMPL = """
__global__ void child(int* buf, int* out, int u, int n) {
    out[u] = @EXPR@;
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

_child_expr = minicuda_expr(
    atoms=["u", "n", "buf[u]", "buf[u % 16]", "buf[(u + 7) % 16]"])


@given(_child_expr)
@settings(max_examples=10, deadline=None)
def test_fuzzed_dp_programs_match_sim(expr):
    """Fuzzed dynamic-parallelism programs, basic and consolidated: the
    CPU backend's __dp_* runtime (buffer table, designated launchers)
    must agree with the simulator's."""
    from repro.compiler import consolidate_source

    rng = np.random.default_rng(23)
    arrays = [("buf", rng.integers(0, 32, 64).astype(np.int32)),
              ("out", np.zeros(64, np.int32))]
    for src in (_DP_TMPL.replace("@EXPR@", expr),
                consolidate_source(_DP_TMPL.replace("@EXPR@", expr),
                                   granularity="block").source):
        sim = run_source(src, "parent", 2, 32, arrays, (64,))
        cpu = run_source(src, "parent", 2, 32, arrays, (64,),
                         device_factory=CpuDevice)
        np.testing.assert_array_equal(cpu[1], sim[1], err_msg=expr)


# -- run-key backward compatibility -------------------------------------------


class TestRunKeyCompat:
    KWARGS = dict(
        app="sssp", variant="grid-level", allocator="custom",
        config=None, dataset_fp="ab" * 32, cost=DEFAULT_COST_MODEL,
        spec=K20C, threshold=8, verify=True, version=__version__,
    )

    def _legacy_key(self, **extra):
        """The content address exactly as computed before the backend
        axis existed (and, without ``workload``, before the workload
        axis): the payload rebuilt by hand, field for field."""
        payload = {
            "format": STORE_FORMAT,
            "version": self.KWARGS["version"],
            "app": self.KWARGS["app"],
            "variant": self.KWARGS["variant"],
            "strategy": None,
            "allocator": self.KWARGS["allocator"],
            "config": None,
            "dataset": self.KWARGS["dataset_fp"],
            "cost": dataclasses.asdict(DEFAULT_COST_MODEL),
            "spec": dataclasses.asdict(K20C),
            "threshold": 8,
            "verify": True,
        }
        payload.update(extra)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_omitted_backend_is_byte_identical_to_legacy(self):
        assert run_key(**self.KWARGS) == self._legacy_key()
        with pytest.raises(TypeError, match="backend"):
            run_key(**self.KWARGS, backend=None)

    def test_workload_and_backend_only_enter_when_set(self):
        """The workload enters the payload only when set; a backend
        cannot be set at all."""
        assert (run_key(**self.KWARGS, workload="kron(seed=9)")
                == self._legacy_key(workload="kron(seed=9)"))
        with pytest.raises(TypeError, match="backend"):
            run_key(**self.KWARGS, backend="cpu")

    def test_runspec_default_backend_is_none(self):
        """A RunSpec names no backend: ``App.run`` defaults to None, the
        simulator."""
        import inspect

        from repro.apps.common import App

        assert not hasattr(RunSpec(app="sssp", variant="basic-dp"),
                           "backend")
        assert inspect.signature(App.run).parameters["backend"].default \
            is None


# -- App.run(backend=) --------------------------------------------------------


class TestRunnerBackendAxis:
    """Where a run executes is an argument of ``App.run``, not an axis
    of the experiment runner: the runner (and so every result store)
    only ever holds simulator runs."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return get_app("sssp").default_dataset(0.05)

    def test_explicit_sim_folds_to_none(self, dataset):
        app = get_app("sssp")
        implicit = app.run(RunSpec("sssp", "basic-dp"), dataset)
        explicit = app.run(RunSpec("sssp", "basic-dp"), dataset,
                           backend=get_backend("sim"))
        assert (dataclasses.asdict(explicit.metrics)
                == dataclasses.asdict(implicit.metrics))
        np.testing.assert_array_equal(explicit.result, implicit.result)

    def test_emit_only_backend_rejected_up_front(self, dataset):
        with pytest.raises(BackendError, match="does not execute"):
            get_app("sssp").run(RunSpec("sssp", "basic-dp"), dataset,
                                backend=get_backend("cuda"))

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="tpu"):
            get_backend("tpu")
        with pytest.raises(TypeError, match="backend"):
            RunSpec("sssp", "basic-dp", backend="tpu")


class TestCliBackend:
    # `repro run --backend` was removed per repro.errors.DeprecationPolicy;
    # test_run_config.py::TestCliOracle checks that argparse rejects it

    def test_list_shows_backends(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cpu" in out and "cuda" in out and "sim" in out
