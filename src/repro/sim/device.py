"""The Device facade: the simulated GPU a host program talks to.

Typical use::

    dev = Device()                         # a simulated K20c
    prog = dev.load(minicuda_source)       # parse, check, codegen, register
    dist = dev.from_numpy("dist", host_dist)
    prog.launch("sssp_parent", grid, block, row_ptr, col_idx, ..., n, 8)
    metrics = dev.synchronize()            # timing model + profiler

Functional execution is *eager* (launch() runs the kernel and updates
device arrays immediately, so host control flow can read results back),
while the timing model runs lazily at :meth:`Device.synchronize` over all
launches since the previous synchronize — mirroring how a CUDA host
program enqueues work and then blocks.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..alloc import make_allocator
from ..backend.codegen import CompiledModule, compile_module
from ..errors import LaunchError, SimulationError
from ..frontend.ast_nodes import Module
from ..frontend.parser import parse
from ..frontend.typecheck import ModuleInfo, check_module
from ..perf.collect import active_collector
from ..telemetry import span
from .cache import MemorySystem
from .dp import DPRuntime
from .engine import FunctionalEngine, KernelInstance
from .engine_vec import VectorizedEngine
from .memory import DeviceArray, GlobalMemory
from .profiler import RunMetrics, collect_metrics
from .specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C
from .timing import DeviceScheduler

#: default size of the device heap backing consolidation buffers. The
#: paper defaults to 500 MB; we default smaller because scaled datasets
#: need far less (overridable per Device).
DEFAULT_HEAP_BYTES = 64 * 1024 * 1024

#: functional-engine implementations, selectable per Device. Both run the
#: same canonical schedule and produce bitwise-identical metrics (the
#: differential harness in tests/test_oracle.py holds them to it);
#: 'scalar' is the reference, 'vectorized' the default, which serves
#: operand-uniform reads once.
ENGINES = {
    "scalar": FunctionalEngine,
    "vectorized": VectorizedEngine,
}

DEFAULT_ENGINE = "vectorized"


def compile_program(module: Union[str, Module, ModuleInfo]) -> CompiledModule:
    """Parse, check and compile a MiniCUDA module for the simulator.

    A :class:`ModuleInfo` (e.g. a consolidation result's, already checked)
    goes straight to codegen.
    """
    with span("sim.codegen"):
        if isinstance(module, str):
            module = parse(module)
        if isinstance(module, Module):
            # allow __dp_* names: consolidated sources legitimately use
            # them, and the compiler has already vetted user inputs
            info = check_module(module, allow_reserved=True)
        else:
            info = module
        return compile_module(info)


class Program:
    """A loaded MiniCUDA module bound to a device."""

    def __init__(self, device: "Device", compiled: CompiledModule):
        self.device = device
        self.compiled = compiled

    @property
    def source(self) -> str:
        return self.compiled.python_source

    def kernel_names(self) -> list[str]:
        return sorted(self.compiled.kernels)

    def launch(self, name: str, grid: int, block: int, *args) -> None:
        self.device.launch(name, grid, block, *args)


class Device:
    def __init__(self, spec: DeviceSpec = K20C,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 allocator: str = "custom",
                 heap_bytes: int = DEFAULT_HEAP_BYTES,
                 engine: Optional[str] = None):
        self.spec = spec
        self.cost = cost
        # keep the numpy-visible memory bounded: the address space is the
        # spec's, but we only ever materialize what the program allocates.
        # On small specs, cap the device heap at a quarter of global memory
        # so the default still leaves room for program data.
        heap_bytes = min(heap_bytes, spec.global_mem_bytes // 4)
        self.memory = GlobalMemory(spec.global_mem_bytes, heap_bytes)
        self.memsys = MemorySystem(spec, cost)
        self.allocator = make_allocator(allocator, self.memory.heap_base,
                                        heap_bytes, cost)
        self.dp = DPRuntime(spec, cost, self.memory, self.memsys, self.allocator)
        self.kernels: dict[str, object] = {}
        self.engine_name = engine if engine is not None else DEFAULT_ENGINE
        engine_cls = ENGINES.get(self.engine_name)
        if engine_cls is None:
            raise SimulationError(
                f"unknown sim engine {engine!r}; "
                f"available: {', '.join(sorted(ENGINES))}")
        self.engine = engine_cls(spec, cost, self.memsys, self.kernels,
                                 dp=self.dp, on_launch=self._on_device_launch)
        # deep profiling (repro.perf): a collector bound via
        # ``profiling()`` when this device is constructed attaches to
        # the engine and DP runtime. Observational only — the engines
        # skip every hook when it is None, and nothing it records feeds
        # back into pricing, so metrics stay bitwise identical.
        self.profiler = active_collector()
        if self.profiler is not None:
            self.engine.profiler = self.profiler
            self.dp.profiler = self.profiler
        self._uid = 0
        self._roots: list[KernelInstance] = []
        self._all_roots: list[KernelInstance] = []
        self.last_metrics: Optional[RunMetrics] = None

    # ------------------------------------------------------------- loading

    def load(self, module: Union[str, Module, ModuleInfo,
                                 CompiledModule]) -> Program:
        """Register a MiniCUDA module's kernels, compiling it first
        (:func:`compile_program`) unless it already is compiled."""
        compiled = (module if isinstance(module, CompiledModule)
                    else compile_program(module))
        for name, fn in compiled.functions.items():
            existing = self.kernels.get(name)
            if existing is not None:
                raise SimulationError(
                    f"kernel/function {name!r} already loaded on this device"
                )
        # register device functions too: launches only reference kernels,
        # but keeping one namespace catches collisions early.
        self.kernels.update(compiled.kernels)
        return Program(self, compiled)

    # ------------------------------------------------------------- memory

    def alloc(self, name: str, dtype: str, n: int) -> DeviceArray:
        return self.memory.alloc_array(name, dtype, n)

    def from_numpy(self, name: str, host: np.ndarray) -> DeviceArray:
        return self.memory.from_numpy(name, host)

    @staticmethod
    def to_numpy(arr: DeviceArray) -> np.ndarray:
        return arr.to_numpy()

    # ------------------------------------------------------------ launches

    def launch(self, name: str, grid: int, block: int, *args) -> None:
        """Host-side kernel launch (eager functional execution)."""
        if name not in self.kernels:
            raise LaunchError(f"launch of unknown kernel {name!r}")
        self._validate_config(name, grid, block)
        inst = self._new_instance(name, int(grid), int(block), args,
                                  depth=0, parent=None)
        self.dp.stats.host_launches += 1
        self.engine.run_instance(inst)
        self._roots.append(inst)
        self._all_roots.append(inst)

    def _validate_config(self, name: str, grid: int, block: int) -> None:
        # a device launch's error is prefixed with the launching kernel
        if grid <= 0 or block <= 0:
            raise LaunchError(
                f"launch of {name}: invalid configuration <<<{grid}, {block}>>>"
            )
        if block > self.spec.max_threads_per_block:
            raise LaunchError(
                f"launch of {name}: {block} threads/block exceeds the device "
                f"limit of {self.spec.max_threads_per_block}"
            )

    def _new_instance(self, name, grid, block, args, depth, parent) -> KernelInstance:
        self._uid += 1
        inst = KernelInstance(
            uid=self._uid, name=name, grid=grid, block_dim=block,
            args=tuple(args), depth=depth,
            parent_uid=None if parent is None else parent.uid,
            from_device=parent is not None,
        )
        if parent is not None:
            parent.children.append(inst)
        return inst

    def _on_device_launch(self, parent: KernelInstance, name: str,
                          grid: int, block: int, args: tuple) -> KernelInstance:
        if name not in self.kernels:
            raise LaunchError(f"device launch of unknown kernel {name!r}")
        depth = parent.depth + 1
        if depth > self.spec.max_nesting_depth:
            raise LaunchError(
                f"dynamic-parallelism nesting depth {depth} "
                f"exceeds the device limit of {self.spec.max_nesting_depth}"
            )
        self._validate_config(name, grid, block)
        self.dp.stats.device_launches += 1
        # pending-launch parameter buffering traffic (§III.B)
        self.memsys.charge_overhead("launch-params",
                                    self.cost.launch_param_transactions)
        return self._new_instance(name, int(grid), int(block), args,
                                  depth=depth, parent=parent)

    # --------------------------------------------------------------- sync

    def synchronize(self) -> RunMetrics:
        """Run the timing model over everything launched since the last
        synchronize and return the fused metrics."""
        with span("sim.timing", kernels=len(self._roots)):
            scheduler = DeviceScheduler(self.spec, self.cost, self.memsys)
            timing = scheduler.run(self._roots)
            metrics = collect_metrics(self._roots, timing, self.memsys,
                                      self.dp.stats, self.allocator)
        if self.profiler is not None:
            self.profiler.finalize(list(self._roots), metrics,
                                   self.spec, self.cost)
        self.last_metrics = metrics
        self._roots = []
        return metrics

    def reset_profile(self) -> None:
        """Clear counters between experiment phases (keeps memory contents)."""
        self.memsys.reset()
        self.dp.reset_run()
