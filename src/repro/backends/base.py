"""Execution-backend interface.

A :class:`Backend` is one *target* of the toolchain: something a checked
MiniCUDA program can be run on (the simulator, the CPU interpreter) or
lowered to (the CUDA-C emitter). The registry in
:mod:`repro.backends` mirrors the consolidation-strategy registry
(:mod:`repro.compiler.strategies`): built-ins register at import, plugins
call :func:`repro.backends.register_backend`.

A backend declares two capabilities:

``executes``
    It can build a *device* — an object with the :class:`repro.sim.device.Device`
    facade (``load`` / ``from_numpy`` / ``alloc`` / ``launch`` /
    ``synchronize`` / ``to_numpy``) — so every app host driver runs on it
    unchanged. Executing backends plug into ``App.run(..., backend=)``;
    where a run executes is never part of its identity.

``emits``
    It can lower a program to target source text (``emit``), e.g. a
    ``.cu`` translation unit. Emit-only backends serve ``repro compile
    --backend`` and the golden-file tests; asking them to execute raises.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..sim.specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C


class BackendError(RuntimeError):
    """A backend was asked for a capability it does not have."""


class Backend(abc.ABC):
    """One named execution/lowering target."""

    #: registry key ('sim', 'cpu', 'cuda', ...)
    name: str = ""
    #: one-line description for `repro list`
    summary: str = ""
    #: can build a Device-facade object that executes programs
    executes: bool = False
    #: can lower a program to target source text
    emits: bool = False

    def make_device(self, spec: DeviceSpec = K20C,
                    cost: CostModel = DEFAULT_COST_MODEL,
                    allocator: str = "custom",
                    heap_bytes: Optional[int] = None):
        """Build a fresh device with the Device facade.

        ``cost`` and ``allocator`` configure the timing/allocation models
        where the backend has them (the simulator); purely functional
        backends accept and ignore them so RunSpecs stay portable.
        """
        raise BackendError(
            f"backend {self.name!r} does not execute programs"
            + (f"; use `repro compile --backend {self.name}`" if self.emits
               else ""))

    def emit(self, source: str, *, name: str = "minicuda") -> str:
        """Lower MiniCUDA source to this backend's target language."""
        raise BackendError(f"backend {self.name!r} does not emit source")
