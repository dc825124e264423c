"""Pluggable execution backends.

The simulator used to be the only target of the toolchain; this package
names the places a program can run (or lower to) in a registry,
mirroring :mod:`repro.compiler.strategies`. Built-ins:

``sim``
    the SIMT functional simulator with the timing model (the default —
    ``App.run(..., backend=None)`` means exactly this);
``cpu``
    an independent NumPy-backed interpreter that executes programs for
    differential testing against the sim (``tests/test_backends.py``);
``cuda``
    a CUDA-C emitter producing compilable ``.cu`` files (golden-file
    tested; ``repro compile <app> <variant> --backend cuda``).

Registering a backend makes it reachable from ``App.run(...,
backend=get_backend("mine"))`` and the CLI's ``--backend`` without
touching either. Where a run executes is never part of its identity, so
no backend reaches a cache key::

    from repro.backends import Backend, register_backend

    class MyBackend(Backend):
        name = "mine"
        executes = True
        def make_device(self, **kw): ...

    register_backend(MyBackend())
"""

from __future__ import annotations

from ..registry import Registry
from .base import Backend, BackendError
from .cpu import CpuBackend, CpuDevice, CpuJob, run_job, run_jobs
from .cuda import (
    CudaBackend, check_cu_syntax, clear_emit_cache, emit_cuda,
    normalize_cuda,
)
from .sim import SimBackend

__all__ = [
    "Backend",
    "BackendError",
    "SimBackend",
    "CpuBackend",
    "CudaBackend",
    "CpuDevice",
    "CpuJob",
    "run_job",
    "run_jobs",
    "emit_cuda",
    "normalize_cuda",
    "check_cu_syntax",
    "clear_emit_cache",
    "available_backends",
    "get_backend",
    "register_backend",
    "unregister_backend",
    "BUILTIN_BACKENDS",
    "DEFAULT_BACKEND",
]

#: the backend every run uses when none is named
DEFAULT_BACKEND = "sim"


def _validate(backend: Backend) -> None:
    if not (backend.executes or backend.emits):
        raise ValueError(
            f"backend {backend.name!r} must execute programs or emit "
            "source (or both)")


#: name -> singleton; insertion order is the presentation order of
#: ``repro list``
_REGISTRY: Registry[Backend] = Registry(
    "backend", Backend, error=BackendError, validate=_validate)

register_backend = _REGISTRY.register
unregister_backend = _REGISTRY.unregister
get_backend = _REGISTRY.get
available_backends = _REGISTRY.names

register_backend(SimBackend())
register_backend(CpuBackend())
register_backend(CudaBackend())

#: the built-in targets, as registered singletons
BUILTIN_BACKENDS = _REGISTRY.values()
