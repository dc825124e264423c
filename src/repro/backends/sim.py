"""Simulator backend: the default execution target.

A thin adapter that gives :class:`repro.sim.device.Device` a seat in the
backend registry. The registered singleton runs the default engine;
``SimBackend(engine="scalar")`` runs the scalar reference engine, which
differential checks compare the default against.
"""

from __future__ import annotations

from typing import Optional

from ..sim.device import Device
from ..sim.specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C

from .base import Backend


class SimBackend(Backend):
    """The SIMT functional simulator with the timing/occupancy models."""

    name = "sim"
    summary = "SIMT functional simulator with timing model (default)"
    executes = True
    emits = False

    def __init__(self, engine: Optional[str] = None):
        #: functional engine of every device this backend builds
        #: (:data:`repro.sim.device.ENGINES`; None: the device default)
        self.engine = engine

    def make_device(self, spec: DeviceSpec = K20C,
                    cost: CostModel = DEFAULT_COST_MODEL,
                    allocator: str = "custom",
                    heap_bytes: Optional[int] = None) -> Device:
        kwargs = {}
        if heap_bytes is not None:
            kwargs["heap_bytes"] = heap_bytes
        return Device(spec=spec, cost=cost, allocator=allocator,
                      engine=self.engine, **kwargs)
