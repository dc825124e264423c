"""Simulated global memory: address space, device arrays and views.

Every device allocation gets a real range in a flat byte-address space so
that coalescing and cache behaviour are computed from true addresses, the
way the profiler hardware counters would see them. Functional storage is a
NumPy array per allocation (fast elementwise access from the interpreter),
while the address range drives the DRAM transaction model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import AllocationError, SimulationError

#: dtype spellings accepted by :meth:`GlobalMemory.alloc_array`.
_DTYPES = {
    "i4": np.int32,
    "u4": np.uint32,
    "i8": np.int64,
    "f4": np.float32,
    "f8": np.float64,
    "i1": np.int8,
}

_MINICUDA_DTYPE = {
    "int": "i4",
    "uint": "u4",
    "long": "i8",
    "size_t": "i8",
    "float": "f4",
    "double": "f8",
    "bool": "i1",
    "char": "i1",
    "void": "i1",
}


def dtype_for_type(base: str) -> str:
    """Map a MiniCUDA scalar base type to a dtype code."""
    return _MINICUDA_DTYPE[base]


class DeviceArray:
    """A device allocation: NumPy storage plus a base byte address.

    Indexing semantics match a C pointer of the element type. ``view(k)``
    performs pointer arithmetic (``p + k``). The object is deliberately
    small: the interpreter touches these on every memory event.
    """

    __slots__ = ("name", "data", "base_addr", "itemsize", "offset", "_root")

    def __init__(self, name: str, data: np.ndarray, base_addr: int, offset: int = 0,
                 root: Optional["DeviceArray"] = None):
        self.name = name
        self.data = data
        self.base_addr = base_addr
        self.itemsize = data.dtype.itemsize
        self.offset = offset
        self._root = root if root is not None else self

    # -- pointer arithmetic --------------------------------------------------

    def view(self, k: int) -> "DeviceArray":
        """``p + k`` — a shifted view sharing storage and address space."""
        if k == 0:
            return self
        return DeviceArray(self.name, self.data, self.base_addr, self.offset + int(k),
                           root=self._root)

    # -- functional access (host-side / interpreter) -------------------------

    def addr_of(self, index: int) -> int:
        return self.base_addr + (self.offset + index) * self.itemsize

    def load(self, index: int):
        i = self.offset + index
        if not 0 <= i < self.data.shape[0]:
            raise SimulationError(
                f"out-of-bounds load from {self.name!r}: index {index} "
                f"(offset {self.offset}, length {self.data.shape[0]})"
            )
        return self.data.item(i)

    def store(self, index: int, value) -> None:
        i = self.offset + index
        if not 0 <= i < self.data.shape[0]:
            raise SimulationError(
                f"out-of-bounds store to {self.name!r}: index {index} "
                f"(offset {self.offset}, length {self.data.shape[0]})"
            )
        try:
            self.data[i] = value
        except OverflowError:
            # C integer semantics: wrap modulo 2^bits (NumPy >= 2 raises on
            # out-of-range Python ints instead of wrapping)
            dt = self.data.dtype
            bits = dt.itemsize * 8
            wrapped = int(value) & ((1 << bits) - 1)
            if dt.kind == "i" and wrapped >= 1 << (bits - 1):
                wrapped -= 1 << bits
            self.data[i] = wrapped

    @property
    def size(self) -> int:
        return self.data.shape[0] - self.offset

    def to_numpy(self) -> np.ndarray:
        """Host copy of the (viewed) array contents."""
        return np.array(self.data[self.offset:], copy=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DeviceArray({self.name!r}, n={self.size}, "
                f"addr=0x{self.addr_of(0):x})")


@dataclass
class _Region:
    addr: int
    nbytes: int
    array: Optional[DeviceArray]


class GlobalMemory:
    """The device's flat global address space.

    Host-style allocations (``cudaMalloc``) are handed out by a bump
    pointer from the bottom; a dedicated *device heap* region at the top is
    managed by the pluggable allocators in :mod:`repro.alloc` (consolidation
    buffers live there).
    """

    #: base of the address space (avoid 0 == NULL)
    BASE = 0x1000
    ALIGN = 256

    def __init__(self, total_bytes: int, heap_bytes: int):
        if heap_bytes >= total_bytes:
            raise AllocationError("device heap larger than global memory")
        self.total_bytes = total_bytes
        self.heap_bytes = heap_bytes
        self._bump = self.BASE
        self._limit = self.BASE + total_bytes - heap_bytes
        self.heap_base = self._limit
        self.regions: dict[int, _Region] = {}
        self._counter = 0

    # -- host-style allocation -----------------------------------------------

    def alloc_array(self, name: str, dtype: str, n: int) -> DeviceArray:
        """Allocate an ``n``-element array of dtype code ``dtype``."""
        if n < 0:
            raise AllocationError(f"negative allocation size for {name!r}")
        np_dtype = _DTYPES[dtype]
        nbytes = max(1, n) * np.dtype(np_dtype).itemsize
        addr = self._aligned_bump(nbytes)
        data = np.zeros(max(1, n), dtype=np_dtype)
        arr = DeviceArray(name, data, addr)
        self.regions[addr] = _Region(addr, nbytes, arr)
        return arr

    def from_numpy(self, name: str, host: np.ndarray) -> DeviceArray:
        """``cudaMemcpy(HostToDevice)`` of a 1-D NumPy array."""
        host = np.ascontiguousarray(host)
        if host.ndim != 1:
            raise AllocationError("only 1-D arrays can be copied to device")
        code = host.dtype.str.lstrip("<>|=")
        if code not in _DTYPES:
            raise AllocationError(f"unsupported dtype {host.dtype}")
        arr = self.alloc_array(name, code, host.shape[0])
        arr.data[:] = host
        return arr

    def _aligned_bump(self, nbytes: int) -> int:
        addr = (self._bump + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        if addr + nbytes > self._limit:
            raise AllocationError(
                f"out of device memory: requested {nbytes} bytes "
                f"({self._limit - addr} free)"
            )
        self._bump = addr + nbytes
        return addr

    # -- device-heap binding (used by repro.alloc allocators) -----------------

    def bind_heap_array(self, name: str, dtype: str, n: int, addr: int) -> DeviceArray:
        """Create an array whose storage lives at a heap address handed out
        by a device-side allocator."""
        np_dtype = _DTYPES[dtype]
        nbytes = max(1, n) * np.dtype(np_dtype).itemsize
        if not (self.heap_base <= addr and addr + nbytes <= self.BASE + self.total_bytes):
            raise AllocationError(
                f"heap binding outside heap region: 0x{addr:x} (+{nbytes})"
            )
        data = np.zeros(max(1, n), dtype=np_dtype)
        arr = DeviceArray(name, data, addr)
        self.regions[addr] = _Region(addr, nbytes, arr)
        return arr

    @property
    def bytes_in_use(self) -> int:
        return self._bump - self.BASE
