"""Executing CPU backend: a NumPy-backed MiniCUDA interpreter.

This is an *independent implementation* of MiniCUDA execution — it walks
the typed AST directly instead of going through
:mod:`repro.backend.codegen`'s Python-source lowering, and it carries its
own global memory, consolidation-buffer runtime and grid barrier. The
differential harness (``tests/test_backends.py``) runs every benchmark
variant and a fuzzed program corpus on both implementations and requires
element-for-element equal results, which turns the simulator's semantic-
preservation story into a cross-implementation property.

Scheduling
----------
Functional results of racy-but-benign idioms (float ``atomicAdd``
accumulation order, CAS claim order) depend on the execution schedule, so
"same output" is only well-defined against a *canonical schedule*. This
backend deliberately implements the same canonical schedule as the
simulator's :class:`~repro.sim.engine.FunctionalEngine`:

* blocks of a grid run sequentially;
* within a block, warps run to their next blocking point in index order;
* within a warp, live lanes advance in lockstep rounds — one *event*
  (global-memory access, sync, launch, intrinsic) per lane per round,
  lanes in ascending order;
* ``cudaDeviceSynchronize`` drains the block's pending children (FIFO,
  transitively); children never joined run FIFO after all parent blocks.

The two implementations share only this schedule contract and the event
opcode vocabulary (:mod:`repro.sim.events`); lowering, memory, and the
``__dp_*`` runtime are disjoint code.

Multiprocessing
---------------
Interpreted execution is a pure function of (source, arrays, launches),
so batches fan out across processes: :func:`run_jobs` executes
:class:`CpuJob` descriptions in a ``ProcessPoolExecutor`` (used by
``benchmarks/bench_backends.py``; the experiment runner's ``prefetch``
gets the same effect for full app runs via the ``--backend cpu`` axis).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..backend.intrinsics import (
    _expf, _fabs, _floorf, _ceilf, _idiv, _imod, _logf, _powf, _sqrtf,
)
from ..errors import LaunchError, SimulationError
from ..frontend import ast_nodes as A
from ..frontend.ast_nodes import Module
from ..frontend.parser import parse
from ..frontend.symbols import BUILTIN_CONSTANTS
from ..frontend.typecheck import ModuleInfo, check_module
from ..sim.events import (
    ATOM, DEVSYNC, INTR, LAUNCH, LD, ST, SYNC, WSYNC, ThreadCtx,
)
from ..sim.profiler import RunMetrics
from ..sim.specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C

from .base import Backend

# thread states (same lattice as the engine)
_RUNNING = 0
_AT_BARRIER = 1
_DONE = 2
_AT_WARP_BARRIER = 3

_MATH_FNS = {
    "sqrtf": _sqrtf, "sqrt": _sqrtf, "expf": _expf, "logf": _logf,
    "powf": _powf, "floorf": _floorf, "ceilf": _ceilf,
    "fabsf": _fabs, "fabs": _fabs, "abs": abs, "min": min, "max": max,
}

_ATOMIC_OPS = {
    "atomicAdd": "add", "atomicSub": "sub", "atomicMin": "min",
    "atomicMax": "max", "atomicExch": "exch", "atomicCAS": "cas",
    "atomicOr": "or", "atomicAnd": "and",
}

#: name-binding kinds inside a function body (mirrors the codegen lattice)
_SCALAR = "scalar"
_PTR = "ptr"
_LOCAL_ARRAY = "local_array"
_SHARED_ARRAY = "shared_array"
_SHARED_SCALAR = "shared_scalar"


class CpuArray:
    """A device allocation of the CPU backend: NumPy storage + offset.

    Same pointer semantics as the simulator's DeviceArray (``view`` is
    pointer arithmetic, ``load`` returns a Python scalar, ``store`` wraps
    out-of-range integers mod 2^bits like C), without the simulated
    address space — the CPU target has no coalescing model to feed.
    """

    __slots__ = ("name", "data", "offset")

    def __init__(self, name: str, data: np.ndarray, offset: int = 0):
        self.name = name
        self.data = data
        self.offset = offset

    def view(self, k: int) -> "CpuArray":
        if k == 0:
            return self
        return CpuArray(self.name, self.data, self.offset + int(k))

    def load(self, index: int):
        i = self.offset + index
        if not 0 <= i < self.data.shape[0]:
            raise SimulationError(
                f"out-of-bounds load from {self.name!r}: index {index} "
                f"(offset {self.offset}, length {self.data.shape[0]})")
        return self.data[i].item()

    def store(self, index: int, value) -> None:
        i = self.offset + index
        if not 0 <= i < self.data.shape[0]:
            raise SimulationError(
                f"out-of-bounds store to {self.name!r}: index {index} "
                f"(offset {self.offset}, length {self.data.shape[0]})")
        try:
            self.data[i] = value
        except OverflowError:
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
        return np.array(self.data[self.offset:], copy=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuArray({self.name!r}, n={self.size})"


def _wrap64(v) -> int:
    """Buffer fields are 64-bit like the sim's i8 slot storage."""
    w = int(v) & 0xFFFFFFFFFFFFFFFF
    return w - (1 << 64) if w >= 1 << 63 else w


@dataclass
class _CpuBuffer:
    nvars: int
    items: list = field(default_factory=list)  # flat field storage

    @property
    def count(self) -> int:
        return len(self.items) // self.nvars


class _CpuDpRuntime:
    """Consolidation buffers + grid barrier, re-implemented for the CPU
    target (list storage instead of heap-bound slot arrays; no pricing)."""

    def __init__(self):
        self.buffers: dict[int, _CpuBuffer] = {}
        self._scope_handles: dict[tuple, int] = {}
        self._barrier_remaining: dict[int, int] = {}
        self._next_handle = 1
        self.buffers_acquired = 0
        self.pushes = 0

    def handle_intrinsic(self, name: str, args: tuple, inst, ctx):
        if name in ("buf_push1", "buf_push2", "buf_push3", "buf_push4"):
            return self.push(args[0], args[1:])
        if name == "buf_get":
            return self.get(args[0], args[1], args[2])
        if name == "buf_size":
            return self._buffer(args[0]).count
        if name == "buf_acquire":
            return self.acquire(inst, ctx, args[0], args[1], args[2])
        if name == "buf_reset":
            self._buffer(args[0]).items.clear()
            return None
        if name == "grid_arrive_last":
            return self.grid_arrive_last(inst)
        raise SimulationError(f"unknown __dp intrinsic {name!r}")

    def acquire(self, inst, ctx, gran: int, slots: int, nvars: int) -> int:
        if gran == 0:
            key = (inst.uid, ctx.bx, ctx.warp_id)
        elif gran == 1:
            key = (inst.uid, ctx.bx)
        elif gran == 2:
            key = (inst.uid,)
        else:
            raise SimulationError(f"bad consolidation granularity code {gran}")
        handle = self._scope_handles.get(key)
        if handle is None:
            handle = self._next_handle
            self._next_handle += 1
            self.buffers[handle] = _CpuBuffer(nvars=max(1, int(nvars)))
            self._scope_handles[key] = handle
            self.buffers_acquired += 1
        return handle

    def _buffer(self, handle) -> _CpuBuffer:
        buf = self.buffers.get(int(handle))
        if buf is None:
            raise SimulationError(
                f"use of invalid consolidation buffer handle {handle!r}")
        return buf

    def push(self, handle, values: tuple) -> int:
        buf = self._buffer(handle)
        if len(values) != buf.nvars:
            raise SimulationError(
                f"buffer {handle}: push of {len(values)} fields into a "
                f"{buf.nvars}-field buffer")
        slot = buf.count
        buf.items.extend(_wrap64(v) for v in values)
        self.pushes += 1
        return slot

    def get(self, handle, slot: int, fld: int) -> int:
        buf = self._buffer(handle)
        if not 0 <= slot < buf.count:
            raise SimulationError(
                f"buffer {handle}: read of slot {slot} (count {buf.count})")
        if not 0 <= fld < buf.nvars:
            raise SimulationError(
                f"buffer {handle}: read of field {fld} "
                f"({buf.nvars}-field buffer)")
        return buf.items[slot * buf.nvars + fld]

    def grid_arrive_last(self, inst) -> int:
        remaining = self._barrier_remaining.get(inst.uid, inst.grid) - 1
        self._barrier_remaining[inst.uid] = remaining
        if remaining < 0:
            raise SimulationError(
                f"grid barrier of kernel {inst.name}: more arrivals than "
                "blocks")
        return 1 if remaining == 0 else 0


# --------------------------------------------------------------- interpreter

class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Env:
    """Lexically scoped bindings: name -> (kind, value). Shared scalars
    and arrays bind their backing list; scalars/pointers rebind."""

    __slots__ = ("scopes",)

    def __init__(self):
        self.scopes = [{}]

    def push(self):
        self.scopes.append({})

    def pop(self):
        self.scopes.pop()

    def declare(self, name, kind, value):
        self.scopes[-1][name] = (kind, value)

    def lookup(self, name):
        for scope in reversed(self.scopes):
            entry = scope.get(name)
            if entry is not None:
                return entry
        return None

    def rebind(self, name, value):
        for scope in reversed(self.scopes):
            entry = scope.get(name)
            if entry is not None:
                scope[name] = (entry[0], value)
                return
        raise SimulationError(f"assignment to undeclared name {name!r}")


def _shared_key(name, env) -> str:
    """Block-storage key of a ``__shared__`` declaration of ``name``: the
    name, or when it shadows a visible binding a key no identifier can
    spell (the codegen backend keys the same way)."""
    return name if env.lookup(name) is None else f"{name}#{len(env.scopes)}"


class _Interp:
    """Tree-walking interpreter for one checked module.

    Execution methods are generators yielding the engine-compatible
    event tuples; the scheduler in :class:`CpuDevice` consumes them.
    Yield points match :mod:`repro.backend.codegen` exactly (that is the
    schedule contract — see the module docstring), including evaluation
    order quirks the Python lowering inherits from Python itself, e.g.
    plain assignment to a local array evaluates the value before the
    index while a device store evaluates the index first.
    """

    def __init__(self, info: ModuleInfo):
        self.info = info
        self.functions = {fn.name: fn for fn in info.module.functions()}
        self._simple_memo: dict[int, bool] = {}

    # ------------------------------------------------------------- entry

    def thread(self, fn: A.FunctionDef, ctx: ThreadCtx, args: tuple):
        yield from self._call(fn, ctx, args)

    def _call(self, fn: A.FunctionDef, ctx: ThreadCtx, args):
        env = _Env()
        for p, v in zip(fn.params, args):
            env.declare(p.name, _PTR if p.type.is_pointer else _SCALAR, v)
        try:
            yield from self._exec_block(fn.body, ctx, env, new_scope=False)
        except _Return as r:
            return r.value
        return None

    # ------------------------------------------------- simple-expression path

    def _simple(self, e) -> bool:
        """True when evaluating ``e`` can never produce an event, so the
        non-generator fast path applies. Syntactic: calls, launches,
        indexing and pointer dereference are conservatively event-ful
        (indexing a local array is re-checked dynamically at eval time)."""
        memo = self._simple_memo
        key = id(e)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(e, (A.IntLit, A.FloatLit, A.BoolLit, A.StringLit,
                          A.Ident, A.BuiltinVar)):
            result = True
        elif isinstance(e, A.UnOp):
            result = e.op in ("!", "~", "-", "+") and self._simple(e.operand)
        elif isinstance(e, A.BinOp):
            result = self._simple(e.left) and self._simple(e.right)
        elif isinstance(e, A.Ternary):
            result = (self._simple(e.cond) and self._simple(e.then)
                      and self._simple(e.els))
        elif isinstance(e, A.Cast):
            result = self._simple(e.expr)
        else:
            result = False
        memo[key] = result
        return result

    def _eval_simple(self, e, ctx, env):
        """Direct (non-generator) evaluation of event-free expressions."""
        if isinstance(e, A.IntLit):
            return e.value
        if isinstance(e, A.Ident):
            return self._ident(e, env)
        if isinstance(e, A.BinOp):
            return self._binop_simple(e, ctx, env)
        if isinstance(e, A.BuiltinVar):
            return self._builtin_var(e, ctx)
        if isinstance(e, A.FloatLit):
            return e.value
        if isinstance(e, A.BoolLit):
            return e.value
        if isinstance(e, A.StringLit):
            return e.value
        if isinstance(e, A.UnOp):
            v = self._eval_simple(e.operand, ctx, env)
            if e.op == "!":
                return not v
            if e.op == "~":
                return ~v
            if e.op == "-":
                return -v
            return +v
        if isinstance(e, A.Ternary):
            if self._eval_simple(e.cond, ctx, env):
                return self._eval_simple(e.then, ctx, env)
            return self._eval_simple(e.els, ctx, env)
        if isinstance(e, A.Cast):
            return self._apply_cast(e, self._eval_simple(e.expr, ctx, env))
        raise SimulationError(
            f"cannot evaluate expression {type(e).__name__}")

    def _binop_simple(self, e: A.BinOp, ctx, env):
        op = e.op
        left = self._eval_simple(e.left, ctx, env)
        if op == "&&":
            return left and self._eval_simple(e.right, ctx, env)
        if op == "||":
            return left or self._eval_simple(e.right, ctx, env)
        right = self._eval_simple(e.right, ctx, env)
        return self._binop_value(e, op, left, right)

    # ------------------------------------------------------------ expressions

    def _eval(self, e, ctx, env):
        """Generator evaluation; may yield events."""
        if self._simple(e):
            return self._eval_simple(e, ctx, env)
        if isinstance(e, A.Index):
            return (yield from self._index_load(e, ctx, env))
        if isinstance(e, A.Call):
            return (yield from self._eval_call(e, ctx, env, as_stmt=False))
        if isinstance(e, A.BinOp):
            return (yield from self._binop(e, ctx, env))
        if isinstance(e, A.UnOp):
            return (yield from self._unop(e, ctx, env))
        if isinstance(e, A.Ternary):
            cond = yield from self._eval(e.cond, ctx, env)
            if cond:
                return (yield from self._eval(e.then, ctx, env))
            return (yield from self._eval(e.els, ctx, env))
        if isinstance(e, A.Cast):
            return self._apply_cast(e, (yield from self._eval(e.expr, ctx, env)))
        if isinstance(e, A.LaunchExpr):
            yield from self._launch(e, ctx, env)
            return None
        if isinstance(e, (A.Assign, A.IncDec)):
            raise SimulationError(
                f"{type(e).__name__} may only be used as a statement")
        raise SimulationError(f"cannot evaluate expression {type(e).__name__}")

    def _ident(self, e: A.Ident, env):
        entry = env.lookup(e.name)
        if entry is None:
            if e.name in BUILTIN_CONSTANTS:
                return BUILTIN_CONSTANTS[e.name][1]
            decl = self.info.globals.get(e.name)
            if decl is not None and decl.init is not None:
                # module-scope constants (rare; evaluated as literals)
                return self._eval_simple(decl.init, None, _Env())
            raise SimulationError(f"unknown identifier {e.name!r}")
        kind, value = entry
        if kind == _SHARED_SCALAR:
            return value[0]
        return value

    def _builtin_var(self, e: A.BuiltinVar, ctx):
        if e.dim != "x":
            return 0 if e.name in ("threadIdx", "blockIdx") else 1
        return {"threadIdx": ctx.tx, "blockIdx": ctx.bx,
                "blockDim": ctx.bdim, "gridDim": ctx.gdim}[e.name]

    def _apply_cast(self, e: A.Cast, value):
        if e.type.is_pointer:
            return value
        if e.type.is_float:
            return float(value)
        if e.type.base == "bool":
            return bool(value)
        return int(value)

    def _binop_value(self, e, op, left, right):
        lt = getattr(e.left, "ty", None)
        rt = getattr(e.right, "ty", None)
        # pointer arithmetic
        if lt is not None and lt.is_pointer and op in ("+", "-") \
                and rt is not None and rt.is_integer:
            return left.view(right if op == "+" else -right)
        if lt is not None and rt is not None and lt.is_integer \
                and rt.is_pointer and op == "+":
            return right.view(left)
        if op == "/":
            both_int = (lt is not None and rt is not None
                        and lt.is_integer and rt.is_integer)
            if both_int or (lt is not None and rt is None and lt.is_integer) \
                    or (lt is None and rt is None):
                return _idiv(left, right)
            return left / right
        if op == "%":
            return _imod(left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        raise SimulationError(f"cannot evaluate operator {op!r}")

    def _binop(self, e: A.BinOp, ctx, env):
        op = e.op
        if op == "&&":
            left = yield from self._eval(e.left, ctx, env)
            if not left:
                return left
            return (yield from self._eval(e.right, ctx, env))
        if op == "||":
            left = yield from self._eval(e.left, ctx, env)
            if left:
                return left
            return (yield from self._eval(e.right, ctx, env))
        left = yield from self._eval(e.left, ctx, env)
        right = yield from self._eval(e.right, ctx, env)
        return self._binop_value(e, op, left, right)

    def _unop(self, e: A.UnOp, ctx, env):
        if e.op == "*":
            ptr = yield from self._eval(e.operand, ctx, env)
            return (yield (LD, ptr, 0))
        if e.op == "&":
            target = e.operand
            base, index = yield from self._pointer_base_index(target, ctx, env)
            return base.view(index)
        value = yield from self._eval(e.operand, ctx, env)
        if e.op == "!":
            return not value
        if e.op == "~":
            return ~value
        if e.op == "-":
            return -value
        return +value

    def _index_load(self, e: A.Index, ctx, env):
        base = e.base
        if isinstance(base, A.Ident):
            entry = env.lookup(base.name)
            kind = entry[0] if entry is not None else None
            if kind in (_LOCAL_ARRAY, _SHARED_ARRAY, _SHARED_SCALAR):
                index = yield from self._eval(e.index, ctx, env)
                return entry[1][index]
            arr = self._ident(base, env)
            index = yield from self._eval(e.index, ctx, env)
            return (yield (LD, arr, index))
        arr = yield from self._eval(base, ctx, env)
        index = yield from self._eval(e.index, ctx, env)
        return (yield (LD, arr, index))

    # ---------------------------------------------------------------- calls

    def _eval_call(self, e: A.Call, ctx, env, as_stmt: bool):
        name = e.callee
        if name == "__syncthreads":
            yield (SYNC,)
            return 0
        if name == "__syncwarp":
            yield (WSYNC,)
            return 0
        if name == "__threadfence":
            return 0
        if name == "cudaDeviceSynchronize":
            yield (DEVSYNC,)
            return 0
        if name in _ATOMIC_OPS:
            base, index = yield from self._pointer_base_index(
                e.args[0], ctx, env)
            operands = []
            for a in e.args[1:]:
                operands.append((yield from self._eval(a, ctx, env)))
            return (yield (ATOM, _ATOMIC_OPS[name], base, index, *operands))
        if name in _MATH_FNS:
            if as_stmt:
                # mirrors codegen, which drops bare math-fn statements
                # without evaluating their arguments
                return None
            args = []
            for a in e.args:
                args.append((yield from self._eval(a, ctx, env)))
            return _MATH_FNS[name](*args)
        if name == "printf":
            return None
        if name == "assert":
            value = yield from self._eval(e.args[0], ctx, env)
            assert value
            return None
        if name.startswith("__dp_"):
            intr = name[len("__dp_"):]
            if intr == "lane":
                return ctx.lane
            if intr == "warp_id":
                return ctx.warp_id
            args = []
            for a in e.args:
                args.append((yield from self._eval(a, ctx, env)))
            return (yield (INTR, intr, tuple(args)))
        fn = self.functions.get(name)
        if fn is None:
            raise SimulationError(f"call to unknown function {name!r}")
        args = []
        for a in e.args:
            args.append((yield from self._eval(a, ctx, env)))
        return (yield from self._call(fn, ctx, args))

    def _pointer_base_index(self, ptr, ctx, env):
        """Decompose a pointer-valued argument into (array, index)."""
        if isinstance(ptr, A.UnOp) and ptr.op == "&":
            target = ptr.operand
            assert isinstance(target, A.Index)
            base = target.base
            if isinstance(base, A.Ident):
                entry = env.lookup(base.name)
                kind = entry[0] if entry is not None else None
                if kind in (_LOCAL_ARRAY, _SHARED_ARRAY):
                    raise SimulationError(
                        "atomics/address-of on local or shared arrays are "
                        "unsupported")
                arr = self._ident(base, env)
            else:
                arr = yield from self._eval(base, ctx, env)
            index = yield from self._eval(target.index, ctx, env)
            return arr, index
        arr = yield from self._eval(ptr, ctx, env)
        return arr, 0

    def _launch(self, e: A.LaunchExpr, ctx, env):
        grid = yield from self._eval(e.grid, ctx, env)
        block = yield from self._eval(e.block, ctx, env)
        args = []
        for a in e.args:
            args.append((yield from self._eval(a, ctx, env)))
        yield (LAUNCH, e.callee, int(grid), int(block), tuple(args))

    # ------------------------------------------------------------ statements

    def _exec_block(self, block: A.Block, ctx, env, new_scope: bool = True):
        if new_scope:
            env.push()
        try:
            for stmt in block.stmts:
                yield from self._exec_stmt(stmt, ctx, env)
        finally:
            if new_scope:
                env.pop()

    def _exec_stmt(self, s, ctx, env):
        if isinstance(s, A.ExprStmt):
            yield from self._exec_expr_stmt(s.expr, ctx, env)
            return
        if isinstance(s, A.If):
            cond = (self._eval_simple(s.cond, ctx, env)
                    if self._simple(s.cond)
                    else (yield from self._eval(s.cond, ctx, env)))
            if cond:
                yield from self._exec_stmt(s.then, ctx, env)
            elif s.els is not None:
                yield from self._exec_stmt(s.els, ctx, env)
            return
        if isinstance(s, A.Block):
            yield from self._exec_block(s, ctx, env)
            return
        if isinstance(s, A.DeclStmt):
            for d in s.declarators:
                yield from self._exec_decl(d, s, ctx, env)
            return
        if isinstance(s, A.For):
            env.push()
            try:
                if s.init is not None:
                    yield from self._exec_stmt(s.init, ctx, env)
                simple_cond = s.cond is not None and self._simple(s.cond)
                while True:
                    if s.cond is not None:
                        cond = (self._eval_simple(s.cond, ctx, env)
                                if simple_cond
                                else (yield from self._eval(s.cond, ctx, env)))
                        if not cond:
                            break
                    try:
                        yield from self._exec_stmt(s.body, ctx, env)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if s.step is not None:
                        yield from self._exec_expr_stmt(s.step, ctx, env)
            finally:
                env.pop()
            return
        if isinstance(s, A.While):
            simple_cond = self._simple(s.cond)
            while True:
                cond = (self._eval_simple(s.cond, ctx, env) if simple_cond
                        else (yield from self._eval(s.cond, ctx, env)))
                if not cond:
                    break
                try:
                    yield from self._exec_stmt(s.body, ctx, env)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if isinstance(s, A.DoWhile):
            while True:
                try:
                    yield from self._exec_stmt(s.body, ctx, env)
                except _Break:
                    break
                except _Continue:
                    pass
                cond = yield from self._eval(s.cond, ctx, env)
                if not cond:
                    break
            return
        if isinstance(s, A.Return):
            if s.value is None:
                raise _Return(None)
            raise _Return((yield from self._eval(s.value, ctx, env)))
        if isinstance(s, A.Break):
            raise _Break()
        if isinstance(s, A.Continue):
            raise _Continue()
        if isinstance(s, A.EmptyStmt):
            return
        if isinstance(s, A.PragmaStmt):
            # unconsumed directive: execute the annotated statement as-is
            yield from self._exec_stmt(s.stmt, ctx, env)
            return
        raise SimulationError(f"cannot execute statement {type(s).__name__}")

    def _exec_decl(self, d: A.VarDeclarator, s: A.DeclStmt, ctx, env):
        if d.array_size is not None:
            size = yield from self._eval(d.array_size, ctx, env)
            if d.init is not None:
                raise SimulationError("array initializers are not supported")
            if s.shared:
                env.declare(d.name, _SHARED_ARRAY,
                            ctx.shared_array(_shared_key(d.name, env), size))
            else:
                init = 0.0 if d.type.is_float else 0
                env.declare(d.name, _LOCAL_ARRAY, [init] * size)
            return
        if s.shared:
            cell = ctx.shared_array(_shared_key(d.name, env), 1)
            env.declare(d.name, _SHARED_SCALAR, cell)
            if d.init is not None:
                cell[0] = yield from self._eval(d.init, ctx, env)
            return
        kind = _PTR if d.type.is_pointer else _SCALAR
        if d.init is not None:
            value = yield from self._eval(d.init, ctx, env)
        else:
            value = 0.0 if d.type.is_float else (None if kind == _PTR else 0)
        env.declare(d.name, kind, value)

    def _exec_expr_stmt(self, e, ctx, env):
        if isinstance(e, A.Assign):
            yield from self._exec_assign(e, ctx, env)
            return
        if isinstance(e, A.IncDec):
            yield from self._exec_incdec(e, ctx, env)
            return
        if isinstance(e, A.BinOp) and e.op == ",":
            yield from self._exec_expr_stmt(e.left, ctx, env)
            yield from self._exec_expr_stmt(e.right, ctx, env)
            return
        if isinstance(e, A.Call):
            yield from self._eval_call(e, ctx, env, as_stmt=True)
            return
        if isinstance(e, A.LaunchExpr):
            yield from self._launch(e, ctx, env)
            return
        yield from self._eval(e, ctx, env)

    def _python_compound(self, op: str, old, value):
        """Compound scalar assignment uses host-Python operator semantics,
        exactly like the codegen lowering emits (`x += v`, `x /= v`, ...)."""
        if op == "+":
            return old + value
        if op == "-":
            return old - value
        if op == "*":
            return old * value
        if op == "/":
            return old / value
        if op == "%":
            return old % value
        if op == "&":
            return old & value
        if op == "|":
            return old | value
        if op == "^":
            return old ^ value
        if op == "<<":
            return old << value
        if op == ">>":
            return old >> value
        raise SimulationError(f"cannot apply compound operator {op!r}=")

    def _exec_assign(self, e: A.Assign, ctx, env):
        target = e.target
        if isinstance(target, A.Ident):
            entry = env.lookup(target.name)
            kind = entry[0] if entry is not None else (
                _PTR if target.name in self.info.globals
                and self.info.globals[target.name].type.is_pointer
                else _SCALAR)
            if kind == _SHARED_SCALAR:
                cell = entry[1]
                if e.op == "=":
                    cell[0] = yield from self._eval(e.value, ctx, env)
                else:
                    # Python `s[0] op= v` reads the old value before
                    # evaluating v; other lanes may interleave at v's yields
                    old = cell[0]
                    value = yield from self._eval(e.value, ctx, env)
                    cell[0] = self._python_compound(e.op[:-1], old, value)
                return
            value = yield from self._eval(e.value, ctx, env)
            if e.op == "=":
                new = value
            else:
                old = entry[1] if entry is not None else 0
                new = self._python_compound(e.op[:-1], old, value)
            # C truncates float -> int on assignment to an int scalar
            tt = getattr(e.target, "ty", None)
            vt = getattr(e.value, "ty", None)
            if tt is not None and vt is not None and tt.is_integer \
                    and vt.is_float:
                new = int(new)
            if entry is not None:
                env.rebind(target.name, new)
            else:
                env.declare(target.name, kind, new)
            return
        if isinstance(target, A.Index) or (isinstance(target, A.UnOp)
                                           and target.op == "*"):
            deref = isinstance(target, A.UnOp)
            base_node = target.operand if deref else target.base
            local = None
            if not deref and isinstance(base_node, A.Ident):
                entry = env.lookup(base_node.name)
                if entry is not None and entry[0] in (_LOCAL_ARRAY,
                                                      _SHARED_ARRAY):
                    local = entry[1]
            if local is not None:
                # Python list-assignment order: plain `=` evaluates the
                # value first; compound `op=` reads before the value
                if e.op == "=":
                    value = yield from self._eval(e.value, ctx, env)
                    index = yield from self._eval(target.index, ctx, env)
                    local[index] = value
                else:
                    index = yield from self._eval(target.index, ctx, env)
                    old = local[index]
                    value = yield from self._eval(e.value, ctx, env)
                    local[index] = self._python_compound(e.op[:-1], old, value)
                return
            if deref:
                arr = yield from self._eval(base_node, ctx, env)
                index = 0
            elif isinstance(base_node, A.Ident):
                arr = self._ident(base_node, env)
                index = yield from self._eval(target.index, ctx, env)
            else:
                arr = yield from self._eval(base_node, ctx, env)
                index = yield from self._eval(target.index, ctx, env)
            if e.op == "=":
                value = yield from self._eval(e.value, ctx, env)
                yield (ST, arr, index, value)
            else:
                old = yield (LD, arr, index)
                value = yield from self._eval(e.value, ctx, env)
                new = self._device_compound(e.op[:-1], old, value, target)
                yield (ST, arr, index, new)
            return
        raise SimulationError("unsupported assignment target")

    def _device_compound(self, op: str, old, value, target):
        """Compound assignment into device memory goes through the C
        division helpers (mirrors codegen's binop_code on the ST path)."""
        tt = getattr(target, "ty", None)
        if op == "/":
            if tt is None or tt.is_integer:
                return _idiv(old, value)
            return old / value
        if op == "%":
            return _imod(old, value)
        return self._python_compound(op, old, value)

    def _exec_incdec(self, e: A.IncDec, ctx, env):
        delta = 1 if e.op == "++" else -1
        target = e.operand
        if isinstance(target, A.Ident):
            entry = env.lookup(target.name)
            if entry is None:
                raise SimulationError(
                    f"++/-- of undeclared name {target.name!r}")
            if entry[0] == _SHARED_SCALAR:
                entry[1][0] = entry[1][0] + delta
            else:
                env.rebind(target.name, entry[1] + delta)
            return
        if isinstance(target, A.Index) or (isinstance(target, A.UnOp)
                                           and target.op == "*"):
            deref = isinstance(target, A.UnOp)
            base_node = target.operand if deref else target.base
            if not deref and isinstance(base_node, A.Ident):
                entry = env.lookup(base_node.name)
                if entry is not None and entry[0] in (_LOCAL_ARRAY,
                                                      _SHARED_ARRAY):
                    # `a[i] = a[i] + 1`: the index expression runs twice
                    arr = entry[1]
                    i1 = yield from self._eval(target.index, ctx, env)
                    old = arr[i1]
                    i2 = yield from self._eval(target.index, ctx, env)
                    arr[i2] = old + delta
                    return
                arr = self._ident(base_node, env)
                index = yield from self._eval(target.index, ctx, env)
            elif deref:
                arr = yield from self._eval(base_node, ctx, env)
                index = 0
            else:
                arr = yield from self._eval(base_node, ctx, env)
                index = yield from self._eval(target.index, ctx, env)
            old = yield (LD, arr, index)
            yield (ST, arr, index, old + delta)
            return
        raise SimulationError("unsupported ++/-- target")


# ----------------------------------------------------------------- scheduler

@dataclass
class _Instance:
    """One kernel grid on the CPU backend."""

    uid: int
    name: str
    grid: int
    block_dim: int
    args: tuple
    depth: int


class _Warp:
    __slots__ = ("threads", "ctxs", "states", "pending")

    def __init__(self, threads, ctxs):
        self.threads = threads
        self.ctxs = ctxs
        self.states = [_RUNNING] * len(threads)
        self.pending = [None] * len(threads)


class CpuProgram:
    """A loaded module bound to a CpuDevice (Device.Program facade)."""

    def __init__(self, device: "CpuDevice", info: ModuleInfo):
        self.device = device
        self.info = info

    def kernel_names(self) -> list[str]:
        return sorted(self.info.kernel_names())

    def launch(self, name: str, grid: int, block: int, *args) -> None:
        self.device.launch(name, grid, block, *args)


class CpuDevice:
    """Device facade over the CPU interpreter.

    Drop-in for :class:`repro.sim.device.Device` as far as app host
    drivers are concerned; ``cost`` and ``allocator`` are accepted for
    signature parity and ignored (there is nothing to price).
    ``synchronize`` returns a :class:`RunMetrics` with the functional
    counters filled in and every timing quantity zero.
    """

    def __init__(self, spec: DeviceSpec = K20C,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 allocator: str = "custom",
                 heap_bytes: Optional[int] = None):
        self.spec = spec
        self.cost = cost
        self.dp = _CpuDpRuntime()
        self.functions: dict[str, A.FunctionDef] = {}
        self._interps: dict[str, _Interp] = {}
        self._uid = 0
        self.host_launches = 0
        self.device_launches = 0
        self._instances_since_sync = 0
        self.last_metrics: Optional[RunMetrics] = None

    # ------------------------------------------------------------- loading

    def load(self, module: Union[str, Module, ModuleInfo]) -> CpuProgram:
        if isinstance(module, str):
            module = parse(module)
        if isinstance(module, Module):
            info = check_module(module, allow_reserved=True)
        else:
            info = module
        interp = _Interp(info)
        for name in interp.functions:
            if name in self.functions:
                raise SimulationError(
                    f"kernel/function {name!r} already loaded on this device")
        for name, fn in interp.functions.items():
            self.functions[name] = fn
            self._interps[name] = interp
        return CpuProgram(self, info)

    # ------------------------------------------------------------- memory

    _DTYPES = {"i4": np.int32, "u4": np.uint32, "i8": np.int64,
               "f4": np.float32, "f8": np.float64, "i1": np.int8}

    def alloc(self, name: str, dtype: str, n: int) -> CpuArray:
        return CpuArray(name, np.zeros(max(1, n), dtype=self._DTYPES[dtype]))

    def from_numpy(self, name: str, host: np.ndarray) -> CpuArray:
        host = np.ascontiguousarray(host)
        if host.ndim != 1:
            raise SimulationError("only 1-D arrays can be copied to device")
        return CpuArray(name, host.copy())

    @staticmethod
    def to_numpy(arr: CpuArray) -> np.ndarray:
        return arr.to_numpy()

    # ------------------------------------------------------------ launches

    def launch(self, name: str, grid: int, block: int, *args) -> None:
        if name not in self.functions:
            raise LaunchError(f"launch of unknown kernel {name!r}")
        self._validate_config(name, grid, block)
        inst = self._new_instance(name, int(grid), int(block), args, depth=0)
        self.host_launches += 1
        self._run_tree([inst])

    def _validate_config(self, name: str, grid: int, block: int) -> None:
        # a device launch's error is prefixed with the launching kernel
        if grid <= 0 or block <= 0:
            raise LaunchError(
                f"launch of {name}: invalid configuration <<<{grid}, {block}>>>")
        if block > self.spec.max_threads_per_block:
            raise LaunchError(
                f"launch of {name}: {block} threads/block exceeds the device "
                f"limit of {self.spec.max_threads_per_block}")

    def _new_instance(self, name, grid, block, args, depth) -> _Instance:
        self._uid += 1
        self._instances_since_sync += 1
        return _Instance(uid=self._uid, name=name, grid=grid,
                         block_dim=block, args=tuple(args), depth=depth)

    def _on_device_launch(self, parent: _Instance, name: str, grid: int,
                          block: int, args: tuple) -> _Instance:
        if name not in self.functions:
            raise LaunchError(f"device launch of unknown kernel {name!r}")
        depth = parent.depth + 1
        if depth > self.spec.max_nesting_depth:
            raise LaunchError(
                f"dynamic-parallelism nesting depth {depth} "
                f"exceeds the device limit of {self.spec.max_nesting_depth}")
        self._validate_config(name, grid, block)
        self.device_launches += 1
        return self._new_instance(name, int(grid), int(block), args,
                                  depth=depth)

    # --------------------------------------------------------------- sync

    def synchronize(self) -> RunMetrics:
        metrics = RunMetrics(
            cycles=0.0,
            host_launches=self.host_launches,
            device_launches=self.device_launches,
            kernel_instances=self._instances_since_sync,
            buffers_acquired=self.dp.buffers_acquired,
            buffer_pushes=self.dp.pushes,
            allocator_kind="cpu",
        )
        self._instances_since_sync = 0
        self.last_metrics = metrics
        return metrics

    def reset_profile(self) -> None:
        self.host_launches = 0
        self.device_launches = 0
        self._instances_since_sync = 0

    # ----------------------------------------------------------- execution

    def _run_tree(self, roots: list[_Instance]) -> None:
        from collections import deque

        queue = deque(roots)
        while queue:
            inst = queue.popleft()
            self._run_blocks(inst, queue)

    def _run_blocks(self, inst: _Instance, queue) -> None:
        try:
            interp = self._interps.get(inst.name)
            if interp is None:
                raise SimulationError("not loaded on this device")
            fn = self.functions[inst.name]
            if inst.grid <= 0 or inst.block_dim <= 0:
                raise SimulationError(
                    f"empty launch configuration "
                    f"<<<{inst.grid}, {inst.block_dim}>>>")
            for bx in range(inst.grid):
                queue.extend(self._run_block(inst, interp, fn, bx))
        except SimulationError as exc:
            # name the innermost failing kernel, once, as the simulator's
            # engine does: a device-synced child's error crosses its
            # parent's frame already named
            if exc.kernel is None:
                exc.kernel = inst.name
                exc.args = (f"kernel {inst.name}: {exc}",)
            raise

    def _make_warps(self, inst, interp, fn, bx, shared):
        wsz = self.spec.warp_size
        bdim = inst.block_dim
        warps = []
        for wbase in range(0, bdim, wsz):
            lanes = range(wbase, min(wbase + wsz, bdim))
            ctxs = [ThreadCtx(tx, bx, bdim, inst.grid, shared, wsz)
                    for tx in lanes]
            gens = [interp.thread(fn, ctx, inst.args) for ctx in ctxs]
            warps.append(_Warp(gens, ctxs))
        return warps

    def _run_block(self, inst, interp, fn, bx) -> list:
        shared: dict = {}
        warps = self._make_warps(inst, interp, fn, bx, shared)
        block_pending: list[_Instance] = []
        while True:
            progressed = False
            barrier_waiters = 0
            done_warps = 0
            for warp in warps:
                status = self._run_warp(warp, inst, block_pending)
                if status == "barrier":
                    barrier_waiters += 1
                elif status == "done":
                    done_warps += 1
                elif status == "devsync":
                    children = list(block_pending)
                    block_pending.clear()
                    self._run_tree(children)
                    progressed = True
                if status == "progress":
                    progressed = True
            if done_warps == len(warps):
                break
            if barrier_waiters + done_warps == len(warps) and barrier_waiters:
                for warp in warps:
                    for i, st in enumerate(warp.states):
                        if st == _AT_BARRIER:
                            warp.states[i] = _RUNNING
                progressed = True
            if not progressed:
                raise SimulationError(
                    f"deadlock in block {bx}: "
                    f"{barrier_waiters} warps at barrier, {done_warps} done")
        return block_pending

    def _run_warp(self, warp: _Warp, inst, block_pending) -> str:
        states = warp.states
        threads = warp.threads
        pending = warp.pending
        ctxs = warp.ctxs
        made_progress = False
        while True:
            live = [i for i, st in enumerate(states) if st == _RUNNING]
            if not live:
                released = False
                for i, st in enumerate(states):
                    if st == _AT_WARP_BARRIER:
                        states[i] = _RUNNING
                        released = True
                if released:
                    made_progress = True
                    continue
                if any(st == _AT_BARRIER for st in states):
                    return "barrier" if not made_progress else "progress"
                return "done"
            active = 0
            devsync_requested = False
            for i in live:
                gen = threads[i]
                try:
                    ev = gen.send(pending[i])
                except StopIteration:
                    states[i] = _DONE
                    continue
                pending[i] = None
                active += 1
                op = ev[0]
                if op == LD:
                    pending[i] = ev[1].load(ev[2])
                elif op == ST:
                    ev[1].store(ev[2], ev[3])
                elif op == ATOM:
                    pending[i] = self._do_atomic(ev)
                elif op == SYNC:
                    states[i] = _AT_BARRIER
                elif op == WSYNC:
                    states[i] = _AT_WARP_BARRIER
                elif op == LAUNCH:
                    block_pending.append(self._on_device_launch(
                        inst, ev[1], ev[2], ev[3], ev[4]))
                elif op == DEVSYNC:
                    devsync_requested = True
                elif op == INTR:
                    pending[i] = self.dp.handle_intrinsic(
                        ev[1], ev[2], inst, ctxs[i])
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event opcode {op}")
            if active == 0:
                continue
            made_progress = True
            if devsync_requested:
                return "devsync"

    @staticmethod
    def _do_atomic(ev):
        op = ev[1]
        arr = ev[2]
        idx = ev[3]
        old = arr.load(idx)
        if op == "add":
            arr.store(idx, old + ev[4])
        elif op == "sub":
            arr.store(idx, old - ev[4])
        elif op == "min":
            if ev[4] < old:
                arr.store(idx, ev[4])
        elif op == "max":
            if ev[4] > old:
                arr.store(idx, ev[4])
        elif op == "exch":
            arr.store(idx, ev[4])
        elif op == "cas":
            if old == ev[4]:
                arr.store(idx, ev[5])
        elif op == "or":
            arr.store(idx, old | ev[4])
        elif op == "and":
            arr.store(idx, old & ev[4])
        else:  # pragma: no cover - typechecker prevents
            raise SimulationError(f"unknown atomic op {op!r}")
        return old


# ------------------------------------------------------------ batch execution

@dataclass
class CpuJob:
    """A picklable unit of CPU-backend work for :func:`run_jobs`.

    ``launches`` is a list of ``(kernel, grid, block, args)`` where each
    arg is either a plain scalar or the *name* of an entry in ``arrays``
    (names resolve to the uploaded CpuArray handles).
    """

    source: str
    arrays: dict
    launches: list

    def run(self) -> dict:
        """Execute on a fresh CpuDevice; returns name -> result array."""
        device = CpuDevice()
        program = device.load(self.source)
        handles = {name: device.from_numpy(name, arr)
                   for name, arr in self.arrays.items()}
        for kernel, grid, block, args in self.launches:
            resolved = [handles[a] if isinstance(a, str) else a for a in args]
            program.launch(kernel, grid, block, *resolved)
        device.synchronize()
        return {name: h.to_numpy() for name, h in handles.items()}


def run_job(job: CpuJob) -> dict:
    return job.run()


def run_jobs(jobs: list, processes: Optional[int] = None) -> list:
    """Fan independent :class:`CpuJob` executions across a process pool.

    With ``processes=1`` (or a single job) execution stays in-process;
    results are returned in job order either way.
    """
    jobs = list(jobs)
    if processes == 1 or len(jobs) <= 1:
        return [job.run() for job in jobs]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(run_job, jobs))


class CpuBackend(Backend):
    """NumPy/multiprocessing interpreter backend (executes, no emit)."""

    name = "cpu"
    summary = ("executing NumPy interpreter (independent semantics "
               "cross-check; no timing model)")
    executes = True
    emits = False

    def make_device(self, spec: DeviceSpec = K20C,
                    cost: CostModel = DEFAULT_COST_MODEL,
                    allocator: str = "custom",
                    heap_bytes: Optional[int] = None) -> CpuDevice:
        return CpuDevice(spec=spec, cost=cost, allocator=allocator,
                         heap_bytes=heap_bytes)
