"""MiniCUDA AST -> Python generator source.

Every MiniCUDA function compiles to a Python *generator function*:

* global-memory accesses become ``yield`` events consumed by the SIMT
  engine (:mod:`repro.sim.engine`), which performs the access, prices the
  traffic, and sends the result back;
* locals map to Python locals; local arrays to Python lists; ``__shared__``
  declarations to per-block lists obtained from the thread context. A
  declaration shadowing a visible name gets a fresh Python identifier
  (and, if ``__shared__``, its own block storage), so the outer binding
  is intact when the inner scope ends;
* device-function calls become ``yield from`` delegation, so nested memory
  events flow through transparently;
* kernel launches become ``LAUNCH`` events carrying the callee *name* —
  binding happens in the engine's registry, which is what lets compiler-
  generated consolidated kernels launch each other recursively.

The module must have been through :func:`repro.frontend.check_module`
first: codegen relies on the ``.ty`` annotations for C division semantics
and pointer-vs-scalar decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..errors import CodegenError
from ..frontend.ast_nodes import (
    Assign,
    BinOp,
    Block,
    BoolLit,
    Break,
    BuiltinVar,
    Call,
    Cast,
    Continue,
    DeclStmt,
    DoWhile,
    EmptyStmt,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FunctionDef,
    Ident,
    If,
    IncDec,
    Index,
    IntLit,
    LaunchExpr,
    PragmaStmt,
    Return,
    Stmt,
    StringLit,
    Ternary,
    UnOp,
    VarDeclarator,
    While,
    walk,
)
from ..frontend.symbols import BUILTIN_CONSTANTS
from ..frontend.typecheck import ModuleInfo

_ATOMIC_OPS = {
    "atomicAdd": "add",
    "atomicSub": "sub",
    "atomicMin": "min",
    "atomicMax": "max",
    "atomicExch": "exch",
    "atomicCAS": "cas",
    "atomicOr": "or",
    "atomicAnd": "and",
}

_MATH_FNS = {
    "sqrtf": "_sqrtf",
    "sqrt": "_sqrtf",
    "expf": "_expf",
    "logf": "_logf",
    "powf": "_powf",
    "floorf": "_floorf",
    "ceilf": "_ceilf",
    "fabsf": "_fabs",
    "fabs": "_fabs",
    "abs": "abs",
    "min": "min",
    "max": "max",
}

#: kinds a name can have inside a function body
_SCALAR = "scalar"
_PTR = "ptr"
_LOCAL_ARRAY = "local_array"
_SHARED_ARRAY = "shared_array"   # __shared__ int s[N] -> per-block list
_SHARED_SCALAR = "shared_scalar" # __shared__ int n    -> one-element list


def mangle(name: str) -> str:
    return "__mc_" + name


@dataclass
class _FnScope:
    kinds: dict[str, str] = field(default_factory=dict)


class FunctionCompiler:
    def __init__(self, fn: FunctionDef, module_info: ModuleInfo):
        self.fn = fn
        self.info = module_info
        self.lines: list[str] = []
        self.indent = 1
        #: per scope, MiniCUDA name -> (kind, Python identifier); the
        #: identifier differs from the name only for a declaration that
        #: shadows a visible one
        self.scopes: list[dict[str, tuple[str, str]]] = [{}]
        #: the fresh identifiers handed out so far; a later declaration
        #: spelled like one is renamed too, so live bindings never share one
        self._renamed: set[str] = set()
        self.temp_counter = 0
        self.has_yield = False

    # -------------------------------------------------------------- helpers

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, stem: str = "t") -> str:
        self.temp_counter += 1
        return f"__{stem}{self.temp_counter}"

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, kind: str) -> str:
        """Bind ``name`` in the innermost scope; returns its Python
        identifier. A declaration shadowing a visible name gets a fresh
        one, so the outer binding survives the inner scope."""
        pyname = name
        if name in self._renamed or self.kind_of(name) is not None:
            taken = {p for scope in self.scopes for _, p in scope.values()}
            taken.update(self.info.globals)
            k = 1
            while f"{name}_{k}" in taken:
                k += 1
            pyname = f"{name}_{k}"
            self._renamed.add(pyname)
        self.scopes[-1][name] = (kind, pyname)
        return pyname

    def pyname(self, name: str) -> str:
        if not self._renamed:  # nothing shadowed yet: names are their own
            return name
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name][1]
        return name

    def kind_of(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name][0]
        if name in self.info.globals:
            decl = self.info.globals[name]
            return _PTR if decl.type.is_pointer else _SCALAR
        return None

    def err(self, message: str, node) -> CodegenError:
        return CodegenError(message, getattr(node, "loc", None))

    # --------------------------------------------------------------- driver

    def compile(self) -> str:
        params = ", ".join(
            self.declare(p.name, _PTR if p.type.is_pointer else _SCALAR)
            for p in self.fn.params)
        header = f"def {mangle(self.fn.name)}(ctx{', ' + params if params else ''}):"
        self.compile_block(self.fn.body, new_scope=False)
        if not self.has_yield:
            # make sure the function is a generator even if it never yields
            self.emit("if False:")
            self.emit("    yield None")
        body = "\n".join(self.lines) if self.lines else "    pass"
        return header + "\n" + body

    # ----------------------------------------------------------- statements

    def compile_block(self, block: Block, new_scope: bool = True) -> None:
        if new_scope:
            self.push_scope()
        emitted = False
        for stmt in block.stmts:
            emitted = self.compile_stmt(stmt) or emitted
        if not emitted:
            self.emit("pass")
        if new_scope:
            self.pop_scope()

    def compile_stmt(self, s: Stmt) -> bool:
        """Emit a statement; returns True if any line was emitted."""
        if isinstance(s, Block):
            self.compile_block(s)
            return True
        if isinstance(s, DeclStmt):
            for d in s.declarators:
                self.compile_declarator(d, s)
            return True
        if isinstance(s, ExprStmt):
            self.compile_expr_stmt(s.expr)
            return True
        if isinstance(s, If):
            self.emit(f"if {self.truthy(s.cond)}:")
            self.indent += 1
            self.compile_stmt_as_block(s.then)
            self.indent -= 1
            if s.els is not None:
                self.emit("else:")
                self.indent += 1
                self.compile_stmt_as_block(s.els)
                self.indent -= 1
            return True
        if isinstance(s, While):
            self.emit(f"while {self.truthy(s.cond)}:")
            self.indent += 1
            self.emit("ctx.c += 1")
            self.compile_stmt_as_block(s.body)
            self.indent -= 1
            return True
        if isinstance(s, DoWhile):
            self._forbid_continue(s.body, "do-while")
            self.emit("while True:")
            self.indent += 1
            self.emit("ctx.c += 1")
            self.compile_stmt_as_block(s.body)
            self.emit(f"if not ({self.truthy(s.cond)}):")
            self.emit("    break")
            self.indent -= 1
            return True
        if isinstance(s, For):
            self._forbid_continue(s.body, "for")
            self.push_scope()
            if s.init is not None:
                self.compile_stmt(s.init)
            cond = self.truthy(s.cond) if s.cond is not None else "True"
            self.emit(f"while {cond}:")
            self.indent += 1
            self.emit("ctx.c += 1")
            self.compile_stmt_as_block(s.body)
            if s.step is not None:
                self.compile_expr_stmt(s.step)
            self.indent -= 1
            self.pop_scope()
            return True
        if isinstance(s, Return):
            if s.value is None:
                self.emit("return")
            else:
                self.emit(f"return {self.expr(s.value)}")
            return True
        if isinstance(s, Break):
            self.emit("break")
            return True
        if isinstance(s, Continue):
            self.emit("continue")
            return True
        if isinstance(s, EmptyStmt):
            return False
        if isinstance(s, PragmaStmt):
            # Directives reaching the backend have not been consumed by the
            # consolidation compiler: execute the annotated statement as-is
            # (this is exactly how the paper's basic-dp baselines run).
            return self.compile_stmt(s.stmt)
        raise self.err(f"cannot compile statement {type(s).__name__}", s)

    def compile_stmt_as_block(self, s: Stmt) -> None:
        before = len(self.lines)
        self.compile_stmt(s)
        if len(self.lines) == before:
            self.emit("pass")

    def _forbid_continue(self, body: Stmt, what: str) -> None:
        # `continue` directly inside for/do-while would skip the step /
        # condition under the Python lowering; the benchmark codes never
        # need it, so reject loudly instead of miscompiling.
        depth = 0
        for node in walk(body):
            if isinstance(node, (While, DoWhile, For)):
                depth += 1
            if isinstance(node, Continue) and depth == 0:
                raise self.err(
                    f"'continue' inside a {what} loop is not supported by the "
                    "Python backend", node,
                )

    def compile_declarator(self, d: VarDeclarator, s: DeclStmt) -> None:
        if d.array_size is not None:
            size = self.expr(d.array_size)
            if s.shared:
                key = self.shared_key(d.name)
                name = self.declare(d.name, _SHARED_ARRAY)
                self.emit(f"{name} = ctx.shared_array({key!r}, {size})")
            else:
                name = self.declare(d.name, _LOCAL_ARRAY)
                init = "0.0" if d.type.is_float else "0"
                self.emit(f"{name} = [{init}] * ({size})")
            if d.init is not None:
                raise self.err("array initializers are not supported", d)
            return
        # the initializer sees the enclosing binding of a shadowed name
        # (as in the typechecker), so it compiles before the declaration
        init = self.expr(d.init) if d.init is not None else None
        if s.shared:
            # scalar shared variable: back it with a one-element list
            key = self.shared_key(d.name)
            name = self.declare(d.name, _SHARED_SCALAR)
            self.emit(f"{name} = ctx.shared_array({key!r}, 1)")
            if init is not None:
                self.emit(f"{name}[0] = {init}")
            return
        kind = _PTR if d.type.is_pointer else _SCALAR
        name = self.declare(d.name, kind)
        if init is None:
            init = "0.0" if d.type.is_float else ("None" if kind == _PTR else "0")
        self.emit(f"{name} = {init}")

    def shared_key(self, name: str) -> str:
        """Block-storage key of a ``__shared__`` declaration of ``name``:
        the name, or when it shadows a visible binding a key no
        identifier can spell (the CPU backend keys the same way)."""
        if any(name in scope for scope in self.scopes):
            return f"{name}#{len(self.scopes)}"
        return name

    # ------------------------------------------------- expression statements

    def compile_expr_stmt(self, e: Expr) -> None:
        if isinstance(e, Assign):
            self.compile_assign(e)
            return
        if isinstance(e, IncDec):
            self.compile_incdec_stmt(e)
            return
        if isinstance(e, BinOp) and e.op == ",":
            self.compile_expr_stmt(e.left)
            self.compile_expr_stmt(e.right)
            return
        if isinstance(e, Call):
            code = self.call_expr(e, as_stmt=True)
            if code is not None:
                self.emit(code)
            return
        if isinstance(e, LaunchExpr):
            self.emit(self.launch_expr(e))
            return
        # any other expression: evaluate for side effects (loads)
        self.emit(f"{self.expr(e)}")

    def compile_assign(self, e: Assign) -> None:
        target = e.target
        if isinstance(target, Ident):
            kind = self.kind_of(target.name)
            name = self.pyname(target.name)
            if kind == _SHARED_SCALAR:
                if e.op == "=":
                    self.emit(f"{name}[0] = {self.expr(e.value)}")
                else:
                    self.emit(f"{name}[0] {e.op} {self.expr(e.value)}")
                return
            if e.op == "=":
                self.emit(f"{name} = {self.expr(e.value)}")
            else:
                self.emit(f"{name} {e.op} {self.expr(e.value)}")
            self._retype_int_assign(target, e)
            return
        if isinstance(target, Index) or (isinstance(target, UnOp) and target.op == "*"):
            base, index = self.lvalue_base_index(target)
            kind = self.base_kind(target)
            if kind in (_LOCAL_ARRAY, _SHARED_ARRAY):
                if e.op == "=":
                    self.emit(f"{base}[{index}] = {self.expr(e.value)}")
                else:
                    self.emit(f"{base}[{index}] {e.op} {self.expr(e.value)}")
                return
            # device memory
            self.has_yield = True
            if e.op == "=":
                self.emit(f"yield (ST, {base}, {index}, {self.expr(e.value)})")
            else:
                tmp = self.fresh("i")
                py_op = e.op[:-1]  # '+=' -> '+'
                self.emit(f"{tmp} = {index}")
                old = f"(yield (LD, {base}, {tmp}))"
                value = self.binop_code(py_op, old, self.expr(e.value), e.target.ty)
                self.emit(f"yield (ST, {base}, {tmp}, {value})")
            return
        raise self.err("unsupported assignment target", e)

    def _retype_int_assign(self, target: Ident, e: Assign) -> None:
        # C would truncate float->int on assignment to an int scalar; emit a
        # coercion only when the value type is float and the target is int.
        tt = getattr(e.target, "ty", None)
        vt = getattr(e.value, "ty", None)
        if tt is not None and vt is not None and tt.is_integer and vt.is_float:
            name = self.pyname(target.name)
            self.emit(f"{name} = int({name})")

    def compile_incdec_stmt(self, e: IncDec) -> None:
        delta = "+ 1" if e.op == "++" else "- 1"
        target = e.operand
        if isinstance(target, Ident):
            kind = self.kind_of(target.name)
            name = self.pyname(target.name)
            if kind == _SHARED_SCALAR:
                self.emit(f"{name}[0] = {name}[0] {delta}")
            else:
                self.emit(f"{name} = {name} {delta}")
            return
        if isinstance(target, Index) or (isinstance(target, UnOp) and target.op == "*"):
            base, index = self.lvalue_base_index(target)
            kind = self.base_kind(target)
            if kind in (_LOCAL_ARRAY, _SHARED_ARRAY):
                self.emit(f"{base}[{index}] = {base}[{index}] {delta}")
            else:
                self.has_yield = True
                tmp = self.fresh("i")
                self.emit(f"{tmp} = {index}")
                self.emit(f"yield (ST, {base}, {tmp}, (yield (LD, {base}, {tmp})) {delta})")
            return
        raise self.err("unsupported ++/-- target", e)

    # ------------------------------------------------------------- lvalues

    def lvalue_base_index(self, target: Expr) -> tuple[str, str]:
        """Return (base_code, index_code) for an Index or *p target."""
        if isinstance(target, UnOp) and target.op == "*":
            return self.expr(target.operand), "0"
        assert isinstance(target, Index)
        base = target.base
        if isinstance(base, Ident):
            return self.pyname(base.name), self.expr(target.index)
        # e.g. (p + k)[i]
        return self.expr(base), self.expr(target.index)

    def base_kind(self, target: Expr) -> str:
        if isinstance(target, UnOp) and target.op == "*":
            return _PTR
        assert isinstance(target, Index)
        if isinstance(target.base, Ident):
            kind = self.kind_of(target.base.name)
            if kind is None:
                raise self.err(f"unknown identifier {target.base.name!r}", target)
            return kind
        return _PTR

    # ---------------------------------------------------------- expressions

    def truthy(self, e: Expr) -> str:
        return self.expr(e)

    def expr(self, e: Expr) -> str:
        if isinstance(e, IntLit):
            return repr(e.value)
        if isinstance(e, FloatLit):
            return repr(e.value)
        if isinstance(e, BoolLit):
            return "True" if e.value else "False"
        if isinstance(e, StringLit):
            return repr(e.value)
        if isinstance(e, Ident):
            if e.name in BUILTIN_CONSTANTS and self.kind_of(e.name) is None:
                return repr(BUILTIN_CONSTANTS[e.name][1])
            kind = self.kind_of(e.name)
            if kind == _SHARED_SCALAR:
                return f"{self.pyname(e.name)}[0]"
            return self.pyname(e.name)
        if isinstance(e, BuiltinVar):
            return self.builtin_var(e)
        if isinstance(e, UnOp):
            return self.unop(e)
        if isinstance(e, IncDec):
            raise self.err("++/-- may only be used as a statement", e)
        if isinstance(e, BinOp):
            return self.binop(e)
        if isinstance(e, Assign):
            raise self.err("assignment may only be used as a statement", e)
        if isinstance(e, Ternary):
            return (f"({self.expr(e.then)} if {self.truthy(e.cond)} "
                    f"else {self.expr(e.els)})")
        if isinstance(e, Call):
            code = self.call_expr(e, as_stmt=False)
            assert code is not None
            return code
        if isinstance(e, LaunchExpr):
            return self.launch_expr(e)
        if isinstance(e, Index):
            return self.index_load(e)
        if isinstance(e, Cast):
            return self.cast(e)
        raise self.err(f"cannot compile expression {type(e).__name__}", e)

    def builtin_var(self, e: BuiltinVar) -> str:
        if e.dim != "x":
            return "0" if e.name in ("threadIdx", "blockIdx") else "1"
        return {
            "threadIdx": "ctx.tx",
            "blockIdx": "ctx.bx",
            "blockDim": "ctx.bdim",
            "gridDim": "ctx.gdim",
        }[e.name]

    def unop(self, e: UnOp) -> str:
        if e.op == "*":
            operand = e.operand
            # *p -> load; *(p+k) -> load at offset
            self.has_yield = True
            return f"(yield (LD, {self.expr(operand)}, 0))"
        if e.op == "&":
            # &a[i] -> pointer view (device) — typecheck restricts to Index
            target = e.operand
            assert isinstance(target, Index)
            kind = self.base_kind(target)
            if kind in (_LOCAL_ARRAY, _SHARED_ARRAY):
                raise self.err("address-of local/shared arrays is not supported", e)
            base, index = self.lvalue_base_index(target)
            return f"{base}.view({index})"
        if e.op == "!":
            return f"(not {self.expr(e.operand)})"
        if e.op == "~":
            return f"(~{self.expr(e.operand)})"
        return f"({e.op}{self.expr(e.operand)})"

    def binop(self, e: BinOp) -> str:
        op = e.op
        lt = getattr(e.left, "ty", None)
        rt = getattr(e.right, "ty", None)
        left = self.expr(e.left)
        right = self.expr(e.right)
        if op == "&&":
            return f"({left} and {right})"
        if op == "||":
            return f"({left} or {right})"
        if op == ",":
            raise self.err("comma expression only supported as a statement", e)
        # pointer arithmetic
        if lt is not None and lt.is_pointer and op in ("+", "-") and rt is not None \
                and rt.is_integer:
            sign = "" if op == "+" else "-"
            return f"{left}.view({sign}({right}))"
        if lt is not None and rt is not None and lt.is_integer and rt.is_pointer \
                and op == "+":
            return f"{right}.view({left})"
        return self.binop_code(op, left, right, lt, rt)

    def binop_code(self, op: str, left: str, right: str, lt=None, rt=None) -> str:
        both_int = (
            lt is not None and rt is not None
            and getattr(lt, "is_integer", False) and getattr(rt, "is_integer", False)
        )
        if op == "/":
            if both_int or (lt is not None and rt is None and lt.is_integer):
                return f"_idiv({left}, {right})"
            if lt is None and rt is None:
                return f"_idiv({left}, {right})"  # conservative: int semantics
            return f"({left} / {right})"
        if op == "%":
            return f"_imod({left}, {right})"
        py = {"==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">=",
              "+": "+", "-": "-", "*": "*", "&": "&", "|": "|", "^": "^",
              "<<": "<<", ">>": ">>"}[op]
        return f"({left} {py} {right})"

    def index_load(self, e: Index) -> str:
        base = e.base
        if isinstance(base, Ident):
            kind = self.kind_of(base.name)
            if kind in (_LOCAL_ARRAY, _SHARED_ARRAY, _SHARED_SCALAR):
                return f"{self.pyname(base.name)}[{self.expr(e.index)}]"
            if kind is None:
                raise self.err(f"unknown identifier {base.name!r}", e)
            self.has_yield = True
            return f"(yield (LD, {self.pyname(base.name)}, {self.expr(e.index)}))"
        # computed pointer, e.g. (p + k)[i]
        self.has_yield = True
        return f"(yield (LD, {self.expr(base)}, {self.expr(e.index)}))"

    def cast(self, e: Cast) -> str:
        inner = self.expr(e.expr)
        if e.type.is_pointer:
            return inner
        if e.type.is_float:
            return f"float({inner})"
        if e.type.base == "bool":
            return f"bool({inner})"
        return f"int({inner})"

    # -------------------------------------------------------------- calls

    def call_expr(self, e: Call, as_stmt: bool) -> str | None:
        name = e.callee
        if name == "__syncthreads" or name == "__syncwarp" or name == "__threadfence":
            self.has_yield = True
            if name == "__syncthreads":
                return "yield (SYNC,)" if as_stmt else "((yield (SYNC,)) or 0)"
            if name == "__syncwarp":
                # lockstep reconvergence point: functionally required by the
                # round-interleaved engine, priced at zero extra cycles
                # (the paper's 'implicit synchronization' for warp-level)
                return "yield (WSYNC,)" if as_stmt else "((yield (WSYNC,)) or 0)"
            return "ctx.c += 1" if as_stmt else "0"  # threadfence: free in-model
        if name == "cudaDeviceSynchronize":
            self.has_yield = True
            return "yield (DEVSYNC,)" if as_stmt else "((yield (DEVSYNC,)) or 0)"
        if name in _ATOMIC_OPS:
            return self.atomic(e, as_stmt)
        if name in _MATH_FNS:
            args = ", ".join(self.expr(a) for a in e.args)
            code = f"{_MATH_FNS[name]}({args})"
            return None if as_stmt else code
        if name == "printf":
            return None  # formatting cost is negligible and unused
        if name == "assert":
            return f"assert {self.truthy(e.args[0])}"
        if name.startswith("__dp_"):
            return self.dp_intrinsic(e, as_stmt)
        # user device function
        info = self.info.functions.get(name)
        if info is None:
            raise self.err(f"call to unknown function {name!r}", e)
        args = ", ".join(self.expr(a) for a in e.args)
        self.has_yield = True
        call = f"(yield from {mangle(name)}(ctx{', ' + args if args else ''}))"
        return call

    def atomic(self, e: Call, as_stmt: bool) -> str:
        op = _ATOMIC_OPS[e.callee]
        ptr = e.args[0]
        base, index = self.pointer_arg(ptr)
        operands = ", ".join(self.expr(a) for a in e.args[1:])
        self.has_yield = True
        code = f"(yield (ATOM, {op!r}, {base}, {index}, {operands}))"
        return code if not as_stmt else code

    def pointer_arg(self, ptr: Expr) -> tuple[str, str]:
        """Decompose a pointer-valued argument into (array, index) code."""
        if isinstance(ptr, UnOp) and ptr.op == "&":
            target = ptr.operand
            assert isinstance(target, Index)
            kind = self.base_kind(target)
            if kind in (_LOCAL_ARRAY, _SHARED_ARRAY):
                raise self.err("atomics on local/shared arrays are unsupported", ptr)
            return self.lvalue_base_index(target)
        # plain pointer expression: element 0
        return self.expr(ptr), "0"

    def dp_intrinsic(self, e: Call, as_stmt: bool) -> str:
        name = e.callee[len("__dp_"):]
        if name == "lane":
            return "ctx.lane"
        if name == "warp_id":
            return "ctx.warp_id"
        args = ", ".join(self.expr(a) for a in e.args)
        self.has_yield = True
        tup = f"({args},)" if len(e.args) == 1 else f"({args})"
        if not e.args:
            tup = "()"
        return f"(yield (INTR, {name!r}, {tup}))"

    def launch_expr(self, e: LaunchExpr) -> str:
        args = ", ".join(self.expr(a) for a in e.args)
        tup = f"({args},)" if len(e.args) == 1 else f"({args})"
        if not e.args:
            tup = "()"
        self.has_yield = True
        return (f"yield (LAUNCH, {e.callee!r}, int({self.expr(e.grid)}), "
                f"int({self.expr(e.block)}), {tup})")


_PRELUDE = '''\
"""Auto-generated by repro.backend.codegen — do not edit."""
from repro.sim.events import LD, ST, ATOM, SYNC, LAUNCH, DEVSYNC, INTR, WSYNC
from repro.backend.intrinsics import (
    _idiv, _imod, _powf, _fabs, _sqrtf, _expf, _logf, _floorf, _ceilf,
)
'''


def generate_module_source(info: ModuleInfo) -> str:
    """Compile every function of a checked module to Python source."""
    parts = [_PRELUDE]
    for fn in info.module.functions():
        compiler = FunctionCompiler(fn, info)
        parts.append(compiler.compile())
    names = ", ".join(
        f"{fn.name!r}: {mangle(fn.name)}" for fn in info.module.functions()
        if fn.is_kernel
    )
    parts.append(f"KERNELS = {{{names}}}")
    all_names = ", ".join(
        f"{fn.name!r}: {mangle(fn.name)}" for fn in info.module.functions()
    )
    parts.append(f"FUNCTIONS = {{{all_names}}}")
    return "\n\n".join(parts) + "\n"


@dataclass(frozen=True)
class CompiledModule:
    """A compiled MiniCUDA module: the generated Python and its generator
    functions. It keeps no AST or :class:`ModuleInfo`, and its tables are
    read-only, so one instance can be loaded on any number of devices
    (``repro.apps.common.BuildCache``)."""

    python_source: str
    kernels: Mapping[str, object]
    functions: Mapping[str, object]


def compile_module(info: ModuleInfo, filename: str = "<minicuda>") -> CompiledModule:
    """Compile a checked module into executable generator functions."""
    source = generate_module_source(info)
    namespace: dict = {}
    code = compile(source, filename + ".py", "exec")
    exec(code, namespace)
    return CompiledModule(
        python_source=source,
        kernels=MappingProxyType(namespace["KERNELS"]),
        functions=MappingProxyType(namespace["FUNCTIONS"]),
    )
