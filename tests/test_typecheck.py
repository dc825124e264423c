"""Semantic-analysis tests."""

import numpy as np
import pytest

from repro.backends import CpuDevice
from repro.errors import TypeCheckError
from repro.frontend.ast_nodes import BOOL, FLOAT, INT, Type
from repro.frontend.parser import parse
from repro.frontend.typecheck import check_module
from repro.sim.device import Device

from tests.helpers import run_source


#: a body that shadows a local in an inner scope
SHADOWING_BODY = "int x = 1; { int x = 2; a[0] = x; } a[1] = x;"

#: every execution path a shadowing program must agree on
SHADOWING_DEVICES = {
    "sim": Device,
    "sim-scalar": lambda: Device(engine="scalar"),
    "cpu": CpuDevice,
}


def check(src):
    return check_module(parse(src))


def check_body(body, params="int* a, int n"):
    return check(f"__global__ void k({params}) {{ {body} }}")


def expr_type(expr, params="int* a, int n"):
    info = check_body(f"a[0] = 0; {expr};", params)
    fn = info.module.function("k")
    # last statement is the expression statement
    return fn.body.stmts[-1].expr.ty


class TestTypes:
    def test_int_arith(self):
        assert expr_type("n + 1") == INT

    def test_float_promotion(self):
        assert expr_type("n + 1.5f") == FLOAT

    def test_comparison_is_bool(self):
        assert expr_type("n < 2") == BOOL

    def test_pointer_index(self):
        assert expr_type("a[n]") == INT

    def test_pointer_arithmetic(self):
        assert expr_type("a + n") == Type("int", 1)

    def test_deref(self):
        assert expr_type("*a") == INT

    def test_address_of_element(self):
        assert expr_type("&a[0]") == Type("int", 1)

    def test_builtin_vars_are_uint(self):
        assert expr_type("threadIdx.x") == Type("uint")

    def test_atomic_returns_pointee(self):
        assert expr_type("atomicAdd(&a[0], 1)") == INT

    def test_float_atomic(self):
        assert expr_type("atomicAdd(&x[0], 1.0f)",
                         params="float* x, int* a, int n") == FLOAT

    def test_cast(self):
        assert expr_type("(float)n") == FLOAT

    def test_min_follows_args(self):
        assert expr_type("min(n, 3)") == INT

    def test_builtin_constant(self):
        assert expr_type("INT_MAX") == INT


class TestFunctionFacts:
    SRC = """
    __global__ void child(int* a, int u) { a[u] = 1; }
    __global__ void parent(int* a, int n) {
        __syncthreads();
        child<<<1, n>>>(a, 0);
        cudaDeviceSynchronize();
    }
    __device__ int helper(int x) { return x; }
    __global__ void caller(int* a) { a[0] = helper(3); }
    """

    def test_launch_sites_recorded(self):
        info = check(self.SRC)
        launches = info.info("parent").launches
        assert len(launches) == 1 and launches[0].callee == "child"

    def test_sync_flags(self):
        info = check(self.SRC)
        assert info.info("parent").uses_syncthreads
        assert info.info("parent").uses_device_sync
        assert not info.info("child").uses_syncthreads

    def test_call_graph(self):
        info = check(self.SRC)
        assert "helper" in info.info("caller").calls

    def test_recursive_launcher_flag(self):
        info = check("""
        __global__ void r(int* a, int n) {
            if (n > 0) { r<<<1, 1>>>(a, n - 1); }
        }
        """)
        assert info.info("r").is_recursive_launcher

    def test_kernel_names(self):
        info = check(self.SRC)
        assert set(info.kernel_names()) == {"child", "parent", "caller"}


class TestErrors:
    @pytest.mark.parametrize("body", [
        "undeclared = 1;",                 # unknown identifier
        "int x = 1; int x = 2;",           # redeclaration in same scope
        "n();",                            # calling a non-function
        "5 = n;",                          # non-lvalue assignment
        "n[0] = 1;",                       # indexing a scalar
        "a[1.5f] = 1;",                    # non-integer index
        "*n;",                             # deref non-pointer
        "int x = &n;",                     # address of scalar local
        "break;",                          # break outside loop
        "return 5;",                       # value return from void kernel
        "atomicAdd(n, 1);",                # atomic on non-pointer
        "atomicAdd(&a[0]);",               # wrong arity
        "__syncthreads(1);",               # builtin arity
        "int __dp_x = 1;" if False else "a.foo = 1;",  # member access
    ])
    def test_bad_bodies(self, body):
        with pytest.raises(TypeCheckError):
            check_body(body)

    def test_kernel_must_return_void(self):
        with pytest.raises(TypeCheckError):
            check("__global__ int k() { return 1; }")

    def test_kernel_cannot_be_called(self):
        with pytest.raises(TypeCheckError):
            check("""
            __global__ void a(int* p, int n) { p[0] = n; }
            __global__ void b(int* p) { a(p, 1); }
            """)

    def test_launch_of_device_function_rejected(self):
        with pytest.raises(TypeCheckError):
            check("""
            __device__ int f(int x) { return x; }
            __global__ void k(int* a) { f<<<1, 1>>>(1); }
            """)

    def test_launch_arity_checked(self):
        with pytest.raises(TypeCheckError):
            check("""
            __global__ void c(int* a, int u) { a[u] = 1; }
            __global__ void p(int* a) { c<<<1, 1>>>(a); }
            """)

    def test_launch_of_unknown_kernel(self):
        with pytest.raises(TypeCheckError):
            check("__global__ void k(int* a) { nope<<<1, 1>>>(a); }")

    def test_launch_dim_must_be_integer(self):
        with pytest.raises(TypeCheckError):
            check("""
            __global__ void c(int* a) { a[0] = 1; }
            __global__ void k(int* a) { c<<<1.5f, 1>>>(a); }
            """)

    def test_redefinition_of_function(self):
        with pytest.raises(TypeCheckError):
            check("__global__ void k() {}\n__global__ void k() {}")

    def test_shadowing_builtin_rejected(self):
        with pytest.raises(TypeCheckError):
            check("__device__ int atomicAdd(int x) { return x; }")

    def test_scoped_shadowing_allowed(self):
        # an inner scope may shadow an outer local (C semantics)
        check_body(SHADOWING_BODY)

    @pytest.mark.parametrize("device", SHADOWING_DEVICES)
    def test_scoped_shadowing_runs_with_c_semantics(self, device):
        # the inner x must not clobber the outer one once its scope ends
        out, = run_source(f"__global__ void k(int* a, int n) "
                          f"{{ {SHADOWING_BODY} }}", "k", 1, 1,
                          [("a", np.zeros(2, np.int32))], (0,),
                          device_factory=SHADOWING_DEVICES[device])
        assert list(out) == [2, 1]

    @pytest.mark.parametrize("device", SHADOWING_DEVICES)
    def test_shadowing_shared_and_initializer(self, device):
        # a shadowing __shared__ array gets its own block storage, and an
        # initializer naming the shadowed variable reads the outer one
        src = """__global__ void k(int* a, int n) {
            __shared__ int s[2];
            s[0] = 1;
            { __shared__ int s[2]; s[0] = 2; a[0] = s[0]; }
            a[1] = s[0];
            int y = 3;
            { int y = y + 4; a[2] = y; }
            a[3] = y;
        }"""
        out, = run_source(src, "k", 1, 2, [("a", np.zeros(4, np.int32))],
                          (0,), device_factory=SHADOWING_DEVICES[device])
        assert list(out) == [2, 1, 7, 3]

    def test_reserved_dp_prefix_rejected_in_user_code(self):
        with pytest.raises(TypeCheckError, match="reserved"):
            check_body("int __dp_mine = 1;")
        with pytest.raises(TypeCheckError, match="reserved"):
            check("__global__ void k(int __dp_h) {}")

    def test_reserved_prefix_allowed_for_generated_code(self):
        from repro.frontend.typecheck import check_module as cm
        from repro.frontend.parser import parse as p

        cm(p("__global__ void k(int __dp_h) { int __dp_n = __dp_h; }"),
           allow_reserved=True)

    def test_error_carries_location(self):
        with pytest.raises(TypeCheckError) as exc:
            check("__global__ void k() {\n  mystery = 3;\n}")
        assert ":2:" in str(exc.value)
