"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from repro.sim.device import Device


#: binary operators that are total over int (no /, % — divide-by-zero)
FUZZ_BINOPS = ("+", "-", "*", "&", "|", "^")


def minicuda_expr(atoms, binops: tuple = FUZZ_BINOPS, max_leaves: int = 6):
    """Hypothesis strategy for random, well-formed MiniCUDA int
    expressions over the given atom spellings.

    Shared by the frontend round-trip fuzzing (test_fuzz_programs) and
    the strategy semantic-preservation property test (test_strategies),
    so both shake the same expression space."""
    from hypothesis import strategies as st

    atom = st.one_of(st.integers(min_value=0, max_value=64).map(str),
                     st.sampled_from(list(atoms)))
    ops = st.sampled_from(list(binops))

    def combine(children):
        return st.builds(lambda a, op, b: f"({a} {op} {b})", children, ops,
                         children)

    return st.recursive(atom, combine, max_leaves=max_leaves)


#: atoms the statement-level fuzzer assigns to (and reads back through
#: the expression space) — locals plus aliased global cells, so writes
#: interleave across threads
FUZZ_TARGETS = ("acc", "out[t]", "out[n % 8]")

FUZZ_ATOMS = ("n", "t", "acc", "out[t]", "out[n % 8]", "out[0]")


def minicuda_body(atoms=FUZZ_ATOMS, targets=FUZZ_TARGETS,
                  max_statements: int = 5):
    """Hypothesis strategy for random MiniCUDA kernel *bodies*: a short
    sequence of assignments, ifs and bounded for-loops built over
    :func:`minicuda_expr`.

    Hoisted from test_fuzz_programs so the backend differential harness
    (test_backends) fuzzes the exact same program space that shook out
    the frontend precedence/scoping bugs."""
    from hypothesis import strategies as st

    expr = minicuda_expr(atoms=list(atoms))
    conds = st.builds(
        lambda a, op, b: f"({a} {op} {b})", expr,
        st.sampled_from(["<", ">", "==", "!=", "<=", ">="]), expr)
    assign = st.builds(lambda t, e: f"{t} = {e};",
                       st.sampled_from(list(targets)), expr)

    def ifstmt(stmt):
        return st.builds(lambda c, s: f"if {c} {{ {s} }}", conds, stmt)

    def forstmt(stmt):
        return st.builds(
            lambda k, s:
            f"for (int i{k} = 0; i{k} < {k + 1}; i{k}++) {{ {s} }}",
            st.integers(0, 3), stmt,
        )

    stmt = st.recursive(assign, lambda s: st.one_of(ifstmt(s), forstmt(s)),
                        max_leaves=4)
    return st.lists(stmt, min_size=1, max_size=max_statements).map(" ".join)


#: fuzz bodies pinned as examples: an inner-scope redeclaration of a
#: local (the second is the shape hypothesis found, a loop counter
#: shadowed by the inner loop's) must leave the outer binding intact
SHADOWING_FUZZ_BODIES = (
    "int x = 1; { int x = 2; acc = x; } acc = acc * 10 + x;",
    "for (int i1 = 0; i1 < 2; i1++) { "
    "for (int i1 = 0; i1 < 2; i1++) { acc = acc + 1; } }",
)


#: fuzz bodies pinned as examples of lane-order application (DESIGN.md
#: §15, leg 1): adjacent lanes store and load one address in one round,
#: and every lane chains an atomic on one address. Over ``out =
#: arange(8)`` and 8 threads, lane order gives these outputs; applying a
#: round's events in reverse lane order gives others.
LANE_ORDER_FUZZ_BODIES = (
    "if (t % 2 == 0) { out[t + 1] = 100 + t; } else { acc = out[t]; }",
    "acc = atomicAdd(&out[0], 1);",
)
LANE_ORDER_OUTPUTS = (
    [106, 0, 100, 0, 102, 0, 104, 0],
    [7, 0, 1, 2, 3, 4, 5, 6],
)


def make_fuzz_kernel(body: str) -> str:
    """Wrap a fuzzed body in the canonical single-kernel test program."""
    return (
        "__global__ void fuzz(int* out, int n) {\n"
        "    int t = threadIdx.x;\n"
        "    int acc = 0;\n"
        f"    {body}\n"
        "    out[(t + 1) % 8] = acc;\n"
        "}\n"
    )


def run_source(src: str, kernel: str, grid: int, block: int, arrays,
               scalars: tuple = (), device_factory=Device):
    """Load `src` on a fresh device, upload `arrays` (list of
    ``(name, np array)`` pairs — each copied first), launch once,
    synchronize, and return the arrays read back in order.

    ``device_factory`` selects the execution engine: the default
    simulator :class:`Device`, or e.g. ``repro.backends.CpuDevice`` —
    this one driver is what the backend differential harness runs on
    both sides of the comparison."""
    dev = device_factory()
    prog = dev.load(src)
    handles = [dev.from_numpy(name, arr.copy()) for name, arr in arrays]
    prog.launch(kernel, grid, block, *handles, *scalars)
    dev.synchronize()
    return [h.to_numpy() for h in handles]


def run_kernel(src: str, kernel: str, grid: int, block: int, arrays: dict,
               scalars: tuple = (), device: Device | None = None):
    """Load `src`, upload `arrays` (name -> np array), launch once,
    synchronize, and return (device, metrics, uploaded handles)."""
    dev = device or Device()
    prog = dev.load(src)
    handles = {name: dev.from_numpy(name, arr) for name, arr in arrays.items()}
    prog.launch(kernel, grid, block, *handles.values(), *scalars)
    metrics = dev.synchronize()
    return dev, metrics, handles
