"""The registries of every pluggable axis share one ``Registry[T]`` and
keep their public names, error classes and messages."""

import pytest

from repro.apps import all_apps, get_app
from repro.backends import (BackendError, get_backend, register_backend,
                            unregister_backend)
from repro.compiler.strategies import (WarpStrategy, get_strategy,
                                       register_strategy, unregister_strategy)
from repro.errors import TransformError
from repro.oracle import (OracleError, get_oracle, register_oracle,
                          unregister_oracle)
from repro.tuning import get_search, register_search, unregister_search
from repro.workloads import (get_workload, register_workload,
                             unregister_workload)

#: (register, unregister, lookup, a registered name, message noun)
REGISTRIES = [
    (register_strategy, unregister_strategy, get_strategy, "warp",
     "strategy"),
    (register_backend, unregister_backend, get_backend, "sim", "backend"),
    (register_oracle, unregister_oracle, get_oracle, "sim", "oracle"),
    (register_search, unregister_search, get_search, "grid",
     "search algorithm"),
    (register_workload, unregister_workload, get_workload, "star",
     "workload"),
]

LOOKUPS = [
    (get_strategy, TransformError,
     "unknown consolidation strategy 'x'; available: warp, block, grid"),
    (get_backend, BackendError,
     "unknown backend 'x'; available: sim, cpu, cuda"),
    (get_oracle, OracleError,
     "unknown oracle 'x'; available: sim, surrogate"),
    (get_search, KeyError,
     "unknown search algorithm 'x'; available: grid, random, halving"),
]


@pytest.mark.parametrize("lookup,error,message", LOOKUPS)
def test_unknown_name_keeps_error_and_message(lookup, error, message):
    with pytest.raises(error) as info:
        lookup("x")
    assert info.value.args == (message,)


def test_workload_and_app_misses():
    with pytest.raises(KeyError, match="unknown workload 'x'; available: "
                                       "citeseer, kron"):
        get_workload("x")
    # the CLI prints a missing app's bare key
    with pytest.raises(KeyError) as info:
        get_app("x")
    assert info.value.args == ("x",)


@pytest.mark.parametrize("register,noun", [
    (register_strategy, "a ConsolidationStrategy"),
    (register_backend, "a Backend"),
    (register_oracle, "an Oracle"),
    (register_search, "a SearchAlgorithm"),
    (register_workload, "a WorkloadSpec"),
])
def test_wrong_type_keeps_message(register, noun):
    with pytest.raises(TypeError) as info:
        register("x")
    assert info.value.args == (f"expected {noun} instance, got 'x'",)


@pytest.mark.parametrize("register,unregister,lookup,name,kind", REGISTRIES)
def test_duplicate_and_missing_keep_messages(register, unregister, lookup,
                                            name, kind):
    with pytest.raises(ValueError) as info:
        register(lookup(name))
    assert info.value.args == (f"{kind} {name!r} is already registered",)
    with pytest.raises(KeyError) as info:
        unregister("x")
    assert info.value.args == (f"{kind} 'x' is not registered",)


def test_instances_pass_through_and_apps_sort_by_key():
    warp = WarpStrategy()
    assert get_strategy(warp) is warp
    assert [app.key for app in all_apps()] == sorted(
        app.key for app in all_apps())
