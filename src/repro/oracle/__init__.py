"""Pluggable run oracles — who answers "what are this run's metrics?".

Mirrors :mod:`repro.backends` (and the strategy/search/workload
registries): named singletons, built-ins registered at import. Built-ins:

``sim``
    the simulator on the **vectorized** functional engine — the default;
    omitting ``--oracle`` everywhere means exactly this, and the runner
    folds an explicit ``'sim'`` onto ``None`` so no cache key forks;
``sim-scalar``
    the simulator on the scalar reference engine. Bitwise-identical
    metrics by construction (the differential harness in
    ``tests/test_oracle.py`` holds both engines to it) — kept as the
    ground truth the vectorized engine is tested against;
``surrogate``
    a learned model (:mod:`repro.oracle.surrogate`) trained on the runs
    the experiment runner has already executed. Not exact, so only the
    tuner may consume it (``repro tune --oracle surrogate``): cheap
    successive-halving rungs are answered by prediction, the final rung
    is always simulated.

Registering an oracle makes it reachable end-to-end — ``App.run``, the
experiment runner's cache key, ``repro tune`` — without touching any of
them::

    from repro.oracle import EngineOracle, register_oracle

    register_oracle(EngineOracle("mine", "scalar", "my engine wrapper"))
"""

from __future__ import annotations

from ..registry import Registry
from .base import EngineOracle, Oracle, OracleError
from .surrogate import (
    MIN_TRAIN_ROWS, SurrogateModel, SurrogateOracle, spearman,
)
from .training import LOG_FILENAME, TrainingLog, cost_fingerprint

__all__ = [
    "Oracle",
    "OracleError",
    "EngineOracle",
    "LearnedOracle",
    "SurrogateModel",
    "SurrogateOracle",
    "TrainingLog",
    "spearman",
    "cost_fingerprint",
    "MIN_TRAIN_ROWS",
    "LOG_FILENAME",
    "available_oracles",
    "get_oracle",
    "register_oracle",
    "unregister_oracle",
    "BUILTIN_ORACLES",
    "DEFAULT_ORACLE",
]

#: the oracle every run uses when none is named; omitting ``--oracle``
#: and naming this one produce identical cache keys (see store.run_key)
DEFAULT_ORACLE = "sim"


class LearnedOracle(Oracle):
    """The surrogate built-in: wraps the tuner's simulation oracle in a
    :class:`SurrogateOracle` trained from the runner's training log."""

    name = "surrogate"
    summary = "learned prefilter: predict cheap rungs, simulate the rest"
    exact = False
    engine = None

    def scorer(self, sim, *, training_log=None):
        return SurrogateOracle(sim, training_log)


def _validate(oracle: Oracle) -> None:
    if oracle.exact and oracle.engine is not None:
        from ..sim.device import ENGINES

        if oracle.engine not in ENGINES:
            raise ValueError(
                f"oracle {oracle.name!r} names unknown sim engine "
                f"{oracle.engine!r}; available: {', '.join(sorted(ENGINES))}")


#: name -> singleton; insertion order is the presentation order of
#: ``repro list``
_REGISTRY: Registry[Oracle] = Registry(
    "oracle", Oracle, error=OracleError, validate=_validate)

register_oracle = _REGISTRY.register
unregister_oracle = _REGISTRY.unregister
get_oracle = _REGISTRY.get
available_oracles = _REGISTRY.names

register_oracle(EngineOracle(
    "sim", "vectorized",
    "the simulator on the vectorized engine (the default)"))
register_oracle(EngineOracle(
    "sim-scalar", "scalar",
    "the simulator on the scalar reference engine"))
register_oracle(LearnedOracle())

#: the built-in oracles, as registered singletons
BUILTIN_ORACLES = _REGISTRY.values()
