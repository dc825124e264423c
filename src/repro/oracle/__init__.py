"""Pluggable tuning oracles — who scores the tuner's candidates.

Mirrors :mod:`repro.backends` (and the strategy/search/workload
registries): named singletons, built-ins registered at import. Built-ins:

``sim``
    the simulator: every candidate is a real run through the experiment
    runner — the default of ``repro tune``;
``surrogate``
    a learned model (:mod:`repro.oracle.surrogate`) trained on the runs
    the experiment runner has already executed
    (``repro tune --oracle surrogate``): cheap successive-halving rungs
    are answered by prediction, the final rung is always simulated.

Oracles are a tuner option, never a run axis: a run's answer always
comes from the simulator. The scalar reference engine that differential
checks compare the default engine against is reached as
``App.run(..., backend=SimBackend(engine="scalar"))``.
"""

from __future__ import annotations

from ..registry import Registry
from .base import Oracle, OracleError
from .surrogate import (
    MIN_TRAIN_ROWS, SurrogateModel, SurrogateOracle, spearman,
)
from .training import LOG_FILENAME, TrainingLog, cost_fingerprint

__all__ = [
    "Oracle",
    "OracleError",
    "SimOracle",
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

#: the oracle ``repro tune`` uses when none is named
DEFAULT_ORACLE = "sim"


class SimOracle(Oracle):
    """The default: score every candidate with a real simulator run."""

    name = "sim"
    summary = "the simulator: every candidate is a real run (the default)"


class LearnedOracle(Oracle):
    """The surrogate built-in: wraps the tuner's simulation oracle in a
    :class:`SurrogateOracle` trained from the runner's training log."""

    name = "surrogate"
    summary = "learned prefilter: predict cheap rungs, simulate the rest"

    def scorer(self, sim, *, training_log=None):
        return SurrogateOracle(sim, training_log)


#: name -> singleton; insertion order is the presentation order of
#: ``repro list``
_REGISTRY: Registry[Oracle] = Registry("oracle", Oracle, error=OracleError)

register_oracle = _REGISTRY.register
unregister_oracle = _REGISTRY.unregister
get_oracle = _REGISTRY.get
available_oracles = _REGISTRY.names

register_oracle(SimOracle())
register_oracle(LearnedOracle())

#: the built-in oracles, as registered singletons
BUILTIN_ORACLES = _REGISTRY.values()
