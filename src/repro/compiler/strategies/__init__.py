"""Pluggable consolidation strategies (aggregation granularities).

The paper consolidates child launches at warp, block, or grid scope;
this package turns each scope into a :class:`ConsolidationStrategy`
object and keeps them in a name-keyed registry, so the transforms in
:mod:`repro.compiler` are granularity-agnostic and experiments can sweep
the strategy axis (``repro run <app> consolidated --strategy <name>``,
``repro granularity``). DESIGN.md §10 documents the layer.

Registering a new strategy makes it reachable end-to-end — compiler,
simulator, runner cache key, and CLI — without touching any of them::

    from repro.compiler.strategies import (
        ConsolidationStrategy, register_strategy)

    class PairStrategy(WarpStrategy):       # e.g. a tuned warp variant
        name = "warp-kc8"
        kc_concurrency = 8

    register_strategy(PairStrategy())
"""

from __future__ import annotations

from ...errors import TransformError
from ...registry import Registry
from ...sim.dp import GRAN_NAMES
from .base import ConsolidationStrategy
from .block import BlockStrategy
from .grid import GridStrategy
from .warp import WarpStrategy

__all__ = [
    "ConsolidationStrategy",
    "WarpStrategy",
    "BlockStrategy",
    "GridStrategy",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "unregister_strategy",
    "BUILTIN_STRATEGIES",
]


def _validate(strategy: ConsolidationStrategy) -> None:
    if strategy.gran_code not in GRAN_NAMES:
        scopes = ", ".join(f"{c}={n}" for c, n in GRAN_NAMES.items())
        raise ValueError(
            f"strategy {strategy.name!r}: gran_code must be a buffer scope "
            f"the runtime knows ({scopes}), got {strategy.gran_code}")
    if strategy.kc_concurrency < 1:
        raise ValueError(
            f"strategy {strategy.name!r}: kc_concurrency must be >= 1")


#: name -> singleton; insertion order is the presentation order used by
#: ``consolidate_all`` and the granularity ablation
_REGISTRY: Registry[ConsolidationStrategy] = Registry(
    "strategy", ConsolidationStrategy, error=TransformError,
    unknown="consolidation strategy", validate=_validate)

register_strategy = _REGISTRY.register
unregister_strategy = _REGISTRY.unregister
get_strategy = _REGISTRY.get
available_strategies = _REGISTRY.names

register_strategy(WarpStrategy())
register_strategy(BlockStrategy())
register_strategy(GridStrategy())

#: the paper's three granularities, as registered singletons
BUILTIN_STRATEGIES = _REGISTRY.values()
