"""Source-to-source entry points for the consolidation compiler.

This is the user-facing equivalent of the paper's directive-based compiler
(Fig. 3): annotated CUDA in, consolidated CUDA out. It sits between the
frontend (:mod:`repro.frontend`, which parses MiniCUDA and its
``#pragma dp`` directives) and the simulator (:mod:`repro.sim`, which
executes the generated code); README.md walks the whole pipeline and
DESIGN.md §3-§4 document the transforms. Which *aggregation granularity*
is applied is decided by a pluggable
:class:`~repro.compiler.strategies.base.ConsolidationStrategy`
(DESIGN.md §10).

    >>> from repro.compiler import consolidate_source
    >>> result = consolidate_source(annotated_src, granularity="block")
    >>> print(result.source)          # the generated CUDA
    >>> print(result.report.describe())

Each call parses its input afresh, so the same annotated source can be
consolidated under every strategy independently. Compilation is pure and
deterministic: the same (source, strategy, config, spec) inputs yield
byte-identical output in any process. The experiment layer leans on this
twice. Consolidation happens *inside* each cached application run, so
the work-plan scheduler (DESIGN.md §8) can fan runs across worker
processes and content-address the results without hashing compiler
state. And a runner's :class:`~repro.apps.common.BuildCache` memoizes
consolidations by exactly those inputs, compiling a miss's checked
``result.info`` for the simulator rather than re-parsing
``result.source`` (both give the same program; DESIGN.md §8).
"""

from __future__ import annotations

from typing import Optional

from ..frontend.parser import parse
from ..sim.occupancy import LaunchConfig
from ..sim.specs import DeviceSpec, K20C
from .consolidator import ConsolidationResult, consolidate_module
from .strategies import available_strategies

#: the paper's three granularities (the built-in strategies; plugins may
#: register more — see :func:`available_strategies`)
GRANULARITIES = ("warp", "block", "grid")


def consolidate_source(source: str, granularity=None,
                       config: Optional[LaunchConfig] = None,
                       parent: Optional[str] = None,
                       spec: DeviceSpec = K20C,
                       filename: str = "<annotated>",
                       strategy=None) -> ConsolidationResult:
    """Consolidate annotated MiniCUDA source under one strategy.

    ``granularity`` (alias ``strategy``) names a registered
    consolidation strategy and overrides the pragma's ``consldt`` clause
    (the experiments sweep all three built-ins); ``config`` overrides the
    kernel configuration policy (KC_X by default).
    """
    if strategy is not None:
        if granularity is not None and granularity != strategy:
            raise ValueError(
                f"conflicting granularity={granularity!r} and "
                f"strategy={strategy!r}")
        granularity = strategy
    module = parse(source, filename)
    return consolidate_module(module, granularity=granularity, config=config,
                              parent=parent, spec=spec)


def consolidate_all(source: str, config: Optional[LaunchConfig] = None,
                    parent: Optional[str] = None,
                    spec: DeviceSpec = K20C) -> dict[str, ConsolidationResult]:
    """Consolidate under every registered strategy, keyed by name
    (``'warp'``/``'block'``/``'grid'`` plus any registered plugins)."""
    return {
        name: consolidate_source(source, granularity=name, config=config,
                                 parent=parent, spec=spec)
        for name in available_strategies()
    }
