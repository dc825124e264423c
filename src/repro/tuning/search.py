"""Pluggable search algorithms for the configuration tuner.

Mirrors the consolidation-strategy registry
(:mod:`repro.compiler.strategies`): each algorithm is a stateless
named singleton, and registering a new one makes it reachable from
``repro tune --search`` and :meth:`repro.tuning.Tuner.tune` without
touching either::

    from repro.tuning import SearchAlgorithm, register_search

    class Bisect(SearchAlgorithm):
        name = "bisect"
        summary = "my custom pruning rule"
        def search(self, oracle, candidates, *, budget=None, seed=0):
            return oracle.evaluate(candidates[: (budget or 8)])

    register_search(Bisect())

An algorithm receives the **oracle** (its only way to score candidates)
and the full candidate list in deterministic space order, and returns
the trials it ran. Everything an algorithm does must be a pure function
of ``(candidates, budget, seed)`` and the returned scores — no wall
clocks, no global randomness — so a repeated tune replays the identical
evaluation sequence and is served entirely from the result cache.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Optional

from ..registry import Registry
from ..telemetry import span
from .oracle import SimulationOracle, Trial
from .space import Candidate


class SearchAlgorithm(abc.ABC):
    """One way of exploring the candidate space."""

    #: registry key (``repro tune --search``)
    name: str = ""
    #: one-line description for ``repro list`` and docs
    summary: str = ""

    @abc.abstractmethod
    def search(self, oracle: SimulationOracle, candidates: list[Candidate],
               *, budget: Optional[int] = None, seed: int = 0) -> list[Trial]:
        """Evaluate candidates through the oracle; return every trial.

        ``budget`` caps how many *candidates* the algorithm may draw
        from the space (None = no cap); ``seed`` drives any sampling.
        At least one trial must be at full fidelity — the tuner picks
        the winner among full-fidelity trials only.
        """

    def _pool(self, candidates: list[Candidate], budget: Optional[int],
              seed: int) -> list[Candidate]:
        """A budget-sized subset, seeded and in stable space order."""
        if budget is None or budget >= len(candidates):
            return list(candidates)
        if budget < 1:
            raise ValueError("budget must be >= 1")
        rng = random.Random(seed)
        picked = sorted(rng.sample(range(len(candidates)), budget))
        return [candidates[i] for i in picked]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GridSearch(SearchAlgorithm):
    """Exhaustive sweep at full fidelity (the Fig. 6 'exhaustive search'
    reference, extended to the joint space)."""

    name = "grid"
    summary = "exhaustive sweep of the space at full fidelity"

    def search(self, oracle, candidates, *, budget=None, seed=0):
        return oracle.evaluate(self._pool(candidates, budget, seed))


class RandomSearch(SearchAlgorithm):
    """Seeded uniform sampling at full fidelity."""

    name = "random"
    summary = "seeded uniform sample of the space"
    #: candidates sampled when no budget is given
    default_budget = 16

    def search(self, oracle, candidates, *, budget=None, seed=0):
        budget = budget if budget is not None else self.default_budget
        return oracle.evaluate(self._pool(candidates, budget, seed))


class SuccessiveHalving(SearchAlgorithm):
    """Multi-fidelity pruning: score everything on a small dataset,
    promote the best ``1/eta`` to the next rung, finish at full scale.

    The rung schedule is expressed as dataset *scale factors* — the
    cheap rungs rank candidates on a quarter/half-size dataset, which
    the simulator makes nearly free, and only survivors pay the
    full-scale evaluation (DESIGN.md §11).
    """

    name = "halving"
    summary = "successive halving: rank small, promote survivors to full scale"
    #: dataset scale factor per rung (last must be 1.0 = full fidelity)
    rungs = (0.25, 0.5, 1.0)
    #: promotion keeps ceil(n / eta) survivors per rung
    eta = 3

    def search(self, oracle, candidates, *, budget=None, seed=0):
        survivors = self._pool(candidates, budget, seed)
        trials: list[Trial] = []
        for rung, factor in enumerate(self.rungs):
            with span("tune.rung", rung=rung, factor=factor,
                      candidates=len(survivors)):
                scored = oracle.evaluate(survivors, factor)
            trials.extend(scored)
            if rung == len(self.rungs) - 1:
                break
            keep = max(1, math.ceil(len(scored) / self.eta))
            # stable sort: ties promote the earlier candidate in space order
            order = sorted(range(len(scored)),
                           key=lambda i: (scored[i].loss, i))
            survivors = [scored[i].candidate for i in sorted(order[:keep])]
        return trials


# -- registry ----------------------------------------------------------------

_REGISTRY: Registry[SearchAlgorithm] = Registry(
    "search algorithm", SearchAlgorithm)

register_search = _REGISTRY.register
unregister_search = _REGISTRY.unregister
get_search = _REGISTRY.get
available_searches = _REGISTRY.names

register_search(GridSearch())
register_search(RandomSearch())
register_search(SuccessiveHalving())
