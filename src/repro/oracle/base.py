"""Oracle base class — how a tuning trial gets its answer.

An :class:`Oracle` names one way of scoring the tuner's candidates. The
simulator itself (``sim``) scores every candidate with a real run; a
learned oracle (``surrogate``) wraps it, predicting cheap rungs and
confirming winners at full fidelity through the embedded simulation
oracle. Oracles are a tuner option only: a run's answer always comes
from the simulator, so no oracle is part of a run's identity.
"""

from __future__ import annotations

import abc

from ..errors import ReproError


class OracleError(ReproError):
    """An oracle could not be resolved or used."""


class Oracle(abc.ABC):
    """One way of answering "what are this candidate's metrics?"."""

    #: registry key (``repro tune --oracle``)
    name: str = ""
    #: one-line description for ``repro list`` and docs
    summary: str = ""

    def scorer(self, sim, *, training_log=None):
        """The candidate scorer the tuner should drive.

        ``sim`` is the tuner's :class:`~repro.tuning.oracle.SimulationOracle`
        (already bound to app/objective/store/fidelity runners); the
        simulator returns it unchanged, learned oracles wrap it.
        """
        return sim

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
