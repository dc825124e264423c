"""Exception hierarchy for the repro package.

Every error raised by the frontend, compiler, backend or simulator derives
from :class:`ReproError` so callers can catch the whole family at once.
Frontend errors carry a :class:`~repro.frontend.source.SourceLocation` when
one is available, and render ``file:line:col: message`` strings the way a
conventional compiler driver would.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


#: The package's deprecation cadence (DESIGN.md §15): when an API moves
#: to a canonical home, the old spelling survives for **two PRs** as a
#: shim that emits :class:`DeprecationWarning` and delegates verbatim,
#: then is removed outright — the removal site keeps a one-line comment
#: pointing here. Shims never change behaviour (identical RunSpecs,
#: identical cache keys), so retiring one invalidates nothing on disk.
DeprecationPolicy = (
    "deprecated APIs warn for two PRs, then are removed; see DESIGN.md §15"
)


class SourceError(ReproError):
    """An error tied to a location in MiniCUDA source code."""

    def __init__(self, message: str, loc=None):
        self.message = message
        self.loc = loc
        super().__init__(self._render())

    def _render(self) -> str:
        if self.loc is None:
            return self.message
        return f"{self.loc}: {self.message}"


class LexError(SourceError):
    """Raised by the lexer on malformed input (bad characters, unterminated
    comments or literals)."""


class ParseError(SourceError):
    """Raised by the parser on a syntax error."""


class PragmaError(SourceError):
    """Raised for malformed ``#pragma dp`` directives (Table I grammar)."""


class TypeCheckError(SourceError):
    """Raised by semantic analysis (unknown identifiers, bad launches,
    non-lvalue assignments, arity mismatches, ...)."""


class TransformError(SourceError):
    """Raised when a consolidation transform cannot be applied, e.g. the
    annotated kernel does not follow the paper's Fig. 1 template."""


class CodegenError(SourceError):
    """Raised by the Python backend for constructs it cannot lower."""


class SimulationError(ReproError):
    """Raised by the GPU simulator for violations of device limits or
    internal inconsistencies (e.g. exceeding the DP nesting depth)."""

    #: the innermost kernel whose execution raised this error; the
    #: engine sets it once, prefixing the message ``kernel <name>: ``
    kernel = None


class LaunchError(SimulationError):
    """Raised for invalid kernel launch configurations."""


class AllocationError(SimulationError):
    """Raised by device memory allocators (out of memory, bad free)."""


class DeviceAssertError(SimulationError):
    """Raised when a MiniCUDA ``assert``-style intrinsic fails during
    functional execution."""
