"""Context-var tracing: nested spans into a bounded in-memory collector.

The design point is the *disabled* path: instrumented call sites run in
every hot loop (per-request in the daemon, per-round in the sim), so
``span("name")`` with no active tracer must cost one global read plus
one ContextVar read and allocate nothing — it returns the shared
:data:`NULL_SPAN` singleton, whose ``__enter__``/``__exit__``/``set``
are empty methods on an empty-``__slots__`` class.

Activation comes in two scopes:

* :func:`tracing` — a context manager binding a :class:`Tracer` into a
  ContextVar. The binding follows asyncio task creation (contextvars
  copy into tasks) and stays out of unrelated threads. This is what
  ``repro trace`` uses, and how any caller traces a run.
* :func:`install` / :func:`uninstall` — a process-global tracer for the
  service daemon, whose work hops from the event loop into
  ``run_in_executor`` worker threads where ContextVars do *not* follow.

Parent linkage is per-context: entering a span rebinds the ContextVar
to ``(tracer, span)``, so concurrent asyncio tasks each see their own
span stack while sharing one collector. Spans record wall-clock from
``time.perf_counter()`` relative to the tracer's epoch and are appended
to the collector on exit (children therefore precede their parents in
append order; exporters re-sort by start time).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

#: collector bound: spans past this are counted in ``Tracer.dropped``
#: instead of retained (a runaway trace must not exhaust memory)
DEFAULT_MAX_SPANS = 200_000


class NullSpan:
    """The do-nothing span returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()

#: (tracer, parent span | None) for the current context; None = off
_STATE: ContextVar[Optional[tuple]] = ContextVar(
    "repro_telemetry_state", default=None)

#: process-global fallback tracer (service daemon); checked after the
#: ContextVar so a scoped ``tracing()`` block always wins
_GLOBAL: Optional["Tracer"] = None


class Span:
    """One timed phase. Created by :func:`span`, recorded on exit."""

    __slots__ = ("tracer", "name", "attrs", "parent", "thread",
                 "t0", "t1", "seq", "_token")

    def __init__(self, tracer: "Tracer", name: str, parent: Optional["Span"],
                 attrs: dict):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.thread = threading.get_ident()
        self.t0 = 0.0
        self.t1 = 0.0
        self.seq = -1
        self._token = None

    def set(self, **attrs) -> "Span":
        """Attach attributes to a live span (exported as trace args)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __enter__(self) -> "Span":
        self._token = _STATE.set((self.tracer, self))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.t1 = time.perf_counter()
        _STATE.reset(self._token)
        self.tracer._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms)"


class Tracer:
    """A bounded, thread-safe collector of finished spans."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        self.max_spans = max_spans
        self.epoch = time.perf_counter()
        self.dropped = 0
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    def _record(self, sp: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            sp.seq = len(self._spans)
            self._spans.append(sp)

    def spans(self) -> list[Span]:
        """Finished spans ordered by start time (stable on ties)."""
        with self._lock:
            snapshot = list(self._spans)
        return sorted(snapshot, key=lambda s: (s.t0, s.seq))

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


def _current() -> Optional[tuple]:
    state = _STATE.get()
    if state is not None:
        return state
    if _GLOBAL is not None:
        return (_GLOBAL, None)
    return None


def enabled() -> bool:
    """True when a tracer is active in this context (or globally)."""
    return _current() is not None


def span(name: str, /, **attrs):
    """Open a span under the active tracer; a no-op when tracing is off.

    Usage at every instrumentation point::

        with span("runner.execute", app=spec.app):
            ...

    The off path allocates nothing: ``attrs`` is only materialized by
    the caller (keyword dict), and the returned object is the shared
    :data:`NULL_SPAN`.
    """
    state = _STATE.get()
    if state is None:
        if _GLOBAL is None:
            return NULL_SPAN
        state = (_GLOBAL, None)
    tracer, parent = state
    return Span(tracer, name, parent, attrs)


@contextmanager
def tracing(tracer: Tracer):
    """Bind ``tracer`` as the active tracer for the current context."""
    token = _STATE.set((tracer, None))
    try:
        yield tracer
    finally:
        _STATE.reset(token)


def install(tracer: Tracer) -> None:
    """Make ``tracer`` the process-global tracer (all threads see it)."""
    global _GLOBAL
    _GLOBAL = tracer


def uninstall(tracer: Optional[Tracer] = None) -> None:
    """Clear the process-global tracer (if ``tracer`` given, only when
    it is still the installed one — safe under re-entrancy)."""
    global _GLOBAL
    if tracer is None or _GLOBAL is tracer:
        _GLOBAL = None
