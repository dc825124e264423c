"""Workload specs and the named-workload registry.

A :class:`WorkloadSpec` decouples *what data an experiment runs on* from
the app that runs it: every dataset the project can produce — synthetic
generators and real-format files alike — is registered here under a
short name, with declared structural properties (graph vs. tree,
symmetry) that the runner validates against each app's requirements
before anything executes.

Workload *references* are strings: a bare registry name (``"star"``) or
a parameterized form (``"citeseer(seed=31)"``). References canonicalize
— parameters equal to the spec's defaults are dropped and the rest are
key-sorted — so two spellings of the same dataset share one cache entry
everywhere (runner memory cache, on-disk run store, dataset cache,
tuned-config registry). The registry mirrors the consolidation-strategy
and search-algorithm registries: registering a spec makes it reachable
end-to-end (CLI ``--workload``, ``repro workloads``, the sensitivity
sweep, the tuner) without touching any of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..registry import Registry

#: structural kinds the apps consume (App.kind must match)
KINDS = ("graph", "tree")

_REF_RE = re.compile(r"^([A-Za-z0-9_][A-Za-z0-9_-]*)(?:\((.*)\))?$")


@dataclass
class WorkloadSpec:
    """One named dataset family.

    ``builder(scale, **params)`` materializes the dataset; ``defaults``
    documents the accepted parameters and their default values (unknown
    parameters are rejected at reference-resolution time). ``symmetric``
    declares that every materialization is an undirected (symmetrized)
    graph — apps whose algorithms rely on symmetry (graph coloring's
    independent-set argument, BFS-Rec's level check) refuse asymmetric
    workloads up front instead of failing verification later. ``source``
    points at the backing file for real-format loader workloads; its
    content participates in the dataset-cache key.
    """

    name: str
    kind: str
    description: str
    builder: Callable
    defaults: dict = field(default_factory=dict)
    symmetric: bool = False
    #: True when the dataset's level count from the natural root can
    #: exceed the device's dynamic-parallelism nesting budget (24):
    #: lattices grow with scale, chains exceed it at their default
    #: depth. Level-recursive apps (BFS-Rec) refuse such workloads
    #: conservatively (a parameterization that would happen to fit is
    #: still rejected; the flag is declarative, not measured)
    deep: bool = False
    source: Optional[Path] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"workload {self.name!r}: kind must be one of "
                f"{', '.join(KINDS)}, got {self.kind!r}")
        if not _REF_RE.match(self.name) or "(" in self.name:
            raise ValueError(f"invalid workload name {self.name!r}")

    # -- parameters ------------------------------------------------------------

    def resolve_params(self, params: Optional[dict] = None) -> dict:
        """Defaults overlaid with ``params``; unknown keys are rejected."""
        resolved = dict(self.defaults)
        for key, value in (params or {}).items():
            if key not in self.defaults:
                known = ", ".join(sorted(self.defaults)) or "none"
                raise ValueError(
                    f"workload {self.name!r} takes no parameter {key!r} "
                    f"(known: {known})")
            resolved[key] = value
        return resolved

    def canonical(self, params: Optional[dict] = None) -> str:
        """The canonical reference string for this spec + parameters.

        Parameters equal to the defaults are dropped and the remainder
        key-sorted, so every spelling of the same dataset collapses to
        one string — the property the cache-key argument in DESIGN.md
        §12 relies on.
        """
        resolved = self.resolve_params(params)
        extras = {k: v for k, v in sorted(resolved.items())
                  if v != self.defaults[k]}
        if not extras:
            return self.name
        inner = ",".join(f"{k}={_format_value(v)}" for k, v in extras.items())
        return f"{self.name}({inner})"

    # -- materialization -------------------------------------------------------

    def build(self, scale: float = 1.0, params: Optional[dict] = None):
        """Materialize (and validate) the dataset at a scale."""
        dataset = self.builder(scale, **self.resolve_params(params))
        dataset.validate()
        return dataset

    def source_fingerprint(self) -> Optional[str]:
        """Streaming sha256 of the backing file (None when generated);
        hashed in fixed-size chunks so multi-gigabyte dumps never sit in
        memory — the same bounded-memory contract as the loaders."""
        if self.source is None:
            return None
        import hashlib

        digest = hashlib.sha256()
        with self.source.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        return digest.hexdigest()

    def summary(self) -> str:
        sym = ", symmetric" if self.symmetric else ""
        dp = ", deep" if self.deep else ""
        src = ", file-backed" if self.source is not None else ""
        return f"[{self.kind}{sym}{dp}{src}] {self.description}"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _parse_value(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"workload parameter value {text!r} is not a number; "
            "parameters are numeric (e.g. seed=3, scale knobs)") from None


def parse_workload(ref: str) -> tuple[str, dict]:
    """Split a workload reference into ``(name, params)``.

    Accepts ``"star"`` and ``"citeseer(seed=31,...)"``; values parse as
    int, then float — non-numeric values are rejected (every registered
    parameter is a numeric knob, and rejecting early keeps typos out of
    the builders).
    """
    match = _REF_RE.match(ref.strip())
    if not match:
        raise ValueError(
            f"malformed workload reference {ref!r}; expected "
            "'name' or 'name(key=value,...)'")
    name, inner = match.group(1), match.group(2)
    params: dict = {}
    if inner:
        for item in inner.split(","):
            if "=" not in item:
                raise ValueError(
                    f"malformed workload parameter {item!r} in {ref!r}; "
                    "expected key=value")
            key, value = item.split("=", 1)
            key = key.strip()
            if not key:
                raise ValueError(
                    f"malformed workload parameter {item!r} in {ref!r}; "
                    "expected key=value")
            params[key] = _parse_value(value)
    return name, params


# -- registry ------------------------------------------------------------------

#: name -> spec; insertion order is the presentation order of
#: ``repro workloads list`` and the sensitivity sweep
_REGISTRY: Registry[WorkloadSpec] = Registry("workload", WorkloadSpec)

register_workload = _REGISTRY.register
unregister_workload = _REGISTRY.unregister
#: look up a spec by bare name (no parameter suffix)
get_workload = _REGISTRY.get


def available_workloads(kind: Optional[str] = None) -> tuple[str, ...]:
    """Registered workload names (optionally one kind), in order."""
    return tuple(spec.name for spec in _REGISTRY.values()
                 if kind is None or spec.kind == kind)


def resolve_workload(ref: str) -> tuple[WorkloadSpec, dict]:
    """A reference string resolved to ``(spec, full params)``."""
    name, params = parse_workload(ref)
    spec = get_workload(name)
    return spec, spec.resolve_params(params)


def canonical_workload(ref: str) -> str:
    """Canonicalize any reference spelling (see :meth:`WorkloadSpec.canonical`)."""
    name, params = parse_workload(ref)
    return get_workload(name).canonical(params)


# -- materialization entry points ---------------------------------------------


def materialize(ref: str, scale: float = 1.0, cache=None):
    """Materialize a workload reference, optionally through a
    :class:`~repro.workloads.cache.DatasetCache`."""
    spec, params = resolve_workload(ref)
    if cache is not None:
        from .cache import dataset_key

        key = dataset_key(spec, params, scale)
        dataset = cache.get(key)
        if dataset is None:
            dataset = spec.build(scale, params)
            cache.put(key, dataset)
        return dataset
    return spec.build(scale, params)


def incompatibility(app, spec: WorkloadSpec) -> Optional[str]:
    """Why an app cannot run a workload (None when it can).

    Checks the app's declared structural requirements: dataset kind,
    symmetry (GC, BFS-Rec), and bounded depth (BFS-Rec's level
    recursion must fit the device's DP nesting limit).
    """
    if spec.kind != app.kind:
        return (f"workload {spec.name!r} is a {spec.kind} dataset but "
                f"{app.label} consumes {app.kind}s; pick one of: "
                f"{', '.join(available_workloads(app.kind))}")
    if getattr(app, "requires_symmetric", False) and not spec.symmetric:
        symmetric = [n for n in available_workloads(app.kind)
                     if get_workload(n).symmetric]
        return (f"{app.label} requires a symmetric (undirected) graph, "
                f"but workload {spec.name!r} is not declared symmetric; "
                f"pick one of: {', '.join(symmetric)}")
    if getattr(app, "requires_shallow", False) and spec.deep:
        return (f"{app.label} recurses once per level and workload "
                f"{spec.name!r} is declared deep (its level count can "
                "exceed the device's dynamic-parallelism nesting "
                "limit), so it is refused conservatively")
    return None


def canonical_for_app(app, ref: Optional[str]) -> Optional[str]:
    """Canonicalize a reference for one app, folding the app's own
    :attr:`default_workload` onto ``None``.

    This is the load-bearing cache-compatibility rule of DESIGN.md §12
    (an omitted or default workload must key exactly like PR 3), shared
    by the experiment runner and the tuner so run keys and tuned keys
    can never fork.
    """
    if ref is None:
        return None
    canonical = canonical_workload(ref)
    if canonical == canonical_workload(app.default_workload):
        return None
    return canonical


def materialize_for_app(app, ref: str, scale: float = 1.0, cache=None):
    """Materialize a workload for one app, enforcing the app's declared
    structural requirements (kind, symmetry, depth) *before* building."""
    spec, params = resolve_workload(ref)
    reason = incompatibility(app, spec)
    if reason is not None:
        raise ValueError(reason)
    return materialize(spec.canonical(params), scale, cache=cache)
