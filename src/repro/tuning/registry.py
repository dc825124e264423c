"""Persistent registry of tuned configurations.

The tuner's product is a :class:`TunedConfig` — the winning
:class:`~repro.tuning.space.Candidate` for one app x objective, together
with its measured objective value and the paper-default baseline it
beat. Configs persist as one JSON file **beside the result store**
(``<cache-dir>/tuned.json``), content-keyed the same way run cache
entries are (:func:`tuned_key` hashes everything that determines a
tuning problem: app, objective, device spec, cost model, dataset scale,
verify flag, package version), so re-tuning the same problem overwrites
its own slot while a changed cost constant or device gets a fresh one.

Consumers: the ``tuned`` app variant
(``repro run <app> tuned``; :meth:`ExperimentRunner._resolve` looks the
entry up and lowers it onto a concrete consolidated RunSpec) and
``repro cache info`` (reports the registry alongside the run cache).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from ..experiments.store import config_dict, default_cache_dir
from .space import Candidate

#: bump to invalidate every persisted tuned config on a format change
TUNED_FORMAT = 1

#: file name of the registry, beside the ResultStore's shard directories
TUNED_FILE = "tuned.json"


def default_tuned_path(cache_dir=None) -> Path:
    """Registry location for a cache directory (default: the run cache's)."""
    root = Path(cache_dir) if cache_dir else default_cache_dir()
    return root / TUNED_FILE


def tuned_key(*, app: str, objective: str, spec, cost, scale: float,
              verify: bool, version: str,
              workload: Optional[str] = None) -> str:
    """Stable content address for one tuning problem.

    ``workload`` (a canonical :mod:`repro.workloads` reference, already
    folded onto ``None`` for the app's default) enters the payload only
    when set, so pre-workload tuned entries keep their slots — the same
    compatibility rule as :func:`repro.experiments.store.run_key`.
    """
    payload = {
        "format": TUNED_FORMAT,
        "version": version,
        "app": app,
        "objective": objective,
        "spec": config_dict(spec),
        "cost": config_dict(cost),
        "scale": scale,
        "verify": verify,
    }
    if workload is not None:
        payload["workload"] = workload
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class TunedConfig:
    """The persisted outcome of one tuning problem."""

    app: str
    objective: str
    candidate: Candidate
    #: objective value of the winning candidate at full tuning scale
    value: float
    #: objective value of the paper-default configuration (same scale)
    baseline_value: float
    algorithm: str
    #: number of oracle evaluations the search performed
    evaluations: int
    scale: float
    device: str
    version: str
    #: canonical workload the config was tuned on (None: app default);
    #: defaulted so pre-workload registry files still deserialize
    workload: Optional[str] = None

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        d["candidate"] = dataclasses.asdict(self.candidate)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "TunedConfig":
        d = dict(d)
        d["candidate"] = Candidate(**d["candidate"])
        return cls(**d)


class TunedConfigRegistry:
    """Filesystem-backed map from tuned-problem key to TunedConfig.

    Reads never touch the filesystem beyond the one JSON file (a missing
    or unreadable registry is simply empty). Writes are read-modify-write
    of the whole map, so — unlike the one-file-per-key result store —
    atomic replace alone is not enough: mutations additionally hold an
    exclusive ``flock`` on a sidecar lock file, so two ``repro tune``
    processes sharing one cache directory cannot lose each other's
    entries.
    """

    def __init__(self, path):
        self.path = Path(path)

    # -- persistence -----------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        """Exclusive inter-process lock around a read-modify-write."""
        try:
            import fcntl
        except ImportError:  # non-POSIX: best-effort, unlocked
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with (self.path.with_suffix(".lock")).open("w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def _load(self) -> dict:
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict) or data.get("format") != TUNED_FORMAT:
            return {}
        entries = data.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _save(self, entries: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"format": TUNED_FORMAT, "entries": entries}
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- map interface ---------------------------------------------------------

    def put(self, key: str, config: TunedConfig) -> None:
        with self._locked():
            entries = self._load()
            entries[key] = config.to_json()
            self._save(entries)

    def get(self, key: str) -> Optional[TunedConfig]:
        entry = self._load().get(key)
        return TunedConfig.from_json(entry) if entry is not None else None

    def entries(self) -> list[TunedConfig]:
        """Every stored config, in stable (key-sorted) order."""
        loaded = self._load()
        return [TunedConfig.from_json(loaded[k]) for k in sorted(loaded)]

    def lookup(self, app: str, objective: str = "cycles",
               scale: Optional[float] = None,
               device: Optional[str] = None,
               workload: Optional[str] = None) -> Optional[TunedConfig]:
        """Best stored config for an app x objective x workload.

        Only entries tuned on the *same* workload are considered (a
        config tuned on ``star`` must never shadow the default-dataset
        slot, and vice versa). With several matching entries (e.g.
        tuned at different scales or for different simulated devices),
        prefers an exact scale match and an exact device match when
        given, then the largest tuning scale (closest to the real
        workload), then the best objective value *in the objective's
        better-direction*, breaking remaining ties deterministically.
        """
        from .objectives import get_objective

        try:
            loss = get_objective(objective).loss
        except KeyError:  # unknown objective name: order by raw value
            def loss(value):
                return value
        matches = [c for c in self.entries()
                   if c.app == app and c.objective == objective
                   and c.workload == workload]
        if not matches:
            return None
        for attr, want in (("scale", scale), ("device", device)):
            if want is not None:
                exact = [c for c in matches if getattr(c, attr) == want]
                if exact:
                    matches = exact
        matches.sort(key=lambda c: (-c.scale, loss(c.value), c.algorithm))
        return matches[0]

    def clear(self) -> int:
        """Remove every stored config; returns how many were removed."""
        if not self.path.exists():
            return 0
        with self._locked():
            entries = self._load()
            if entries:
                self._save({})
        return len(entries)

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return key in self._load()

    def __repr__(self) -> str:
        return f"TunedConfigRegistry({str(self.path)!r})"
