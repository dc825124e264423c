"""Content-addressed on-disk store for experiment results.

Every :class:`~repro.apps.common.AppRun` is addressed by a stable hash of
*everything that determines it*: the app key, variant, allocator, launch
configuration, the dataset's content fingerprint, every cost-model field,
the device spec, the delegation threshold, the verify flag, and the
package version. Two runs with value-equal inputs therefore share one
cache entry — across processes and across invocations — while any change
to a cost constant, a dataset generator, or the package itself changes
the address and forces re-execution.

This replaces the seed runner's in-process ``id(cost_obj)`` key, which
was doubly wrong: it missed sharing between value-equal cost models, and
``id()`` values are reused after garbage collection, so a *different*
cost model could silently hit a stale entry.

Entries are pickled ``AppRun`` objects written atomically
(temp file + ``os.replace``), so concurrent writers — e.g. two
``repro all --jobs N`` invocations against one cache directory — never
expose torn files. Unreadable entries are treated as misses and removed.

Writes land in **shard directories** (``shard-NN/``, NN derived from the
content address), so the N concurrent writers of an experiment service
(:mod:`repro.service`) spread directory-entry churn across 16
independent directories instead of contending on one. Reads remain
transparently compatible with the pre-shard flat layout
(``<key[:2]>/<key>.pkl``): a lookup opens the computed shard path
directly and only when that is absent tries the legacy path — and the
first ``put`` of a key removes its legacy entry, so mixed-layout stores
converge without a rewrite pass. See DESIGN.md §13.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional

import numpy as np

#: bump to invalidate every existing cache entry on a format change
#: (2: strategy axis added to the key payload, RunMetrics gained fields)
STORE_FORMAT = 2

#: environment variable overriding the default cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-wulb16``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-wulb16"


def _hash_value(h, value) -> None:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    else:
        h.update(repr(value).encode())


def dataset_fingerprint(dataset) -> str:
    """Content hash of a dataset (CSR graph, tree, or any dataclass of
    NumPy arrays and scalars)."""
    h = hashlib.sha256()
    h.update(type(dataset).__name__.encode())
    if dataclasses.is_dataclass(dataset):
        for f in dataclasses.fields(dataset):
            h.update(f.name.encode())
            _hash_value(h, getattr(dataset, f.name))
    else:
        _hash_value(h, dataset)
    return h.hexdigest()


#: how many frozen configs :func:`config_dict` keeps serialized; a
#: process meets a handful (the runner's cost model and device spec,
#: an ablation's scaled models)
CONFIG_MEMO_SIZE = 32

#: id -> (config, its asdict), least recently used first; each entry
#: holds its config, so no other object can take that id while cached
_config_dicts: OrderedDict = OrderedDict()
_config_lock = threading.Lock()


def config_dict(config) -> dict:
    """``dataclasses.asdict`` of a frozen config (a cost model, a device
    spec), computed once per object and handed out as a fresh copy.

    The one serializer behind :func:`run_key`,
    :func:`repro.tuning.registry.tuned_key` and
    :func:`repro.oracle.training.cost_fingerprint`, which would
    otherwise call ``asdict`` twice per content key. The memo is keyed
    on object identity, never on equality: ``CostModel(x=80)`` equals
    ``CostModel(x=80.0)`` (and hashes alike) but serializes to a
    different key, so a value-keyed memo would make a key depend on
    which spelling the process met first. The copy is one level deep:
    a config's fields are scalars. Non-frozen dataclasses are not
    memoized (they could change under their id).
    """
    if not type(config).__dataclass_params__.frozen:
        return dataclasses.asdict(config)
    ident = id(config)
    with _config_lock:
        entry = _config_dicts.get(ident)
        if entry is not None:
            _config_dicts.move_to_end(ident)
            return dict(entry[1])
    payload = dataclasses.asdict(config)
    with _config_lock:
        _config_dicts[ident] = (config, payload)
        if len(_config_dicts) > CONFIG_MEMO_SIZE:
            _config_dicts.popitem(last=False)
    return dict(payload)


def run_key(*, app: str, variant: str, allocator: str,
            config: Optional[tuple], dataset_fp: str,
            cost, spec, threshold: int, verify: bool,
            version: str, strategy: Optional[str] = None,
            workload: Optional[str] = None) -> str:
    """Stable content address for one application run.

    ``strategy`` is the consolidation-strategy axis; it is ``None`` for
    the built-in granularities (their canonical spelling is the variant
    itself) and a registry name for plugin strategies running under the
    ``'consolidated'`` variant.

    ``workload`` is the canonical workload reference, already folded
    onto ``None`` for each app's default by the runner. It enters the
    payload **only when set**: the dataset's content is fully captured
    by ``dataset_fp`` (the name is provenance, guarding against two
    workloads that happen to collide on content), and omitting the
    ``None`` case keeps every pre-PR-4 key byte-identical — which is why
    the workload axis did *not* bump ``STORE_FORMAT`` (DESIGN.md §12).

    Where a run executes (the CPU interpreter, the scalar engine) is
    not an input: only the simulator's answers are stored, and its two
    engines give bitwise-identical ones (DESIGN.md §14, §15).
    """
    payload = {
        "format": STORE_FORMAT,
        "version": version,
        "app": app,
        "variant": variant,
        "strategy": strategy,
        "allocator": allocator,
        "config": list(config) if config is not None else None,
        "dataset": dataset_fp,
        "cost": config_dict(cost),
        "spec": config_dict(spec),
        "threshold": threshold,
        "verify": verify,
    }
    if workload is not None:
        payload["workload"] = workload
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultStore:
    """Filesystem-backed map from content address to pickled AppRun.

    The store directory is created lazily, on the first :meth:`put` —
    read-only operations (``repro cache info`` on a directory that does
    not exist yet, lookups against an empty cache) simply report an
    empty store instead of touching the filesystem or raising.

    New entries are spread across :attr:`shards` shard directories
    (``shard-NN/``); lookups additionally fall back to the pre-shard
    flat layout (``<key[:2]>/``), so both layouts read as one store.
    """

    #: shard directories new entries are spread across; one count for
    #: every store, so a key has exactly one shard path
    shards = 16

    #: glob pattern matching flat-layout (pre-shard) subdirectories —
    #: two hex characters, the first bytes of the content address
    _LEGACY_GLOB = "[0-9a-f][0-9a-f]"

    def __init__(self, root: Path | str):
        self.root = Path(root)

    # -- layout ----------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """Stable shard index of a content address (independent of the
        process, so every writer agrees on the placement)."""
        return int(key[:8], 16) % self.shards

    def path_for(self, key: str) -> Path:
        """Where :meth:`put` writes a key (its shard directory)."""
        return self.root / f"shard-{self.shard_for(key):02d}" / f"{key}.pkl"

    def _legacy_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _locate(self, key: str) -> Optional[Path]:
        """The on-disk path currently holding a key, or None: its shard
        path, else its flat legacy path."""
        path = self.path_for(key)
        if path.exists():
            return path
        legacy = self._legacy_path(key)
        if legacy.exists():
            return legacy
        return None

    def get(self, key: str):
        """The stored AppRun, or None; corrupt entries count as misses.

        Opens the computed shard path without probing it first; only
        when it is absent does the lookup fall back on :meth:`_locate`
        (the legacy layout)."""
        try:
            return self._load(self.path_for(key))
        except FileNotFoundError:
            pass
        path = self._locate(key)
        if path is None:
            return None
        try:
            return self._load(path)
        except FileNotFoundError:  # a concurrent migration removed it
            return None

    @staticmethod
    def _load(path: Path):
        """Unpickle an entry; an unreadable one is removed and reads as
        None. A missing one raises FileNotFoundError."""
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            raise
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, run) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(run, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # migrate-on-write: a rewritten key must not leave a copy behind
        # in the flat layout, which would double-count the entry (no
        # writer of this layout creates one, so no fresh copy is lost)
        try:
            self._legacy_path(key).unlink()
        except OSError:
            pass

    def __contains__(self, key: str) -> bool:
        return self._locate(key) is not None

    def _entries(self) -> list[Path]:
        return (list(self.root.glob("shard-*/*.pkl"))
                + list(self.root.glob(f"{self._LEGACY_GLOB}/*.pkl")))

    def shard_info(self) -> dict:
        """Layout summary for ``repro cache info``: the shard count, how
        many shard directories hold entries, and how many entries still
        sit in the flat legacy layout."""
        sharded = list(self.root.glob("shard-*/*.pkl"))
        legacy = list(self.root.glob(f"{self._LEGACY_GLOB}/*.pkl"))
        return {
            "shards": self.shards,
            "populated": len({p.parent.name for p in sharded}),
            "sharded_entries": len(sharded),
            "legacy_entries": len(legacy),
        }

    def __len__(self) -> int:
        return len(self._entries())

    def size_bytes(self) -> int:
        total = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
            except OSError:
                # racing a writer whose migrate-on-write just unlinked
                # this legacy copy; the entry lives on at its shard path
                pass
        return total

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        entries = self._entries()
        for path in entries:
            try:
                path.unlink()
            except OSError:
                pass
        return len(entries)

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
