"""Append-only training log for the learned surrogate oracle.

The result store is content-addressed: its keys are one-way hashes, and
its pickled AppRuns do not carry the threshold/config/cost axes that
determine them — so stored results cannot be turned back into
(configuration -> metrics) training pairs. Instead, the experiment
runner appends one JSONL row per *executed* simulation (cache hits never
re-log), right beside the store, capturing exactly the axes the
surrogate featurizes plus the objective metrics it predicts.

Rows are self-describing and versioned; unreadable or foreign-version
lines are skipped on read, so the log can grow across package versions
without a migration pass. Appends are single ``write`` calls of one
line, so concurrent runners interleave whole rows.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from ..experiments.store import config_dict

#: bump when the row schema changes incompatibly; readers skip rows
#: written under a different version
LOG_VERSION = 1

#: filename of the log placed beside a result store
LOG_FILENAME = "surrogate-train.jsonl"

#: RunMetrics fields recorded as prediction targets — exactly the three
#: tuning objectives (:data:`repro.tuning.objectives.OBJECTIVES`)
TARGET_METRICS = ("cycles", "warp_execution_efficiency", "dram_transactions")


def cost_fingerprint(cost) -> str:
    """Short content hash of a cost model (training rows are only
    comparable under identical cost constants)."""
    blob = json.dumps(config_dict(cost), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class TrainingLog:
    """JSONL file of (run axes -> metrics) rows for surrogate training."""

    def __init__(self, path):
        self.path = Path(path)

    @classmethod
    def for_store(cls, store) -> "TrainingLog":
        """The log conventionally kept beside a ResultStore."""
        return cls(Path(store.root) / LOG_FILENAME)

    def record(self, *, app: str, workload: Optional[str], device: str,
               cost, scale: float, verify: bool, variant: str,
               strategy: Optional[str], threshold: Optional[int],
               config: Optional[tuple], metrics) -> None:
        """Append one executed run. ``config`` is the hashable
        ``(mode, blocks, threads)`` triple (or None)."""
        row = {
            "v": LOG_VERSION,
            "app": app,
            "workload": workload,
            "device": device,
            "cost": cost_fingerprint(cost),
            "scale": scale,
            "verify": verify,
            "variant": variant,
            "strategy": strategy,
            "threshold": threshold,
            "config": list(config) if config is not None else None,
            "metrics": {m: float(getattr(metrics, m))
                        for m in TARGET_METRICS},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    def rows(self, *, app: str, device: str, cost_fp: str, verify: bool,
             workload: Optional[str] = None) -> list[dict]:
        """Every readable row matching one training context.

        The context pins app, workload, device spec, cost model and
        verify flag; *scale* is deliberately not filtered — it is a
        feature, so full-fidelity history informs reduced-scale rungs
        (and vice versa). ``workload=None`` matches the app's default
        workload (the canonical folded spelling), not "any workload".
        """
        if not self.path.exists():
            return []
        out = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    continue  # torn / foreign line: skip, never raise
                if (row.get("v") == LOG_VERSION
                        and row.get("app") == app
                        and row.get("workload") == workload
                        and row.get("device") == device
                        and row.get("cost") == cost_fp
                        and row.get("verify") == verify):
                    out.append(row)
        return out

    def __len__(self) -> int:
        if not self.path.exists():
            return 0
        with open(self.path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def __repr__(self) -> str:
        return f"TrainingLog({str(self.path)!r})"
