"""Tests of the benchmark itself: its declared metrics, its statistics,
its layer rebinding, and that it fails when it must."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pipebench.stats import TAIL_BEYOND, gmean, tail
from repro.perf.ledger import cell_direction

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_ledger_never_reverses_a_declared_direction(section):
    # `repro perf ingest` infers each cell's direction from its name; a
    # name it reads the other way round would gate improvements as
    # regressions (hence peak_rss_bytes, not peak_rss_mb)
    for metric in DECLARED[section]:
        inferred = cell_direction(metric["name"])
        assert inferred in (None, metric["better"]), metric["name"]


def test_tail_leaves_ten_samples_beyond_it():
    values = list(range(1, 301))
    label, value = tail(values)
    assert label == "p96"
    assert sum(v > value for v in values) >= TAIL_BEYOND
    assert tail(values[:19]) == ("max", 19)
    assert tail(values[:20]) == ("p50", 10)
    assert gmean([2.0, 8.0]) == pytest.approx(4.0)


def test_layers_restore_every_rebound_function():
    from pipebench.layers import Layers
    from repro.apps import all_apps
    from repro.experiments import FIGURES
    from repro.sim import device

    apps = all_apps()
    before = (device.Device.synchronize, device.parse,
              FIGURES["fig7"].main)
    with Layers().install(apps, FIGURES) as layers:
        assert device.Device.synchronize is not before[0]
        assert not layers.missing
    assert (device.Device.synchronize, device.parse,
            FIGURES["fig7"].main) == before
    assert all("check" not in vars(app) for app in apps)


def _bench(args, cwd, timeout=170):
    return subprocess.run([sys.executable, "-m", "pipebench", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_wrong_result_fails_the_run():
    proc = _bench(["--workload", "regen-cold", "--seed", "0",
                   "--seconds", "1", "--trace", "0",
                   "--inject-wrong-result"], ROOT)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pipebench", tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("results", ".work-*",
                                                  "__pycache__"))
    proc = _bench(["--workload", "regen-cold", "--seed", "0",
                   "--seconds", "1", "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
