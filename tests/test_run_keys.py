"""Every run ``repro all`` plans keeps its content address.

The fixture maps each spec of the full figure plan (plus one spec per
non-default axis, and the redundant spellings that must fold) to the
store key the runner derives for it: spec -> ``resolve`` ->
``_content_key``. It was generated before ``RunSpec`` became the only
run type and must stay byte-identical: a refactor of resolution that
forks, merges or reorders any key breaks every on-disk store.
``repro.__version__`` is pinned so a release bump does not move it.

A second fixture maps the same labels to what each run *computes*: its
key, a sha256 of its full ``RunMetrics`` and three headline counters in
plain text, so "``RunMetrics`` bit for bit" is an executed check rather
than a claim. A change to the cost model or the engines regenerates it
and says so.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import repro
import repro.experiments as experiments
from repro.experiments import ExperimentRunner
from repro.experiments.plan import RunSpec
from repro.sim.specs import DEFAULT_COST_MODEL

FIXTURE = Path(__file__).parent / "fixtures" / "run_keys.json"
METRICS_FIXTURE = Path(__file__).parent / "fixtures" / "run_metrics.json"
SCALE = 0.08
PINNED_VERSION = "0.0.0+keys"

#: one spec per non-default axis, then spellings that fold onto others
EXTRA = (
    RunSpec("spmv", "warp-level", allocator="halloc"),
    RunSpec("sssp", "grid-level", config=("explicit", 4, 128)),
    RunSpec("sssp", "warp-level", threshold=16),
    RunSpec("sssp", "basic-dp", workload="kron"),
    RunSpec("sssp", "block-level",
            cost=DEFAULT_COST_MODEL.scaled(dram_transaction_cycles=80)),
    RunSpec("sssp", "basic-dp", workload="citeseer"),
    RunSpec("sssp", "consolidated", strategy="block", threshold=8),
)


def _label(spec: RunSpec) -> str:
    parts = [spec.app, spec.variant]
    for f in dataclasses.fields(spec)[2:]:
        value = getattr(spec, f.name)
        if value == f.default:
            continue
        if f.name == "cost":
            value = {k: v for k, v in dataclasses.asdict(value).items()
                     if v != getattr(DEFAULT_COST_MODEL, k)}
        parts.append(f"{f.name}={value}")
    return " ".join(parts)


def _keys() -> dict:
    runner = ExperimentRunner(scale=SCALE)
    plan = list(experiments.figure_plan(list(experiments.FIGURES), runner))
    return {_label(spec): runner._content_key(runner.resolve(spec))
            for spec in plan + list(EXTRA)}


def _metrics() -> dict:
    runner = ExperimentRunner(scale=SCALE)
    plan = list(experiments.figure_plan(list(experiments.FIGURES), runner))
    out = {}
    for spec in plan + list(EXTRA):
        metrics = runner.run_spec(spec).metrics
        blob = json.dumps(dataclasses.asdict(metrics), sort_keys=True)
        out[_label(spec)] = {
            "key": runner._content_key(runner.resolve(spec)),
            "sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "cycles": metrics.cycles,
            "dram_transactions": metrics.dram_transactions,
            "warp_execution_efficiency": metrics.warp_execution_efficiency,
        }
    return out


def _render(keys: dict) -> str:
    return json.dumps(keys, indent=1) + "\n"


def test_plan_keys_are_pinned(monkeypatch):
    monkeypatch.setattr(repro, "__version__", PINNED_VERSION)
    assert _render(_keys()) == FIXTURE.read_text()


def test_fixture_covers_the_plan():
    keys = json.loads(FIXTURE.read_text())
    plan_keys = list(keys.values())[:-len(EXTRA)]
    assert len(plan_keys) == 166
    assert len(set(plan_keys)) == 144
    # the folding spellings land on keys the plan or the extras hold
    assert len(set(keys.values())) == 144 + 5


def test_plan_metrics_are_pinned(monkeypatch):
    monkeypatch.setattr(repro, "__version__", PINNED_VERSION)
    assert _metrics() == json.loads(METRICS_FIXTURE.read_text())


def test_metrics_fixture_matches_the_key_fixture():
    keys = json.loads(FIXTURE.read_text())
    metrics = json.loads(METRICS_FIXTURE.read_text())
    assert list(metrics) == list(keys)
    assert {label: m["key"] for label, m in metrics.items()} == keys
