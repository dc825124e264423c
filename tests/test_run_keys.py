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

Deriving an identity is memoized in three places (DESIGN.md §8): one
process-wide serializer of frozen configs and, per runner, resolutions
and content keys. The last tests pin what a warm regeneration pays with
them — counts, not timings — and that no memo moves a key: equal cost
models spelled ``80`` and ``80.0`` keep their two keys in either order,
and the tuned-registry and training-log addresses keep their bytes.
"""

import dataclasses
import hashlib
import json
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
import repro.experiments as experiments
import repro.experiments.runner as runner_module
import repro.experiments.store as store_module
from repro.experiments import ExperimentRunner, ResultStore
from repro.experiments.plan import RunSpec
from repro.experiments.store import config_dict, run_key
from repro.oracle.training import cost_fingerprint
from repro.sim.specs import DEFAULT_COST_MODEL, K20C
from repro.tuning.registry import tuned_key

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


def _plan(runner) -> list:
    return list(experiments.figure_plan(list(experiments.FIGURES), runner))


def _keys() -> dict:
    runner = ExperimentRunner(scale=SCALE)
    return {_label(spec): runner._content_key(runner.resolve(spec))
            for spec in _plan(runner) + list(EXTRA)}


def _metrics(runner) -> dict:
    out = {}
    for spec in _plan(runner) + list(EXTRA):
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


def _render_figures(runner) -> str:
    """Every figure's text without its ``[``-prefixed provenance lines,
    which carry wall times."""
    text = "\n".join(experiments.FIGURES[fig].main(runner)
                     for fig in experiments.FIGURES)
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("["))


def _record(mp, owner, attr: str, calls: dict) -> None:
    """Rebind ``owner.attr`` to note each call's first argument (its
    keywords when it has none) in ``calls[attr]``."""
    original = getattr(owner, attr)

    def recording(*args, **kwargs):
        calls[attr].append(args[0] if args else kwargs)
        return original(*args, **kwargs)
    mp.setattr(owner, attr, recording)


@pytest.fixture(scope="module")
def plan_store(tmp_path_factory):
    """The figure plan and the extras executed once, cold, into a store
    under the pinned version: the runs the metrics fixture pins, the
    content keys and directory scans the cold prefetch made, the
    rendered figures, and the store a warm regeneration reads."""
    calls = defaultdict(list)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro, "__version__", PINNED_VERSION)
        store = ResultStore(tmp_path_factory.mktemp("plan-store"))
        runner = ExperimentRunner(scale=SCALE, store=store,
                                  training_log=False)
        _record(mp, runner_module, "run_key", calls)
        _record(mp, Path, "glob", calls)
        stats = runner.prefetch(_plan(runner), jobs=1)
        cold = {"executed": stats.executed,
                "run_keys": len(calls["run_key"])}
        globs = list(calls["glob"])
        metrics = _metrics(runner)
        text = _render_figures(runner)
    return SimpleNamespace(store=store, cold=cold, globs=globs,
                           metrics=metrics, text=text)


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


def test_plan_metrics_are_pinned(plan_store):
    assert plan_store.metrics == json.loads(METRICS_FIXTURE.read_text())


def test_metrics_fixture_matches_the_key_fixture():
    keys = json.loads(FIXTURE.read_text())
    metrics = json.loads(METRICS_FIXTURE.read_text())
    assert list(metrics) == list(keys)
    assert {label: m["key"] for label, m in metrics.items()} == keys


class TestWarmPath:
    """What one fresh runner pays to identify the figure plan's runs in a
    filled store. Before the memos a warm regeneration made 290
    ``asdict`` calls, 586 ``canonical`` calls for 268 distinct specs and
    145 existence probes, and a cold prefetch computed 290 keys."""

    def test_cold_prefetch_computes_each_key_once(self, plan_store):
        """The lookup miss and the put after the execution share a key."""
        assert plan_store.cold == {"executed": 145, "run_keys": 145}

    def test_cold_prefetch_scans_no_directory(self, plan_store):
        """A lookup miss and a put each touch their key's own paths; with
        one shard count neither globs the store (each did, 290 scans)."""
        assert plan_store.globs == []

    def test_warm_regeneration_derives_each_identity_once(
            self, plan_store, monkeypatch):
        monkeypatch.setattr(repro, "__version__", PINNED_VERSION)
        # the process has serialized its configs (the cold fill did)
        config_dict(DEFAULT_COST_MODEL)
        config_dict(K20C)
        calls = defaultdict(list)
        _record(monkeypatch, dataclasses, "asdict", calls)
        _record(monkeypatch, RunSpec, "canonical", calls)
        _record(monkeypatch, ResultStore, "get", calls)
        _record(monkeypatch, Path, "exists", calls)
        runner = ExperimentRunner(scale=SCALE, store=plan_store.store,
                                  training_log=False)
        runner.prefetch(_plan(runner), jobs=1)
        text = _render_figures(runner)
        assert runner.stats.executed == 0
        assert runner.stats.disk_hits == 145
        assert text == plan_store.text
        assert calls["asdict"] == []
        specs = calls["canonical"]
        assert len(specs) == len(set(specs)) == 268
        assert len(calls["get"]) == 145
        assert calls["exists"] == []


#: inputs of a direct run_key / tuned_key call the memo tests pin
DIRECT = dict(app="sssp", variant="block-level", allocator="custom",
              config=None, dataset_fp="0" * 64, spec=K20C, threshold=8,
              verify=True, version="1.0")
TUNED = dict(app="sssp", objective="cycles", spec=K20C, scale=SCALE,
             verify=True, version="1.0")

#: (DRAM transaction cycles, run_key, runner key at the pinned version
#: and fixture scale, tuned_key, cost_fingerprint) -- ``80`` and
#: ``80.0`` make equal, hash-equal cost models that serialize apart.
#: Generated before any of the memos existed.
SPELLINGS = [
    (80,
     "27464b9ba8b2de90ce431da0613add02153d0984408304c31cb01be74c261fd1",
     "3bfb75e010dfb4802e4014afaea64a350900d39dbbd4ce937641b7bb232179e4",
     "30d322b7ae3951db1f249cba72bcd887225616b63d3cd1398ef95c396843f9a8",
     "b466615db912"),
    (80.0,
     "13392adab4049a94190e7a067a66ba70e4015899173e645987100cefa90089b6",
     "ccc83d79775e95f403f5d490449b3be97ca511937c02c7cb43027a7944ba5202",
     "2314865a492053617e6eb6aee2c575cda0f1b13744ba9520c3c0e14e5626ca70",
     "518ee8255e1e"),
]


class TestMemosKeepKeys:
    @pytest.mark.parametrize("order", [SPELLINGS, SPELLINGS[::-1]],
                             ids=["int-first", "float-first"])
    def test_equal_cost_spellings_keep_their_keys(self, order, monkeypatch):
        """Each spelling keeps its own key whichever one this process
        (and this runner) met first."""
        monkeypatch.setattr(repro, "__version__", PINNED_VERSION)
        runner = ExperimentRunner(scale=SCALE)
        for cycles, direct, by_runner, tuned, fingerprint in order:
            cost = DEFAULT_COST_MODEL.scaled(dram_transaction_cycles=cycles)
            spec = RunSpec("sssp", "block-level", cost=cost)
            for _ in range(2):  # computed, then served by the memos
                assert run_key(**DIRECT, cost=cost) == direct
                assert runner._content_key(runner.resolve(spec)) == \
                    by_runner
                assert tuned_key(**TUNED, cost=cost) == tuned
                assert cost_fingerprint(cost) == fingerprint

    def test_tuned_key_and_cost_fingerprint_are_pinned(self):
        """A drift would orphan every tuned-registry entry and every
        training-log row."""
        assert tuned_key(**TUNED, cost=DEFAULT_COST_MODEL) == (
            "b2238ec8bc8797df95145e09f9d03e797b58b326ef3be9a4e4b6f714e5c2ac71")
        assert tuned_key(**TUNED, cost=DEFAULT_COST_MODEL,
                         workload="kron") == (
            "258f3ef438e90a1e96f1783feafcedb056188097095008a5dd795a1cde677018")
        assert cost_fingerprint(DEFAULT_COST_MODEL) == "21c30a47be8c"

    def test_serializer_hands_out_copies(self):
        first = config_dict(DEFAULT_COST_MODEL)
        first["dram_transaction_cycles"] = -1
        assert config_dict(DEFAULT_COST_MODEL) == \
            dataclasses.asdict(DEFAULT_COST_MODEL)

    def test_serializer_memo_is_bounded(self):
        size = store_module.CONFIG_MEMO_SIZE
        models = [DEFAULT_COST_MODEL.scaled(atomic_cycles=i)
                  for i in range(size + 8)]
        for model in models:
            assert config_dict(model) == dataclasses.asdict(model)
        assert len(store_module._config_dicts) == size
