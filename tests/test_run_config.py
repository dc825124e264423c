"""One run type, its one canonicalizer, and the deprecated spellings.

Three things are under test: (1) canonicalization — ``RunSpec.canonical``
folds every spelling of a run onto one value, and construction itself
never validates; (2) the frozen-payload run-key regression — adding
the ``oracle`` axis (like ``workload`` and ``backend`` before it) must
leave every pre-existing content address byte-identical, with no
STORE_FORMAT bump; (3) the entry points — ``App.run(RunSpec)``, the
runner, the service wire format and the CLI's ``--oracle`` flag — and
the deprecated shims (``RunConfig``, ``RunSpec.from_config``,
``ExperimentRunner.run_config``, ``App.run``'s per-axis keywords), each
of which must warn and land on the same metrics and cache entry as the
``RunSpec`` spelling.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import __version__
from repro.apps import get_app
from repro.oracle import OracleError
from repro.experiments import ExperimentRunner, ResultStore
from repro.experiments.plan import RunSpec
from repro.experiments.store import STORE_FORMAT, run_key
from repro.run_config import RunConfig
from repro.sim.occupancy import LaunchConfig
from repro.sim.specs import DEFAULT_COST_MODEL, K20C

SCALE = 0.08


def canon(variant="basic-dp", app="sssp", **axes):
    return RunSpec(app, variant, **axes).canonical()


def metrics(run):
    return dataclasses.asdict(run.metrics)


# -- canonicalization ---------------------------------------------------------


class TestCanonicalization:
    def test_strategy_spellings_collapse(self):
        assert (canon("consolidated", strategy="warp")
                == RunSpec("sssp", "warp-level"))
        assert (hash(canon("consolidated", strategy="grid"))
                == hash(RunSpec("sssp", "grid-level")))

    def test_default_oracle_and_backend_fold_to_none(self):
        assert canon(oracle="sim") == RunSpec("sssp", "basic-dp")
        assert canon(oracle="sim").oracle is None
        assert canon(backend="sim") == RunSpec("sssp", "basic-dp")
        assert canon(backend="sim").backend is None

    def test_non_default_axes_survive(self):
        spec = canon("flat", oracle="sim-scalar", backend="cpu")
        assert spec.oracle == "sim-scalar" and spec.backend == "cpu"
        assert spec != RunSpec("sssp", "flat")

    def test_live_launch_config_folds_to_triple(self):
        spec = canon("warp-level", config=LaunchConfig(
            mode="explicit", blocks=4, threads=128))
        assert spec.config == ("explicit", 4, 128)
        assert spec == RunSpec("sssp", "warp-level",
                               config=("explicit", 4, 128))

    def test_threshold_coerced_to_int(self):
        assert canon(threshold="32").threshold == 32
        eight = canon("warp-level", threshold=8.0).threshold
        assert eight == 8 and type(eight) is int

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunSpec("sssp", "basic-dp").variant = "flat"

    def test_contradictory_variant_strategy_rejected(self):
        spec = RunSpec("sssp", "warp-level", strategy="grid")  # a record
        with pytest.raises(ValueError, match="contradicts"):
            spec.canonical()

    def test_learned_oracle_rejected(self):
        with pytest.raises(ValueError, match="tuning prefilter"):
            canon(oracle="surrogate")

    def test_unknown_oracle_rejected(self):
        with pytest.raises(OracleError, match="sim-scalar"):
            canon(oracle="delphi")

    def test_emit_only_backend_rejected(self):
        with pytest.raises(ValueError, match="does not execute"):
            canon(backend="cuda")

    def test_canonical_is_idempotent_without_copying(self):
        spec = canon("consolidated", strategy="block", backend="sim",
                     threshold=8.0, workload="star(seed=5)")
        assert spec.canonical() is spec
        assert spec.workload == "star"

    def test_fill_only_sets_unset_fields(self):
        spec = RunSpec("sssp", "basic-dp", threshold=4)
        filled = spec.canonical(cost=DEFAULT_COST_MODEL, threshold=8)
        assert filled.threshold == 4 and filled.cost == DEFAULT_COST_MODEL

    def test_describe_and_axes(self):
        with pytest.deprecated_call():
            cfg = RunConfig(variant="consolidated", strategy="warp",
                            threshold=16, oracle="sim-scalar")
        text = cfg.describe()
        assert "warp-level" in text and "threshold=16" in text
        assert "oracle=sim-scalar" in text
        assert cfg.axes() == {
            "variant": "warp-level", "strategy": None, "threshold": 16,
            "workload": None, "backend": None, "oracle": "sim-scalar",
            "allocator": "custom", "config": None,
        }

    def test_run_config_reuses_the_canonicalizer(self):
        with pytest.deprecated_call():
            assert (RunConfig(variant="consolidated", strategy="warp")
                    == RunConfig(variant="warp-level"))
            assert RunConfig(oracle="sim", backend="sim") == RunConfig()
            assert RunConfig(threshold="32").threshold == 32
            with pytest.raises(ValueError, match="contradicts"):
                RunConfig(variant="warp-level", strategy="grid")

    def test_from_config_maps_every_axis(self):
        with pytest.deprecated_call():
            cfg = RunConfig(variant="warp-level", threshold=16,
                            workload="kron(seed=9)", oracle="sim-scalar",
                            config=("explicit", 4, 128))
            spec = RunSpec.from_config("sssp", cfg)
        assert spec == RunSpec(
            app="sssp", variant="warp-level", threshold=16,
            workload="kron(seed=9)", oracle="sim-scalar",
            config=("explicit", 4, 128))


# -- run-key backward compatibility -------------------------------------------


class TestRunKeyCompat:
    """The frozen-payload regression: the content address exactly as
    computed before the oracle axis existed, rebuilt by hand field for
    field. The oracle (like workload and backend) enters the payload
    only when set, so STORE_FORMAT stays put and every pre-existing
    store entry keeps its address."""

    KWARGS = dict(
        app="sssp", variant="grid-level", allocator="custom",
        config=None, dataset_fp="ab" * 32, cost=DEFAULT_COST_MODEL,
        spec=K20C, threshold=8, verify=True, version=__version__,
    )

    def _legacy_key(self, **extra):
        payload = {
            "format": STORE_FORMAT,
            "version": self.KWARGS["version"],
            "app": self.KWARGS["app"],
            "variant": self.KWARGS["variant"],
            "strategy": None,
            "allocator": self.KWARGS["allocator"],
            "config": None,
            "dataset": self.KWARGS["dataset_fp"],
            "cost": dataclasses.asdict(DEFAULT_COST_MODEL),
            "spec": dataclasses.asdict(K20C),
            "threshold": 8,
            "verify": True,
        }
        payload.update(extra)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_store_format_unchanged(self):
        assert STORE_FORMAT == 2

    def test_omitted_oracle_is_byte_identical_to_legacy(self):
        assert run_key(**self.KWARGS) == self._legacy_key()
        assert run_key(**self.KWARGS, oracle=None) == self._legacy_key()

    def test_oracle_only_enters_when_set(self):
        assert (run_key(**self.KWARGS, oracle="sim-scalar")
                == self._legacy_key(oracle="sim-scalar"))
        assert (run_key(**self.KWARGS, oracle="sim-scalar")
                != run_key(**self.KWARGS))


# -- entry points -------------------------------------------------------------


class TestAppRunEntry:
    def test_run_config_matches_legacy_kwargs(self):
        """Both deprecated App.run spellings warn and run exactly what
        the RunSpec spelling runs."""
        app = get_app("sssp")
        ds = app.default_dataset(SCALE)
        spec = app.run(RunSpec("sssp", "consolidated", strategy="warp",
                               threshold=16), dataset=ds, verify=False)
        with pytest.deprecated_call():
            legacy = app.run("consolidated", strategy="warp", threshold=16,
                             dataset=ds, verify=False)
        with pytest.deprecated_call():
            unified = app.run(RunConfig(variant="consolidated",
                                        strategy="warp", threshold=16),
                              dataset=ds, verify=False)
        assert metrics(legacy) == metrics(spec) == metrics(unified)
        assert spec.variant == legacy.variant == unified.variant == \
            "warp-level"

    def test_clashing_keywords_rejected(self):
        app = get_app("sssp")
        with pytest.deprecated_call(), \
                pytest.raises(ValueError, match="threshold"):
            app.run(RunConfig(variant="warp-level"), threshold=8,
                    scale=SCALE)
        with pytest.deprecated_call(), \
                pytest.raises(ValueError, match="allocator"):
            app.run(RunConfig(variant="warp-level"), allocator="halloc",
                    scale=SCALE)
        with pytest.raises(ValueError, match="threshold"):
            app.run(RunSpec("sssp", "warp-level"), threshold=8, scale=SCALE)

    def test_spec_for_another_app_rejected(self):
        with pytest.raises(ValueError, match="spmv"):
            get_app("sssp").run(RunSpec("spmv", "no-dp"), scale=SCALE)


class TestRunnerEntry:
    def test_run_config_shares_cache_with_legacy(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE,
                                  store=ResultStore(tmp_path / "store"))
        legacy = runner.run("sssp", "warp-level", threshold=16)
        with pytest.deprecated_call():
            unified = runner.run_config(
                "sssp", RunConfig(variant="consolidated", strategy="warp",
                                  threshold=16))
        assert unified is legacy  # one cache entry, not two
        assert runner.run_spec(RunSpec("sssp", "consolidated",
                                       strategy="warp",
                                       threshold=16)) is legacy
        assert runner.stats.executed == 1

    def test_oracle_forks_key_but_not_metrics(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE,
                                  store=ResultStore(tmp_path / "store"))
        vec = runner.run_spec(RunSpec("sssp", "warp-level"))
        ref = runner.run_spec(RunSpec("sssp", "warp-level",
                                      oracle="sim-scalar"))
        assert ref is not vec  # distinct cache entries (provenance fork)
        assert metrics(ref) == metrics(vec)

    def test_explicit_sim_oracle_folds_onto_default(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE,
                                  store=ResultStore(tmp_path / "store"))
        a = runner.run("sssp", "warp-level")
        b = runner.run("sssp", "warp-level", oracle="sim")
        assert b is a


class TestWireFormat:
    def test_oracle_only_on_wire_when_set(self):
        from repro.service.protocol import spec_from_wire, spec_to_wire

        bare = spec_to_wire(RunSpec(app="sssp", variant="flat"))
        assert "oracle" not in bare
        spec = RunSpec("sssp", "warp-level", oracle="sim-scalar")
        wire = spec_to_wire(spec)
        assert wire["oracle"] == "sim-scalar"
        assert spec_from_wire(wire) == spec

    def test_wire_rejects_non_string_oracle(self):
        from repro.service.protocol import ProtocolError, spec_from_wire

        with pytest.raises(ProtocolError):
            spec_from_wire({"app": "sssp", "variant": "flat", "oracle": 3})
        with pytest.raises(ProtocolError, match="backend"):
            spec_from_wire({"app": "sssp", "variant": "flat", "backend": 3})


class TestCliOracle:
    def test_run_with_oracle(self, capsys):
        from repro.cli import main

        assert main(["run", "spmv", "grid-level", "--scale", "0.15",
                     "--oracle", "sim-scalar"]) == 0
        out = capsys.readouterr().out
        assert "+sim-scalar" in out and "verified=True" in out

    def test_run_rejects_learned_oracle(self, capsys):
        """``repro run`` only offers exact oracles; the surrogate is a
        tune-time prefilter (argparse choices enforce it)."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "spmv", "grid-level", "--oracle", "surrogate"])
        assert "surrogate" in capsys.readouterr().err

    def test_list_shows_oracles(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sim-scalar" in out and "surrogate" in out
