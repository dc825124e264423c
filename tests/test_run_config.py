"""One run type, its one canonicalizer, and its entry points.

Three things are under test: (1) canonicalization — ``RunSpec.canonical``
folds every spelling of a run onto one value, and construction itself
never validates; (2) the frozen-payload run-key regression — the
content address of every run is byte-identical to the payload rebuilt
by hand, with no STORE_FORMAT bump; (3) the entry points —
``App.run(RunSpec)``, the runner, the service wire format and the CLI,
whose deprecated ``run --backend/--oracle`` flags are gone. A
``RunSpec`` holds only what changes a run's answer: where it executes
(``backend``) and which engine answers it (the old ``oracle`` axis) are
not fields, and the deprecated ``RunConfig`` shims are gone.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import __version__
from repro.apps import get_app
from repro.backends import get_backend
from repro.experiments import ExperimentRunner
from repro.experiments.plan import RunSpec
from repro.experiments.store import STORE_FORMAT, run_key
from repro.service.client import ServiceClient
from repro.sim.occupancy import LaunchConfig
from repro.sim.specs import DEFAULT_COST_MODEL, K20C

SCALE = 0.08


def canon(variant="basic-dp", app="sssp", **axes):
    return RunSpec(app, variant, **axes).canonical()


# -- canonicalization ---------------------------------------------------------


class TestCanonicalization:
    def test_strategy_spellings_collapse(self):
        assert (canon("consolidated", strategy="warp")
                == RunSpec("sssp", "warp-level"))
        assert (hash(canon("consolidated", strategy="grid"))
                == hash(RunSpec("sssp", "grid-level")))

    def test_backend_and_oracle_are_not_run_axes(self):
        """Where a run executes and which engine answers it never
        change its answer, so neither is a field: the old spellings fail
        loudly instead of keying a second cache entry."""
        names = [f.name for f in dataclasses.fields(RunSpec)]
        assert names == ["app", "variant", "allocator", "config", "dataset",
                         "cost", "threshold", "strategy", "workload"]
        for axis in ("backend", "oracle"):
            with pytest.raises(TypeError, match=axis):
                RunSpec("sssp", "basic-dp", **{axis: "sim"})

    def test_non_default_axes_survive(self):
        spec = canon("warp-level", allocator="halloc", threshold=16,
                     workload="kron", config=("explicit", 4, 128))
        assert (spec.allocator, spec.threshold, spec.workload,
                spec.config) == ("halloc", 16, "kron", ("explicit", 4, 128))
        assert spec != RunSpec("sssp", "warp-level")

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

    @pytest.mark.parametrize("app", ["td", "th", "bfs_rec"])
    def test_guardless_threshold_folds_to_the_app_default(self, app):
        """TD, TH and BFS-Rec have no ``deg > threshold`` guard, so a
        threshold cannot change their answer: every spelling resolves
        (and keys) as the app default instead of simulating again."""
        assert canon("warp-level", app=app, threshold=16).threshold is None
        runner = ExperimentRunner(scale=SCALE)
        default = runner.resolve(RunSpec(app, "warp-level"))
        pinned = runner.resolve(RunSpec(app, "warp-level", threshold=16))
        assert pinned == default
        assert runner._content_key(pinned) == runner._content_key(default)

    @pytest.mark.parametrize("app", ["bfs_rec", "gc", "pagerank", "spmv",
                                     "sssp", "td", "th"])
    def test_only_guarded_templates_take_a_threshold(self, app):
        """The fold's premise: an app's kernels take a threshold exactly
        when its template has the delegation guard."""
        app = get_app(app)
        assert (("threshold" in app.annotated_source())
                == app.has_delegation_guard)
        assert "threshold" not in app.flat_source()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunSpec("sssp", "basic-dp").variant = "flat"

    def test_contradictory_variant_strategy_rejected(self):
        spec = RunSpec("sssp", "warp-level", strategy="grid")  # a record
        with pytest.raises(ValueError, match="contradicts"):
            spec.canonical()

    def test_learned_oracle_rejected(self):
        """The surrogate only approximates metrics; with no oracle field
        there is no way to ask a run for it."""
        with pytest.raises(TypeError, match="oracle"):
            RunSpec("sssp", "basic-dp", oracle="surrogate")

    def test_unknown_oracle_rejected(self):
        with pytest.raises(TypeError, match="oracle"):
            RunSpec("sssp", "basic-dp", oracle="delphi")

    def test_emit_only_backend_rejected(self):
        with pytest.raises(RuntimeError, match="does not execute"):
            get_app("sssp").run(RunSpec("sssp", "no-dp"), scale=SCALE,
                                backend=get_backend("cuda"))

    def test_canonical_is_idempotent_without_copying(self):
        spec = canon("consolidated", strategy="block", threshold=8.0,
                     workload="star(seed=5)")
        assert spec.canonical() is spec
        assert spec.workload == "star"

    def test_fill_only_sets_unset_fields(self):
        spec = RunSpec("sssp", "basic-dp", threshold=4)
        filled = spec.canonical(cost=DEFAULT_COST_MODEL, threshold=8)
        assert filled.threshold == 4 and filled.cost == DEFAULT_COST_MODEL

    def test_run_config_shims_retired(self):
        """The deprecated ``RunConfig`` spellings are gone (two-PR
        cadence, repro.errors.DeprecationPolicy)."""
        with pytest.raises(ImportError):
            import repro.run_config  # noqa: F401
        assert not hasattr(RunSpec, "from_config")
        assert not hasattr(ExperimentRunner, "run_config")
        assert not hasattr(ServiceClient, "submit_config")


# -- run-key backward compatibility -------------------------------------------


class TestRunKeyCompat:
    """The frozen-payload regression: the content address exactly as
    computed before the oracle axis existed, rebuilt by hand field for
    field. No oracle or backend ever enters the payload, so STORE_FORMAT
    stays put and every pre-existing store entry keeps its address."""

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
        with pytest.raises(TypeError, match="oracle"):
            run_key(**self.KWARGS, oracle=None)


# -- entry points -------------------------------------------------------------


class TestAppRunEntry:
    def test_clashing_keywords_rejected(self):
        """A RunSpec carries every axis; ``App.run`` takes no per-axis
        keywords beside it."""
        app = get_app("sssp")
        with pytest.raises(TypeError, match="threshold"):
            app.run(RunSpec("sssp", "warp-level"), threshold=8, scale=SCALE)
        with pytest.raises(TypeError, match="allocator"):
            app.run(RunSpec("sssp", "warp-level"), allocator="halloc",
                    scale=SCALE)

    def test_spec_for_another_app_rejected(self):
        with pytest.raises(ValueError, match="spmv"):
            get_app("sssp").run(RunSpec("spmv", "no-dp"), scale=SCALE)

    def test_host_run_gets_the_canonical_spec(self, monkeypatch):
        """The fourth argument of ``host_run`` is the canonical spec,
        with the app's default threshold filled in; the app singleton
        itself is never mutated."""
        app = get_app("sssp")
        seen = []
        original = app.host_run

        def spy(device, program, dataset, run):
            seen.append(run)
            return original(device, program, dataset, run)

        monkeypatch.setattr(app, "host_run", spy)
        ds = app.default_dataset(SCALE)
        app.run(RunSpec("sssp", "consolidated", strategy="warp"), ds,
                verify=False)
        app.run(RunSpec("sssp", "warp-level", threshold=16), ds,
                verify=False)
        assert seen == [RunSpec("sssp", "warp-level", threshold=8),
                        RunSpec("sssp", "warp-level", threshold=16)]
        assert app.threshold == 8


class TestRunnerEntry:
    def test_explicit_sim_oracle_folds_onto_default(self):
        """``repro tune --oracle sim`` names the default scorer: the
        simulation oracle itself, exactly what no ``--oracle`` builds."""
        from repro.tuning import SimulationOracle, Tuner, get_objective

        cycles = get_objective("cycles")
        explicit = Tuner(scale=SCALE, oracle="sim")._oracle("sssp", cycles)
        implicit = Tuner(scale=SCALE)._oracle("sssp", cycles)
        assert type(explicit) is type(implicit) is SimulationOracle


class TestWireFormat:
    def test_wire_rejects_non_string_oracle(self):
        """Neither the oracle nor the backend is a RunSpec field, so a
        submit carrying either — string or not — is an unknown field,
        never silently run on the default."""
        from repro.service.protocol import ProtocolError, spec_from_wire

        for value in (3, "sim-scalar"):
            with pytest.raises(ProtocolError, match="unknown.*oracle"):
                spec_from_wire({"app": "sssp", "variant": "flat",
                                "oracle": value})
        with pytest.raises(ProtocolError, match="backend"):
            spec_from_wire({"app": "sssp", "variant": "flat", "backend": 3})


class TestCliOracle:
    def test_run_no_longer_takes_backend_or_oracle(self, capsys):
        """Both flags were removed after their deprecation period
        (repro.errors.DeprecationPolicy): argparse rejects each before
        anything runs. Where a run executes is ``App.run(...,
        backend=)``."""
        from repro.cli import main

        for flag in (["--backend", "cpu"], ["--oracle", "sim-scalar"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["run", "spmv", "grid-level", *flag])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in \
                capsys.readouterr().err

    def test_run_rejects_learned_oracle(self, capsys):
        """``repro run`` takes no oracle; the surrogate is a tune-time
        prefilter."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "spmv", "grid-level", "--oracle", "surrogate"])
        assert "surrogate" in capsys.readouterr().err

    def test_tune_no_longer_offers_the_scalar_engine(self, capsys):
        """``sim-scalar`` left the oracle registry: the tuner scores with
        ``sim`` or ``surrogate`` only."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["tune", "sssp", "--oracle", "sim-scalar"])
        assert "invalid choice" in capsys.readouterr().err

    def test_list_shows_oracles(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "oracles (repro tune --oracle)" in out
        assert "sim-scalar" not in out and "surrogate" in out
