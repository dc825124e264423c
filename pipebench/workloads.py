"""The benchmark's two workloads.

Each workload is closed-loop and serial: one unit runs after another in
this process, with ``jobs=1``. A *pass* is the workload's fixed set of
units; the timed window repeats whole passes, so passes compare with
each other within a run and across runs. Every simulated unit is
verified by ``App.check`` (``verify=True``); a unit that raises, or whose
check fails, counts as failed and the pass goes on.

* ``regen-cold`` -- ``repro all``'s deduplicated figure plan at
  :data:`REGEN_SCALE` into an empty ``ResultStore``. Its many small runs
  expose the fixed per-run costs: parse, consolidation, codegen, verify
  and store writes. Unit: one executed run.
* ``regen-warm`` -- the same plan regenerated by fresh runners from a
  store that set-up filled: store reads, run keys, dataset fingerprints,
  spec resolution and figure rendering, and no simulation. Unit: one
  regeneration, which must execute nothing and render the set-up's text.
Together they cover every layer: regen-cold runs the compiler, the
engine's round loop and DP drain, the timing scheduler, verification,
dataset materialization and store writes; regen-warm the store reads,
spec resolution and rendering that regen-cold hides. The figure plan
names the paper's datasets itself, so ``--seed`` changes no input; it is
recorded with the results.
"""

from __future__ import annotations

import itertools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import repro.experiments as experiments
from repro.apps import all_apps
from repro.apps.common import BASIC, CONSOLIDATED
from repro.experiments import ExperimentRunner, ResultStore
from repro.workloads import DatasetCache

from .stats import gmean

#: dataset scale of the regeneration workloads: the full plan stays in
#: the ~10 s range while keeping every figure's structure
REGEN_SCALE = 0.15
#: warm regenerations per regen-warm pass
WARM_BATCH = 50


def strip_provenance(text: str) -> str:
    """Figure text without the ``[``-prefixed lines, which carry timings."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("["))


@dataclass
class Pass:
    """One pass: its wall time, unit latencies, failures and exact work."""

    wall_s: float = 0.0
    unit_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    executed: int = 0
    #: exact simulated work, one (cycles, kernel instances, device
    #: launches) triple per run, in a fixed order
    work: list = field(default_factory=list)

    def fail(self, what: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def signature(self) -> tuple:
        return self.executed, tuple(self.work)


def _work(metrics) -> tuple:
    return (metrics.cycles, metrics.kernel_instances, metrics.device_launches)


class Regen:
    """Set-up, one timed pass and the untimed checks of a workload that
    regenerates every figure of ``repro all``."""

    name = ""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        #: the app objects whose ``check`` the traced run wraps
        self.apps = tuple(all_apps())
        #: failures outside the timed passes (the set-up fill)
        self.extra = Pass()
        self.datasets: Optional[DatasetCache] = None
        self._dirs = itertools.count()
        self._last_runner: Optional[ExperimentRunner] = None

    def fill(self) -> None:
        """The one-off part of set-up."""

    def run_pass(self) -> Pass:
        """The timed pass; everything inside it is measured."""
        raise NotImplementedError

    def finish(self, p: Pass) -> None:
        """Untimed checks and clean-up after a pass."""

    def _fresh_dir(self, stem: str) -> Path:
        return self.work_dir / f"{stem}-{next(self._dirs)}"

    def _runner(self, store=None) -> ExperimentRunner:
        return ExperimentRunner(scale=REGEN_SCALE, store=store,
                                dataset_cache=self.datasets, jobs=1)

    def prepare(self) -> None:
        """The repeatable part of set-up (timed several times): every
        dataset of the plan, materialized into a fresh dataset cache."""
        if self.datasets is not None:
            shutil.rmtree(self.datasets.root, ignore_errors=True)
        self.datasets = DatasetCache(self._fresh_dir("datasets"))
        runner = self._runner()
        for spec in experiments.figure_plan(list(experiments.FIGURES), runner):
            runner.dataset(spec.app, spec.workload if spec.workload is not None
                           else spec.dataset)

    @staticmethod
    def _render(runner, p: Pass) -> Optional[str]:
        """Every figure's text without its provenance lines, or None
        when a run the figures need fails."""
        try:
            text = "\n".join(experiments.FIGURES[fig].main(runner)
                             for fig in experiments.FIGURES)
        except Exception as exc:
            p.fail("render", exc)
            return None
        p.attempted += 1
        return strip_provenance(text)

    @staticmethod
    def _collect(runner, plan) -> list:
        """Exact work of every unique run in the plan (memory hits)."""
        seen, work = set(), []
        for spec in plan:
            resolved = runner.resolve(spec)
            if resolved not in seen:
                seen.add(resolved)
                work.append(_work(runner.run_spec(spec).metrics))
        return work

    def speedup(self) -> float:
        """Fig. 7's headline: geometric-mean simulated speedup of the
        three consolidation granularities over basic-dp, all apps."""
        runner = self._last_runner
        if runner is None:
            return 0.0
        ratios = []
        for app in self.apps:
            base = runner.run(app.key, BASIC).metrics.cycles
            ratios.extend(base / runner.run(app.key, variant).metrics.cycles
                          for variant in CONSOLIDATED)
        return gmean(ratios)


class RegenCold(Regen):
    name = "regen-cold"
    text: Optional[str] = None

    def run_pass(self) -> Pass:
        p = Pass()
        store_dir = self._fresh_dir("store")
        t0 = time.perf_counter()
        runner = self._runner(ResultStore(store_dir))
        plan = experiments.figure_plan(list(experiments.FIGURES), runner)
        for spec in plan:
            u0 = time.perf_counter()
            try:
                stats = runner.prefetch([spec], jobs=1)
            except Exception as exc:  # a failed or wrongly-verified run
                p.fail(f"{spec.app} {spec.variant}", exc)
                continue
            if stats.executed:
                p.unit_s.append(time.perf_counter() - u0)
                p.attempted += 1
                p.executed += stats.executed
        text = self._render(runner, p)
        p.wall_s = time.perf_counter() - t0
        self._pending = (runner, plan, text, store_dir)
        return p

    def finish(self, p: Pass) -> None:
        runner, plan, text, store_dir = self._pending
        if p.failed == 0:
            p.work = self._collect(runner, plan)
            self._last_runner = runner
            if self.text is None:
                self.text = text
            elif text != self.text:
                p.fail("render", AssertionError(
                    "figure text differs between cold passes"))
        shutil.rmtree(store_dir, ignore_errors=True)


class RegenWarm(Regen):
    name = "regen-warm"

    def fill(self) -> None:
        """Regenerate cold into the store the timed passes read."""
        self.store = ResultStore(self.work_dir / "store")
        runner = self._runner(self.store)
        plan = experiments.figure_plan(list(experiments.FIGURES), runner)
        self.reference, self.cold_work = None, []
        try:
            runner.prefetch(plan, jobs=1)
        except Exception as exc:
            self.extra.fail("fill", exc)
            return
        self.reference = self._render(runner, self.extra)
        if self.reference is not None:
            self.cold_work = self._collect(runner, plan)

    def run_pass(self) -> Pass:
        p = Pass()
        runner = plan = None
        for _ in range(WARM_BATCH):
            u0 = time.perf_counter()
            try:
                runner = self._runner(self.store)
                plan = experiments.figure_plan(list(experiments.FIGURES),
                                               runner)
                stats = runner.prefetch(plan, jobs=1)
                text = strip_provenance("\n".join(
                    experiments.FIGURES[fig].main(runner)
                    for fig in experiments.FIGURES))
            except Exception as exc:
                p.fail("regeneration", exc)
                continue
            p.unit_s.append(time.perf_counter() - u0)
            p.executed += stats.executed
            if stats.executed:
                p.fail("regeneration", AssertionError(
                    f"warm regeneration executed {stats.executed} runs"))
            elif text != self.reference:
                p.fail("regeneration", AssertionError(
                    "figure text differs from the cold render"))
            else:
                p.attempted += 1
        p.wall_s = sum(p.unit_s)
        self._pending = (runner, plan)
        return p

    def finish(self, p: Pass) -> None:
        runner, plan = self._pending
        if runner is not None and p.failed == 0:
            p.work = self._collect(runner, plan)
            self._last_runner = runner
            if p.work != self.cold_work:
                p.fail("counters", AssertionError(
                    "warm runs differ from the runs the fill executed"))


WORKLOADS = {w.name: w for w in (RegenCold, RegenWarm)}


def inject_wrong_results(apps) -> None:
    """Make every app's host driver return a wrong answer (-1 everywhere
    fails every app's check), to prove failures are caught."""
    for app in apps:
        original = app.host_run

        def wrong(device, program, dataset, variant, _original=original):
            return np.full_like(_original(device, program, dataset, variant),
                                -1)

        app.host_run = wrong
