"""Sim-engine bench: scalar vs vectorized functional engine.

End-to-end wall-clock per app x variant, the vectorized engine (the
default) against the scalar reference selected via
``backend=SimBackend(engine="scalar")``. RunMetrics must match field
for field (a bench that silently diverged would be timing two
different computations). This measures the *live* speedup, which is
bounded by everything the one fast path — operand-uniform reads,
served once — cannot touch (kernel-generator Python, every other
round, the timing model).

Emits ``BENCH_sim.json`` through :mod:`_emit`::

    PYTHONPATH=src python benchmarks/bench_sim_engine.py --scale 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from _emit import emit_json

from repro.apps import BASIC, GRID, WARP, get_app
from repro.backends import SimBackend
from repro.experiments import RunSpec

#: end-to-end cells: the cheapest and the most consolidation-heavy
#: variants of two paper apps (the differential test matrix covers all
#: 7 x 4; the bench keeps wall-clock in the seconds range)
CASES = [("sssp", BASIC), ("sssp", WARP), ("sssp", GRID),
         ("spmv", BASIC), ("spmv", GRID)]


def time_apps(scale: float, reps: int = 3) -> dict:
    rows = {}
    for key, variant in CASES:
        app = get_app(key)
        dataset = app.default_dataset(scale)
        scalar_s, vec_s = [], []
        for _ in range(reps):  # alternated, best-of: tames compile noise
            t0 = time.perf_counter()
            ref = app.run(RunSpec(app.key, variant), dataset=dataset,
                          verify=False, backend=SimBackend(engine="scalar"))
            t1 = time.perf_counter()
            vec = app.run(RunSpec(app.key, variant), dataset=dataset, verify=False)
            t2 = time.perf_counter()
            scalar_s.append(t1 - t0)
            vec_s.append(t2 - t1)
            if (dataclasses.asdict(ref.metrics)
                    != dataclasses.asdict(vec.metrics)):
                raise AssertionError(
                    f"vectorized engine diverged on {key} [{variant}]")
        rows[f"{key}:{variant}"] = {
            "scalar_s": round(min(scalar_s), 4),
            "vectorized_s": round(min(vec_s), 4),
            "speedup": round(min(scalar_s) / max(min(vec_s), 1e-9), 2),
        }
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=0.1,
                    help="dataset scale for the end-to-end cells")
    args = ap.parse_args(argv)

    apps = time_apps(args.scale)

    print(f"{'cell':<18} {'scalar':>9} {'vectorized':>11} {'speedup':>8}")
    for cell, row in apps.items():
        print(f"{cell:<18} {row['scalar_s']:>8.3f}s "
              f"{row['vectorized_s']:>10.3f}s {row['speedup']:>7.2f}x")

    path = emit_json("sim", {
        "scale": args.scale,
        "apps": apps,
    })
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
