"""Sim-engine bench: scalar vs vectorized functional engine.

Two levels, both equality-asserted (a bench that silently diverged
would be timing two different computations):

* **apps** — end-to-end wall-clock per app x variant, the vectorized
  engine (the default) against the scalar reference selected via
  ``backend=SimBackend(engine="scalar")``. RunMetrics must match field
  for field. This
  measures the *live* speedup, which is bounded by everything batching
  cannot touch (kernel-generator Python, divergent rounds, the timing
  model).
* **slice** — the round bookkeeping hot path, replayed: a recorded
  stream of uniform load/store rounds (default width: one full block's
  worth of lockstep lanes, i.e. 32 warps executing the same round) is
  applied once through the round loop's per-event path (its actual
  helpers — ``DeviceArray.load/store/addr_of``, :func:`coalesce_round`,
  ``MemorySystem.access_segments``), which the scalar engine takes for
  every round, and once through the vectorized engine's batched hook
  core (:func:`segment_probe_order` + NumPy gather/scatter, the body of
  ``_batch_loads``/``_batch_stores``).
  Cycles, L2 hit/miss counters, DRAM transactions, lane values and
  final array contents must all be identical; the speedup on this
  slice is the >=10x target.

Emits ``BENCH_sim.json`` through :mod:`_emit`::

    PYTHONPATH=src python benchmarks/bench_sim_engine.py --scale 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from _emit import emit_json

from repro.apps import BASIC, GRID, WARP, get_app
from repro.backends import SimBackend
from repro.experiments import RunSpec
from repro.sim.device import Device
from repro.sim.engine import coalesce_round
from repro.sim.engine_vec import segment_probe_order
from repro.sim.events import LD, ST

#: end-to-end cells: the cheapest and the most consolidation-heavy
#: variants of two paper apps (the differential test matrix covers all
#: 7 x 4; the bench keeps wall-clock in the seconds range)
CASES = [("sssp", BASIC), ("sssp", WARP), ("sssp", GRID),
         ("spmv", BASIC), ("spmv", GRID)]


# -- end-to-end apps ----------------------------------------------------------


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


# -- the bookkeeping slice ----------------------------------------------------


def _record_rounds(rounds: int, width: int, n: int):
    """The recorded stream: alternating uniform load and store rounds
    of ``width`` lockstep lanes walking the array coalesced — the shape
    of a flat streaming kernel's hot loop, and exactly the rounds the
    vectorized engine batches. Indices/values are recorded as arrays
    (the batched processor's native form); the scalar replay expands
    them to the per-event tuples the scalar engine consumes."""
    stream = []
    for r in range(rounds):
        base = (r * width) % max(n - width, 1)
        idxs = np.arange(base, base + width, dtype=np.int64)
        if r % 2 == 0:
            stream.append((LD, idxs, None))
        else:
            values = (np.arange(width, dtype=np.int64) + r) % 2_000_000
            stream.append((ST, idxs, values))
    return stream


def _fresh_path(n: int):
    dev = Device()
    arr = dev.from_numpy("a", np.zeros(n, dtype=np.int32))
    return dev.engine, arr


def _replay_scalar(stream, arr, mem, cost, seg_bytes):
    """Line-faithful to the round loop's per-event path
    (``FunctionalEngine._run_warp``): per-event load/store, (addr,
    itemsize) access list, coalesce_round, one access_segments call per
    round. Event tuples are prebuilt so
    the timed region covers processing only (the live engine receives
    them from kernel generators)."""
    rounds = []
    for op, idxs, values in stream:
        if op == LD:
            rounds.append([(LD, arr, int(i)) for i in idxs])
        else:
            rounds.append([(ST, arr, int(i), int(v))
                           for i, v in zip(idxs, values)])
    pending = [None] * max(len(e) for e in rounds)
    cycles = 0
    t0 = time.perf_counter()
    for events in rounds:
        accesses = []
        for i, ev in enumerate(events):
            a = ev[1]
            if ev[0] == LD:
                pending[i] = a.load(ev[2])
            else:
                a.store(ev[2], ev[3])
            accesses.append((a.addr_of(ev[2]), a.itemsize))
        segments = coalesce_round(accesses, seg_bytes)
        cycles += cost.cycles_per_warp_step + mem.access_segments(segments)
    return cycles, pending, time.perf_counter() - t0


def _replay_vectorized(stream, arr, mem, cost, seg_bytes):
    """The batched array processor: the vectorized engine's
    ``_apply_batched`` core (:func:`segment_probe_order` + NumPy
    gather/scatter, the body of ``_batch_loads``/``_batch_stores``)
    driven straight from the recorded arrays."""
    pending = [None] * max(len(idxs) for _, idxs, _ in stream)
    data = arr.data
    base_addr, offset, itemsize = arr.base_addr, arr.offset, arr.itemsize
    cycles = 0
    t0 = time.perf_counter()
    for op, idxs, values in stream:
        i_arr = idxs + offset
        if op == LD:
            # .tolist() yields the same Python scalars as per-lane .item()
            pending[:len(idxs)] = data[i_arr].tolist()
        else:
            data[i_arr] = values
        segments = segment_probe_order(base_addr + i_arr * itemsize,
                                       itemsize, seg_bytes)
        cycles += cost.cycles_per_warp_step + mem.access_segments(segments)
    return cycles, pending, time.perf_counter() - t0


def time_slice(rounds: int, width: int) -> dict:
    n = max(width * 4, 1 << 14)
    stream = _record_rounds(rounds, width, n)

    scalar_engine, scalar_arr = _fresh_path(n)
    s_cycles, s_pending, scalar_s = _replay_scalar(
        stream, scalar_arr, scalar_engine.mem, scalar_engine.cost,
        scalar_engine.spec.dram_segment_bytes)

    vec_engine, vec_arr = _fresh_path(n)
    v_cycles, v_pending, vec_s = _replay_vectorized(
        stream, vec_arr, vec_engine.mem, vec_engine.cost,
        vec_engine.spec.dram_segment_bytes)

    # bitwise equality across every observable of the slice
    sc, vc = scalar_engine.mem.counters, vec_engine.mem.counters
    if s_cycles != v_cycles:
        raise AssertionError(f"cycle divergence: {s_cycles} != {v_cycles}")
    if (sc.l2_hits, sc.l2_misses, sc.dram_transactions) != \
            (vc.l2_hits, vc.l2_misses, vc.dram_transactions):
        raise AssertionError("L2/DRAM counter divergence on the slice")
    if s_pending != v_pending:
        raise AssertionError("lane-value divergence on the slice")
    if not np.array_equal(scalar_arr.data, vec_arr.data):
        raise AssertionError("array-content divergence on the slice")

    events = sum(len(idxs) for _, idxs, _ in stream)
    return {
        "rounds": rounds,
        "width": width,
        "events": events,
        "cycles": s_cycles,
        "l2_hits": sc.l2_hits,
        "dram_transactions": sc.dram_transactions,
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vec_s, 4),
        "speedup": round(scalar_s / max(vec_s, 1e-9), 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=0.1,
                    help="dataset scale for the end-to-end cells")
    ap.add_argument("--rounds", type=int, default=800,
                    help="recorded rounds in the bookkeeping slice")
    ap.add_argument("--width", type=int, default=1024,
                    help="lockstep lanes per recorded round (default: a "
                         "full block's worth — 32 warps in lockstep)")
    args = ap.parse_args(argv)

    apps = time_apps(args.scale)
    slice_row = time_slice(args.rounds, args.width)

    print(f"{'cell':<18} {'scalar':>9} {'vectorized':>11} {'speedup':>8}")
    for cell, row in apps.items():
        print(f"{cell:<18} {row['scalar_s']:>8.3f}s "
              f"{row['vectorized_s']:>10.3f}s {row['speedup']:>7.2f}x")
    print(f"{'slice (' + str(slice_row['events']) + ' events)':<18} "
          f"{slice_row['scalar_s']:>8.3f}s "
          f"{slice_row['vectorized_s']:>10.3f}s "
          f"{slice_row['speedup']:>7.1f}x")

    path = emit_json("sim", {
        "scale": args.scale,
        "apps": apps,
        "slice": slice_row,
    })
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
