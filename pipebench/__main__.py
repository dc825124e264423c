"""Command line of the benchmark: set up, measure, check, report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every unit verified and every exact counter repeated.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: repetitions of the repeatable set-up; setup_s takes their median
SETUP_REPS = 3
#: traced passes per traced run (their spans are held in memory)
MAX_TRACED_PASSES = 2
#: span bound of the traced run's collector
MAX_SPANS = 1_000_000


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="python3 -m pipebench",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("regen-cold", "regen-warm"))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded with the results; the figure plan "
                         "fixes every input")
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: measure per-layer metrics instead")
    ap.add_argument("--inject-wrong-result", action="store_true",
                    help="make every app return a wrong answer (the run "
                         "must then fail)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def locate_program() -> bool:
    """Put the checkout's sources on the path; False when absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() \
            or not (ROOT / "benchmarks" / "_emit.py").is_file():
        return False
    sys.path[:0] = [str(src), str(ROOT / "benchmarks")]
    return True


def measure(args, import_s, work_dir):
    from repro.experiments import FIGURES
    from repro.telemetry import Tracer, tracing

    from .layers import Layers
    from .stats import median
    from .workloads import WORKLOADS, inject_wrong_results

    workload = WORKLOADS[args.workload](work_dir)
    if args.inject_wrong_result:
        inject_wrong_results(workload.apps)

    setup_layers = Layers()
    prepare_s = []
    for _ in range(SETUP_REPS):
        if args.trace:
            setup_layers.install()
        t0 = time.perf_counter()
        with setup_layers:
            workload.prepare()
        prepare_s.append(time.perf_counter() - t0)
        setup_layers.end_pass()
    t0 = time.perf_counter()
    workload.fill()
    fill_s = time.perf_counter() - t0

    plain, traced = [], []
    layers = Layers()
    tracer = Tracer(max_spans=MAX_SPANS)
    # whole passes until the window is over, rounding to the nearer pass
    # boundary: another pass starts only if at least half of it fits
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(plain) > len(traced):
            with layers.install(workload.apps, FIGURES), tracing(tracer):
                p = workload.run_pass()
            layers.end_pass()
            traced.append(p)
        else:
            p = workload.run_pass()
            plain.append(p)
        workload.finish(p)
        if args.trace and len(traced) >= MAX_TRACED_PASSES:
            break
        if (time.perf_counter() + p.wall_s / 2 >= deadline
                and (traced or not args.trace)):
            break
    speedup = workload.speedup()
    return dict(workload=workload, plain=plain, traced=traced,
                setup=(import_s, median(prepare_s), fill_s),
                speedup=speedup, layers=layers, setup_layers=setup_layers,
                tracer=tracer)


def end_to_end(m) -> tuple[dict, dict]:
    from .stats import gmean, median, tail

    # The host is shared: phases of tens of seconds slow every unit alike,
    # so the timings come from the least-disturbed pass (best of N) --
    # all three from the same pass, whose fixed size fixes the tail's
    # percentile
    passes = m["plain"]
    best = min(passes, key=lambda p: p.wall_s)
    tail_label, tail_s = tail(best.unit_s)
    work = next((p.work for p in passes if p.work), [])
    metrics = {
        "wall_s": best.wall_s,
        "run_p50_s": median(best.unit_s),
        "run_tail_s": tail_s,
        "setup_s": sum(m["setup"]),
        "peak_rss_bytes": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024,
        "sim_cycles_gmean": gmean(w[0] for w in work),
        "sim_speedup_vs_basic_gmean": m["speedup"],
    }
    notes = {
        "wall_s": (f"fastest of {len(passes)} passes (median "
                   f"{median(p.wall_s for p in passes):.4f})"),
        "run_p50_s": f"n={len(best.unit_s)}, fastest pass",
        "run_tail_s": f"{tail_label}, n={len(best.unit_s)}, fastest pass",
        "setup_s": ("imports {:.3f} + median of {} prepares {:.3f} + fill "
                    "{:.3f}".format(m["setup"][0], SETUP_REPS,
                                    *m["setup"][1:])),
        "peak_rss_bytes": "getrusage ru_maxrss",
        "sim_cycles_gmean": f"exact, over {len(work)} runs",
        "sim_speedup_vs_basic_gmean": "exact",
    }
    return metrics, notes


def per_layer(m) -> dict:
    from repro.telemetry import coverage

    traced_wall = sum(p.wall_s for p in m["traced"])
    metrics = m["layers"].metrics(m["tracer"])
    setup = m["setup_layers"].metrics()
    for name in ("workloads.materialize_s", "workloads.materialize_calls"):
        metrics[name] = setup[name]
    metrics["trace.overhead_frac"] = (
        min(p.wall_s for p in m["traced"])
        / min(p.wall_s for p in m["plain"]) - 1.0)
    metrics["trace.coverage"] = coverage(m["tracer"], traced_wall)
    return metrics


def declared_units(section: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def work_totals(p) -> dict:
    """A pass's exact work counters."""
    return {"runs_executed": p.executed,
            "sim_cycles": sum(w[0] for w in p.work),
            "kernel_instances": sum(w[1] for w in p.work),
            "device_launches": sum(w[2] for w in p.work)}


def work_line(p) -> str:
    return ", ".join(f"{value:.0f} {name.replace('_', ' ')}"
                     for name, value in work_totals(p).items())


def report(args, m) -> int:
    from _emit import emit_json
    from repro.telemetry import attribution_table, write_chrome_trace

    workload = m["workload"]
    passes = m["plain"] + m["traced"]
    attempted = sum(p.attempted for p in passes) + workload.extra.attempted
    failed = sum(p.failed for p in passes) + workload.extra.failed
    errors = [e for p in passes + [workload.extra] for e in p.errors]
    signatures = {p.signature() for p in passes if not p.failed}
    repeats = len(signatures) <= 1 and bool(signatures)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  window {args.seconds:g} s")
    for kind in ("plain", "traced"):
        for i, p in enumerate(m[kind], 1):
            print(f"  {kind} pass {i}: {p.wall_s:.4f} s, {len(p.unit_s)} "
                  f"units | {work_line(p)}")
    print(f"exact work counters repeat across {len(passes)} passes: "
          f"{'yes' if repeats else 'NO'}")
    if args.trace:
        metrics = per_layer(m)
        tracer = m["tracer"]
        traced_wall = sum(p.wall_s for p in m["traced"])
        RESULTS.mkdir(exist_ok=True)
        trace_path = write_chrome_trace(
            RESULTS / f"trace-{args.workload}.json", tracer)
        table = attribution_table(tracer, traced_wall)
        (RESULTS / f"attribution-{args.workload}.txt").write_text(
            f"{args.workload}: {len(m['traced'])} traced passes\n{table}\n",
            encoding="utf-8")
        print(table)
        print(f"chrome trace: {trace_path}")
        if m["layers"].missing:
            print("not measured (gone from the program): "
                  + ", ".join(m["layers"].missing))
        print("per-layer (per traced pass; materialization per set-up):")
        notes = {}
    else:
        metrics, notes = end_to_end(m)
        print(f"end-to-end ({work_line(passes[0])} per pass):")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]:<6} "
              f"{notes.get(name, '')}")
    print(f"  failed_frac {failed / attempted if attempted else 1.0:.4g} "
          f"({failed} of {attempted} units)")
    for error in errors[:5]:
        print(f"  FAILED {error}")
    correct = failed == 0 and repeats and attempted > 0
    if not repeats:
        print("  FAILED exact work counters differ between passes")

    payload = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "passes": len(passes),
               "attempted": attempted, "failed": failed,
               "metrics": metrics, "work_per_pass": work_totals(passes[0])}
    suffix = "-layers" if args.trace else ""
    emit_json(f"pipeline-{args.workload}{suffix}", payload,
              directory=RESULTS)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not locate_program():
        print(f"pipebench: no program to measure under {ROOT} "
              "(expected src/repro and benchmarks/_emit.py)",
              file=sys.stderr)
        return 2
    import repro.experiments  # noqa: F401  (counted in setup_s)

    import_s = time.perf_counter() - T_START
    work_dir = HERE / f".work-{os.getpid()}"
    try:
        m = measure(args, import_s, work_dir)
        return report(args, m)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
