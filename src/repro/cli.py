"""Command-line entry point.

::

    repro list                      # benchmarks, figures, strategies
    repro fig7 [--scale 0.5] [--jobs 4]      # regenerate one figure
    repro all  [--scale 0.5] [--jobs 4]      # all figures (shares runs)
    repro granularity               # strategy (granularity) ablation
    repro run sssp grid-level       # run one app variant, print metrics
    repro run sssp consolidated --strategy block   # pick a strategy
    repro run sssp grid-level --threshold 32       # override delegation
    repro tune sssp --jobs 4        # search the configuration space
    repro run sssp tuned            # consume the persisted tuned config
    repro tuned-vs-paper            # tuned vs paper defaults, every app
    repro compile sssp --strategy block      # show generated CUDA
    repro workloads list            # the dataset/scenario registry
    repro workloads gen star --scale 0.5     # materialize + cache one
    repro run sssp grid-level --workload star    # run on a named workload
    repro sensitivity [--apps sssp gc]       # variant x workload sweep
    repro serve [--socket PATH|--tcp H:P]    # the experiment service daemon
    repro submit sssp grid-level    # submit a run to the daemon
    repro tune sssp --socket PATH   # tune through the daemon
    repro status                    # daemon metrics (dedup/batch/cache)
    repro status --metrics          # full telemetry registry (Prometheus)
    repro trace sssp consolidated   # profile one run, write a Chrome trace
    repro profile sssp consolidated # deep-profile: per-kernel attribution
    repro perf ingest out/          # record bench envelopes in the ledger
    repro perf history|diff         # perf trajectory / baseline deltas
    repro perf check                # CI gate: nonzero exit on regressions
    repro shutdown                  # drain the daemon and stop it
    repro cache info|clear          # inspect/clear the on-disk caches

Figure commands batch their work plans up front: ``repro all`` takes the
union of every figure's declared run matrix, deduplicates it, executes
cache misses across ``--jobs`` worker processes, and renders the figures
against the warm cache. Results persist in a content-addressed on-disk
store (``--cache-dir``, default ``~/.cache/repro-wulb16`` or
``$REPRO_CACHE_DIR``), so a second invocation is warm-start; disable
with ``--no-cache``. See README.md "Reproducing the figures".
"""

from __future__ import annotations

import argparse
import sys
import time


def _add_scale(p):
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale factor (default 1.0)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip result verification")


def _add_cache(p):
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="on-disk result cache location "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-wulb16)")


def _add_exec(p):
    _add_scale(p)
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes for uncached runs (default 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk result cache")
    _add_cache(p)


def _make_store(args):
    from .experiments import ResultStore, default_cache_dir

    if getattr(args, "no_cache", False):
        return None
    return ResultStore(args.cache_dir or default_cache_dir())


def _make_dataset_cache(args):
    from .workloads import DatasetCache, default_dataset_cache_dir

    if getattr(args, "no_cache", False):
        return None
    return DatasetCache(default_dataset_cache_dir(args.cache_dir))


def _add_endpoint(p):
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket of the experiment service (default: "
                        "$REPRO_SOCKET or <cache-dir>/service.sock)")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="reach the service over TCP instead of the unix "
                        "socket")


def _parse_tcp(value):
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"--tcp takes HOST:PORT, got {value!r}")
    return host, int(port)


def _make_client(args):
    """A connected ServiceClient for the endpoint arguments."""
    from .service import ServiceClient
    from .service.protocol import default_socket_path

    if args.tcp:
        host, port = _parse_tcp(args.tcp)
        return ServiceClient(host=host, port=port).connect()
    path = args.socket or default_socket_path(getattr(args, "cache_dir",
                                                      None))
    return ServiceClient(socket_path=path).connect()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Compiler-Assisted Workload "
                    "Consolidation for Efficient Dynamic Parallelism on GPU' "
                    "(Wu, Li, Becchi, IPDPS 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and figures")

    from .experiments import FIGURES

    for fig in FIGURES:
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        _add_exec(p)
    p = sub.add_parser("all", help="regenerate every figure")
    _add_exec(p)

    from .compiler.strategies import available_strategies
    from .tuning import OBJECTIVES, available_searches

    def _add_threshold(p):
        p.add_argument("--threshold", type=int, default=None, metavar="N",
                       help="work-delegation threshold override (the "
                            "`deg > threshold` guard; default: the app's "
                            "paper value)")

    p = sub.add_parser("run", help="run one app variant")
    p.add_argument("app")
    p.add_argument("variant",
                   help="basic-dp | no-dp | warp-level | block-level | "
                        "grid-level | consolidated | tuned")
    p.add_argument("--allocator", default="custom",
                   choices=["default", "halloc", "custom"])
    p.add_argument("--strategy", default=None,
                   choices=list(available_strategies()),
                   help="consolidation strategy for the 'consolidated' "
                        "variant (granularity of aggregation)")
    _add_threshold(p)
    p.add_argument("--workload", default=None, metavar="REF",
                   help="registered workload to run on, e.g. 'star' or "
                        "'citeseer(seed=9)' (default: the app's paper "
                        "dataset; see `repro workloads list`)")
    p.add_argument("--objective", default="cycles",
                   choices=list(OBJECTIVES),
                   help="which tuned config the 'tuned' variant consumes")
    # --backend and --oracle were removed per repro.errors.DeprecationPolicy
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also record a span trace of this run and write "
                        "it as Chrome trace-event JSON to PATH")
    _add_scale(p)
    _add_cache(p)

    p = sub.add_parser(
        "trace",
        help="profile one run: span tree, per-phase wall-clock "
             "attribution, Chrome trace-event JSON")
    p.add_argument("app")
    p.add_argument("variant",
                   help="basic-dp | no-dp | warp-level | block-level | "
                        "grid-level | consolidated | tuned")
    p.add_argument("--allocator", default="custom",
                   choices=["default", "halloc", "custom"])
    p.add_argument("--strategy", default=None,
                   choices=list(available_strategies()))
    _add_threshold(p)
    p.add_argument("--workload", default=None, metavar="REF",
                   help="registered workload to run on")
    p.add_argument("--trace", default="trace.json", metavar="PATH",
                   help="where to write the Chrome trace-event JSON "
                        "(default: trace.json; open in ui.perfetto.dev "
                        "or chrome://tracing)")
    p.add_argument("--tree", action="store_true",
                   help="also print the nested span tree")
    _add_scale(p)
    _add_cache(p)

    p = sub.add_parser(
        "profile",
        help="deep-profile one run on the simulated GPU: per-kernel "
             "attribution (cycles, warp efficiency, DRAM, buffer "
             "contention), hotspot ranking, occupancy timeline")
    p.add_argument("app")
    p.add_argument("variant",
                   help="basic-dp | no-dp | warp-level | block-level | "
                        "grid-level | consolidated | tuned")
    p.add_argument("--allocator", default="custom",
                   choices=["default", "halloc", "custom"])
    p.add_argument("--strategy", default=None,
                   choices=list(available_strategies()))
    _add_threshold(p)
    p.add_argument("--workload", default=None, metavar="REF",
                   help="registered workload to run on")
    p.add_argument("--top", type=int, default=0, metavar="N",
                   help="show only the N busiest kernels (default: all)")
    p.add_argument("--occupancy", action="store_true",
                   help="also print the ASCII occupancy timeline")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full profile as JSON to PATH")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also write the kernel timeline + occupancy track "
                        "as Chrome trace-event JSON (cycle timestamps; "
                        "open in ui.perfetto.dev)")
    _add_scale(p)
    _add_cache(p)

    p = sub.add_parser(
        "perf",
        help="the performance ledger: ingest bench envelopes, show "
             "history, diff against baselines, gate regressions")
    p.add_argument("action", choices=["ingest", "history", "diff", "check"])
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="ingest: BENCH_*.json files or directories "
                        "holding them (default: the current directory)")
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="ledger file (default: <cache-dir>/perf-ledger.jsonl)")
    p.add_argument("--bench", default=None, metavar="NAME",
                   help="history: restrict to one bench")
    p.add_argument("--cell", default=None, metavar="SUBSTR",
                   help="history: restrict to cells containing SUBSTR")
    p.add_argument("--threshold", type=float, default=None, metavar="F",
                   help="check: relative worsening that fails the gate "
                        "(default 0.10)")
    p.add_argument("--noise-floor", type=float, default=None, metavar="F",
                   help="diff/check: ignore relative changes at or below "
                        "this (default 0.02)")
    _add_cache(p)

    from .backends import available_backends

    p = sub.add_parser("compile", help="print consolidated CUDA for an app")
    p.add_argument("app")
    p.add_argument("--strategy", "--granularity", dest="strategy",
                   default=None, choices=list(available_strategies()),
                   help="consolidation strategy (default: the pragma's "
                        "consldt clause)")
    p.add_argument("--backend", default=None,
                   choices=list(available_backends()),
                   help="lower through an emitting backend ('cuda' emits "
                        "a self-contained .cu unit; default: print the "
                        "consolidated MiniCUDA itself)")
    _add_threshold(p)

    p = sub.add_parser(
        "tune", help="search the consolidation configuration space for an app")
    p.add_argument("app")
    p.add_argument("--objective", default="cycles", choices=list(OBJECTIVES),
                   help="metric to optimize (default: cycles)")
    p.add_argument("--search", default="halving",
                   choices=list(available_searches()),
                   help="search algorithm (default: halving)")
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help="max candidates drawn from the space (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampling searches (default 0)")
    p.add_argument("--workload", default=None, metavar="REF",
                   help="tune against a registered workload instead of "
                        "the app's default dataset (stored per workload)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="evaluate candidates through the experiment "
                        "service listening on this unix socket instead "
                        "of local runners")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="like --socket, over TCP")
    from .oracle import available_oracles

    p.add_argument("--oracle", default=None,
                   choices=list(available_oracles()),
                   help="candidate-scoring oracle (default: sim, the "
                        "simulator; 'surrogate' predicts the cheap rungs "
                        "from logged runs and simulates only the final "
                        "rung)")
    _add_exec(p)

    p = sub.add_parser(
        "tuned-vs-paper",
        help="tune every app and compare against the paper's fixed configs")
    p.add_argument("--apps", nargs="+", default=None, metavar="APP",
                   help="restrict to these apps (default: all)")
    p.add_argument("--objective", default="cycles", choices=list(OBJECTIVES))
    p.add_argument("--search", default="halving",
                   choices=list(available_searches()))
    p.add_argument("--budget", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    _add_exec(p)

    p = sub.add_parser(
        "workloads", help="list, materialize or describe registered "
                          "dataset workloads")
    p.add_argument("action", choices=["list", "gen", "info"])
    p.add_argument("name", nargs="?", default=None,
                   help="workload reference (gen/info)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale factor for gen (default 1.0)")
    p.add_argument("--no-cache", action="store_true",
                   help="gen: do not write the materialized dataset to "
                        "the on-disk dataset cache")
    _add_cache(p)

    p = sub.add_parser(
        "sensitivity",
        help="input-sensitivity sweep: strategy x workload per app")
    p.add_argument("--apps", nargs="+", default=None, metavar="APP",
                   help="restrict to these apps (default: all)")
    _add_exec(p)

    p = sub.add_parser(
        "serve",
        help="run the experiment service daemon (coalescing, "
             "micro-batching, shared sharded cache)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket to listen on (default: $REPRO_SOCKET "
                        "or <cache-dir>/service.sock)")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="listen on TCP instead of the unix socket")
    p.add_argument("--batch-window", type=float, default=None, metavar="S",
                   help="micro-batching window in seconds (default 0.05)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record daemon spans (accept/request/batch/"
                        "prefetch/reply) and write a Chrome trace to "
                        "PATH on shutdown")
    _add_exec(p)

    p = sub.add_parser("submit", help="submit one run to the service")
    p.add_argument("app")
    p.add_argument("variant",
                   help="basic-dp | no-dp | warp-level | block-level | "
                        "grid-level | consolidated | tuned")
    p.add_argument("--allocator", default="custom",
                   choices=["default", "halloc", "custom"])
    p.add_argument("--strategy", default=None,
                   choices=list(available_strategies()))
    _add_threshold(p)
    p.add_argument("--workload", default=None, metavar="REF",
                   help="registered workload to run on")
    p.add_argument("--scale", type=float, default=None,
                   help="dataset scale (default: the server's)")
    _add_endpoint(p)
    _add_cache(p)

    p = sub.add_parser("status", help="query the service's metrics "
                                      "(queue depth, dedup/cache rates)")
    p.add_argument("--metrics", action="store_true",
                   help="print the daemon's full telemetry registry in "
                        "Prometheus text format (needs a daemon "
                        "advertising the 'metrics' feature)")
    _add_endpoint(p)
    _add_cache(p)

    p = sub.add_parser("shutdown",
                       help="drain the service's queue and stop it")
    _add_endpoint(p)
    _add_cache(p)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", choices=["info", "clear"])
    _add_cache(p)

    args = parser.parse_args(argv)

    if args.command == "list":
        from .apps import all_apps
        from .compiler.strategies import get_strategy
        from .tuning import get_search

        print("benchmarks:")
        for app in all_apps():
            print(f"  {app.key:10s} {app.label}")
        print("figures:", ", ".join(FIGURES))
        print("strategies:")
        for name in available_strategies():
            print(f"  {name:10s} {get_strategy(name).tradeoff}")
        print("search algorithms (repro tune --search):")
        for name in available_searches():
            print(f"  {name:10s} {get_search(name).summary}")
        print("objectives:", ", ".join(OBJECTIVES))
        from .backends import available_backends as _backends
        from .backends import get_backend as _get_backend

        print("backends (repro compile --backend):")
        for name in _backends():
            print(f"  {name:10s} {_get_backend(name).summary}")
        from .oracle import available_oracles as _oracles
        from .oracle import get_oracle as _get_oracle

        print("oracles (repro tune --oracle):")
        for name in _oracles():
            print(f"  {name:10s} {_get_oracle(name).summary}")
        from .workloads import available_workloads, get_workload

        print("workloads (repro run --workload; `repro workloads list` "
              "for details):")
        for name in available_workloads():
            print(f"  {name:14s} {get_workload(name).summary()}")
        return 0

    if args.command == "workloads":
        from .apps import all_apps
        from .workloads import (available_workloads, canonical_workload,
                                get_workload, materialize)

        if args.action == "list":
            from .workloads import parse_workload

            defaults: dict = {}
            for app in all_apps():
                family = parse_workload(app.default_workload)[0]
                defaults.setdefault(family, []).append(app.key)
            for name in available_workloads():
                spec = get_workload(name)
                used = defaults.get(name)
                tail = f"  [default for {', '.join(used)}]" if used else ""
                print(f"{name:14s} {spec.summary()}{tail}")
                if spec.defaults:
                    params = ", ".join(f"{k}={v}" for k, v in
                                       sorted(spec.defaults.items()))
                    print(f"{'':14s}   params: {params}")
            return 0
        if args.name is None:
            print(f"error: `repro workloads {args.action}` needs a "
                  "workload reference", file=sys.stderr)
            return 2
        try:
            spec = get_workload(canonical_workload(args.name).split("(")[0])
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        if args.action == "info":
            print(f"{spec.name}: {spec.summary()}")
            print(f"  canonical : {canonical_workload(args.name)}")
            if spec.defaults:
                for k, v in sorted(spec.defaults.items()):
                    print(f"  param     : {k} = {v}")
            if spec.source is not None:
                print(f"  source    : {spec.source}")
            return 0
        # gen: materialize (through the dataset cache unless --no-cache)
        cache = _make_dataset_cache(args)
        t0 = time.time()
        try:
            dataset = materialize(args.name, args.scale, cache=cache)
        except (KeyError, ValueError) as exc:  # bad ref or builder bounds
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        print(dataset.stats())
        print(f"[materialized in {time.time() - t0:.2f}s"
              + (f"; cached under {cache.root}" if cache is not None
                 else "; not cached (--no-cache)") + "]")
        return 0

    if args.command == "compile":
        from .apps import get_app
        from .compiler import consolidate_source

        app = get_app(args.app)
        res = consolidate_source(app.annotated_source(),
                                 granularity=args.strategy)
        threshold = (args.threshold if args.threshold is not None
                     else app.threshold)
        if args.backend is not None:
            from .backends import BackendError, get_backend

            try:
                backend = get_backend(args.backend)
                emitted = backend.emit(
                    res.source,
                    name=f"{args.app}_{args.strategy or 'pragma'}")
            except BackendError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(emitted)
            return 0
        print(f"// {res.report.describe()}")
        print(f"// delegation threshold: {threshold} (host launch argument; "
              "the generated code is threshold-independent)")
        print(res.source)
        return 0

    if args.command == "run":
        from .apps import get_app
        from .experiments import ExperimentRunner, RunSpec
        from .tuning import TunedConfigRegistry, default_tuned_path

        app = get_app(args.app)
        registry = TunedConfigRegistry(default_tuned_path(args.cache_dir))
        # opt-in on-disk result cache: `repro run` stays execute-always
        # unless the user points it at a cache directory explicitly
        store = None
        dataset_cache = None
        if args.cache_dir:
            from .experiments import ResultStore
            from .workloads import DatasetCache, default_dataset_cache_dir

            store = ResultStore(args.cache_dir)
            dataset_cache = DatasetCache(
                default_dataset_cache_dir(args.cache_dir))
        runner = ExperimentRunner(
            scale=args.scale, verify=not args.no_verify, store=store,
            dataset_cache=dataset_cache,
            tuned=registry, tuned_objective=args.objective)
        spec = RunSpec(app=args.app, variant=args.variant,
                       allocator=args.allocator, threshold=args.threshold,
                       strategy=args.strategy, workload=args.workload)
        from contextlib import ExitStack

        tracer = None
        t0 = time.time()
        try:
            if args.variant == "tuned":
                # the same selection _resolve_tuned uses, so the
                # provenance line always describes the config that runs
                entry = runner.tuned_entry(args.app, args.workload)
                if entry is not None:
                    where = (f" on {entry.workload}" if entry.workload
                             else "")
                    print(f"tuned[{entry.objective}] via {entry.algorithm}"
                          f"{where}: {entry.candidate.describe()}")
            with ExitStack() as stack:
                if args.trace:
                    from .telemetry import Tracer, span, tracing

                    tracer = stack.enter_context(tracing(Tracer()))
                    stack.enter_context(span("repro.run", app=args.app,
                                             variant=args.variant))
                run = runner.run_spec(spec)
        except ValueError as exc:  # e.g. variant/strategy contradiction
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (KeyError, RuntimeError) as exc:  # e.g. no tuned config yet
            # KeyError's str() wraps the message in quotes; unwrap it
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        wall = time.time() - t0
        label = run.variant if run.strategy is None else \
            f"{run.variant}:{run.strategy}"
        print(f"{app.label} [{label}] on {run.dataset} "
              f"(verified={run.checked}, wall={wall:.1f}s)")
        if run.report is not None:
            print(f"  {run.report.describe()}")
        print(run.metrics.summary())
        if store is not None:
            from .experiments.reporting import run_provenance

            print(run_provenance(runner.stats))
        if tracer is not None:
            from .telemetry import write_chrome_trace

            path = write_chrome_trace(args.trace, tracer)
            print(f"[trace: {len(tracer)} spans -> {path}]")
        return 0

    if args.command == "trace":
        from .apps import get_app
        from .experiments import ExperimentRunner, RunSpec
        from .telemetry import (Tracer, attribution_table, span, span_tree,
                                tracing, write_chrome_trace)
        from .tuning import TunedConfigRegistry, default_tuned_path

        app = get_app(args.app)
        runner = ExperimentRunner(
            scale=args.scale, verify=not args.no_verify,
            tuned=TunedConfigRegistry(default_tuned_path(args.cache_dir)))
        spec = RunSpec(app=args.app, variant=args.variant,
                       allocator=args.allocator, threshold=args.threshold,
                       strategy=args.strategy, workload=args.workload)
        tracer = Tracer()
        t0 = time.perf_counter()
        try:
            # the root span brackets the whole traced region, so the
            # coverage figure is span-tree structure, not luck
            with tracing(tracer), span("repro.trace", app=args.app,
                                       variant=args.variant):
                run = runner.run_spec(spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (KeyError, RuntimeError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        wall = time.perf_counter() - t0
        label = run.variant if run.strategy is None else \
            f"{run.variant}:{run.strategy}"
        print(f"{app.label} [{label}] on {run.dataset} "
              f"(verified={run.checked})")
        print(run.metrics.summary())
        print()
        if args.tree:
            print(span_tree(tracer))
            print()
        print(attribution_table(tracer, wall))
        path = write_chrome_trace(args.trace, tracer)
        print(f"[chrome trace -> {path}]")
        return 0

    if args.command == "profile":
        from .apps import get_app
        from .experiments import ExperimentRunner, RunSpec
        from .perf import profiling
        from .perf.report import (build_profile, render_occupancy,
                                  render_profile, write_profile,
                                  write_profile_trace)
        from .tuning import TunedConfigRegistry, default_tuned_path

        runner = ExperimentRunner(
            scale=args.scale, verify=not args.no_verify,
            tuned=TunedConfigRegistry(default_tuned_path(args.cache_dir)))
        spec = RunSpec(app=args.app, variant=args.variant,
                       allocator=args.allocator, threshold=args.threshold,
                       strategy=args.strategy, workload=args.workload)
        try:
            app = get_app(args.app)
            with profiling() as collector:
                run = runner.run_spec(spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (KeyError, RuntimeError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        label = run.variant if run.strategy is None else \
            f"{run.variant}:{run.strategy}"
        profile = build_profile(collector, label=f"{args.app} {label}")
        print(f"{app.label} [{label}] on {run.dataset} "
              f"(verified={run.checked})")
        print()
        print(render_profile(profile, top=args.top))
        if args.occupancy:
            print()
            print(render_occupancy(profile))
        if args.json:
            print(f"[profile json -> {write_profile(args.json, profile)}]")
        if args.trace:
            print(f"[chrome trace -> "
                  f"{write_profile_trace(args.trace, profile)}]")
        return 0

    if args.command == "perf":
        from .perf.ledger import (DEFAULT_NOISE_FLOOR, DEFAULT_THRESHOLD,
                                  PerfLedger, default_ledger_path)

        ledger = PerfLedger(args.ledger or
                            default_ledger_path(args.cache_dir))
        noise = (args.noise_floor if args.noise_floor is not None
                 else DEFAULT_NOISE_FLOOR)
        if args.action == "ingest":
            import os as _os

            total = 0
            targets = args.paths or ["."]
            try:
                for target in targets:
                    if _os.path.isdir(target):
                        results = ledger.ingest_dir(target)
                    else:
                        results = [ledger.ingest_file(target)]
                    for bench, n in results:
                        state = f"{n} cells" if n else "already ingested"
                        print(f"  {bench:24s} {state}")
                        total += n
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(f"[{total} records appended -> {ledger.path}]")
            return 0
        if args.action == "history":
            records = ledger.history(bench=args.bench, cell=args.cell)
            if not records:
                print("(no matching ledger records)")
                return 0
            for rec in records:
                print(f"{rec['bench']:24s} {rec['cell']:44s} "
                      f"{rec['value']:>14g}  [{rec['sha']}]")
            print(f"[{len(records)} records in {ledger.path}]")
            return 0
        if args.action == "diff":
            deltas = ledger.diff(noise_floor=noise)
            if not deltas:
                print("(no deltas beyond the noise floor — ledger has "
                      "fewer than two distinct ingests per cell, or "
                      "nothing moved)")
                return 0
            for delta in deltas:
                print("  " + delta.describe())
            print(f"[{len(deltas)} deltas beyond {noise:.0%} noise floor]")
            return 0
        # check: the regression gate
        threshold = (args.threshold if args.threshold is not None
                     else DEFAULT_THRESHOLD)
        regressions, other = ledger.check(threshold=threshold,
                                          noise_floor=noise)
        for delta in other:
            print("  " + delta.describe())
        if regressions:
            print(f"FAIL: {len(regressions)} cell(s) regressed beyond "
                  f"{threshold:.0%}:", file=sys.stderr)
            for delta in regressions:
                print("  " + delta.describe(), file=sys.stderr)
            return 1
        print(f"OK: no regressions beyond {threshold:.0%} "
              f"({len(other)} non-regressing deltas, ledger {ledger.path})")
        return 0

    if args.command == "tune":
        from .tuning import Tuner, TunedConfigRegistry, default_tuned_path

        # --no-cache keeps the whole invocation off disk: no run store,
        # and no write to the (possibly global) tuned-config registry
        registry = (None if args.no_cache else
                    TunedConfigRegistry(default_tuned_path(args.cache_dir)))
        from .service import ServiceError

        service = None
        if args.socket or args.tcp:
            try:
                service = _make_client(args)
            except (ServiceError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            info = service.server_info
            if info.get("verify") != (not args.no_verify):
                print(f"note: server verify={info.get('verify')} differs "
                      "from this invocation; server settings win for "
                      "executed runs", file=sys.stderr)
        tuner = Tuner(scale=args.scale, store=_make_store(args),
                      registry=registry, jobs=args.jobs,
                      verify=not args.no_verify,
                      dataset_cache=_make_dataset_cache(args),
                      service=service, oracle=args.oracle)
        t0 = time.time()
        try:
            result = tuner.tune(args.app, objective=args.objective,
                                algorithm=args.search, budget=args.budget,
                                seed=args.seed, workload=args.workload)
        except (KeyError, ValueError, ServiceError) as exc:
            # e.g. unknown app/workload, an app-incompatible workload,
            # or a service failure from a --socket evaluation; other
            # RuntimeErrors are bugs and keep their traceback
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
        if service is not None:
            service.close()
        print(result.describe())
        if result.surrogate:
            rep = result.surrogate
            rungs = ", ".join(
                f"{d['candidates']} {d['mode']} @x{d['scale']:g}"
                for d in rep.get("decisions", ()))
            rho = rep.get("spearman")
            rho_text = "n/a" if rho is None else f"{rho:.3f}"
            print(f"[surrogate rungs: {rungs}; trained on "
                  f"{rep.get('train_rows', 0)} logged rows, "
                  f"Spearman rho {rho_text}]")
            from .tuning import weak_surrogate_warning

            caution = weak_surrogate_warning(rep)
            if caution:
                print(f"warning: {caution}", file=sys.stderr)
        where = (f"via {service.endpoint}" if service is not None
                 else f"--jobs {args.jobs}")
        print(f"[tuning: {result.evaluations} evaluations "
              f"({where}): {result.stats.describe()}; "
              f"{time.time() - t0:.1f}s]")
        if registry is not None:
            print(f"saved tuned config -> {registry.path} "
                  f"(key {result.key[:12]}...)")
        else:
            print("tuned config not persisted (--no-cache)")
        return 0

    if args.command == "tuned-vs-paper":
        from .experiments import tuned_vs_paper
        from .tuning import Tuner, TunedConfigRegistry, default_tuned_path

        registry = (None if args.no_cache else
                    TunedConfigRegistry(default_tuned_path(args.cache_dir)))
        tuner = Tuner(scale=args.scale, store=_make_store(args),
                      registry=registry, jobs=args.jobs,
                      verify=not args.no_verify,
                      dataset_cache=_make_dataset_cache(args))
        t0 = time.time()
        print(tuned_vs_paper.compute(
            tuner, apps=args.apps, objective=args.objective,
            algorithm=args.search, budget=args.budget,
            seed=args.seed).render())
        saved = ("configs saved -> " + str(registry.path)
                 if registry is not None else "configs not persisted "
                 "(--no-cache)")
        print(f"\n[tuning (--jobs {args.jobs}): {tuner.stats.describe()}; "
              f"{time.time() - t0:.1f}s; {saved}]")
        return 0

    if args.command == "sensitivity":
        from .experiments import ExperimentRunner, input_sensitivity
        from .experiments.reporting import run_provenance

        runner = ExperimentRunner(
            scale=args.scale, verify=not args.no_verify,
            store=_make_store(args), jobs=args.jobs,
            dataset_cache=_make_dataset_cache(args))
        t0 = time.time()
        try:
            plan = input_sensitivity.plan(runner, apps=args.apps)
        except KeyError as exc:  # unknown app key in --apps
            message = exc.args[0] if exc.args else exc
            print(f"error: unknown app {message}", file=sys.stderr)
            return 2
        stats = runner.prefetch(plan, jobs=args.jobs)
        print(f"[plan: {len(plan)} unique runs (--jobs {args.jobs}): "
              f"{stats.describe()}; {time.time() - t0:.1f}s]\n")
        print(input_sensitivity.main(runner, apps=args.apps))
        print()
        print(run_provenance(runner.stats))
        return 0

    if args.command == "serve":
        from .service import DEFAULT_BATCH_WINDOW, ExperimentService
        from .service.protocol import default_socket_path
        from .tuning import TunedConfigRegistry, default_tuned_path

        svc = ExperimentService(
            scale=args.scale, verify=not args.no_verify,
            store=_make_store(args), dataset_cache=_make_dataset_cache(args),
            tuned=TunedConfigRegistry(default_tuned_path(args.cache_dir)),
            jobs=args.jobs,
            batch_window=(args.batch_window if args.batch_window is not None
                          else DEFAULT_BATCH_WINDOW),
            trace=args.trace)

        def ready():
            store_note = (f"store {svc.store.root} "
                          f"({svc.store.shards} shards)"
                          if svc.store is not None else "no store (--no-cache)")
            print(f"[{svc.name}] listening on {svc.endpoint}; "
                  f"scale {svc.scale}, jobs {svc.jobs}, "
                  f"window {svc.batch_window}s; {store_note}", flush=True)

        try:
            if args.tcp:
                host, port = _parse_tcp(args.tcp)
                svc.run(host=host, port=port, ready=ready)
            else:
                path = args.socket or default_socket_path(args.cache_dir)
                svc.run(socket_path=path, ready=ready)
        except (ValueError, RuntimeError) as exc:
            # e.g. bad --tcp syntax, or another daemon already listening
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            pass
        m = svc.metrics
        print(f"[{svc.name}] stopped: {m.requests} requests, "
              f"{m.executed} executed, {m.cache_hits} cache hits, "
              f"{m.coalesced} coalesced ({100 * m.dedup_rate:.1f}% dedup), "
              f"{m.batches} batches")
        if args.trace and svc.tracer is not None:
            print(f"[{svc.name}] trace: {len(svc.tracer)} spans -> "
                  f"{args.trace}")
        return 0

    if args.command in ("submit", "status", "shutdown"):
        from .service import ServiceError, describe_status

        try:
            client = _make_client(args)
        except (ServiceError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with client:
            if args.command == "status":
                if args.metrics:
                    try:
                        print(client.metrics()["text"].rstrip())
                    except ServiceError as exc:
                        print(f"error: {exc}", file=sys.stderr)
                        return 2
                    return 0
                print(describe_status(client.status()))
                return 0
            if args.command == "shutdown":
                report = client.shutdown()
                print(f"service drained ({report.get('drained', 0)} "
                      "queued/in-flight at request) and stopped")
                return 0
            from .experiments.plan import RunSpec

            spec = RunSpec(app=args.app, variant=args.variant,
                           allocator=args.allocator,
                           threshold=args.threshold,
                           strategy=args.strategy, workload=args.workload)
            t0 = time.time()
            try:
                res = client.submit_spec(spec, scale=args.scale)
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            wall = time.time() - t0
            print(f"{res.app} [{res.label()}] on {res.dataset} "
                  f"(verified={res.checked}, via {client.endpoint}, "
                  f"wall={wall:.1f}s)")
            print(res.metrics.summary())
            print(f"[service: {res.source}; batch: {res.stats.describe()}]")
            return 0

    if args.command == "cache":
        from .experiments import ResultStore, default_cache_dir
        from .tuning import TunedConfigRegistry, default_tuned_path
        from .workloads import DatasetCache, default_dataset_cache_dir

        store = ResultStore(args.cache_dir or default_cache_dir())
        tuned = TunedConfigRegistry(default_tuned_path(args.cache_dir))
        datasets = DatasetCache(default_dataset_cache_dir(args.cache_dir))
        if args.action == "clear":
            removed = store.clear()
            print(f"removed {removed} cached runs from {store.root}")
            removed_datasets = datasets.clear()
            if removed_datasets:
                print(f"removed {removed_datasets} cached datasets from "
                      f"{datasets.root}")
            removed_configs = tuned.clear()
            if removed_configs:
                print(f"removed {removed_configs} tuned configs from "
                      f"{tuned.path}")
        else:
            info = store.shard_info()
            layout = (f"{info['shards']} shards "
                      f"({info['populated']} populated, "
                      f"{info['sharded_entries']} sharded entries")
            layout += (f" + {info['legacy_entries']} legacy flat entries)"
                       if info["legacy_entries"] else ")")
            print(f"cache dir : {store.root}")
            print(f"layout    : {layout}")
            print(f"entries   : "
                  f"{info['sharded_entries'] + info['legacy_entries']}")
            print(f"size      : {store.size_bytes() / 1024:.1f} KiB")
            print(f"datasets  : {len(datasets)} cached "
                  f"({datasets.size_bytes() / 1024:.1f} KiB, "
                  f"{datasets.root})")
            print(f"tuned     : {len(tuned)} configs ({tuned.path})")
        return 0

    # figures
    from .experiments import ExperimentRunner, figure_plan
    from .experiments.reporting import run_provenance

    runner = ExperimentRunner(scale=args.scale, verify=not args.no_verify,
                              store=_make_store(args), jobs=args.jobs,
                              dataset_cache=_make_dataset_cache(args))
    figures = list(FIGURES) if args.command == "all" else [args.command]
    t0 = time.time()
    plan = figure_plan(figures, runner)
    stats = runner.prefetch(plan, jobs=args.jobs)
    print(f"[plan: {len(plan)} unique runs (--jobs {args.jobs}): "
          f"{stats.describe()}; {time.time() - t0:.1f}s]\n")
    for fig in figures:
        t0 = time.time()
        print(FIGURES[fig].main(runner))
        print(f"[{fig} regenerated in {time.time() - t0:.1f}s]\n")
    print(run_provenance(runner.stats))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
