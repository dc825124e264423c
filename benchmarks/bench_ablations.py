"""Ablation benches for the cost-model design choices DESIGN.md §5 calls
out: which overhead term is responsible for how much of basic-dp's pain.

For each ablated term, basic-dp SSSP is re-simulated with that term zeroed;
the printed table shows the speedup basic-dp *would* get — i.e. the term's
share of the total overhead. The paper's qualitative story (§III.B) is
that launch serialization dominates, with buffering and synchronization
overheads second-order; the ablation makes that checkable here.
"""

from conftest import SCALE, emit, emit_table

from repro.apps import get_app
from repro.experiments import RunSpec
from repro.experiments.reporting import Table
from repro.sim.specs import DEFAULT_COST_MODEL

ABLATIONS = {
    "launch latency": {"launch_latency_cycles": 0},
    "dispatch serialization": {"dispatch_serialization_cycles": 0},
    "launch uops (parent-side)": {"launch_uops": 0},
    "virtual-pool penalty": {"virtual_pool_penalty_cycles": 0,
                             "virtual_pool_transactions": 0},
    "swap at device-sync": {"swap_cycles": 0, "swap_transactions": 0},
    "all DP overheads": {"launch_latency_cycles": 0,
                         "dispatch_serialization_cycles": 0,
                         "launch_uops": 0,
                         "virtual_pool_penalty_cycles": 0,
                         "swap_cycles": 0},
}


def test_cost_model_ablations(benchmark):
    app = get_app("sssp")
    dataset = app.default_dataset(SCALE)

    def run_all():
        base = app.run(RunSpec(app.key, "basic-dp"),
                       dataset=dataset).metrics.cycles
        rows = []
        for name, overrides in ABLATIONS.items():
            cost = DEFAULT_COST_MODEL.scaled(**overrides)
            cycles = app.run(RunSpec(app.key, "basic-dp", cost=cost),
                             dataset=dataset).metrics.cycles
            rows.append((name, base / cycles))
        return base, rows

    base, rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        title="Ablation — basic-dp SSSP speedup when zeroing one overhead",
        columns=["ablated term", "speedup if removed"],
    )
    for name, speedup in rows:
        table.add(name, speedup)
    emit("Cost-model ablation (basic-dp SSSP)", table.render())
    emit_table("ablations", table, benchmark,
               extra={"baseline_cycles": base})
    shares = dict(rows)
    # the launch path must dominate, as §III.B argues
    assert shares["all DP overheads"] > 2.0
    assert (shares["launch latency"] * shares["dispatch serialization"]
            > shares["swap at device-sync"])
