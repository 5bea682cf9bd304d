"""Planning-throughput benchmark: scalar vs vectorized vs memoized.

Measures the two rates the fast-path work targets (see
``docs/performance.md``):

- **configurations costed per second** -- the resource-planning
  microbenchmark: brute-force planning one operator over the full
  discrete grid, scalar loop vs batched ``predict_time_grid``;
- **sub-plans costed per second** -- whole-query planning throughput on
  TPC-H for seven planner configurations: scalar brute force, vectorized
  brute force, lattice-batched costing (one stacked kernel per DP
  level), vectorized + within-run memo + resource plan cache, batched +
  memo + cache (the brute-force production default), and scalar and
  grid hill climbing (the paper's default resource planner, Algorithm 1
  evaluating one configuration at a time vs replayed over one batched
  grid costing);
- **workload queries per second** -- serial vs thread-pool vs
  process-sharded ``WorkloadRunner`` throughput over the evaluation
  queries;
- **Pareto frontiers per second** -- full latency/dollar frontier
  computation (``objective=PlanObjective.pareto()``: skyline kernel +
  exact scalar tail + Minkowski fold) through whole-query planning.

Writes ``BENCH_planning.json`` at the repository root. This is a
standalone script (not a pytest-benchmark case) so CI can smoke it
directly::

    PYTHONPATH=src python benchmarks/bench_planning_throughput.py --quick
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.catalog import tpch  # noqa: E402
from repro.core.pareto import PlanObjective  # noqa: E402
from repro.core.raqo import (  # noqa: E402
    DEFAULT_CLUSTER,
    RaqoPlanner,
    ResourcePlanningMethod,
    default_cost_model,
)
from repro.core.resource_planner import (  # noqa: E402
    brute_force_resource_plan,
)
from repro.engine.joins import JoinAlgorithm  # noqa: E402
from repro.workloads.runner import WorkloadRunner  # noqa: E402

if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_serving import schema_skeleton, validate_report  # noqa: E402

#: Field-structure snapshot of the JSON report (numbers are machine
#: dependent; the schema is not). See tests/experiments/
#: test_bench_planning_golden.py for the regeneration recipe.
GOLDEN_SCHEMA_PATH = (
    REPO_ROOT / "tests" / "experiments" / "golden"
    / "bench_planning_schema.json"
)


def validate_planning_report(report):
    """Mismatches between a planning report and the golden schema."""
    return validate_report(report, GOLDEN_SCHEMA_PATH)

#: One mid-size TPC-H SF-100 operator (orders x lineitem, in GB).
SMALL_GB, LARGE_GB = 17.0, 77.0


def _time_repeats(func, repeats):
    """Best-of-N wall time in seconds (minimum is the least noisy)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return min(samples), statistics.median(samples)


def _time_interleaved(funcs, repeats):
    """Best-of-N wall times for several variants, sampled round-robin.

    Shared machines drift by 2x over minutes; timing variant A's N
    repeats back-to-back and then variant B's would let a speed phase
    land on one variant only, skewing every recorded ratio. Interleaving
    the repeats samples all variants across the same phases, so
    best-of-N ratios between variants stay stable even when absolute
    rates move. Returns ``{name: (best_s, median_s)}``.
    """
    samples = {name: [] for name in funcs}
    for _ in range(repeats):
        for name, func in funcs.items():
            start = time.perf_counter()
            func()
            samples[name].append(time.perf_counter() - start)
    return {
        name: (min(times), statistics.median(times))
        for name, times in samples.items()
    }


def bench_config_costing(repeats):
    """Configurations-costed-per-second: scalar vs vectorized grid scan."""
    model = default_cost_model()
    cluster = DEFAULT_CLUSTER
    grid_size = cluster.grid_size

    def cost_fn(config):
        return model.predict_time(
            JoinAlgorithm.SORT_MERGE, SMALL_GB, LARGE_GB, config
        )

    def grid_cost_fn(grid):
        return model.predict_time_grid(
            JoinAlgorithm.SORT_MERGE, SMALL_GB, LARGE_GB, grid
        )

    def scalar():
        return brute_force_resource_plan(cost_fn, cluster)

    def vectorized():
        return brute_force_resource_plan(
            cost_fn, cluster, vectorized=True, grid_cost_fn=grid_cost_fn
        )

    assert scalar() == vectorized(), "fast path diverged from scalar"
    timings = _time_interleaved(
        {"scalar": scalar, "vectorized": vectorized}, repeats
    )
    scalar_s, _ = timings["scalar"]
    vector_s, _ = timings["vectorized"]
    return {
        "grid_size": grid_size,
        "scalar_configs_per_s": grid_size / scalar_s,
        "vectorized_configs_per_s": grid_size / vector_s,
        "speedup": scalar_s / vector_s,
    }


BRUTE_FORCE = ResourcePlanningMethod.BRUTE_FORCE
HILL_CLIMB = ResourcePlanningMethod.HILL_CLIMB

PLANNER_VARIANTS = {
    "scalar": dict(
        resource_method=BRUTE_FORCE,
        vectorized_resource_planning=False,
        memoize_within_run=False,
        cache_mode=None,
        batched_costing=False,
    ),
    "vectorized": dict(
        resource_method=BRUTE_FORCE,
        vectorized_resource_planning=True,
        memoize_within_run=False,
        cache_mode=None,
        batched_costing=False,
    ),
    "batched": dict(
        resource_method=BRUTE_FORCE,
        vectorized_resource_planning=True,
        memoize_within_run=False,
        cache_mode=None,
        batched_costing=True,
    ),
    "memoized": dict(
        resource_method=BRUTE_FORCE,
        vectorized_resource_planning=True,
        memoize_within_run=True,
        batched_costing=False,
    ),
    "batched_memoized": dict(
        resource_method=BRUTE_FORCE,
        vectorized_resource_planning=True,
        memoize_within_run=True,
        batched_costing=True,
    ),
    # Hill climbing without memo or cache, so every sub-plan runs a
    # climb: one cost-model call per configuration read vs one batched
    # grid costing per climb.
    "hill_climb_scalar": dict(
        resource_method=HILL_CLIMB,
        vectorized_resource_planning=False,
        memoize_within_run=False,
        cache_mode=None,
        batched_costing=False,
    ),
    "hill_climb_vectorized": dict(
        resource_method=HILL_CLIMB,
        vectorized_resource_planning=True,
        memoize_within_run=False,
        cache_mode=None,
        batched_costing=False,
    ),
}

#: Variants the --assert-overhead CI gate replays (the fast paths a
#: regression would actually hurt); gated when present in the baseline.
GATED_VARIANTS = (
    "memoized",
    "batched",
    "batched_memoized",
    "hill_climb_vectorized",
)


def bench_subplan_throughput(queries, repeats):
    """Sub-plans-costed-per-second through whole-query planning."""
    catalog = tpch.tpch_catalog(100)
    plan_fns = {}
    variant_outcomes = {}
    for name, options in PLANNER_VARIANTS.items():
        planner = RaqoPlanner(catalog, **options)

        def plan_all(planner=planner):
            return [planner.optimize(query) for query in queries]

        variant_outcomes[name] = plan_all()  # warm before timing
        plan_fns[name] = plan_all
    climbs = [
        [
            (o.cost, o.counters.resource_iterations)
            for o in variant_outcomes[name]
        ]
        for name in ("hill_climb_scalar", "hill_climb_vectorized")
    ]
    assert climbs[0] == climbs[1], "grid hill climb diverged from scalar"
    timings = _time_interleaved(plan_fns, repeats)
    results = {}
    for name in PLANNER_VARIANTS:
        outcomes = variant_outcomes[name]
        best_s, median_s = timings[name]
        join_costings = sum(
            o.counters.join_costings for o in outcomes
        )
        resource_iterations = sum(
            o.counters.resource_iterations for o in outcomes
        )
        batched_calls = sum(
            o.counters.batched_calls for o in outcomes
        )
        results[name] = {
            "planning_s": best_s,
            "planning_s_median": median_s,
            "sub_plans_costed": join_costings,
            "sub_plans_per_s": join_costings / best_s,
            "resource_iterations": resource_iterations,
            "configs_per_s": resource_iterations / best_s,
            "memo_hits": sum(o.counters.memo_hits for o in outcomes),
            "batched_calls": batched_calls,
            "batch_memo_hits": sum(
                o.counters.batch_memo_hits for o in outcomes
            ),
            # One batched call costs one DP lattice level (or one
            # randomized plan's joins); zero on the scalar variants.
            "dp_levels_per_s": batched_calls / best_s,
        }
    scalar_s = results["scalar"]["planning_s"]
    vectorized_s = results["vectorized"]["planning_s"]
    for name, row in results.items():
        if name != "scalar":
            row["speedup_vs_scalar"] = scalar_s / row["planning_s"]
    for name in ("batched", "batched_memoized"):
        results[name]["speedup_vs_vectorized"] = (
            vectorized_s / results[name]["planning_s"]
        )
    results["hill_climb_vectorized"]["speedup_vs_scalar_climb"] = (
        results["hill_climb_scalar"]["planning_s"]
        / results["hill_climb_vectorized"]["planning_s"]
    )
    return results


def bench_pareto_frontiers(queries, repeats):
    """Frontiers-computed-per-second through pareto-objective planning.

    Times the whole pipeline a ``pareto()`` plan pays on top of the
    scalarised search: batched per-stage grid costing, the vectorized
    weak-skyline pass, the exact scalar tail, and the Minkowski fold
    across stages. Fastest-objective planning over the same queries is
    timed alongside as the no-frontier reference, so the recorded
    overhead ratio is phase-stable on shared machines.
    """
    catalog = tpch.tpch_catalog(100)
    pareto_planner = RaqoPlanner(
        catalog,
        resource_method=ResourcePlanningMethod.BRUTE_FORCE,
        objective=PlanObjective.pareto(),
    )
    fastest_planner = RaqoPlanner(
        catalog,
        resource_method=ResourcePlanningMethod.BRUTE_FORCE,
    )

    def plan_pareto():
        return [pareto_planner.optimize(query) for query in queries]

    def plan_fastest():
        return [fastest_planner.optimize(query) for query in queries]

    outcomes = plan_pareto()  # warm model caches before timing
    plan_fastest()
    timings = _time_interleaved(
        {"pareto": plan_pareto, "fastest": plan_fastest}, repeats
    )
    pareto_s, pareto_median_s = timings["pareto"]
    fastest_s, _ = timings["fastest"]
    frontier_points = sum(len(o.frontier) for o in outcomes)
    return {
        "planning_s": pareto_s,
        "planning_s_median": pareto_median_s,
        "frontiers": len(queries),
        "pareto_frontiers_per_s": len(queries) / pareto_s,
        "frontier_points": frontier_points,
        "frontier_points_per_s": frontier_points / pareto_s,
        "dominated_pruned": sum(
            o.frontier.dominated_pruned for o in outcomes
        ),
        "overhead_vs_fastest": pareto_s / fastest_s,
    }


def bench_workload_sharding(queries, repeats, processes=2):
    """Workload queries-per-second: serial vs threads vs processes.

    Thread workers share one process (cheap startup, GIL-bound on the
    pure-Python planner layers); process shards each rebuild the planner
    (startup cost amortised over larger workloads). All three modes are
    bit-identical, so this measures pure orchestration throughput.
    """
    catalog = tpch.tpch_catalog(100)
    runner = WorkloadRunner(RaqoPlanner.default(catalog))
    workload = list(queries)
    runner.run(workload)  # warm model caches before timing

    modes = {
        "serial": dict(),
        "threads": dict(max_workers=processes),
        "processes": dict(processes=processes),
    }
    results = {"num_queries": len(workload), "shards": processes}
    timings = _time_interleaved(
        {
            name: lambda kwargs=kwargs: runner.run(workload, **kwargs)
            for name, kwargs in modes.items()
        },
        repeats,
    )
    for name in modes:
        best_s, median_s = timings[name]
        results[name] = {
            "wall_s": best_s,
            "wall_s_median": median_s,
            "queries_per_s": len(workload) / best_s,
        }
    for name in ("threads", "processes"):
        results[name]["speedup_vs_serial"] = (
            results["serial"]["wall_s"] / results[name]["wall_s"]
        )
    return results


def _gate_rates(variants, queries, catalog, repeats, extra_fns=None):
    """Fresh best-of-N ``sub_plans_per_s`` per variant, interleaved.

    ``extra_fns`` (name -> pre-warmed callable) join the same
    interleaved timing rounds so their best-of-N shares phases with the
    speed probe; their best wall times come back in the second return
    value (seconds, not a rate).
    """
    plan_fns = {}
    sub_plans = {}
    for variant in variants:
        planner = RaqoPlanner(catalog, **PLANNER_VARIANTS[variant])

        def plan_all(planner=planner):
            return [planner.optimize(query) for query in queries]

        outcomes = plan_all()  # warm model caches before timing
        sub_plans[variant] = sum(
            o.counters.join_costings for o in outcomes
        )
        plan_fns[variant] = plan_all
    plan_fns.update(extra_fns or {})
    timings = _time_interleaved(plan_fns, repeats)
    rates = {
        variant: sub_plans[variant] / timings[variant][0]
        for variant in variants
    }
    extra_s = {name: timings[name][0] for name in (extra_fns or {})}
    return rates, extra_s


def assert_overhead(max_drop_pct, baseline_path, repeats):
    """Gate: fresh fast-path throughput vs the checked-in baseline.

    Replays the *baseline's own query set* through every gated planner
    variant recorded in the baseline (memoized, batched, batched +
    memoized and grid hill climbing when present -- the production fast
    paths, null tracer) and fails when any fresh ``sub_plans_per_s`` rate falls more
    than ``max_drop_pct`` percent below the recorded one. This is the
    overhead budget for both the observability layer and the batched
    costing kernel: instrumentation and batching bookkeeping must stay
    within the noise floor of the planning hot path.

    Shared CI runners drift by 2x between runs, which would swamp any
    absolute-rate budget, so the comparison is *machine-normalized*:
    the plain ``vectorized`` variant (not gated, no memo/cache/batch
    bookkeeping) is measured fresh as a speed probe, and each gated
    variant's fresh rate is scaled by the recorded-vs-fresh probe ratio
    before comparing. A slow runner slows probe and variant together
    and cancels out; overhead added to a gated fast path moves only
    that variant and is caught.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    by_name = {q.name: q for q in tpch.EVALUATION_QUERIES}
    queries = [by_name[name] for name in baseline["queries"]]
    catalog = tpch.tpch_catalog(100)

    gated = [
        variant
        for variant in GATED_VARIANTS
        if baseline["subplan_throughput"].get(variant) is not None
    ]
    probe_row = baseline["subplan_throughput"].get("vectorized")
    measured = [v for v in gated]
    if probe_row is not None:
        measured.append("vectorized")

    extra_fns = {}
    pareto_row = baseline.get("pareto_frontiers")
    if pareto_row is not None:
        pareto_planner = RaqoPlanner(
            catalog,
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
            objective=PlanObjective.pareto(),
        )

        def plan_pareto():
            return [pareto_planner.optimize(query) for query in queries]

        plan_pareto()  # warm model caches before timing
        extra_fns["pareto"] = plan_pareto

    rates, extra_s = _gate_rates(
        measured, queries, catalog, repeats, extra_fns
    )

    speed_scale = 1.0
    if probe_row is not None:
        probe_fresh = rates["vectorized"]
        speed_scale = probe_fresh / probe_row["sub_plans_per_s"]
        print(
            f"overhead gate: machine speed probe (vectorized) "
            f"{probe_fresh:,.0f} sub-plans/s vs recorded "
            f"{probe_row['sub_plans_per_s']:,.0f}/s "
            f"(scale {speed_scale:.2f}x)"
        )

    def check(label, recorded, fresh):
        normalized = fresh / speed_scale
        floor = recorded * (1.0 - max_drop_pct / 100.0)
        drop_pct = (1.0 - normalized / recorded) * 100.0
        print(
            f"overhead gate [{label}]: fresh {fresh:,.0f} "
            f"(normalized {normalized:,.0f}) vs baseline "
            f"{recorded:,.0f} ({drop_pct:+.1f}% drop, budget "
            f"{max_drop_pct:.1f}%)"
        )
        if normalized < floor:
            print(
                f"FAIL: {label} throughput fell below "
                f"{floor:,.0f} (machine-normalized)"
            )
            return 1
        return 0

    failures = 0
    for variant in gated:
        failures += check(
            f"{variant} sub-plans/s",
            baseline["subplan_throughput"][variant]["sub_plans_per_s"],
            rates[variant],
        )

    if pareto_row is not None:
        failures += check(
            "pareto frontiers/s",
            pareto_row["pareto_frontiers_per_s"],
            len(queries) / extra_s["pareto"],
        )

    if failures:
        return 1
    print("OK: within the overhead budget")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: fewer repeats, Q3 only",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_planning.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--assert-overhead",
        type=float,
        metavar="PCT",
        default=None,
        help=(
            "instead of the full benchmark, replay the baseline's "
            "query set through the memoized planner and fail when "
            "throughput drops more than PCT percent below it"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_planning.json",
        help="baseline JSON for --assert-overhead",
    )
    parser.add_argument(
        "--check",
        type=Path,
        metavar="JSON",
        default=None,
        help=(
            "validate an existing report against the golden schema "
            "instead of benchmarking"
        ),
    )
    args = parser.parse_args(argv)
    if args.check is not None:
        problems = validate_planning_report(
            json.loads(args.check.read_text())
        )
        for problem in problems:
            print(problem)
        if problems:
            return 1
        print(f"OK: {args.check} matches the golden schema")
        return 0
    if args.assert_overhead is not None:
        # The gated variants are fast (tens of ms per pass), so extra
        # repeats are cheap and best-of-N needs them to sit near the
        # baseline's own best-of-10 even in --quick mode.
        repeats = 7 if args.quick else 10
        return assert_overhead(
            args.assert_overhead, args.baseline, repeats
        )
    repeats = 3 if args.quick else 10
    queries = (
        [tpch.QUERY_Q3]
        if args.quick
        else list(tpch.EVALUATION_QUERIES)
    )

    config_costing = bench_config_costing(repeats)
    subplan = bench_subplan_throughput(queries, repeats)
    pareto = bench_pareto_frontiers(queries, repeats)
    workload = bench_workload_sharding(
        queries, repeats=2 if args.quick else 3
    )
    report = {
        "mode": "quick" if args.quick else "full",
        "queries": [query.name for query in queries],
        "config_costing": config_costing,
        "subplan_throughput": subplan,
        "pareto_frontiers": pareto,
        "workload_sharding": workload,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    if GOLDEN_SCHEMA_PATH.exists():
        for problem in validate_planning_report(report):
            print(f"schema drift: {problem}")

    print(
        f"configurations costed per second "
        f"({config_costing['grid_size']}-point grid):"
    )
    print(
        f"  scalar     {config_costing['scalar_configs_per_s']:12,.0f}/s"
    )
    print(
        f"  vectorized "
        f"{config_costing['vectorized_configs_per_s']:12,.0f}/s "
        f"({config_costing['speedup']:.1f}x)"
    )
    print(f"sub-plan costing throughput ({len(queries)} queries):")
    for name, row in subplan.items():
        speedup = row.get("speedup_vs_scalar")
        suffix = f" ({speedup:.1f}x vs scalar)" if speedup else ""
        levels = row["dp_levels_per_s"]
        levels_txt = f", {levels:8,.0f} DP levels/s" if levels else ""
        print(
            f"  {name:<21} {row['sub_plans_per_s']:10,.0f} "
            f"sub-plans/s, {row['configs_per_s']:12,.0f} "
            f"configs/s{levels_txt}{suffix}"
        )
    print(
        f"Pareto frontiers ({pareto['frontiers']} queries, "
        f"{pareto['frontier_points']} frontier points):"
    )
    print(
        f"  {pareto['pareto_frontiers_per_s']:10,.1f} frontiers/s, "
        f"{pareto['frontier_points_per_s']:10,.0f} points/s "
        f"({pareto['overhead_vs_fastest']:.2f}x the fastest-objective "
        f"planning time)"
    )
    print(
        f"workload sharding ({workload['num_queries']} queries, "
        f"{workload['shards']} shards):"
    )
    for name in ("serial", "threads", "processes"):
        row = workload[name]
        speedup = row.get("speedup_vs_serial")
        suffix = f" ({speedup:.2f}x vs serial)" if speedup else ""
        print(
            f"  {name:<10} {row['queries_per_s']:8,.2f} "
            f"queries/s{suffix}"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
