"""End-to-end benchmark: one workload, one seed, in a fresh process.

Run from the root of a checkout (no install needed; the sources under
``src/`` are used)::

    python3 benchmarks/e2e/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: ``scan``, ``pim``, ``htap`` and ``serve`` (see README.md).
The run sets the workload up several times (the median is ``setup_s``),
then measures whole rounds of operations until ``--seconds`` of timed
calls are spent, checks every answer outside the timed calls, and prints
every metric by name with its unit and sample count. The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the metrics ``BENCHMARK.json`` lists: its ``end_to_end`` ones
with ``--trace 0``, its ``per_layer`` ones with ``--trace 1``. A traced
run also writes the spans of every call into the program (Chrome-trace
JSON) and the full layer ledger to ``.bench_trace/<workload>-seed<seed>/``.
``--smoke`` runs tiny sizes, for the tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

ENGINES = ("cpu", "rme", "pim")
PIM_PHASES = ("setup", "filter", "merge", "build", "probe", "readout", "gather")
#: Serving and cluster numbers the serve workload reports, with units.
SERVE_LAYER = (
    ("serve.profile_s", "s"),
    ("serve.run_s", "s"),
    ("serve.queue_ns_share", "fraction"),
    ("serve.reconfig_ns_share", "fraction"),
    ("serve.hot_rate", "fraction"),
    ("serve.context_switches", "count"),
    ("serve.max_backlog", "count"),
    ("serve.sim_us_p99", "us"),
    ("cluster.run_s", "s"),
    ("cluster.availability", "fraction"),
    ("cluster.retries", "count"),
    ("cluster.hedge_win_rate", "fraction"),
    ("cluster.failover_routes", "count"),
    ("cluster.degraded_ratio", "fraction"),
    ("cluster.staleness_p99_us", "us"),
)

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Ops of round 0 that the traced run re-measures on every engine the
#: planner priced (the planner-regret shadow pass).
SHADOW_OPS = {"scan": 8, "pim": 35, "htap": 6, "serve": 0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "pim", "htap", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed host seconds to fill with whole rounds "
                             "(at least one round always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the tests")
    return parser.parse_args(argv)


def end_to_end(workload, logs, recorder, rounds_s, setup_s, tally):
    """The end-to-end metrics and the workload-specific ones."""
    from harness import MetricSet, median, percentile
    from scenarios import SERVE_LADDER

    # A workload may define its end-to-end op as more than one call
    # (htap: a read is a query run cold then hot; serve: the latency of
    # every request at the reference rung).
    first = logs[0]
    host_ms = [seconds * 1e3 for log in logs
               for seconds in (log.samples.get("e2e_host_s")
                               or [op.host_s for op in log.ops])]
    sim_ns = first.samples.get("e2e_sim_ns") or [op.sim_ns for op in first.ops]
    if "sim_qps" in first.values:  # serve: max_qps_at_slo over the rungs
        sim_qps, qps_samples = first.values["sim_qps"], len(SERVE_LADDER)
    else:
        sim_qps, qps_samples = len(sim_ns) / (sum(sim_ns) / 1e9), len(sim_ns)
    metrics = MetricSet()
    metrics.add("setup_s", median(setup_s), "s", len(setup_s))
    metrics.add("wall_s", median(rounds_s), "s", len(rounds_s))
    metrics.add("host_ms_p50", percentile(host_ms, 50), "ms", len(host_ms))
    metrics.add("host_ms_p90", percentile(host_ms, 90), "ms", len(host_ms))
    metrics.add("peak_rss_mb", recorder.peak_rss_mb, "MB", 1)
    metrics.add("sim_us_p50", percentile(sim_ns, 50) / 1e3, "us", len(sim_ns))
    metrics.add("sim_us_p90", percentile(sim_ns, 90) / 1e3, "us", len(sim_ns))
    metrics.add("sim_qps", sim_qps, "1/s", qps_samples)
    metrics.add("failed_frac", tally.failed / max(1, tally.attempted),
                "fraction", tally.attempted)
    commits = [s * 1e6 for log in logs for s in log.samples.get("commit_s", [])]
    if commits:
        metrics.add("commit_us_p50", percentile(commits, 50), "us", len(commits))
        metrics.add("commit_us_p99", percentile(commits, 99), "us", len(commits))
        metrics.add("space_amp", first.values["storage.space_amp"],
                    "versions/row", 1)
    if workload == "serve":
        metrics.add("sim_us_p99", percentile(sim_ns, 99) / 1e3, "us", len(sim_ns))
        metrics.add("max_qps_at_slo", sim_qps, "1/s", qps_samples)
        metrics.add("availability", first.values["cluster.availability"],
                    "fraction", 1)
        for name, value in sorted(first.values.items()):
            if name.startswith("serve.rung_p99_us."):
                metrics.add(name, value, "us", 1)
    return metrics


def per_layer(logs, recorder, rounds_s, profiled):
    """The per-layer metrics from round 0 and its profiled re-run. A
    layer the workload does not exercise reads 0."""
    from harness import MetricSet, median, percentile, ratio

    log, counters = logs[0], logs[0].counters
    metrics = MetricSet()
    for layer, seconds in profiled["layers"].items():
        metrics.add(f"host_self_s.{layer}", seconds, "s")
    metrics.add("trace.profiled_s", profiled["profiled_s"], "s")
    metrics.add("trace.overhead_ratio", profiled["timed_s"] / rounds_s[0], "ratio")
    metrics.add("memsys.l1_miss_rate",
                ratio(counters["l1_misses"], counters["l1_requests"]), "fraction")
    metrics.add("memsys.l2_miss_rate",
                ratio(counters["l2_misses"], counters["l2_requests"]), "fraction")
    row_accesses = (counters["dram_row_hits"] + counters["dram_row_misses"]
                    + counters["dram_row_empty"])
    metrics.add("memsys.dram_row_hit_rate",
                ratio(counters["dram_row_hits"], row_accesses), "fraction")
    rme_ops = [op for op in log.ops if op.engine == "rme"]
    metrics.add("rme.hot_frac",
                ratio(sum(op.state == "hot" for op in rme_ops), len(rme_ops)),
                "fraction", len(rme_ops))
    metrics.add("rme.fetch_useful_ratio",
                ratio(counters["fetch_bytes_useful"], counters["fetch_bytes"]),
                "fraction")
    metrics.add("rme.descriptors", counters["descriptors"], "count")
    metrics.add("rme.credit_wait_us", counters["credit_wait_ns"] / 1e3, "us")
    metrics.add("rme.trapper_miss_rate",
                ratio(counters["trapper_misses"], counters["trapper_requests"]),
                "fraction")
    metrics.add("rme.configurations", counters["configurations"], "count")
    for name, span in (("core.load_ms_p50", "core.load_table"),
                       ("core.register_ms_p50", "core.register_var"),
                       ("query.plan_ms_p50", "query.plan")):
        durations = recorder.durations.get(span, [])
        metrics.add(name, median(durations) * 1e3, "ms", len(durations))
    queries = [op for op in log.ops if op.engine in ENGINES]
    for engine in ENGINES:
        mine = [(op.host_s - op.plan_s) * 1e3 for op in queries if op.engine == engine]
        metrics.add(f"query.exec_ms_p50.{engine}", median(mine), "ms", len(mine))
        metrics.add(f"query.engine_share.{engine}", ratio(len(mine), len(queries)),
                    "fraction", len(queries))
    metrics.add("query.regret_p50", median(log.regrets), "ratio", len(log.regrets))
    metrics.add("query.regret_max", max(log.regrets, default=0.0), "ratio",
                len(log.regrets))
    metrics.add("query.est_error_p50", median(log.est_errors), "ratio",
                len(log.est_errors))
    phases = {phase: 0.0 for phase in PIM_PHASES}
    for key, ns in log.pim_phases.items():
        phases[key[:-len("_ns")].split("_")[-1]] += ns  # lhs_filter_ns -> filter
    for phase, ns in phases.items():
        metrics.add(f"pim.{phase}_ns_share", ratio(ns, sum(phases.values())),
                    "fraction")
    commits = log.samples.get("commit_s", [])
    metrics.add("storage.abort_rate",
                ratio(len(log.samples.get("aborts", [])), len(commits)),
                "fraction", len(commits))
    metrics.add("storage.versions", log.values.get("storage.versions", 0), "count")
    metrics.add("storage.commit_us_p50", percentile(commits, 50) * 1e6, "us",
                len(commits))
    metrics.add("storage.commit_us_p99", percentile(commits, 99) * 1e6, "us",
                len(commits))
    metrics.add("storage.space_amp", log.values.get("storage.space_amp", 0),
                "ratio")
    for name, unit in SERVE_LAYER:
        metrics.add(name, log.values.get(name, 0.0), unit)
    return metrics


def profile_in_fresh_process(workload: str, seed: int, smoke: bool) -> dict:
    """Re-run round 0 under cProfile in a fresh interpreter (ledger.py)."""
    command = [sys.executable, str(HERE / "ledger.py"), workload, str(seed)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=170)
    return json.loads(done.stdout)


def write_trace(workload: str, seed: int, recorder, layers, metrics,
                profiled) -> Path:
    out = ROOT / ".bench_trace" / f"{workload}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    recorder.write_chrome_trace(out / "spans.json")
    as_json = lambda ms: {m.name: {"value": m.value, "unit": m.unit,  # noqa: E731
                                   "samples": m.samples} for m in ms}
    with open(out / "layers.json", "w") as handle:
        json.dump({
            "per_layer": as_json(layers),
            "end_to_end": as_json(metrics),
            "layer_sum_s": sum(profiled["layers"].values()),
            "profiled_s": profiled["profiled_s"],
            "top_functions": profiled["top"],
        }, handle, indent=1)
    return out


def print_metrics(title: str, metrics) -> None:
    print(f"# {title}")
    for metric in metrics:
        print(f"{metric.name:<36} {metric.value:>16.6f} {metric.unit:<12} "
              f"n={metric.samples}")


def result_line(tally, metrics, catalog) -> str:
    """The JSON result: exactly the catalog's metrics, in its units."""
    reported = {}
    for entry in catalog:
        metric = metrics.get(entry["name"])
        if metric is None or metric.unit != entry["unit"]:
            raise SystemExit(f"error: BENCHMARK.json lists {entry['name']} "
                             f"({entry['unit']}), which this run does not "
                             "measure in that unit")
        value = metric.value if math.isfinite(metric.value) else 0.0
        reported[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    src, spec_path = ROOT / "src", ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program sources under {src} or no {spec_path.name}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    catalog = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    from harness import Recorder, Tally
    from scenarios import WORKLOADS, RoundContext, RoundLog

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_s = []

    def set_up(round_index: int):
        start = time.perf_counter()
        state = workload.setup(round_index)
        setup_s.append(time.perf_counter() - start)
        # Simulated platforms are cyclic object graphs: collect the ones
        # this replaced now, so neither the timed calls nor the peak
        # resident set depend on when the collector last ran.
        gc.collect()
        return state

    # A traced run reports no setup_s, and the untraced runs of the same
    # seed already replay it on both clocks: it skips both to save time.
    for _ in range(1 if args.trace else SETUP_REPEATS):
        state = set_up(0)

    tally = Tally(lambda message: print(message, file=sys.stderr))
    recorder, logs, rounds_s = Recorder(), [], []
    while True:
        first = not logs
        ctx = RoundContext(recorder, tally, RoundLog(),
                           crossclock=first and not args.trace,
                           shadow=bool(args.trace) and first,
                           shadow_ops=SHADOW_OPS[args.workload])
        before = recorder.timed_s
        workload.run(state, ctx)
        rounds_s.append(recorder.timed_s - before)
        logs.append(ctx.log)
        # Whole rounds only: start another while it should end in time.
        if args.trace or recorder.timed_s + rounds_s[-1] > args.seconds:
            break
        state = set_up(len(logs))

    metrics = end_to_end(args.workload, logs, recorder, rounds_s, setup_s, tally)
    print(f"# workload={args.workload} seed={args.seed} rounds={len(logs)} "
          f"inputs_crc32={logs[0].digest}")
    print_metrics("end-to-end", metrics)
    if not args.trace:
        print(result_line(tally, metrics, catalog["end_to_end"]))
        return 0
    profiled = profile_in_fresh_process(args.workload, args.seed, args.smoke)
    layers = per_layer(logs, recorder, rounds_s, profiled)
    print_metrics("per-layer", layers)
    out = write_trace(args.workload, args.seed, recorder, layers, metrics, profiled)
    print(f"# trace written to {out}")
    print(result_line(tally, layers, catalog["per_layer"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
