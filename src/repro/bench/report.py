"""Plain-text rendering of reproduced figures and tables.

The harness prints the same rows/series the paper plots; these helpers
format them as aligned monospace tables (and CSV for downstream tooling).
Telemetry snapshots (:class:`~repro.sim.MetricsRegistry`) render through
the same machinery: :func:`render_metrics` for humans,
:func:`metrics_to_csv` / :func:`metrics_to_json` for files.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from .runner import FigureResult


def _fmt(value) -> str:
    if value is None:
        # An empty histogram's min/max: distinct from a real 0.0.
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """An aligned monospace table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in cells)) if cells else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def line(values):
        return "  ".join(str(v).rjust(w) for v, w in zip(values, widths))
    out = [line(headers), line("-" * w for w in widths)]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def render_figure(result: FigureResult, normalized_to: str = "") -> str:
    """Render a FigureResult: one row per x value, one column per series."""
    fig = result.normalized(normalized_to) if normalized_to else result
    headers = [fig.x_label] + list(fig.series)
    rows: List[List] = []
    for i, x in enumerate(fig.xs):
        rows.append([x] + [fig.series[name][i] for name in fig.series])
    title = f"{fig.fig_id}: {fig.title}   [{fig.y_label}]"
    body = render_table(headers, rows)
    notes = f"\nnote: {fig.notes}" if fig.notes else ""
    return f"{title}\n{body}{notes}"


def to_csv(result: FigureResult) -> str:
    """The figure's series as CSV (header row + one row per x)."""
    headers = [result.x_label] + list(result.series)
    lines = [",".join(headers)]
    for i, x in enumerate(result.xs):
        row = [str(x)] + [repr(result.series[name][i]) for name in result.series]
        lines.append(",".join(row))
    return "\n".join(lines)


# -- serving SLO reports ----------------------------------------------------------

def render_slo_report(report) -> str:
    """A :class:`~repro.serve.ServingReport` as per-tenant SLO tables.

    One row per tenant — served/shed counts, throughput and the
    p50/p95/p99 latency ladder — followed by a system summary line with
    the time breakdown (queueing vs. reconfiguration vs. execution).
    """
    rows = [
        [
            slo.tenant, slo.arrivals, slo.served, slo.shed,
            f"{slo.shed_rate:.1%}", round(slo.throughput_qps),
            round(slo.p50_ns), round(slo.p95_ns), round(slo.p99_ns),
        ]
        for slo in report.tenants
    ]
    table = render_table(
        ["tenant", "arrivals", "served", "shed", "shed rate", "qps",
         "p50 ns", "p95 ns", "p99 ns"],
        rows,
    )
    head = (
        f"policy={report.policy} arrival={report.arrival} "
        f"ports={report.n_ports} queue_depth={report.queue_depth}"
    )
    summary = (
        f"served {report.served}/{report.arrivals} "
        f"({report.shed} shed, {report.shed_rate:.1%}) in "
        f"{report.duration_ns / 1e6:.2f} simulated ms "
        f"({report.throughput_qps:,.0f} qps)\n"
        f"overall latency p50/p95/p99: {report.p50_ns:,.0f} / "
        f"{report.p95_ns:,.0f} / {report.p99_ns:,.0f} ns\n"
        f"port time: {report.reconfig_ns_total / 1e3:,.1f} us reconfig + "
        f"{report.exec_ns_total / 1e3:,.1f} us execution "
        f"(hot rate {report.hot_rate:.1%}, "
        f"{report.context_switches} context switches); "
        f"queueing {report.queue_ns_total / 1e3:,.1f} us, "
        f"max backlog {report.max_backlog}"
    )
    return f"{head}\n{table}\n{summary}"


def render_cluster_report(report) -> str:
    """A :class:`~repro.cluster.ClusterReport` as per-node SLO tables.

    One row per node — served/shed/abandoned counts, crash and stale-
    serve tallies and the p50/p99 ladder — then the cluster summary
    (availability, latency, degradation) and one router line covering
    the resilience machinery: retries, deadline timeouts, hedges,
    failover reroutes, breaker opens, health-check ejections.
    """
    rows = [
        [
            slo.node, slo.served, slo.shed, slo.abandoned,
            slo.crashes, slo.stale_serves,
            round(slo.p50_ns), round(slo.p99_ns),
        ]
        for slo in report.nodes
    ]
    table = render_table(
        ["node", "served", "shed", "abandoned", "crashes", "stale",
         "p50 ns", "p99 ns"],
        rows,
    )
    head = (
        f"nodes={report.n_nodes} replication={report.replication} "
        f"routing={report.routing} policy={report.policy} "
        f"failover={'on' if report.failover else 'off'} "
        f"hedging={'on' if report.hedging else 'off'} "
        f"deadline={report.deadline_ns:,.0f} ns"
    )
    summary = (
        f"availability {report.availability:.1%}: served "
        f"{report.served}/{report.arrivals} ({report.shed} shed, "
        f"{report.failed} failed, {report.degraded} degraded to CPU) in "
        f"{report.duration_ns / 1e6:.2f} simulated ms "
        f"({report.throughput_qps:,.0f} qps)\n"
        f"overall latency p50/p95/p99: {report.p50_ns:,.0f} / "
        f"{report.p95_ns:,.0f} / {report.p99_ns:,.0f} ns\n"
        f"router: {report.retries} retries, {report.timeouts} deadline "
        f"timeouts, {report.hedges} hedges ({report.hedge_wins} won), "
        f"{report.failover_routes} failover routes, "
        f"{report.breaker_opens} breaker opens, "
        f"{report.health_downs} health ejections, "
        f"{report.fault_events} fault events\n"
        f"staleness bound: max {report.staleness_max_ns:,.0f} ns, "
        f"p99 {report.staleness_p99_ns:,.0f} ns over "
        f"{report.degraded + sum(n.stale_serves for n in report.nodes)} "
        f"non-primary serves"
    )
    return f"{head}\n{table}\n{summary}"


# -- telemetry snapshots ----------------------------------------------------------

def metrics_to_csv(registry) -> str:
    """A :class:`~repro.sim.MetricsRegistry` snapshot as flat CSV.

    One row per metric field, ``component,metric,field,value`` — the
    dotted registry path is split so spreadsheet pivots work directly.
    """
    lines = ["component,metric,field,value"]
    for path, statset in registry:
        for metric, value in sorted(statset.as_dict().items()):
            if isinstance(value, dict):
                for fld, v in sorted(value.items()):
                    # None (an unobserved histogram's min/max) exports as
                    # an empty cell, never as a fake 0.0.
                    cell = "" if v is None else repr(v)
                    lines.append(f"{path},{metric},{fld},{cell}")
            else:
                lines.append(f"{path},{metric},value,{value!r}")
    return "\n".join(lines)


def metrics_to_json(registry, indent: int = 2) -> str:
    """A registry snapshot as a JSON document keyed by dotted path."""
    return json.dumps(registry.as_dict(), indent=indent, sort_keys=True)


def render_metrics(registry, prefix: str = "") -> str:
    """A registry snapshot as an aligned table, optionally path-filtered.

    ``prefix`` keeps only components at or under that dotted path
    (``"rme"`` shows ``rme`` and ``rme.trapper`` but not ``dram``).
    """
    rows: List[List] = []
    for path, statset in registry:
        if prefix and not (path == prefix or path.startswith(prefix + ".")):
            continue
        for metric, value in sorted(statset.as_dict().items()):
            if isinstance(value, dict):
                detail = "  ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
                rows.append([path, metric, detail])
            else:
                rows.append([path, metric, _fmt(value)])
    if not rows:
        return "(no metrics recorded)"
    cells = [[str(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(3)]
    return "\n".join(
        "  ".join(row[i].ljust(widths[i]) for i in range(3)).rstrip()
        for row in cells
    )
