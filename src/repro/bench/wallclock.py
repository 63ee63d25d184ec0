"""Wall-clock benchmarking of the fast-forward replay layer.

Everything else in :mod:`repro.bench` measures *simulated* nanoseconds;
this module measures *host seconds*. Each scenario runs twice — once
cycle-level (``fastpath=False``), once fast-forwarded (``fastpath=True``,
the library default) — under ``time.perf_counter``,
and the two runs' simulated observables are compared bit-for-bit before
any speedup is reported. A fast path that changes even one simulated
cycle is a broken fast path, so :func:`run_wallclock` raises on the
first divergence rather than reporting a tainted number.

Scenarios:

* ``fig01`` — the analytical projectivity curves. No event-driven
  simulation runs here, so its speedup is ~1x by construction; it is
  included as the control that the harness itself adds no skew.
* ``fig06`` — the Figure 6 Q1 design sweep, the repository's flagship
  cycle-level experiment and the acceptance target (>= 3x).
* ``serving`` — multi-tenant profiling plus one scheduled serving run,
  compared via the report's determinism fingerprint.
* ``windowed`` — a projection larger than the reorganization buffer
  (one fast-forwarded epoch per window).
* ``multirun`` — non-contiguous columns (a two-run configuration).
* ``pushdown`` — a hardware aggregation plus a single-lane selection.

The serving profile memo is cleared before each measurement, so the
numbers describe a cold process, not a warm cache. Forwarded epochs and
scans, and the fallbacks of each, are diffs of the process-wide
``fastpath`` counters (:data:`repro.sim.fastpath.FASTPATH_STATS`) around
the fast run; with ``jobs`` they include what ran in worker processes,
whose counts :mod:`repro.parallel` merges back.

``python -m repro perf`` and ``benchmarks/bench_wallclock.py`` are thin
front-ends over :func:`run_wallclock`; both write ``BENCH_wallclock.json``.
"""

from __future__ import annotations

import dataclasses
import json
import platform as host_platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ZCU102, PlatformConfig
from ..errors import SimulationError
from ..sim.fastpath import FASTPATH_STATS
from .figures import fig01_projectivity, fig06_q1_designs

#: The platform pair every scenario is timed under, both pinned: the
#: cycle-level side is the reference whatever the library default is.
CYCLE_LEVEL = dataclasses.replace(ZCU102, fastpath=False)
FAST_FORWARD = dataclasses.replace(ZCU102, fastpath=True)

#: The acceptance floor for the fig06 sweep in full mode.
FIG06_MIN_SPEEDUP = 3.0


@dataclass(frozen=True)
class ScenarioTiming:
    """One scenario's paired measurement.

    ``fastpath_hits`` counts the epochs the fast run fast-forwarded and
    ``fallbacks`` the epochs each reason kept at cycle level; ``scans``
    counts the scans it ran on the scan ladder and ``scan_fallbacks``
    the scans each reason sent to the event path (``repro perf
    --profile`` renders both tallies).
    """

    name: str
    cycle_s: float
    fast_s: float
    identical: bool
    fastpath_hits: int
    fallbacks: Dict[str, int] = dataclasses.field(default_factory=dict)
    scans: int = 0
    scan_fallbacks: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.cycle_s / self.fast_s if self.fast_s else float("inf")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cycle_level_s": round(self.cycle_s, 4),
            "fastpath_s": round(self.fast_s, 4),
            "speedup": round(self.speedup, 3),
            "identical": self.identical,
            "fastpath_hits": self.fastpath_hits,
            "fallbacks": dict(sorted(self.fallbacks.items())),
            "scans": self.scans,
            "scan_fallbacks": dict(sorted(self.scan_fallbacks.items())),
        }


@dataclass
class WallclockReport:
    """The full benchmark outcome, ready for JSON or a terminal table."""

    quick: bool
    scenarios: List[ScenarioTiming]

    def scenario(self, name: str) -> ScenarioTiming:
        for timing in self.scenarios:
            if timing.name == name:
                return timing
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "benchmark": "fast-forward replay wall-clock",
            "mode": "quick" if self.quick else "full",
            "host": host_platform.platform(),
            "python": host_platform.python_version(),
            "scenarios": [t.as_dict() for t in self.scenarios],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        from .report import render_table

        rows = [
            [t.name, f"{t.cycle_s:.2f}", f"{t.fast_s:.2f}",
             f"{t.speedup:.2f}x", "yes" if t.identical else "NO",
             str(t.fastpath_hits), str(t.scans)]
            for t in self.scenarios
        ]
        return render_table(
            ["scenario", "cycle-level s", "fastpath s", "speedup",
             "identical", "ff epochs", "ff scans"], rows,
        )

    def render_profile(self) -> str:
        """The ``repro perf --profile`` view: the epoch and scan fallback
        tallies of every fast run, most-frequent reason first — the
        worklist for growing fastpath coverage."""
        from .report import render_table

        lines = []
        for unit, field in (("epochs", "fallbacks"),
                            ("scans", "scan_fallbacks")):
            tally: Dict[str, int] = {}
            for t in self.scenarios:
                for reason, count in getattr(t, field).items():
                    tally[reason] = tally.get(reason, 0) + count
            if not tally:
                lines.append(f"no fastpath fallbacks: every {unit[:-1]} "
                             "fast-forwarded")
                continue
            rows = [
                [reason, str(count)]
                for reason, count in sorted(
                    tally.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            lines.append(render_table(
                ["fastpath fallback reason", unit], rows,
            ))
        scans = sum(t.scans for t in self.scenarios)
        lines.append(f"scans forwarded on the scan ladder: {scans}")
        return "\n".join(lines)


def _fresh_caches() -> None:
    """Start each measurement cold: no memoized profiles."""
    from ..serve.profiles import PROFILE_CACHE

    PROFILE_CACHE.clear()


def _snapshot_figure(figure) -> dict:
    return {"xs": list(figure.xs), "series": figure.series}


def _scenario_fig01(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    kwargs = dict(n_points=8, n_rows=8192) if quick else {}

    def run(platform: PlatformConfig):
        return _snapshot_figure(fig01_projectivity(
            platform=platform, jobs=jobs or 1, **kwargs
        ))

    return run


def _scenario_fig06(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    kwargs = dict(n_rows=512, widths=(1, 4, 16)) if quick else {}

    def run(platform: PlatformConfig):
        return _snapshot_figure(fig06_q1_designs(
            platform=platform, jobs=jobs or 1, **kwargs
        ))

    return run


def _scenario_serving(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    n_rows, n_requests, n_tenants = (128, 80, 2) if quick else (512, 300, 3)

    def run(platform: PlatformConfig):
        from ..serve import (
            OpenLoopWorkload,
            ServingSystem,
            default_tenants,
            profile_workload,
        )

        tenants = default_tenants(
            n_tenants=n_tenants, n_rows=n_rows, seed=7
        )
        profile = profile_workload(tenants, platform=platform, jobs=jobs or 1)
        workload = OpenLoopWorkload(
            tenants, rate_qps=0.8 * profile.saturation_rate_qps(),
            n_requests=n_requests, seed=7,
        )
        report = ServingSystem(profile, platform=platform).run(workload)
        return {"fingerprint": report.fingerprint()}

    return run


def _scenario_windowed(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    """A projection larger than the reorganization buffer: every window is
    a separate fast-forwarded epoch (previously the largest fallback)."""
    n_rows, capacity = (512, 512) if quick else (4096, 2048)

    def run(platform: PlatformConfig):
        from .. import QueryExecutor, RelationalMemorySystem
        from ..query.queries import q1
        from ..rme.designs import MLP
        from .workloads import make_relation

        table = make_relation(n_rows=n_rows)
        system = RelationalMemorySystem(platform, MLP,
                                        buffer_capacity=capacity)
        loaded = system.load_table(table)
        var = system.register_var(loaded, ["A1"], windowed=True)
        result = QueryExecutor(system).run_rme(q1("A1"), var)
        return {
            "elapsed_ns": result.elapsed_ns,
            "value": result.value,
            "windows": system.rme.n_windows,
            "switches": system.rme.stats.count("window_switches"),
        }

    return run


def _scenario_multirun(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    """Non-contiguous columns (an RMEConfig with several runs)."""
    n_rows = 512 if quick else 2048

    def run(platform: PlatformConfig):
        from .. import QueryExecutor, RelationalMemorySystem
        from ..query.queries import q2
        from ..rme.designs import MLP
        from .workloads import make_relation

        table = make_relation(n_rows=n_rows)
        system = RelationalMemorySystem(platform, MLP)
        loaded = system.load_table(table)
        var = system.register_var(loaded, ["A1", "A3"],
                                  allow_noncontiguous=True)
        result = QueryExecutor(system).run_rme(q2("A1", "A3"), var)
        return {"elapsed_ns": result.elapsed_ns, "value": result.value}

    return run


def _scenario_pushdown(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    """Hardware pushdown sinks: an aggregation (reduction replay) plus a
    single-lane selection (content-dependent row-filter replay)."""
    n_rows = 128 if quick else 1024

    def run(platform: PlatformConfig):
        from .. import QueryExecutor, RelationalMemorySystem
        from ..query.queries import q1
        from ..rme.designs import MLP, PCK
        from .workloads import make_relation

        table = make_relation(n_rows=n_rows)
        agg_sys = RelationalMemorySystem(platform, MLP)
        loaded = agg_sys.load_table(table)
        avar = agg_sys.register_hw_aggregate(loaded, "A1", "sum")
        agg_sys.warm_up(avar)

        sel_sys = RelationalMemorySystem(platform, PCK)
        loaded = sel_sys.load_table(table)
        fvar = sel_sys.register_filtered_var(loaded, ["A1"], "A1", "<", 0)
        sel_sys.warm_up(fvar)
        sel_sys.flush_caches()
        result = QueryExecutor(sel_sys).run_rme(q1("A1"), fvar)
        return {
            "aggregate": agg_sys.rme.aggregate_result(),
            "agg_now": agg_sys.sim.now,
            "matches": sel_sys.rme.match_count,
            "elapsed_ns": result.elapsed_ns,
            "value": result.value,
        }

    return run


#: name -> scenario builder; order is the report order.
SCENARIOS: Dict[str, Callable[[bool, Optional[int]], Callable]] = {
    "fig01": _scenario_fig01,
    "fig06": _scenario_fig06,
    "serving": _scenario_serving,
    "windowed": _scenario_windowed,
    "multirun": _scenario_multirun,
    "pushdown": _scenario_pushdown,
}


def _measure(run: Callable[[PlatformConfig], object],
             platform: PlatformConfig) -> Tuple[float, object]:
    _fresh_caches()
    start = time.perf_counter()
    snapshot = run(platform)
    return time.perf_counter() - start, snapshot


def _fastpath_counts() -> Dict[str, int]:
    """The process-wide ``fastpath`` counters, by name."""
    return {name: counter.count for name, counter in FASTPATH_STATS}


def run_wallclock(
    quick: bool = False,
    scenarios: Optional[Sequence[str]] = None,
    min_fig06_speedup: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> WallclockReport:
    """Time every scenario both ways; raise on any simulated divergence.

    ``min_fig06_speedup`` defaults to :data:`FIG06_MIN_SPEEDUP` in full
    mode and to no floor in quick mode (quick scales are too small for a
    stable ratio; CI uses quick mode purely as an equality check).

    ``jobs`` shards each scenario's sweep points across worker processes
    (see :mod:`repro.parallel`); both the cycle-level and fast-forward
    runs use the same ``jobs``, so the bit-identity comparison still
    holds point for point. ``None`` runs every scenario in one process.
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise SimulationError(
            f"unknown wallclock scenarios: {', '.join(unknown)} "
            f"(choose from {', '.join(SCENARIOS)})"
        )
    if min_fig06_speedup is None and not quick:
        min_fig06_speedup = FIG06_MIN_SPEEDUP

    timings: List[ScenarioTiming] = []
    for name in names:
        run = SCENARIOS[name](quick, jobs)
        if progress:
            progress(f"{name}: cycle-level run ...")
        cycle_s, cycle_snap = _measure(run, CYCLE_LEVEL)
        if progress:
            progress(f"{name}: fast-forward run ...")
        before = _fastpath_counts()
        fast_s, fast_snap = _measure(run, FAST_FORWARD)
        moved = {
            name: count - before.get(name, 0)
            for name, count in _fastpath_counts().items()
            if count > before.get(name, 0)
        }
        epochs = moved.pop("epochs", 0)
        scans = moved.pop("scans", 0)
        fallbacks = {
            name.removeprefix("fallback_"): count
            for name, count in moved.items()
            if name.startswith("fallback_")
        }
        scan_fallbacks = {
            name.removeprefix("scan_fallback_"): count
            for name, count in moved.items()
            if name.startswith("scan_fallback_")
        }
        identical = cycle_snap == fast_snap
        if not identical:
            raise SimulationError(
                f"wallclock scenario {name!r}: fast-forward observables "
                "diverged from the cycle-level run — the fast path is "
                "not bit-identical"
            )
        timings.append(ScenarioTiming(
            name=name, cycle_s=cycle_s, fast_s=fast_s,
            identical=identical, fastpath_hits=epochs,
            fallbacks=fallbacks, scans=scans, scan_fallbacks=scan_fallbacks,
        ))
        if progress:
            progress(f"{name}: {cycle_s:.2f}s -> {fast_s:.2f}s "
                     f"({cycle_s / fast_s:.2f}x), identical")

    report = WallclockReport(quick=quick, scenarios=timings)
    if min_fig06_speedup is not None and "fig06" in names:
        achieved = report.scenario("fig06").speedup
        if achieved < min_fig06_speedup:
            raise SimulationError(
                f"fig06 wall-clock speedup {achieved:.2f}x is below the "
                f"{min_fig06_speedup:.1f}x acceptance floor"
            )
    return report
