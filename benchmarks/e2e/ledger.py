"""Host self-time per layer, from a cProfile run of one round.

A function's ``tottime`` is charged to the layer named after its package
under ``src/repro/`` (``sim/stats.py``, ``sim/metrics.py`` and
``sim/trace.py`` form ``sim.stats``; ``sim/fastpath.py`` and
``sim/vector.py`` form ``sim.fastpath``). Code outside the program — C
builtins such as ``heapq`` and the standard library — is charged to the
layers of its callers, in proportion to the time each caller spent in it
according to the pstats callers table, so the layers always sum to the
profiled total.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

#: Every layer, in report order.
LAYERS = ("sim", "sim.stats", "sim.fastpath", "memsys", "rme", "core",
          "query", "model", "pim", "storage", "serve", "cluster", "faults",
          "other")
_SIM_STATS = {"stats.py", "metrics.py", "trace.py"}
_SIM_FASTPATH = {"fastpath.py", "vector.py"}
_PROGRAM = "/src/repro/"
_BENCHMARK = "/benchmarks/e2e/"

Func = Tuple[str, int, str]


def layer_of_file(path: str) -> Optional[str]:
    """The layer of a source file; None for code outside the program and
    the benchmark, which is charged to its callers."""
    path = path.replace("\\", "/")
    at = path.rfind(_PROGRAM)
    if at < 0:
        return "other" if _BENCHMARK in path else None
    parts = path[at + len(_PROGRAM):].split("/")
    if len(parts) == 1:  # config.py, errors.py, parallel.py
        return "other"
    if parts[0] == "sim":
        if parts[1] in _SIM_STATS:
            return "sim.stats"
        if parts[1] in _SIM_FASTPATH:
            return "sim.fastpath"
        return "sim"
    return parts[0] if parts[0] in LAYERS else "other"


def split_by_layer(stats: Dict[Func, tuple]) -> Dict[str, float]:
    """Seconds of self time per layer (``stats`` is ``pstats.Stats.stats``)."""
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, stack: set) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = layer_of_file(func[0])
        if layer is not None:
            result = {layer: 1.0}
        elif func in stack or func not in stats:
            result = {"other": 1.0}
        else:
            callers = stats[func][4]
            # Weight by the self time spent on behalf of each caller; fall
            # back to call counts when the timer resolution rounds it to 0.
            weights = {caller: entry[2] for caller, entry in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                result = {"other": 1.0}
            else:
                stack.add(func)
                result = defaultdict(float)
                for caller, weight in weights.items():
                    for name, share in shares(caller, stack).items():
                        result[name] += weight / total * share
                stack.discard(func)
        memo[func] = result
        return result

    totals = {layer: 0.0 for layer in LAYERS}
    for func, entry in stats.items():
        for layer, share in shares(func, set()).items():
            totals[layer] += entry[2] * share
    return totals


def profile_round(workload_name: str, seed: int, smoke: bool) -> dict:
    """Run round 0 of a workload under cProfile and split it by layer.

    The profiler is on only inside the timed calls into the program.
    """
    from harness import Recorder, Tally
    from scenarios import WORKLOADS, RoundContext, RoundLog

    workload = WORKLOADS[workload_name](seed, smoke)
    state = workload.setup(0)
    profiler = cProfile.Profile()
    recorder = Recorder(profiler)
    workload.run(state, RoundContext(recorder, Tally(), RoundLog(), checks=False))
    stats = pstats.Stats(profiler).stats
    layers = split_by_layer(stats)
    top = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:25]
    return {
        "timed_s": recorder.timed_s,
        "profiled_s": sum(entry[2] for entry in stats.values()),
        "layers": layers,
        "top": [{"function": f"{func[0]}:{func[1]}({func[2]})",
                 "layer": layer_of_file(func[0]) or "(callers)",
                 "self_s": entry[2], "calls": entry[1]}
                for func, entry in top],
    }


def main(argv=None) -> int:
    """``python3 ledger.py WORKLOAD SEED [--smoke]``: print the profiled
    round as JSON. ``run.py --trace 1`` runs this in a fresh process, so
    no memo the untraced run warmed (the serving profile cache, for one)
    makes the profiled run cheaper."""
    import argparse
    import json
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    print(json.dumps(profile_round(args.workload, args.seed, args.smoke)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
