"""Golden cycle-count fixtures: the simulator's timing is contractual.

The JSON files under ``tests/golden/`` pin the exact simulated series of
three representative figures at small scales. Every scenario is computed
twice — cycle-level and with the fast-forward replay enabled — and both
must reproduce the stored numbers bit-for-bit. A diff here means the
simulated timing semantics changed: either fix the regression or, if the
change is an intentional model revision, regenerate the fixtures with

    PYTHONPATH=src python -m tests.test_golden_cycles --regenerate

and explain the timing change in the commit message.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.bench.figures import (
    fig01_projectivity,
    fig06_q1_designs,
    fig08_offset_sweep,
)
from repro.config import ZCU102

GOLDEN_DIR = Path(__file__).parent / "golden"
FASTPATH = dataclasses.replace(ZCU102, fastpath=True)
CYCLE_LEVEL = dataclasses.replace(ZCU102, fastpath=False)


def _jsonable(value):
    """Row tuples -> lists, so snapshots survive a JSON round-trip."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _windowed_epoch(platform):
    """A window-switching projection: the buffer holds a quarter of the
    projected column, so the scan crosses several reorganization windows
    (the general replay ladder with a nonzero write bias)."""
    from repro import QueryExecutor, RelationalMemorySystem
    from repro.query.queries import q1
    from repro.rme.designs import MLP
    from tests.conftest import build_relation

    table = build_relation(n_rows=512)
    system = RelationalMemorySystem(platform, MLP, buffer_capacity=512)
    loaded = system.load_table(table)
    var = system.register_var(loaded, ["A1"], windowed=True)
    result = QueryExecutor(system).run_rme(q1("A1"), var)
    return {
        "xs": ["elapsed_ns", "value", "windows", "window_switches"],
        "series": {
            "windowed_q1": [
                result.elapsed_ns, _jsonable(result.value),
                system.rme.n_windows,
                system.rme.stats.count("window_switches"),
            ],
        },
    }


def _multirun_epoch(platform):
    """A non-contiguous two-column projection: per-row run descriptors
    with distinct burst lengths (the multirun geometry extension)."""
    from repro import QueryExecutor, RelationalMemorySystem
    from repro.query.queries import q2
    from repro.rme.designs import MLP
    from tests.conftest import build_relation

    table = build_relation(n_rows=512)
    system = RelationalMemorySystem(platform, MLP)
    loaded = system.load_table(table)
    var = system.register_var(loaded, ["A1", "A3"],
                              allow_noncontiguous=True)
    result = QueryExecutor(system).run_rme(q2("A1", "A3"), var)
    return {
        "xs": ["elapsed_ns", "value"],
        "series": {"multirun_q2": [result.elapsed_ns,
                                   _jsonable(result.value)]},
    }


#: Each scenario is (fixture file, callable taking ``platform``) that
#: yields an xs/series snapshot. Scales are chosen small enough for the
#: test suite but large enough to exercise credit back-pressure, bank
#: conflicts and packed-line completion (fig06), analytical curves
#: (fig01), burst-length-2 straddling descriptors (fig08), window
#: switching, and multirun descriptor streams.
SCENARIOS = {
    "fig01_projectivity.json": lambda platform: fig01_projectivity(
        n_points=12, n_rows=8192, platform=platform
    ),
    "fig06_q1_small.json": lambda platform: fig06_q1_designs(
        n_rows=512, widths=(1, 4, 16), platform=platform
    ),
    "fig08_offsets.json": lambda platform: fig08_offset_sweep(
        n_rows=256, offsets=(0, 4, 13, 29, 45, 60), platform=platform
    ),
    "windowed_epoch.json": _windowed_epoch,
    "multirun_epoch.json": _multirun_epoch,
}


def _snapshot(figure) -> dict:
    if isinstance(figure, dict):
        return figure
    return {"xs": list(figure.xs), "series": figure.series}


@pytest.mark.parametrize("fixture", sorted(SCENARIOS))
@pytest.mark.parametrize("platform", [CYCLE_LEVEL, FASTPATH],
                         ids=["cycle-level", "fastpath"])
def test_golden_cycles(fixture, platform):
    path = GOLDEN_DIR / fixture
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "PYTHONPATH=src python -m tests.test_golden_cycles --regenerate"
    )
    golden = json.loads(path.read_text())
    produced = _snapshot(SCENARIOS[fixture](platform))
    assert produced["xs"] == golden["xs"]
    assert set(produced["series"]) == set(golden["series"])
    for name, values in golden["series"].items():
        assert produced["series"][name] == values, (
            f"{fixture}: series {name!r} diverged from the golden cycle "
            "counts"
        )


def regenerate(force: bool = False) -> None:
    """Write missing fixtures; overwrite existing ones only with --force.

    Existing fixtures are contractual — an accidental regeneration would
    silently re-bless a timing regression, so overwriting is opt-in.
    """
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fixture, build in sorted(SCENARIOS.items()):
        path = GOLDEN_DIR / fixture
        if path.exists() and not force:
            print(f"kept {path} (use --force to overwrite)")
            continue
        snapshot = _snapshot(build(CYCLE_LEVEL))
        # Sanity: the fast path must agree before the fixture is trusted.
        fast = _snapshot(build(FASTPATH))
        if fast != snapshot:
            raise SystemExit(
                f"{fixture}: fast-forward and cycle-level runs disagree; "
                "fix that before regenerating goldens"
            )
        path.write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate(force="--force" in sys.argv)
    else:
        raise SystemExit(__doc__)
