"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_no_command_prints_help():
    code, text = run_cli()
    assert code == 2
    assert "figures" in text and "query" in text


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0


def test_unknown_subcommand_one_line_error():
    code, text = run_cli("frobnicate")
    assert code == 2
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "invalid choice" in lines[0]
    assert "Traceback" not in text


def test_malformed_option_value_one_line_error():
    code, text = run_cli("query", "SELECT SUM(A1) FROM S", "--rows", "many")
    assert code == 2
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "invalid int value" in lines[0]


def test_unknown_flag_one_line_error():
    code, text = run_cli("info", "--frobnicate")
    assert code == 2
    assert text.startswith("error:")


def test_info():
    code, text = run_cli("info")
    assert code == 0
    assert "Cortex-A53" in text
    assert "BSL, PCK, MLP" in text


def test_resources_default_and_named():
    code, text = run_cli("resources")
    assert code == 0 and "BRAM" in text and "MLP" in text
    code, text = run_cli("resources", "--design", "bsl")
    assert code == 0 and "BSL" in text


def test_resources_unknown_design():
    code, text = run_cli("resources", "--design", "XXL")
    assert code == 1
    assert "unknown RME design" in text


def test_query_runs_all_paths():
    code, text = run_cli(
        "query", "SELECT SUM(A1) FROM S WHERE A2 > 0", "--rows", "128"
    )
    assert code == 0
    assert "RME cold" in text and "RME hot" in text
    assert "direct (row-store)" in text


def test_query_noncontiguous_group_supported():
    code, text = run_cli("query", "SELECT SUM(A1 * A3) FROM S", "--rows", "64")
    assert code == 0
    assert "answer:" in text


def test_query_bad_sql():
    code, text = run_cli("query", "SELEC broken")
    assert code == 2
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in text


def test_query_unknown_column():
    code, text = run_cli("query", "SELECT SUM(Z9) FROM S", "--rows", "32")
    assert code == 2
    assert "Z9" in text


def test_query_table_includes_pim_row():
    code, text = run_cli(
        "query", "SELECT A1 FROM S WHERE A2 < -990000", "--rows", "128"
    )
    assert code == 0
    assert "PIM pushdown" in text
    assert "n/a" not in text


def test_query_pim_row_explains_ineligibility():
    # A1*A2 is not a bare column, so the comparator array cannot fold it.
    code, text = run_cli("query", "SELECT SUM(A1 * A2) FROM S", "--rows", "64")
    assert code == 0
    assert "PIM pushdown" in text and "n/a" in text


def test_figures_subset():
    code, text = run_cli("bench", "fig01", "--rows", "64")
    assert code == 0
    assert "Figure 1" in text


def test_figures_small_simulated():
    code, text = run_cli("bench", "fig07", "--rows", "128")
    assert code == 0
    assert "L1 misses" in text


def test_figures_unknown_name():
    code, text = run_cli("bench", "fig01", "fig99")
    assert code == 2
    assert "unknown sweeps: fig99" in text


def test_figures_csv_export(tmp_path):
    code, text = run_cli("bench", "fig01", "fig09", "--rows", "64",
                         "--csv", str(tmp_path / "out"))
    assert code == 0
    csv_file = tmp_path / "out" / "fig01.csv"
    assert csv_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert header.startswith("projectivity,")
    assert (tmp_path / "out" / "fig09.csv").exists()


def one_line(text):
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in text
    return lines[0]


def test_bench_ext_pim_smoke_runs():
    code, text = run_cli("bench", "ext-pim", "--smoke", "--rows", "256")
    assert code == 0
    assert "PIM w=" in text and "RME w=" in text and "CPU w=" in text
    assert "byte-identical" in text


def test_bench_smoke_unsupported_sweep():
    code, text = run_cli("bench", "fig06", "--smoke")
    assert code == 2
    line = one_line(text)
    assert "--smoke is only supported" in line
    # The usage tip's engine list comes from the registry, not a
    # hard-coded string, so @pim is already in it.
    assert "cpu, rme, columnar, index, pim" in line


def test_bench_explain_pinned_pim_plan():
    code, text = run_cli("bench", "ext-pim", "--explain", "--engine", "pim")
    assert code == 0
    assert "@pim" in text and "Transfer[pim → cpu]" in text
    assert "pinned via --engine pim" in text


def test_bench_explain_unknown_engine_lists_registry():
    code, text = run_cli("bench", "ext-pim", "--explain", "--engine", "tpu")
    assert code == 2
    line = one_line(text)
    assert "unknown engine 'tpu'" in line
    assert "cpu, rme, columnar, index, pim" in line


def test_bench_explain_unknown_column_usage_error():
    code, text = run_cli(
        "bench", "ext-pim", "--explain", "--sql", "SELECT Z9 FROM S"
    )
    assert code == 2
    assert "Z9" in one_line(text)


def test_bench_explain_bad_aggregate_usage_error():
    code, text = run_cli(
        "bench", "ext-pim", "--explain", "--sql", "SELECT MEDIAN(A1) FROM S"
    )
    assert code == 2
    assert "MEDIAN" in one_line(text).upper()


def test_bench_explain_unsupported_predicate_pinned_pim():
    code, text = run_cli(
        "bench", "ext-pim", "--explain", "--engine", "pim",
        "--sql", "SELECT A1 FROM S WHERE A2 * A3 > 0",
    )
    assert code == 2
    assert "PIM" in one_line(text)


def test_bench_engine_without_explain_usage_error():
    code, text = run_cli("bench", "ext-pim", "--engine", "pim")
    assert code == 2
    assert "--explain" in one_line(text)


def serve_cli(*extra):
    return run_cli("serve", "--rows", "128", "--requests", "60", *extra)


def test_serve_explain_sql_unknown_column():
    code, text = serve_cli(
        "--explain", "--sql", "SELECT Z9 FROM S", "--tenants", "1"
    )
    assert code == 2
    assert "Z9" in one_line(text)


def test_serve_explain_sql_bad_sql():
    code, text = serve_cli("--explain", "--sql", "SELECT A1 WHERE",
                           "--tenants", "1")
    assert code == 2
    one_line(text)


def test_serve_explain_sql_plans_per_tenant():
    code, text = serve_cli(
        "--explain", "--sql", "SELECT SUM(A1) FROM S", "--tenants", "2"
    )
    assert code == 0
    assert text.count("/adhoc]") == 2
    assert "@rme" in text


def test_serve_reports_slos():
    code, text = serve_cli("--policy", "ctx-switch", "--arrival", "poisson")
    assert code == 0
    assert "policy=ctx-switch arrival=poisson" in text
    assert "p99 ns" in text and "shed rate" in text
    assert "tenant0" in text and "tenant2" in text
    assert "context switches" in text


def test_serve_multi_port_and_rate():
    code, text = serve_cli(
        "--policy", "multi-port", "--rate", "200000", "--ports", "2"
    )
    assert code == 0
    assert "ports=2" in text


def test_serve_closed_loop():
    code, text = serve_cli("--arrival", "closed", "--clients", "4")
    assert code == 0
    assert "arrival=closed" in text
    assert "served 60/60" in text


def test_serve_json_metrics():
    import json

    code, text = serve_cli("--format", "json")
    assert code == 0
    data = json.loads(text)
    assert data["slo"]["latency_ns"]["count"] > 0
    assert any(key.startswith("tenant.") for key in data)


def test_serve_config_override_changes_timing():
    code, slow = serve_cli("--config", "pl_freq_mhz=100")
    assert code == 0
    code, fast = serve_cli("--config", "pl_freq_mhz=300")
    assert code == 0
    assert slow != fast


def test_serve_config_missing_equals():
    code, text = serve_cli("--config", "pl_freq_mhz")
    assert code == 1
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "KEY=VALUE" in lines[0]


def test_serve_config_non_numeric_value():
    code, text = serve_cli("--config", "pl_freq_mhz=fast")
    assert code == 1
    assert text.startswith("error:") and "not a number" in text


def test_serve_config_unknown_key():
    code, text = serve_cli("--config", "warp_drive=9")
    assert code == 1
    assert text.startswith("error:") and "warp_drive" in text


def test_serve_bad_policy_lists_registry_names():
    code, text = serve_cli("--policy", "lifo")
    assert code == 2
    line = one_line(text)
    assert line.startswith("error:") and "'lifo'" in line
    # Registry-driven, not an argparse choices= literal: every scheduler
    # name appears in the one-line message.
    for name in ("fcfs", "ctx-switch", "multi-port"):
        assert name in line


def test_serve_ports_rejected_for_single_port_policy():
    code, text = serve_cli("--policy", "fcfs", "--ports", "3")
    assert code == 1
    assert text.startswith("error:")


def test_trace_writes_chrome_json(tmp_path):
    import json

    path = tmp_path / "q.trace.json"
    code, text = run_cli(
        "trace", "SELECT SUM(A1) FROM S", "--rows", "64", "--out", str(path),
        "--tail", "5",
    )
    assert code == 0
    assert "elapsed:" in text and "MLP cold" in text
    assert "perfetto" in text.lower()
    trace = json.loads(path.read_text())
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert "X" in phases and "M" in phases


def test_trace_hot_and_component_filter(tmp_path):
    path = tmp_path / "hot.trace.json"
    code, text = run_cli(
        "trace", "SELECT SUM(A1) FROM S", "--rows", "64", "--out", str(path),
        "--hot", "--component", "trapper", "--tail", "8",
    )
    assert code == 0
    assert "MLP hot" in text
    # Only trapper records in the rendered tail (header line aside).
    body = [line for line in text.splitlines()
            if "ns  " in line and "elapsed" not in line]
    assert body and all("trapper" in line for line in body)


def test_trace_unknown_column():
    code, text = run_cli("trace", "SELECT SUM(Z9) FROM S", "--rows", "32")
    assert code == 2 and "Z9" in text


def test_stats_table_output():
    code, text = run_cli(
        "stats", "SELECT SUM(A1) FROM S", "--rows", "64", "--prefix", "rme"
    )
    assert code == 0
    assert "rme.trapper" in text and "stall_ns" in text
    assert "dram " not in text  # prefix filter applied


def test_stats_json_output():
    import json

    code, text = run_cli(
        "stats", "SELECT SUM(A1) FROM S", "--rows", "64", "--format", "json"
    )
    assert code == 0
    data = json.loads(text)
    assert data["rme.trapper"]["requests"]["count"] > 0


def test_stats_csv_output():
    code, text = run_cli(
        "stats", "SELECT SUM(A1) FROM S", "--rows", "64", "--format", "csv"
    )
    assert code == 0
    assert text.splitlines()[0] == "component,metric,field,value"


def test_stats_bsl_design():
    code, text = run_cli(
        "stats", "SELECT SUM(A1) FROM S", "--rows", "64", "--design", "bsl"
    )
    assert code == 0 and "BSL cold" in text


def test_perf_quick_writes_report(tmp_path):
    import json

    out_path = tmp_path / "BENCH_wallclock.json"
    code, text = run_cli(
        "perf", "--quick", "--scenario", "fig06", "--output", str(out_path)
    )
    assert code == 0
    assert "quick mode" in text and "identical" in text
    assert f"wrote {out_path}" in text
    data = json.loads(out_path.read_text())
    assert data["mode"] == "quick"
    (scenario,) = data["scenarios"]
    assert scenario["name"] == "fig06"
    assert scenario["identical"] is True
    assert scenario["fastpath_hits"] > 0


def test_perf_unknown_scenario_is_an_error():
    code, text = run_cli("perf", "--quick", "--scenario", "fig99",
                         "--output", "-")
    assert code == 1
    assert "unknown wallclock scenarios" in text


def test_perf_speedup_floor_enforced(tmp_path):
    # An absurd floor must fail the run (exit 1), proving the acceptance
    # gate is live without depending on host speed.
    code, text = run_cli(
        "perf", "--quick", "--scenario", "fig06", "--min-speedup", "1000",
        "--output", "-",
    )
    assert code == 1
    assert "below the" in text and "acceptance floor" in text


# -- cluster ----------------------------------------------------------------------


def cluster_cli(*extra):
    return run_cli("cluster", "--smoke", *extra)


def test_cluster_smoke_clean():
    code, text = cluster_cli()
    assert code == 0
    assert "availability 100.0%" in text
    assert "byte-identical to the fault-free golden answers" in text
    assert "smoke ok" in text


def test_cluster_smoke_node_crash_stays_available():
    code, text = cluster_cli("--fault-plan", "node-crash")
    assert code == 0
    assert "smoke ok" in text
    assert "byte-identical to the fault-free golden answers" in text


def test_cluster_bad_routing_lists_registry_names():
    code, text = cluster_cli("--routing", "mod-n")
    assert code == 2
    line = one_line(text)
    assert "'mod-n'" in line
    for name in ("consistent-hash", "range"):
        assert name in line


def test_cluster_bad_policy_lists_registry_names():
    code, text = cluster_cli("--policy", "lifo")
    assert code == 2
    line = one_line(text)
    assert "'lifo'" in line
    for name in ("fcfs", "ctx-switch", "multi-port"):
        assert name in line


def test_cluster_json_format_dumps_merged_registry():
    import json

    code, text = cluster_cli("--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert "slo" in payload and "router" in payload


def test_cluster_no_failover_baseline_runs():
    code, text = run_cli(
        "cluster", "--requests", "80", "--rows", "128", "--tenants", "2",
        "--nodes", "2", "--no-failover", "--no-hedging",
    )
    assert code == 0
    assert "failover=off" in text and "hedging=off" in text
