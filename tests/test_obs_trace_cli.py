"""The `repro-trace` CLI and the trace-overhead bench scenario."""

import json

import pytest

from repro.obs.trace import get_active_tracer
from repro.obs.trace_cli import main, module_aliases, resolve_experiments


def test_module_aliases_cover_multi_panel_figures():
    aliases = module_aliases()
    assert aliases["fig9_zero_load"] == ["fig9a", "fig9b"]
    assert aliases["fig10_multicore"] == ["fig10a", "fig10b"]
    assert aliases["cluster_scaleout"] == ["cluster_scaleout"]


def test_resolve_expands_aliases_and_dedupes():
    assert resolve_experiments(["fig9a"]) == ["fig9a"]
    assert resolve_experiments(["fig9_zero_load"]) == ["fig9a", "fig9b"]
    assert resolve_experiments(["fig9a", "fig9_zero_load"]) == ["fig9a", "fig9b"]
    with pytest.raises(ValueError, match="unknown experiment 'bogus'"):
        resolve_experiments(["bogus"])


def test_cli_list_and_errors(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "fig9a" in out and "fig9_zero_load" in out
    assert main(["bogus"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_traced_run_checks_sums_and_exports(tmp_path, capsys):
    code = main(["fig9a", "--check", "--out", str(tmp_path)])
    assert code == 0
    assert get_active_tracer() is None  # scope did not leak
    out = capsys.readouterr().out
    assert "latency decomposition — fig9a" in out
    assert "bit-exact" in out
    for suffix in ("trace.json", "collapsed", "spans.jsonl"):
        assert (tmp_path / f"fig9a.{suffix}").exists()
    payload = json.loads((tmp_path / "fig9a.trace.json").read_text())
    assert payload["traceEvents"]


# -- the perf-smoke overhead scenario -----------------------------------------


def test_trace_overhead_scenario_is_registered():
    from benchmarks.perf.gates import GATES

    scenario = GATES["sdp_trace_overhead"]
    assert "traced" in scenario.description
    assert callable(scenario.fn)
