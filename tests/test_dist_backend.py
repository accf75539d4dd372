"""backend="dist" through the experiment API, replay sources, CLI codes."""

import json

import pytest

from repro.dist.replay import (
    PoissonSource,
    ReplayPacer,
    TraceFileSource,
    TraceRecord,
    parse_trace_line,
    take_window,
    write_trace,
)
from repro.experiments.base import UsageError
from repro.experiments.registry import run_experiment


# -- replay sources -----------------------------------------------------------


def test_poisson_source_matches_rack_draw_order():
    # The source must consume the exact random streams the rack does,
    # in the same per-record order: a fresh rack's first arrivals equal
    # the source's first records.
    from itertools import islice

    from repro.cluster.config import STREAM_ARRIVALS, STREAM_FLOWS
    from repro.sim.rng import RandomStreams
    from repro.traffic.arrivals import PoissonArrivals

    rate, seed = 50_000.0, 9
    source = iter(PoissonSource(rate, num_flows=8, flow_skew=0.0, seed=seed))
    records = list(islice(source, 50))
    times = [r.time for r in records]
    assert times == sorted(times)
    assert all(0 <= r.flow < 8 for r in records)
    # Reference: the same streams drawn by hand.
    streams = RandomStreams(seed)
    arrivals = PoissonArrivals(rate, streams.stream(STREAM_ARRIVALS))
    flow_rng = streams.stream(STREAM_FLOWS)
    now = 0.0
    for record in records[:10]:
        now += arrivals.next_interarrival()
        assert record.time == now
        expected_flow = min(int(flow_rng.random() * 8), 7)
        assert record.flow == expected_flow  # uniform weights: direct index


def test_trace_file_roundtrip_and_scaling(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    records = [
        TraceRecord(time=1e-4, flow=3),
        TraceRecord(time=2e-4, flow=5, service_s=1.5e-6, latency_s=9e-6),
    ]
    assert write_trace(path, iter(records)) == 2
    loaded = list(TraceFileSource(path))
    assert loaded[0].time == pytest.approx(1e-4)
    assert loaded[1].service_s == pytest.approx(1.5e-6)
    assert loaded[1].latency_s == pytest.approx(9e-6)
    scaled = list(TraceFileSource(path, time_scale=2.0))
    assert scaled[0].time == pytest.approx(2e-4)


def test_trace_parse_errors_are_located():
    with pytest.raises(ValueError, match="trace line 7"):
        parse_trace_line("not json", lineno=7)
    with pytest.raises(ValueError, match="'t' and 'flow'"):
        parse_trace_line('{"t": 1.0}', lineno=1)
    with pytest.raises(ValueError, match="non-negative"):
        parse_trace_line('{"t": -1.0, "flow": 0}', lineno=1)


def test_take_window_buffers_one_lookahead():
    source = iter(
        TraceRecord(time=t, flow=0) for t in (0.1, 0.2, 0.3, 0.9)
    )
    pending = []
    first = take_window(pending, source, until=0.25)
    assert [r.time for r in first] == [0.1, 0.2]
    assert [r.time for r in pending] == [0.3]
    second = take_window(pending, source, until=1.0)
    assert [r.time for r in second] == [0.3, 0.9]
    assert take_window(pending, source, until=2.0) == []


def test_pacer_zero_speed_never_sleeps():
    pacer = ReplayPacer(speed_factor=0.0)
    pacer.start(0.0)
    pacer.pace(10.0)  # ten simulated seconds: would block for ages if paced
    assert pacer.slept_s == 0.0
    with pytest.raises(ValueError):
        ReplayPacer(speed_factor=-1)


# -- the dist backend through the experiment registry ------------------------


def test_dist_replay_experiment_records_fleet_provenance():
    from repro.experiments.dist_replay import DistReplayConfig, run

    result = run(DistReplayConfig(servers=2, workers=2, requests=600, seed=4))
    assert result.experiment_id == "dist_replay"
    fleet = result.rows[0]
    assert fleet["node"] == "fleet"
    assert fleet["completed"] > 0
    assert [row["node"] for row in result.rows[1:]] == ["worker-0", "worker-1"]
    info = result.dist_info
    assert info["workers"] == 2
    assert info["transport"] == "unix"
    assert info["partial"] is False
    assert info["trace_records"] == 600
    assert len(info["nodes"]) == 2


def test_dist_replay_with_recorded_latencies_compares(tmp_path):
    from itertools import islice

    from repro.experiments.dist_replay import DistReplayConfig, run

    path = str(tmp_path / "recorded.jsonl")
    source = PoissonSource(200_000.0, num_flows=32, flow_skew=0.3, seed=1)
    records = [
        TraceRecord(time=r.time, flow=r.flow, latency_s=5e-6)
        for r in islice(iter(source), 600)
    ]
    write_trace(path, iter(records))
    result = run(
        DistReplayConfig(servers=2, workers=2, trace_path=path, seed=1)
    )
    assert any("vs recorded" in note for note in result.notes)
    assert result.dist_info["trace_records"] == 600


def test_run_experiment_threads_dist_knobs_into_manifest():
    result = run_experiment("dist_replay", fast=True, workers=2)
    manifest = result.manifest
    assert manifest.backend == "dist"
    assert manifest.dist["workers"] == 2
    assert manifest.dist["partial"] is False
    assert manifest.config["workers"] == 2
    restored = json.loads(manifest.to_json())
    assert restored["dist"]["transport"] == "unix"


def test_workers_flag_rejected_for_non_dist_experiments():
    with pytest.raises(UsageError, match="does not accept"):
        run_experiment("hwcost", workers=4)
    with pytest.raises(UsageError, match="dist"):
        run_experiment("fig9a", backend="dist")


def test_scaleout_config_carries_dist_fields():
    from repro.experiments.cluster_scaleout import ClusterScaleoutConfig

    config = ClusterScaleoutConfig(backend="dist", workers=2, speed_factor=0.5)
    assert config.asdict()["workers"] == 2
    assert "supported_backends" not in config.asdict()  # ClassVar, not state
    with pytest.raises(ValueError, match="workers"):
        ClusterScaleoutConfig(workers=0)


# -- CLI exit codes -----------------------------------------------------------


def test_cli_usage_errors_exit_2(capsys):
    from repro.experiments.__main__ import main

    assert main(["hwcost", "--workers", "3"]) == 2
    assert "does not accept" in capsys.readouterr().err
    assert main(["fig9a", "--backend", "dist"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "dist" in err
    assert main(["cluster_scaleout", "--backend", "warp"]) == 2
    assert "expected one of" in capsys.readouterr().err
    # vec/surrogate are registered backends, but not for the rack grid.
    assert main(["cluster_scaleout", "--backend", "vec"]) == 2
    assert "expected one of ['event', 'dist']" in capsys.readouterr().err


def test_cli_worker_spawn_failure_exits_1(capsys, monkeypatch):
    import repro.experiments.__main__ as cli
    from repro.dist import WorkerSpawnError

    def explode(*args, **kwargs):
        raise WorkerSpawnError("workers [0, 1] never connected (waited 1s)")

    monkeypatch.setattr(cli, "run_experiment", explode)
    assert cli.main(["dist_replay"]) == 1
    err = capsys.readouterr().err
    assert "never connected" in err
