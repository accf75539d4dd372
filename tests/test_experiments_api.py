"""The redesigned experiment API: run(config), shims, manifests, CLI."""

import json

import pytest

from repro.experiments import REGISTRY, ExperimentConfig, run_experiment
from repro.experiments.base import ExperimentResult
from repro.obs import MetricsRegistry, parse_jsonl, parse_prometheus, validate_manifest


def test_every_registry_entry_has_spec_fields():
    for experiment_id, spec in REGISTRY.items():
        assert spec.experiment_id == experiment_id
        assert callable(spec.runner)
        assert spec.summary
        config = spec.config(fast=True, seed=3)
        assert isinstance(config, ExperimentConfig)
        assert config.fast is True
        assert config.asdict()["fast"] is True


def test_configs_are_frozen():
    config = REGISTRY["fig8"].config()
    with pytest.raises(Exception):
        config.fast = False


def test_run_accepts_config_and_defaults():
    from repro.experiments.hwcost import HwCostConfig, run

    default = run()
    explicit = run(HwCostConfig(fast=True))
    assert default.rows == explicit.rows
    assert default.experiment_id == "hwcost"


def test_panel_configs_validate():
    from repro.experiments.fig9_zero_load import Fig9Config

    with pytest.raises(ValueError):
        Fig9Config(panel="z")


def test_v1_shims_removed_in_v2():
    # v2.0.0 removed the run_figX()/run_hwcost()/... deprecation shims
    # and the repro.sdp.tracing compatibility tracer; docs/api.md has
    # the migration table.
    import repro
    import repro.experiments.hwcost as hwcost_mod
    from repro.experiments import cluster_scaleout, fig3_dpdk

    assert repro.__version__.split(".")[0] == "2"
    assert not hasattr(hwcost_mod, "run_hwcost")
    assert not hasattr(fig3_dpdk, "run_fig3a")
    assert not hasattr(cluster_scaleout, "run_cluster_scaleout")
    with pytest.raises(ImportError):
        import repro.sdp.tracing  # noqa: F401
    from repro.experiments import base

    assert not hasattr(base, "deprecated_runner")


def test_run_experiment_attaches_valid_manifest():
    result = run_experiment("hwcost", fast=True, seed=5)
    manifest = result.manifest
    assert manifest is not None
    validate_manifest(manifest.to_dict())
    assert manifest.experiment_id == "hwcost"
    assert manifest.root_seed == 5
    assert manifest.config == {"fast": True, "seed": 5}
    assert manifest.metrics_enabled is False
    assert manifest.wall_seconds >= 0.0


def test_run_experiment_with_metrics_counts_events():
    registry = MetricsRegistry(enabled=True)
    result = run_experiment("fig3b", fast=True, metrics=registry)
    assert result.manifest.metrics_enabled is True
    assert result.manifest.sim_events > 0
    assert registry.as_dict()["sim.events_total"]["value"] == result.manifest.sim_events


def test_result_with_manifest_roundtrips_json():
    result = run_experiment("hwcost", fast=True)
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.manifest == result.manifest
    assert restored.rows == result.rows


def test_facade_exposes_experiment_api():
    import repro

    assert repro.run_experiment is run_experiment
    for name in ("ExperimentResult", "MetricsRegistry", "RunManifest",
                 "Simulator", "RandomStreams", "SDPConfig", "Rack"):
        assert hasattr(repro, name), name


def test_cli_metrics_out_emits_manifest_and_exports(tmp_path):
    from repro.experiments.__main__ import main

    assert main(["hwcost", "--metrics-out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "hwcost.manifest.json").read_text())
    validate_manifest(manifest)
    assert manifest["experiment_id"] == "hwcost"
    assert manifest["metrics_enabled"] is True
    # hwcost is analytic (no simulation), so exports exist but may be
    # empty of samples; the parsers must still accept them.
    parse_jsonl((tmp_path / "hwcost.metrics.jsonl").read_text())
    parse_prometheus((tmp_path / "hwcost.metrics.prom").read_text())


def test_cli_seed_threads_into_manifest(tmp_path):
    from repro.experiments.__main__ import main

    assert main(["hwcost", "--seed", "9", "--metrics-out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "hwcost.manifest.json").read_text())
    assert manifest["root_seed"] == 9


# -- backend selection (event / vec / surrogate) -----------------------------


def test_unknown_backend_rejected_with_choices_listed():
    from repro.experiments.base import UsageError, backend_names, validate_backend

    with pytest.raises(UsageError) as excinfo:
        validate_backend("quantum")
    for choice in backend_names():
        assert choice in str(excinfo.value)
    with pytest.raises(UsageError, match="event"):
        run_experiment("fig8", backend="quantum")


def test_backend_registry_is_extensible():
    from repro.experiments.base import (
        BACKEND_REGISTRY,
        BackendSpec,
        UsageError,
        backend_names,
        register_backend,
        validate_backend,
    )

    assert {"event", "vec", "surrogate", "dist"} <= set(backend_names())
    # A backend whose availability probe fails surfaces the hint.
    register_backend(
        BackendSpec("fpga", "test-only", requires=lambda: "no bitstream")
    )
    try:
        with pytest.raises(UsageError, match="no bitstream"):
            validate_backend("fpga")
        # The per-experiment supported subset is enforced too.
        with pytest.raises(UsageError, match="not supported here"):
            validate_backend("dist", supported=("event", "vec"))
    finally:
        del BACKEND_REGISTRY["fpga"]


def test_backend_config_field_validates_at_construction():
    from repro.experiments.fig8_peak_throughput import Fig8Config
    from repro.experiments.fig10_multicore import Fig10Config

    with pytest.raises(ValueError, match="surrogate"):
        Fig8Config(backend="bogus")
    with pytest.raises(ValueError, match="vec"):
        Fig10Config(backend="warp")
    assert Fig8Config().backend == "event"


def test_backend_unsupported_experiment_lists_capable_ones():
    pytest.importorskip("numpy")
    with pytest.raises(ValueError) as excinfo:
        run_experiment("hwcost", backend="vec")
    message = str(excinfo.value)
    assert "fig8" in message and "cluster_scaleout" in message


def test_backend_capable_experiments_cover_the_issue_surface():
    from repro.experiments.registry import backend_capable_experiments

    assert {"fig8", "fig10a", "fig10b", "cluster_scaleout"} <= set(
        backend_capable_experiments()
    )


def test_vec_backend_without_numpy_gives_install_hint(monkeypatch):
    import repro.vec as vec

    monkeypatch.setattr(vec, "_np", None)
    with pytest.raises(ValueError, match="pip install"):
        run_experiment("fig8", backend="vec")
    from repro.experiments.fig8_peak_throughput import Fig8Config

    with pytest.raises(ValueError, match="pip install"):
        Fig8Config(backend="surrogate")


def test_cli_backend_errors_exit_nonzero_with_message(capsys):
    from repro.experiments.__main__ import main

    assert main(["fig8", "--backend", "quantum"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "event" in err and "traceback" not in err.lower()

    assert main(["fig9a", "--backend", "vec"]) == 2
    err = capsys.readouterr().err
    assert "does not support" in err or "pip install" in err

    assert main(["nosuch"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_vec_backend_runs_fig8_and_stamps_manifest():
    pytest.importorskip("numpy")
    result = run_experiment("fig8", fast=True, backend="vec")
    assert result.manifest.backend == "vec"
    assert result.manifest.vec["backend"] == "vec"
    assert result.manifest.vec["numpy"] not in (None, "absent")
    validate_manifest(result.manifest.to_dict())
    # Same grid shape as the event path: rows carry the same keys.
    event_row = run_experiment("fig8", fast=True).rows[0]
    assert set(result.rows[0]) == set(event_row)


def test_fig8_hot_path_untouched_with_disabled_registry():
    # The Fig. 8 guard: under a *disabled* ambient registry the peak-
    # throughput hot path must build the exact uninstrumented system —
    # no hooks, no instruments, and bit-identical results.
    from repro.obs.runtime import active_registry
    from repro.sdp.config import SDPConfig
    from repro.sdp.runner import run_spinning
    from repro.sdp.system import DataPlaneSystem

    config = SDPConfig(num_queues=16, workload="packet-encapsulation",
                       shape="FB", seed=0)
    with active_registry(MetricsRegistry(enabled=False)):
        system = DataPlaneSystem(config)
        assert system._obs is None
        assert system.doorbell_write_hooks == []
        assert system.completion_hooks == []
        guarded = run_spinning(
            config, closed_loop=True, target_completions=400, max_seconds=0.5
        )
    plain = run_spinning(
        config, closed_loop=True, target_completions=400, max_seconds=0.5
    )
    assert guarded.completed == plain.completed
    assert guarded.throughput_mtps == pytest.approx(plain.throughput_mtps)
