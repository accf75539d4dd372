"""Run-manifest capture, validation, and result-JSON round-trips."""

import json

import pytest

from repro.experiments.base import RESULT_SCHEMA_VERSION, ExperimentResult
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_digest,
    env_overrides,
    manifest_problems,
    validate_manifest,
)


def sample_manifest() -> RunManifest:
    return RunManifest.capture(
        experiment_id="fig9a",
        config={"fast": True, "seed": 7, "panel": "a"},
        root_seed=7,
        started_at=1700000000.0,
        wall_seconds=1.5,
        sim_events=4242,
        metrics_enabled=True,
    )


def test_capture_fills_derived_fields():
    manifest = sample_manifest()
    assert manifest.schema == MANIFEST_SCHEMA_VERSION
    assert manifest.config_hash == config_digest("fig9a", manifest.config)
    assert manifest.repro_version  # whatever the package says, non-empty


def test_config_digest_is_stable_and_order_independent():
    a = config_digest("x", {"fast": True, "seed": 1})
    b = config_digest("x", {"seed": 1, "fast": True})
    assert a == b
    assert config_digest("x", {"fast": False, "seed": 1}) != a
    assert config_digest("y", {"fast": True, "seed": 1}) != a


def test_manifest_roundtrips_through_dict_and_json():
    manifest = sample_manifest()
    assert RunManifest.from_dict(manifest.to_dict()) == manifest
    assert RunManifest.from_dict(json.loads(manifest.to_json())) == manifest


def test_validate_accepts_good_manifest():
    data = sample_manifest().to_dict()
    assert validate_manifest(data) is data
    assert manifest_problems(data) == []


def test_validation_catches_missing_fields():
    data = sample_manifest().to_dict()
    del data["config_hash"]
    assert any("config_hash" in problem for problem in manifest_problems(data))


def test_validation_catches_type_errors():
    data = sample_manifest().to_dict()
    data["sim_events"] = "many"
    assert any("sim_events" in problem for problem in manifest_problems(data))


def test_validation_rejects_bool_masquerading_as_int():
    data = sample_manifest().to_dict()
    data["root_seed"] = True  # bool is an int subclass; must be rejected
    assert any("root_seed" in problem for problem in manifest_problems(data))


def test_validation_catches_hash_mismatch():
    data = sample_manifest().to_dict()
    data["config"]["seed"] = 8  # config edited after hashing
    assert any("config_hash" in problem for problem in manifest_problems(data))


def test_validation_rejects_future_schema():
    data = sample_manifest().to_dict()
    data["schema"] = MANIFEST_SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        validate_manifest(data)


def test_validation_rejects_non_dict():
    assert manifest_problems([1, 2, 3])


# -- environment overrides ---------------------------------------------------


def test_env_overrides_keep_only_repro_keys_sorted():
    environ = {
        "REPRO_PROCESSES": "4",
        "PATH": "/usr/bin",
        "REPRO_FUTURE_KNOB": "0",
        "HOME": "/root",
    }
    assert env_overrides(environ) == {
        "REPRO_FUTURE_KNOB": "0",
        "REPRO_PROCESSES": "4",
    }


def test_capture_records_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_PROCESSES", "2")
    manifest = sample_manifest()
    assert manifest.env_overrides["REPRO_PROCESSES"] == "2"
    # An explicit environ bypasses os.environ entirely.
    pinned = RunManifest.capture(
        experiment_id="fig9a",
        config={"fast": True},
        root_seed=0,
        wall_seconds=0.1,
        environ={"REPRO_FUTURE_KNOB": "1", "TERM": "dumb"},
    )
    assert pinned.env_overrides == {"REPRO_FUTURE_KNOB": "1"}


def test_backend_and_vec_provenance_roundtrip_and_validate():
    oracle = {
        "metric": "throughput_mtps",
        "sample_indices": [3, 17],
        "rel_errors": [0.021, 0.034],
        "max_rel_error": 0.034,
        "tolerance": 0.12,
        "passed": True,
    }
    manifest = RunManifest.capture(
        experiment_id="fig8",
        config={"fast": True, "backend": "surrogate"},
        root_seed=0,
        wall_seconds=0.2,
        backend="surrogate",
        vec={"backend": "surrogate", "numpy": "1.26.4", "oracle": oracle},
    )
    data = manifest.to_dict()
    assert manifest_problems(data) == []
    restored = RunManifest.from_dict(data)
    assert restored == manifest
    assert restored.backend == "surrogate"
    assert restored.vec["oracle"]["sample_indices"] == [3, 17]
    # Parser round-trip through JSON (what --metrics-out writes).
    assert RunManifest.from_dict(json.loads(manifest.to_json())).vec == manifest.vec
    # Manifests from event-backend runs and older builds omit both
    # fields and still validate/load.
    legacy = {k: v for k, v in data.items() if k not in ("backend", "vec")}
    assert manifest_problems(legacy) == []
    assert RunManifest.from_dict(legacy).backend is None
    assert RunManifest.from_dict(legacy).vec is None
    # Present-and-mistyped fields are rejected.
    assert any(
        "backend" in problem
        for problem in manifest_problems(dict(data, backend=3))
    )
    assert any(
        "vec" in problem
        for problem in manifest_problems(dict(data, vec="numpy"))
    )


def test_event_backend_manifest_omits_vec_record():
    manifest = RunManifest.capture(
        experiment_id="fig9a",
        config={"fast": True},
        root_seed=0,
        wall_seconds=0.1,
    )
    data = manifest.to_dict()
    assert "backend" not in data and "vec" not in data
    assert manifest_problems(data) == []


def test_env_overrides_roundtrip_and_validate():
    manifest = RunManifest.capture(
        experiment_id="fig9a",
        config={"fast": True},
        root_seed=0,
        wall_seconds=0.1,
        environ={"REPRO_PROCESSES": "8"},
    )
    data = manifest.to_dict()
    assert manifest_problems(data) == []
    assert RunManifest.from_dict(data) == manifest
    # Manifests from builds predating env_overrides still validate/load.
    legacy = {k: v for k, v in data.items() if k != "env_overrides"}
    assert manifest_problems(legacy) == []
    assert RunManifest.from_dict(legacy).env_overrides == {}
    # But a present-and-mistyped field is rejected.
    bad = dict(data, env_overrides="REPRO_PROCESSES=8")
    assert any("env_overrides" in problem for problem in manifest_problems(bad))


# -- ExperimentResult serialisation -----------------------------------------


def test_result_roundtrips_manifest():
    result = ExperimentResult("fig9a", "title", rows=[{"x": 1}], notes=["n"])
    result.manifest = sample_manifest()
    payload = result.to_json()
    assert json.loads(payload)["schema"] == RESULT_SCHEMA_VERSION
    restored = ExperimentResult.from_json(payload)
    assert restored.manifest == result.manifest
    assert restored.rows == result.rows


def test_result_tolerates_schema1_payload_without_optional_keys():
    # Pre-observability archives: no schema key, no rows/notes/manifest.
    restored = ExperimentResult.from_json(
        json.dumps({"experiment_id": "old", "title": "Old"})
    )
    assert restored.rows == []
    assert restored.notes == []
    assert restored.manifest is None


def test_result_rejects_unknown_schema():
    payload = json.dumps(
        {"schema": RESULT_SCHEMA_VERSION + 1, "experiment_id": "x", "title": "t"}
    )
    with pytest.raises(ValueError):
        ExperimentResult.from_json(payload)
