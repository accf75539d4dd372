"""Run provenance: who produced a result, from what, and at what cost.

Every :class:`~repro.experiments.base.ExperimentResult` produced through
:func:`repro.experiments.registry.run_experiment` carries a
:class:`RunManifest`: the experiment id, the full configuration and its
content hash, the root seed, the repo version, wall time, and (when
metrics were enabled) the total simulation event count. Manifests are
what make an archived ``BENCH_*.json`` row reproducible — the config
hash pins *exactly* which knobs produced the numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

MANIFEST_SCHEMA_VERSION = 1

# Required manifest fields and their accepted types, for validation.
_REQUIRED_FIELDS: Dict[str, tuple] = {
    "schema": (int,),
    "experiment_id": (str,),
    "config": (dict,),
    "config_hash": (str,),
    "root_seed": (int,),
    "repro_version": (str,),
    "started_at": (int, float),
    "wall_seconds": (int, float),
    "sim_events": (int,),
    "metrics_enabled": (bool,),
}

# Optional fields: absent in manifests written by older builds.
# ``backend`` names the execution backend ("event" / "vec" /
# "surrogate" / "dist"); ``vec`` is the vec-backend provenance record
# (numpy version, oracle spot-check summary) from
# :func:`repro.vec.backend.vec_provenance`; ``dist`` is the dist-backend
# fleet record (worker count, transport, per-node manifests, worker
# faults) merged by :func:`repro.dist.run_cluster_dist` callers.
_OPTIONAL_FIELDS: Dict[str, tuple] = {
    "env_overrides": (dict,),
    "backend": (str,),
    "vec": (dict,),
    "dist": (dict,),
}

ENV_OVERRIDE_PREFIX = "REPRO_"


def env_overrides(environ: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The ``REPRO_*`` environment overrides in effect, sorted by name.

    These knobs (``REPRO_PROCESSES``, ...) change how a run executes
    without appearing in its config, so a manifest that omits them
    under-specifies the run.
    """
    source = os.environ if environ is None else environ
    return {
        key: str(source[key])
        for key in sorted(source)
        if key.startswith(ENV_OVERRIDE_PREFIX)
    }


def config_digest(experiment_id: str, config: Dict[str, Any]) -> str:
    """A stable sha256 over the experiment id + canonicalised config."""
    canonical = json.dumps(
        {"experiment_id": experiment_id, "config": config},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _repro_version() -> str:
    # Imported lazily: repro/__init__ imports this package at load time.
    try:
        import repro

        return repro.__version__
    except Exception:  # pragma: no cover - degenerate import orders
        return "unknown"


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one experiment run."""

    experiment_id: str
    config: Dict[str, Any]
    config_hash: str
    root_seed: int
    repro_version: str
    started_at: float
    wall_seconds: float
    sim_events: int = 0
    metrics_enabled: bool = False
    env_overrides: Dict[str, str] = field(default_factory=dict)
    backend: Optional[str] = None
    vec: Optional[Dict[str, Any]] = None
    dist: Optional[Dict[str, Any]] = None
    schema: int = MANIFEST_SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        experiment_id: str,
        config: Dict[str, Any],
        root_seed: int,
        wall_seconds: float,
        started_at: Optional[float] = None,
        sim_events: int = 0,
        metrics_enabled: bool = False,
        environ: Optional[Dict[str, str]] = None,
        backend: Optional[str] = None,
        vec: Optional[Dict[str, Any]] = None,
        dist: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """Build a manifest, deriving hash, version, timestamp, and the
        ``REPRO_*`` environment overrides in effect."""
        if started_at is None:
            started_at = now_wall()
        return cls(
            experiment_id=experiment_id,
            config=dict(config),
            config_hash=config_digest(experiment_id, config),
            root_seed=root_seed,
            repro_version=_repro_version(),
            started_at=started_at,
            wall_seconds=wall_seconds,
            sim_events=sim_events,
            metrics_enabled=metrics_enabled,
            env_overrides=env_overrides(environ),
            backend=backend,
            vec=vec,
            dist=dist,
        )

    def to_dict(self) -> Dict[str, Any]:
        # Optional provenance that was not recorded is omitted rather
        # than serialised as null, so older readers see the old shape.
        data = asdict(self)
        for key in ("backend", "vec", "dist"):
            if data.get(key) is None:
                del data[key]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        problems = manifest_problems(data)
        if problems:
            raise ValueError("invalid manifest: " + "; ".join(problems))
        known = set(_REQUIRED_FIELDS) | set(_OPTIONAL_FIELDS)
        return cls(**{key: value for key, value in data.items() if key in known})


def now_wall() -> float:
    """Wall-clock time for manifest stamps (isolated for testability)."""
    return time.time()


def manifest_problems(data: Any) -> List[str]:
    """Schema violations in a parsed manifest dict (empty = valid)."""
    if not isinstance(data, dict):
        return [f"manifest must be a JSON object, got {type(data).__name__}"]
    problems = []
    for key, types in _REQUIRED_FIELDS.items():
        if key not in data:
            problems.append(f"missing field {key!r}")
            continue
        value = data[key]
        # bool is an int subclass; only accept it where bool is expected.
        well_typed = isinstance(value, types) and (
            not isinstance(value, bool) or bool in types
        )
        if not well_typed:
            problems.append(
                f"field {key!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    for key, types in _OPTIONAL_FIELDS.items():
        if key in data and not isinstance(data[key], types):
            problems.append(
                f"field {key!r} has type {type(data[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if not problems:
        if data["schema"] > MANIFEST_SCHEMA_VERSION or data["schema"] < 1:
            problems.append(
                f"unsupported schema version {data['schema']} "
                f"(this build reads 1..{MANIFEST_SCHEMA_VERSION})"
            )
        expected = config_digest(data["experiment_id"], data["config"])
        if data["config_hash"] != expected:
            problems.append(
                f"config_hash mismatch: manifest says {data['config_hash'][:12]}..., "
                f"config hashes to {expected[:12]}..."
            )
    return problems


def validate_manifest(data: Any) -> Dict[str, Any]:
    """Raise ``ValueError`` on an invalid manifest; return it otherwise."""
    problems = manifest_problems(data)
    if problems:
        raise ValueError("invalid manifest: " + "; ".join(problems))
    return data
