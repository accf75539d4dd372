"""The package holds the simulator and nothing else.

The frozen test oracles live in ``tests/oracles`` and the CI perf gates
in ``benchmarks/perf``; both run from a checkout of the repository, as
does the benchmark in ``hostbench``. An installed package has no
checkout to import them from, so nothing under ``src/repro`` may.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import repro

CHECKOUT_ONLY = {"tests", "benchmarks", "hostbench"}


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_nothing_from_the_checkout():
    package = Path(repro.__file__).parent
    offenders = sorted(
        f"{path.relative_to(package)} imports {root}"
        for path in package.rglob("*.py")
        for root in set(_imported_roots(path)) & CHECKOUT_ONLY
    )
    assert offenders == []


@pytest.mark.parametrize(
    "module", ["repro.bench", "repro.cluster._reference", "repro.mem._reference"]
)
def test_oracles_and_superseded_bench_are_not_in_the_package(module):
    assert importlib.util.find_spec(module) is None


# -- one scan-and-serve core --------------------------------------------------


def test_spinning_has_one_core_class():
    import repro.sdp.spinning as spinning

    assert not hasattr(spinning, "FastSpinningCore")


def test_mwait_core_is_a_spinning_core():
    from repro.sdp import MwaitCore, SpinningCore

    assert issubclass(MwaitCore, SpinningCore)


RUNNER_MODULES = {
    "run_spinning": "repro.sdp.runner",
    "run_mwait": "repro.sdp.runner",
    "run_hyperplane": "repro.core.runner",
}


def _process_wakes(runner, **traffic):
    """Generator-process resumptions of one run under an enabled registry."""
    from repro.obs.registry import MetricsRegistry
    from repro.obs.runtime import active_registry
    from repro.sdp import SDPConfig

    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        metrics = getattr(importlib.import_module(RUNNER_MODULES[runner]), runner)(
            SDPConfig(num_queues=16, num_cores=2, cluster_cores=1),
            target_completions=200,
            max_seconds=0.01,
            **traffic,
        )
    assert metrics.completed > 0
    return registry.as_dict()["sim.process_wakes"]["value"]


@pytest.mark.parametrize("runner", ["run_spinning", "run_mwait", "run_hyperplane"])
def test_closed_loop_core_runs_spawn_no_process(runner):
    # A closed loop refills from dequeue hooks, so no producer process
    # runs either: any generator resumption would come from a core.
    assert _process_wakes(runner, closed_loop=True) == 0


@pytest.mark.parametrize("runner", ["run_spinning", "run_hyperplane"])
def test_open_loop_runs_spawn_no_process(runner):
    # The open-loop producer is a callback chain too.
    assert _process_wakes(runner, load=0.5) == 0


def test_hyperplane_core_is_not_a_generator():
    path = Path(repro.__file__).parent / "core" / "dataplane.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    yields = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Yield, ast.YieldFrom))
    ]
    assert yields == []


def test_reference_rack_runs_the_generator_hyperplane_core():
    # The rack fuzz compares the package's HyperPlane core against the
    # frozen generator loop, not against itself.
    from repro.cluster.config import ClusterConfig
    from tests.oracles.cores import ReferenceHyperPlaneCore
    from tests.oracles.rack import ReferenceRack

    rack = ReferenceRack(
        ClusterConfig(num_servers=2, notification="hyperplane", queues_per_server=8)
    )
    cores = [core for server in rack.servers for core in server.cores]
    assert cores and {type(core) for core in cores} == {ReferenceHyperPlaneCore}


# -- components are observed through hook lists --------------------------------

# Observers subscribe to hook lists (completion_hooks, dispatch_hooks,
# delivery_hooks, dequeue_hooks); none may replace these methods on an
# instance instead.
OBSERVED_METHODS = {"complete", "dispatch", "enqueue", "dequeue_memory_cycles"}


def _assigned_targets(node):
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        else:
            yield target


def _replacements(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        for target in _assigned_targets(node):
            if isinstance(target, ast.Attribute) and target.attr in OBSERVED_METHODS:
                yield f"line {target.lineno}: assigns .{target.attr}"
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name.startswith("_original_"):
            yield f"line {node.lineno}: names {name}"


def test_package_replaces_no_method_to_observe_it():
    package = Path(repro.__file__).parent
    offenders = sorted(
        f"{path.relative_to(package)} {found}"
        for path in package.rglob("*.py")
        for found in set(_replacements(path))
    )
    assert offenders == []


# -- repro.dist speaks one protocol ---------------------------------------------

# Names of the removed wire-version and capability handshake.
REMOVED_DIST_NAMES = ("WIRE_VERSIONS", "CAPABILITIES", "TELEMETRY_CAPABILITY")


def test_dist_options_has_no_wire_knob():
    import dataclasses

    from repro.dist import DistOptions

    assert "wire" not in {field.name for field in dataclasses.fields(DistOptions)}


def test_dist_exports_no_handshake_names():
    import repro.dist
    import repro.dist.wire

    for name in REMOVED_DIST_NAMES:
        assert not hasattr(repro.dist, name), name
        assert name not in repro.dist.__all__, name
        assert not hasattr(repro.dist.wire, name), name


def _functions_calling(path, callee):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                yield f"{path.name}:{node.name}"
                break


def test_dist_has_one_retry_loop():
    # backoff_delay paces the re-sends of an unanswered request; one
    # function runs that loop for every caller.
    package = Path(repro.__file__).parent / "dist"
    callers = sorted(
        caller
        for path in package.rglob("*.py")
        for caller in set(_functions_calling(path, "backoff_delay"))
    )
    assert callers == ["wire.py:await_reply"]


# -- the dist worker runs the rack's own server and fault controller ------------


def test_dist_builds_no_server_of_its_own():
    # Servers, their links and their cores come from ClusterServer.
    package = Path(repro.__file__).parent / "dist"
    offenders = sorted(
        f"{caller} calls {callee}"
        for path in package.rglob("*.py")
        for callee in ("Link", "build_hyperplane", "build_spinning_cores")
        for caller in set(_functions_calling(path, callee))
    )
    assert offenders == []


def test_worker_server_replaces_only_delivery_and_completion_reporting():
    from repro.cluster.rack import ClusterServer
    from repro.dist.worker import WorkerServer

    assert WorkerServer.__bases__ == (ClusterServer,)
    own = {name for name in vars(WorkerServer) if not name.startswith("__")}
    assert own == {"deliver", "_on_complete"}


def _fault_state_assignments(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    constructors = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in constructors:
            continue
        for target in _assigned_targets(node):
            if isinstance(target, ast.Attribute) and target.attr in {
                "slow_factor",
                "degrade",
            }:
                yield f"line {target.lineno}: assigns .{target.attr}"


def test_only_the_controller_applies_faults():
    package = Path(repro.__file__).parent
    offenders = sorted(
        f"{path.relative_to(package)} {found}"
        for path in package.rglob("*.py")
        if path.relative_to(package) != Path("cluster", "controller.py")
        for found in set(_fault_state_assignments(path))
    )
    assert offenders == []


def test_step_windows_carry_no_fault_directives():
    from repro.dist.wire import decode_body, encode_frame

    step = {
        "type": "step",
        "seq": 1,
        "until": 2e-3,
        "windows": [
            {"start": 1e-3, "dispatches": [{"id": 1, "t": 1.5e-3, "flow": 3, "server": 0}]},
        ],
    }
    decoded = decode_body(encode_frame(step)[4:])
    assert [sorted(window) for window in decoded["windows"]] == [
        ["dispatches", "start"],
    ]


def test_dist_crosses_no_link_of_its_own():
    # A worker's dispatch crosses the link through ClusterServer.cross_link,
    # the rack's own arithmetic: service draw, transfer delay, delivery.
    package = Path(repro.__file__).parent / "dist"
    offenders = sorted(
        f"{caller} calls {callee}"
        for path in package.rglob("*.py")
        for callee in ("transfer_delay", "service_model")
        for caller in set(_functions_calling(path, callee))
    )
    assert offenders == []


# -- one fleet front end for the rack and the dist coordinator -----------------


def test_dist_builds_no_front_end_of_its_own():
    # Steering, membership, failover, client metrics and the client
    # draw come from repro.cluster.frontend.
    package = Path(repro.__file__).parent / "dist"
    offenders = sorted(
        f"{caller} calls {callee}"
        for path in package.rglob("*.py")
        for callee in ("LoadBalancer", "ClusterMetrics", "PoissonArrivals", "fault_schedule")
        for caller in set(_functions_calling(path, callee))
    )
    assert offenders == []


def test_coordinator_merges_no_event_streams_by_hand():
    # The front end's simulator orders membership, re-dispatch and
    # arrival; the coordinator keeps no heap of its own.
    path = Path(repro.__file__).parent / "dist" / "coordinator.py"
    assert "heapq" not in set(_imported_roots(path))


def _string_sets(path):
    """The strings of each module-level constant that is a literal
    tuple, list or set (or one wrapped in a call, like frozenset)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Call) and value.args:
            value = value.args[0]
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            yield {
                elt.value for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }


def test_one_load_oblivious_policy_constant():
    # The rack's sweep and the coordinator's lookahead read one set.
    package = Path(repro.__file__).parent
    owners = [
        path.relative_to(package)
        for path in sorted(package.rglob("*.py"))
        for names in _string_sets(path)
        if names == {"rss", "round-robin"}
    ]
    assert owners == [Path("cluster", "balancer.py")]
