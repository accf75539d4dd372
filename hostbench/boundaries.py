"""Call-boundary tracing for the traced benchmark run.

The traced run wraps the public functions and methods through which
the workloads enter each layer (``mem``, ``sim``, ``sdp``, ``core``,
``traffic``, ``cluster``, ``dist``, ``obs``), patching them at class or
module level from here and restoring the originals afterwards. Each
call records one span ``[name, start, end, parent, run, note]``: host
``perf_counter`` seconds, the index of the enclosing span (``-1`` at
top level), the workload run in progress, and an optional value the
boundary returns (frame bytes, CPU seconds). Spans stay in memory and
are written out when the repetition ends.

Times reported per layer are inclusive: a span's duration covers the
spans nested in it. Two things cannot be seen from call boundaries:
how ``Rack.run`` splits between rack-level and per-server work, and
anything inside a dist worker process.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List

from hostbench.workloads import OBSERVED_EPISODES, RACK_EPISODES, REPLAY_BALANCERS

# (span name, module, attribute); "Class.method" patches the class,
# a bare name patches the function in every module that imported it.
BOUNDARIES = (
    ("mem.curve", "repro.mem.costmodel", "empty_poll_cost_curve"),
    ("sdp.build", "repro.sdp.system", "DataPlaneSystem.__init__"),
    ("sdp.run", "repro.sdp.system", "DataPlaneSystem.run"),
    ("sdp.check", "repro.sdp.system", "DataPlaneSystem.check_invariants"),
    ("core.build", "repro.core.dataplane", "build_hyperplane"),
    ("core.wakeup_check", "repro.core.accelerator", "HyperPlaneAccelerator.check_no_lost_wakeups"),
    ("cluster.build", "repro.cluster.rack", "Rack.__init__"),
    ("cluster.run", "repro.cluster.rack", "Rack.run"),
    ("cluster.check", "repro.cluster.rack", "Rack.check_invariants"),
    ("cluster.dispatch", "repro.cluster.balancer", "LoadBalancer.dispatch"),
    ("cluster.failover", "repro.cluster.rack", "Rack.crash_server"),
    ("cluster.failover", "repro.cluster.rack", "Rack.restart_server"),
    ("cluster.failover", "repro.cluster.rack", "Rack.redispatch"),
    ("dist.run", "repro.dist.coordinator", "run_cluster_dist"),
    ("dist.spawn", "repro.dist.coordinator", "WorkerPool.__init__"),
    ("dist.broadcast", "repro.dist.coordinator", "WorkerPool.broadcast"),
    ("dist.close", "repro.dist.coordinator", "WorkerPool.close"),
    ("dist.send", "repro.dist.wire", "Channel.send"),
    ("dist.recv", "repro.dist.wire", "Channel.recv"),
    ("dist.encode", "repro.dist.wire", "encode_frame"),
    ("dist.decode", "repro.dist.wire", "decode_body"),
    ("obs.instrument", "repro.obs.probes", "instrument_system"),
    ("obs.instrument", "repro.obs.probes", "instrument_rack"),
    ("obs.instrument", "repro.obs.trace_probes", "maybe_trace_system"),
    ("obs.instrument", "repro.obs.trace_probes", "maybe_trace_rack"),
    ("obs.export", "repro.obs.export", "to_jsonl"),
    ("obs.export", "repro.obs.export", "to_prometheus"),
    ("obs.export", "repro.obs.trace_export", "spans_to_jsonl"),
    ("obs.export", "repro.obs.trace_export", "to_chrome_trace"),
    ("obs.telemetry_ingest", "repro.obs.live", "TelemetryBus.ingest_all"),
)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _cpu_before(_args):
    return time.process_time(), _cpu_s(resource.RUSAGE_CHILDREN)


def _cpu_after(_args, _result, before):
    process, children = before
    return [time.process_time() - process, _cpu_s(resource.RUSAGE_CHILDREN) - children]


class BoundaryTracer:
    """Patches the boundaries, records spans, and undoes the patches."""

    def __init__(self, run_id: Callable[[], int]):
        self.run_id = run_id
        self.spans: List[list] = []
        self._open: List[int] = []
        self._undo: List[tuple] = []
        self._traced_functions: Dict[int, Any] = {}
        self._configured = set()

    def _first_broadcast(self, args, _result, _state):
        pool = id(args[0])
        if pool in self._configured:
            return "exchange"
        self._configured.add(pool)
        return "configure"

    def wrap(self, name: str, fn, before=None, after=None):
        spans, open_spans, run_id = self.spans, self._open, self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1, run_id(), None]
            open_spans.append(len(spans))
            spans.append(span)
            state = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if after is not None:
                span[5] = after(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "BoundaryTracer":
        hooks = {
            "dist.run": (_cpu_before, _cpu_after),
            "dist.broadcast": (None, self._first_broadcast),
            "dist.encode": (None, lambda _a, result, _s: len(result)),
        }
        for name, module_name, attribute in BOUNDARIES:
            module = importlib.import_module(module_name)
            before, after = hooks.get(name, (None, None))
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._undo.append((owner, method, original))
                setattr(owner, method, self.wrap(name, original, before, after))
                continue
            original = getattr(module, attribute)
            traced = self.wrap(name, original, before, after)
            self._traced_functions[id(traced)] = original
            self._swap_functions({id(original): traced})
        return self

    @staticmethod
    def _swap_functions(replacements: Dict[int, Any]) -> None:
        """Rebind, in every loaded repro or benchmark module, each
        global whose value is a key of ``replacements``."""
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith(("repro", "hostbench")):
                continue
            for key, value in list(vars(loaded).items()):
                if id(value) in replacements:
                    setattr(loaded, key, replacements[id(value)])

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
        # Also unbinds wrappers that modules imported after install().
        self._swap_functions(self._traced_functions)
        self._traced_functions = {}

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "run", "note")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def median_and_tail(values: List[float]):
    """Median and the highest percentile with ten samples beyond it
    (the maximum when there are fewer than eleven samples)."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    tail = ordered[-11] if len(ordered) >= 11 else ordered[-1]
    return statistics.median(ordered), tail


def layer_metrics(
    spans: List[list],
    records: List[Dict[str, Any]],
    curve_info: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition.

    A boundary that saw no call reports zero, so every workload prints
    the same set of names.
    """

    def inside(span, name) -> bool:
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
        if not inside(span, span[0]):  # count a re-entered boundary once
            total[span[0]] = total.get(span[0], 0.0) + span[2] - span[1]

    def seconds(name: str) -> float:
        return total.get(name, 0.0)

    def per_req_us(host_s: float, requests: int) -> float:
        return host_s / requests * 1e6 if requests else 0.0

    def by_run(name: str, prefix: str) -> Dict[int, float]:
        runs: Dict[int, float] = {}
        for span in spans:
            if span[0] == name and 0 <= span[4] < len(records):
                if records[span[4]]["label"].startswith(prefix):
                    runs[span[4]] = runs.get(span[4], 0.0) + span[2] - span[1]
        return runs

    def run_cost(name: str, prefix: str):
        runs = by_run(name, prefix)
        return sum(runs.values()), sum(records[i]["requests"] for i in runs)

    def count(key: str) -> int:
        return sum(record["counts"].get(key, 0) for record in records)

    metrics: Dict[str, float] = {}
    in_process = [r for r in records if r["events"]]
    events = sum(r["events"] for r in in_process)
    in_process_requests = sum(r["requests"] for r in in_process)

    metrics["mem.curve_s"] = seconds("mem.curve")
    metrics["mem.curve_misses"] = curve_info["misses"]
    metrics["mem.curve_hits"] = curve_info["hits"]
    metrics["sim.events"] = events
    metrics["sim.events_per_req"] = events / in_process_requests if in_process_requests else 0.0

    spin_s, spin_requests = run_cost("sdp.run", "spinning")
    hp_s, hp_requests = run_cost("sdp.run", "hyperplane")
    run_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "sdp.run"]
    metrics["sdp.build_s"] = seconds("sdp.build")
    metrics["sdp.spin_run_s"] = spin_s
    metrics["sdp.spin_us_per_req"] = per_req_us(spin_s, spin_requests)
    metrics["sdp.run_ms_p50"], metrics["sdp.run_ms_tail"] = median_and_tail(run_ms)
    metrics["sdp.check_s"] = seconds("sdp.check")

    metrics["core.build_s"] = seconds("core.build")
    metrics["core.hp_run_s"] = hp_s
    metrics["core.hp_us_per_req"] = per_req_us(hp_s, hp_requests)
    metrics["core.wakeup_check_s"] = seconds("core.wakeup_check")

    metrics["traffic.generated"] = sum(r["generated"] for r in records)
    metrics["traffic.dropped"] = sum(r["dropped"] for r in records)

    metrics["cluster.build_s"] = seconds("cluster.build")
    metrics["cluster.run_s"] = seconds("cluster.run")
    for episode in RACK_EPISODES:
        host_s, requests = run_cost("cluster.run", f"cluster:{episode}")
        metrics[f"cluster.us_per_req.{episode}"] = per_req_us(host_s, requests)
    metrics["cluster.dispatch_calls"] = calls.get("cluster.dispatch", 0)
    metrics["cluster.dispatch_s"] = seconds("cluster.dispatch")
    metrics["cluster.failover_calls"] = calls.get("cluster.failover", 0)
    metrics["cluster.failover_s"] = seconds("cluster.failover")
    metrics["cluster.redispatched"] = count("redispatched")
    metrics["cluster.lost"] = count("lost")
    metrics["cluster.check_s"] = seconds("cluster.check")

    configure = [s for s in spans if s[0] == "dist.broadcast" and s[5] == "configure"]
    exchange_ms = [
        (s[2] - s[1]) * 1e3 for s in spans if s[0] == "dist.broadcast" and s[5] == "exchange"
    ]
    dist_runs = [s for s in spans if s[0] == "dist.run"]
    fleet_s = sum(
        s[2] - s[1]
        for s in spans
        if s[0] in ("dist.spawn", "dist.broadcast", "dist.close") and inside(s, "dist.run")
    )
    replay_requests = sum(r["requests"] for r in records if r["label"].startswith("dist:"))
    exchanges, windows = count("exchanges"), count("windows")
    metrics["dist.spawn_s"] = seconds("dist.spawn")
    metrics["dist.configure_s"] = sum(s[2] - s[1] for s in configure)
    metrics["dist.exchanges"] = exchanges
    metrics["dist.windows"] = windows
    metrics["dist.windows_per_exchange"] = windows / exchanges if exchanges else 0.0
    metrics["dist.exchange_ms_p50"], metrics["dist.exchange_ms_tail"] = median_and_tail(
        exchange_ms
    )
    metrics["dist.send_s"] = seconds("dist.send")
    metrics["dist.recv_s"] = seconds("dist.recv")
    metrics["dist.encode_s"] = seconds("dist.encode")
    metrics["dist.decode_s"] = seconds("dist.decode")
    encoded = sum(s[5] for s in spans if s[0] == "dist.encode")
    metrics["dist.bytes_per_req"] = encoded / replay_requests if replay_requests else 0.0
    metrics["dist.coord_cpu_s"] = sum(s[5][0] for s in dist_runs)
    metrics["dist.worker_cpu_s"] = sum(s[5][1] for s in dist_runs)
    metrics["dist.steer_fold_s"] = seconds("dist.run") - fleet_s
    for balancer in REPLAY_BALANCERS:
        runs = by_run("dist.run", f"dist:{balancer}")
        set_up = by_run("dist.spawn", f"dist:{balancer}")
        for span in configure:
            if span[4] in set_up:
                set_up[span[4]] += span[2] - span[1]
        host_s = sum(runs.values()) - sum(set_up.values())
        requests = sum(records[i]["requests"] for i in runs)
        metrics[f"dist.us_per_req.{balancer}"] = per_req_us(host_s, requests)

    metrics["obs.instrument_s"] = seconds("obs.instrument")
    for episode in OBSERVED_EPISODES:
        host_s, requests = run_cost("cluster.run", f"obs:{episode}")
        metrics[f"obs.us_per_req.{episode}"] = per_req_us(host_s, requests)
    metrics["obs.spans"] = count("spans")
    metrics["obs.spans_dropped"] = count("spans_dropped")
    metrics["obs.series"] = count("series")
    metrics["obs.export_s"] = seconds("obs.export")
    metrics["obs.export_bytes"] = count("export_bytes")
    metrics["obs.telemetry_frames"] = count("telemetry_frames")
    metrics["obs.telemetry_ingest_s"] = seconds("obs.telemetry_ingest")
    return metrics

