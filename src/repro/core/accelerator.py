"""HyperPlane accelerator wiring.

Connects the monitoring set to the system's doorbell write path (the
fast-simulation equivalent of snooping GetM transactions at the
directory), maintains one ready set per cluster (the paper's partitioned
comparison: scale-out / scale-up-2 HyperPlane only returns a core's own
queue subset), and manages halted cores: when a monitored doorbell
fires, the matched QID is activated in its cluster's ready set and one
halted core of that cluster is woken.

Also implements the control plane: QWAIT_init (doorbell address range +
service policy), QWAIT-ADD with driver-side reallocation on a Cuckoo
conflict, and QWAIT-REMOVE.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.monitoring_set import CuckooMonitoringSet
from repro.core.policies import policy_by_name
from repro.core.ready_set import HardwareReadySet, ReadySet, SoftwareReadySet
from repro.mem.address import line_address
from repro.queueing.doorbell import Doorbell
from repro.sdp.system import Cluster, DataPlaneSystem
from repro.sim.events import Event

# Monitoring set over-provisioning vs. the live doorbell count
# (Section IV-A: 5-10% over-provisioning makes conflicts negligible).
OVERPROVISION = 1.10


class HyperPlaneAccelerator:
    """The shared notification subsystem.

    Parameters
    ----------
    system:
        The data-plane substrate to attach to.
    policy:
        Service policy name: "rr" (default), "wrr", or "strict".
    weights:
        Per-QID weights for the "wrr" policy.
    software_ready_set:
        Use the software iterator implementation (Fig. 13 comparison).
    monitoring_entries:
        Monitoring-set capacity; default is Table I's 1024 entries or
        10%-over-provisioned queue count, whichever is larger.
    """

    def __init__(
        self,
        system: DataPlaneSystem,
        policy: str = "rr",
        weights: Optional[Dict[int, int]] = None,
        software_ready_set: bool = False,
        monitoring_entries: Optional[int] = None,
    ):
        self.system = system
        config = system.config
        if monitoring_entries is None:
            needed = int(config.num_queues * OVERPROVISION) + 4
            monitoring_entries = max(1024, needed + (-needed % 4))
        self.monitoring = CuckooMonitoringSet(
            capacity=monitoring_entries, ways=4, seed=config.seed
        )
        self.policy_name = policy
        ready_cls = SoftwareReadySet if software_ready_set else HardwareReadySet
        self.ready_sets: Dict[int, ReadySet] = {}
        self._cluster_of_qid: Dict[int, Cluster] = {}
        width = config.num_queues
        for cluster in system.clusters:
            self.ready_sets[cluster.plan.cluster_id] = ready_cls(
                capacity=width, policy=policy_by_name(policy, width, weights)
            )
            for qid in cluster.plan.queue_ids:
                self._cluster_of_qid[qid] = cluster

        # Halted cores, per cluster: (core_id, wake event) FIFO.
        self._halted: Dict[int, Deque[Tuple[int, Event]]] = {
            cluster.plan.cluster_id: deque() for cluster in system.clusters
        }
        self._tag_of_qid: Dict[int, int] = {}
        # When any core runs with work stealing, activations may wake
        # halted cores in *other* clusters (set by build_hyperplane).
        self.work_stealing_enabled = False
        self.reallocations = 0
        self.spurious_injected = 0
        self._spurious_rate = config.spurious_wake_rate
        self._spurious_rng = system.streams.stream("spurious-wakes")

        self._register_doorbells()
        system.doorbell_write_hooks.append(self._on_doorbell_write)

    # -- control plane ---------------------------------------------------------

    def _register_doorbells(self) -> None:
        """QWAIT-ADD every queue's doorbell, reallocating on conflict."""
        for doorbell in self.system.doorbells:
            tag = line_address(doorbell.address)
            attempts = 0
            while not self.monitoring.insert(tag, doorbell.qid, armed=True):
                # Driver-side conflict handling: allocate a fresh doorbell
                # address and retry (paper, Section IV-A).
                attempts += 1
                if attempts > 64:
                    raise RuntimeError("monitoring set cannot place doorbell")
                self.system.doorbell_region.free(doorbell.address)
                doorbell.address = self.system.doorbell_region.allocate()
                tag = line_address(doorbell.address)
                self.reallocations += 1
            self._tag_of_qid[doorbell.qid] = tag
            if not doorbell.is_empty():
                # The queue already has work at connect time (the driver's
                # post-ADD verify): consume the arm and activate directly,
                # as the arrival's write transaction happened before we
                # started snooping.
                self.monitoring.snoop_write(tag)
                self._activate(doorbell.qid)

    def remove_queue(self, qid: int) -> None:
        """QWAIT-REMOVE: stop monitoring a departing tenant's queue."""
        tag = self._tag_of_qid.pop(qid, None)
        if tag is None:
            raise KeyError(f"qid {qid} is not registered")
        self.monitoring.remove(tag)
        cluster = self._cluster_of_qid[qid]
        self.ready_sets[cluster.plan.cluster_id].deactivate(qid)

    # -- snoop path --------------------------------------------------------------

    def _on_doorbell_write(self, doorbell: Doorbell) -> None:
        # The tag QWAIT-ADD registered; a removed queue's line is no
        # longer monitored, so its write stays a snoop miss.
        tag = self._tag_of_qid.get(doorbell.qid)
        if tag is None:
            tag = line_address(doorbell.address)
        qid = self.monitoring.snoop_write(tag)
        if qid is not None:
            self._activate(qid)
        rate = self._spurious_rate
        if rate and self._spurious_rng.random() < rate:
            self._inject_spurious_wake()

    def _inject_spurious_wake(self) -> None:
        """Model a false-sharing write: activate a random armed queue that
        has no work. QWAIT-VERIFY must filter it."""
        empty_qids = [
            qid
            for qid, tag in self._tag_of_qid.items()
            if self.monitoring.is_armed(tag) and self.system.doorbells[qid].is_empty()
        ]
        if not empty_qids:
            return
        qid = self._spurious_rng.choice(empty_qids)
        self.monitoring.snoop_write(self._tag_of_qid[qid])
        self.spurious_injected += 1
        self._activate(qid)

    def _activate(self, qid: int) -> None:
        cluster = self._cluster_of_qid[qid]
        home = cluster.plan.cluster_id
        self.ready_sets[home].activate(qid)
        halted = self._halted[home]
        if not halted and self.work_stealing_enabled:
            # No local core to wake: wake a halted core elsewhere so it
            # can steal this QID (NUMA work-stealing deployment).
            for cluster_id, candidates in self._halted.items():
                if cluster_id != home and candidates:
                    halted = candidates
                    break
        if halted:
            _core_id, event = halted.popleft()
            # Decouple the wake from the producer's call stack.
            self.system.sim.schedule(0.0, event.trigger, qid)

    # -- data-plane-core interface -------------------------------------------------

    def ready_set_of(self, cluster: Cluster) -> ReadySet:
        return self.ready_sets[cluster.plan.cluster_id]

    def qwait_try(self, cluster: Cluster) -> Optional[int]:
        """Non-blocking QWAIT: next QID per policy, or None (reserved id)."""
        return self.ready_set_of(cluster).select_and_take()

    def qwait_steal(self, home_cluster: Cluster) -> Optional[int]:
        """Work stealing (Section III-B future work): pull a ready QID
        from another cluster's ready set when the local one is empty.

        The stolen QID's RECONSIDER still re-activates it in its *home*
        ready set, so ownership of the queue does not migrate.
        """
        home = home_cluster.plan.cluster_id
        for cluster_id, ready_set in self.ready_sets.items():
            if cluster_id == home:
                continue
            qid = ready_set.select_and_take()
            if qid is not None:
                return qid
        return None

    def halt(self, cluster: Cluster, core_id: int) -> Event:
        """Register a core as halted; returns the event that wakes it."""
        event = Event(f"qwait-halt-core{core_id}")
        self._halted[cluster.plan.cluster_id].append((core_id, event))
        return event

    # -- atomic protocol instructions ----------------------------------------------

    def qwait_verify(self, qid: int) -> bool:
        """QWAIT-VERIFY: True if the queue has work; otherwise atomically
        re-arm it in the monitoring set (spurious wake filtered)."""
        doorbell = self.system.doorbells[qid]
        if doorbell.is_empty():
            self.monitoring.arm(self._tag_of_qid[qid])
            return False
        return True

    def qwait_reconsider(self, qid: int) -> None:
        """QWAIT-RECONSIDER: atomically re-arm (empty) or re-activate
        (more work queued) after a dequeue."""
        doorbell = self.system.doorbells[qid]
        if doorbell.is_empty():
            self.monitoring.arm(self._tag_of_qid[qid])
        else:
            self._activate(qid)

    def qwait_enable(self, qid: int) -> None:
        """QWAIT-ENABLE: lift a temporary service inhibition."""
        cluster = self._cluster_of_qid[qid]
        self.ready_set_of(cluster).enable(qid)

    def qwait_disable(self, qid: int) -> None:
        """QWAIT-DISABLE: temporarily inhibit servicing a queue."""
        cluster = self._cluster_of_qid[qid]
        self.ready_set_of(cluster).disable(qid)

    # -- invariants -------------------------------------------------------------------

    def check_no_lost_wakeups(self, being_serviced: Optional[set] = None) -> None:
        """At quiescence every non-empty queue must be visible.

        A non-empty queue must either be in its ready set or be actively
        held by a core (``being_serviced``). A non-empty queue that is
        merely *armed* would sleep until the next arrival — the lost-
        wake-up bug the atomic RECONSIDER exists to prevent.
        """
        held = being_serviced or set()
        for doorbell in self.system.doorbells:
            if doorbell.is_empty() or doorbell.qid in held:
                continue
            cluster = self._cluster_of_qid[doorbell.qid]
            if not self.ready_set_of(cluster).is_ready(doorbell.qid):
                raise AssertionError(
                    f"lost wake-up: queue {doorbell.qid} has "
                    f"{doorbell.count} items but is not ready"
                )
