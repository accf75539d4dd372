"""Experiment configuration and the paper's Table I constants."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mem.costmodel import CostModel, derive_cost_model
from repro.sim.clock import Clock
from repro.workloads.service import WorkloadSpec, workload_by_name

# Paper, Table I — microarchitecture details of the evaluated CMP.
TABLE1 = {
    "core": "8-wide issue OoO, 192/32-entry ROB/LSQ",
    "l1": "Private, 32 KB, 64 B lines, 4-way SA",
    "llc": "1 MB per core, 64 B lines, 16-way SA",
    "cmp": "16 cores, directory-based MESI coherence",
    "hyperplane": "1024-entry monitoring and ready set",
}

MONITORING_SET_ENTRIES = 1024
READY_SET_ENTRIES = 1024
CHIP_CORES = 16

# Instruction-count model for IPC accounting (Section V-D figures).
# A poll iteration is ~20 instructions (PMD call, load head, compare,
# index arithmetic, branch); task processing on an 8-wide OoO core
# commits with IPC ~1.2; L1-resident spinning commits near IPC 2
# ("modern cores can spin with high IPC").
INSTRUCTIONS_PER_POLL = 20
USEFUL_TASK_IPC = 1.2
QWAIT_PATH_INSTRUCTIONS = 24  # QWAIT + VERIFY + RECONSIDER wrapper code


@dataclass
class SDPConfig:
    """Configuration of one data-plane simulation.

    Parameters
    ----------
    num_queues:
        Total device-side queues (the paper sweeps up to 1000).
    workload:
        One of the six evaluation workloads (name or spec).
    shape:
        Traffic shape name: FB / PC / NC / SQ.
    num_cores:
        Data-plane cores (the paper uses 1-4).
    cluster_cores:
        Cores per cluster: 1 = scale-out, num_cores = full scale-up,
        2 = the paper's scale-up-2.
    imbalance:
        Static hot-queue load imbalance across clusters (0.10 = the
        paper's "10% imbalance" variant).
    service_scv:
        Override the workload's service-time SCV (None = spec default).
    power_optimized:
        HyperPlane only: enter C1 when halted (adds wake-up latency).
    spurious_wake_rate:
        HyperPlane only: fraction of doorbell writes that additionally
        trigger a spurious wake-up on a random armed queue (models false
        sharing; exercises QWAIT-VERIFY).
    seed:
        Root seed for all random streams.
    """

    num_queues: int
    workload: WorkloadSpec | str = "packet-encapsulation"
    shape: str = "FB"
    num_cores: int = 1
    cluster_cores: Optional[int] = None
    imbalance: float = 0.0
    service_scv: Optional[float] = None
    power_optimized: bool = False
    spurious_wake_rate: float = 0.0
    queue_capacity: int = 16384
    seed: int = 0
    clock: Clock = field(default_factory=Clock)
    cost_model: CostModel = field(default_factory=derive_cost_model)

    def __post_init__(self):
        if isinstance(self.workload, str):
            self.workload = workload_by_name(self.workload)
        if self.num_queues <= 0:
            raise ValueError("need at least one queue")
        if self.num_cores <= 0:
            raise ValueError("need at least one data-plane core")
        if self.cluster_cores is None:
            self.cluster_cores = self.num_cores  # default: full scale-up
        if self.cluster_cores < 1:
            raise ValueError("need at least one core per cluster")
        if self.num_cores % self.cluster_cores:
            raise ValueError("cluster_cores must divide num_cores")
        if not 0.0 <= self.imbalance < 1.0:
            raise ValueError("imbalance must be in [0, 1)")
        if not 0.0 <= self.spurious_wake_rate < 1.0:
            raise ValueError("spurious_wake_rate must be in [0, 1)")

    @property
    def num_clusters(self) -> int:
        """Number of independent queue partitions."""
        return self.num_cores // self.cluster_cores

    @property
    def organization(self) -> str:
        """Human-readable organization name (paper's terminology)."""
        if self.cluster_cores == 1:
            return "scale-out"
        return f"scale-up-{self.cluster_cores}"
