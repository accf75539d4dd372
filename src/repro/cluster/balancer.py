"""Front-end load balancing: RSS hashing vs. load-aware per-request policies.

The base layer is *per-flow consistent hashing*: every flow has a
deterministic position on a virtual-node hash ring, and the ``rss``
policy steers purely by it — the software analogue of NIC RSS.
Placement is sticky (connection affinity) and ignores load entirely;
when a server fails, only its own flows move (to ring successors).

The alternative policies are classic L4 balancers that pick a server
*per request* among the live set:

- ``round-robin``: deal requests to live servers in rotation.
- ``least-loaded``: join the server with the fewest outstanding
  requests (idealised global knowledge).
- ``p2c``: power-of-two-choices — sample two distinct live servers,
  join the less loaded; near-optimal balance at O(1) cost, and the only
  practical way to absorb skewed flow weights the hash cannot see.

Hashing uses :func:`repro.sim.rng.derive_seed`, so ring positions and
flow keys are deterministic functions of the balancer seed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, List, Sequence

from repro.sim.rng import derive_seed

POLICIES = ("rss", "round-robin", "least-loaded", "p2c")

# Policies whose placement ignores load: a pure function of the flow
# key (rss) or of the dispatch order (round-robin), never of completion
# feedback or balancer-stream draws. The rack sweeps their traffic in
# batches, and the dist coordinator steers them a whole check chunk
# ahead; both stay exact.
LOAD_OBLIVIOUS_POLICIES = ("rss", "round-robin")


class AllServersDownError(RuntimeError):
    """Raised when a dispatch finds no live server."""


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Lookups walk clockwise from the key's position to the first virtual
    node owned by a *live* server, so removing a server moves only its
    own arc (plus ties) to the successors.
    """

    def __init__(self, num_servers: int, seed: int = 0, vnodes: int = 64):
        if num_servers <= 0:
            raise ValueError("need at least one server")
        if vnodes <= 0:
            raise ValueError("need at least one virtual node per server")
        self.num_servers = num_servers
        points = []
        for server in range(num_servers):
            for replica in range(vnodes):
                position = derive_seed(seed, f"ring:{server}:{replica}")
                points.append((position, server))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [server for _, server in points]

    def key(self, flow: int, seed: int = 0) -> int:
        """The ring position of a flow (deterministic hash)."""
        return derive_seed(seed, f"flow:{flow}")

    def lookup(self, key: int, live: Sequence[bool]) -> int:
        """The first live server at or after ``key``, clockwise."""
        count = len(self._positions)
        start = bisect_right(self._positions, key) % count
        for step in range(count):
            owner = self._owners[(start + step) % count]
            if live[owner]:
                return owner
        raise AllServersDownError("no live server on the ring")


class LoadBalancer:
    """Request steering with a pluggable policy and failure awareness."""

    def __init__(
        self,
        policy: str,
        num_servers: int,
        rng: random.Random,
        seed: int = 0,
        vnodes: int = 64,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
        self.policy = policy
        self.num_servers = num_servers
        self.rng = rng
        self.seed = seed
        self.ring = HashRing(num_servers, seed=seed, vnodes=vnodes)
        self.live: List[bool] = [True] * num_servers
        self.outstanding: List[int] = [0] * num_servers
        # Sticky flow placements (rss only; other policies are per-request).
        self.assignment: Dict[int, int] = {}
        self.resteers = 0
        self._rotation = 0

    # -- placement -----------------------------------------------------------

    def _live_servers(self) -> List[int]:
        servers = [s for s in range(self.num_servers) if self.live[s]]
        if not servers:
            raise AllServersDownError("every server is down")
        return servers

    def server_for(self, flow: int) -> int:
        """The server one request of ``flow`` is steered to right now."""
        if self.policy == "rss":
            cached = self.assignment.get(flow)
            if cached is not None and self.live[cached]:
                return cached
            placed = self.ring.lookup(self.ring.key(flow, self.seed), self.live)
            if cached is not None:
                self.resteers += 1
            self.assignment[flow] = placed
            return placed
        servers = self._live_servers()
        if self.policy == "round-robin":
            choice = servers[self._rotation % len(servers)]
            self._rotation += 1
            return choice
        if self.policy == "least-loaded":
            return min(servers, key=lambda s: (self.outstanding[s], s))
        # p2c: two distinct candidates when possible, less loaded wins.
        first = self.rng.choice(servers)
        second = self.rng.choice(servers)
        if len(servers) > 1:
            while second == first:
                second = self.rng.choice(servers)
        if self.outstanding[second] < self.outstanding[first]:
            return second
        return first

    # -- request accounting --------------------------------------------------

    def dispatch(self, flow: int) -> int:
        """Steer one request; returns the target server."""
        server = self.server_for(flow)
        self.outstanding[server] += 1
        return server

    def complete(self, server: int) -> None:
        """A request finished at ``server`` (clamped at zero so stale
        completions after a crash cannot go negative)."""
        if self.outstanding[server] > 0:
            self.outstanding[server] -= 1

    # -- membership ----------------------------------------------------------

    def mark_down(self, server: int) -> List[int]:
        """Remove a server; returns the flows whose sticky placement it
        held (empty for the per-request policies)."""
        self.live[server] = False
        orphans = [flow for flow, s in self.assignment.items() if s == server]
        for flow in orphans:
            del self.assignment[flow]
        self.outstanding[server] = 0
        return orphans

    def mark_up(self, server: int) -> None:
        """Re-admit a restarted server.

        Under ``rss`` the cached placements are flushed so flows rehash
        to their ring home (the restarted server reclaims its arc); the
        per-request policies refill it naturally.
        """
        self.live[server] = True
        if self.policy == "rss":
            self.assignment.clear()

    def load_shares(self) -> List[float]:
        """Current outstanding-request share per server (sums to ~1)."""
        total = sum(self.outstanding)
        if total == 0:
            return [0.0] * self.num_servers
        return [count / total for count in self.outstanding]
