"""RDMA connection manager: listeners, connects, and the rkey registry.

Mirrors librdmacm's role: resolve a (host, port) address to a NIC pair,
perform the connection handshake (paying link round-trips), and hand back
connected queue pairs.  Also keeps the per-machine rkey registry used by
one-sided operations (standing in for HCA translation tables).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.injector import faults_active
from repro.faults.recovery import backoff
from repro.hw.nic import Nic
from repro.hw.topology import Machine
from repro.rdma.mr import MemoryRegion, ProtectionDomain
from repro.rdma.verbs import CompletionQueue, QueuePair
from repro.sim.context import Context
from repro.sim.engine import Event

__all__ = ["ConnectionManager"]


class ConnectionManager:
    """Per-context connection manager (one per experiment)."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._listeners: Dict[tuple[str, int], Event] = {}

    # -- rkey registry -------------------------------------------------------------
    # The registry lives on the machine's Context (``ctx.rkeys``), never
    # on this class: a class-level dict keyed by id() would leak
    # registrations across experiment contexts and could collide once the
    # GC reuses an id.  The table holds a strong reference to each PD, so
    # the id(pd) keys stay unique for the table's lifetime.
    @classmethod
    def register_pd(cls, pd: ProtectionDomain) -> None:
        """Expose a PD's registrations to one-sided remote access."""
        table = pd.machine.ctx.rkeys.setdefault(pd.machine, {})
        # bind lazily: keep a reference to the PD's live table
        table[id(pd)] = pd

    @classmethod
    def lookup_rkey(cls, machine: Machine, rkey: int) -> MemoryRegion:
        """Resolve a remote key on a machine (PermissionError on miss)."""
        table = machine.ctx.rkeys.get(machine, {})
        for pd in table.values():
            try:
                return pd.lookup_rkey(rkey)
            except PermissionError:
                continue
        raise PermissionError(f"rkey {rkey:#x} unknown on {machine.name!r}")

    # -- connection establishment ------------------------------------------------------
    def connect_pair(
        self,
        client_nic: Nic,
        server_nic: Nic,
        *,
        client_cq: Optional[CompletionQueue] = None,
        server_cq: Optional[CompletionQueue] = None,
        name: str = "",
    ):
        """Create and connect a QP pair across the link joining two NICs.

        Returns ``(client_qp, server_qp, handshake_event)``; the QPs are
        usable once the handshake event fires (three link traversals, as
        in RDMA-CM's route-resolve + connect exchange).
        """
        link = client_nic.link
        if link is None or link.peer(client_nic) is not server_nic:
            raise ValueError(
                f"{client_nic.name!r} and {server_nic.name!r} are not cabled together"
            )
        cq_c = client_cq or CompletionQueue(self.ctx, f"{name}/ccq")
        cq_s = server_cq or CompletionQueue(self.ctx, f"{name}/scq")
        qp_c = QueuePair(self.ctx, client_nic, cq_c, name=f"{name}/client")
        qp_s = QueuePair(self.ctx, server_nic, cq_s, name=f"{name}/server")

        done = self.ctx.sim.event(name=f"{name}/connected")

        def handshake():
            inj = faults_active(self.ctx)
            if inj is None:
                yield self.ctx.sim.timeout(3 * link.delay)
            else:
                # Under fault injection the exchange can time out on a
                # dark link; retry with the stack's capped exponential
                # backoff until it is up.
                attempt = 0
                while True:
                    yield self.ctx.sim.timeout(3 * link.delay)
                    if not link.failed:
                        break
                    yield self.ctx.sim.timeout(backoff(attempt))
                    attempt += 1
            qp_c._connect(qp_s)
            qp_s._connect(qp_c)
            done.succeed((qp_c, qp_s))

        self.ctx.sim.process(handshake(), name=f"{name}/handshake")
        return qp_c, qp_s, done
