"""Per-tenant pooled-QP accounting with RDMAvisor-style scaling cliffs.

The paper's transfers use a handful of queue pairs; a multi-tenant
fleet multiplexes thousands of jobs over each NIC, and two cliffs
appear that single-host runs never see (PAPERS.md, RDMAvisor):

* **NIC QP-cache thrash** — a NIC caches the hot QP contexts on-chip
  (``qp_cache`` entries).  Once the *active* QP count exceeds the
  cache, context fetches go to host memory over PCIe and the per-QP
  message rate derates roughly as ``cache / active`` (floored at
  ``thrash_floor``: even a thrashing NIC still pipelines).
* **CM connection storms** — every QP *creation* costs a connection-
  manager exchange.  The CM daemon is a serial service at ``cm_rate``
  setups/s; creations beyond it queue deterministically, so per-job QP
  creation at fleet arrival rates turns into seconds of setup latency.

A :class:`QpPoolSet` tracks both per NIC (rail).  In ``pooled`` mode
each (NIC, tenant) keeps up to ``qp_per_tenant`` QPs warm across jobs:
creations happen only while the pool grows, concurrency beyond the
pool multiplexes onto the pooled QPs, and the active-QP census counts
at most ``qp_per_tenant`` per tenant.  In ``per-job`` mode every job
creates (and tears down) its own QP — the RDMAvisor baseline that
walks off both cliffs.

Everything is closed-form and deterministic: no RNG streams, no events
— :meth:`acquire` returns the (derate, setup-delay) pair the broker
applies to the job's flow, and :meth:`release` retires the census
entry.  The derate is sampled at admission and frozen for the flow's
lifetime (documented approximation; MODELING.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.util.validation import check_positive

__all__ = ["QP_MODES", "QpPoolConfig", "QpPoolSet"]

#: Supported accounting modes ("off" disables the model entirely).
QP_MODES = ("pooled", "per-job", "off")


@dataclass(frozen=True)
class QpPoolConfig:
    """The QP/CM cliff knobs of one pod's NICs."""

    mode: str = "pooled"
    #: Pooled QPs kept warm per (NIC, tenant).
    qp_per_tenant: int = 1
    #: On-NIC QP-context cache entries per NIC.
    qp_cache: int = 24
    #: Worst-case message-rate derate under full cache thrash.
    thrash_floor: float = 0.35
    #: CM daemon service rate, QP setups per second.
    cm_rate: float = 64.0
    #: Uncontended CM handshake latency, seconds.
    cm_base_s: float = 0.002

    def __post_init__(self) -> None:
        if self.mode not in QP_MODES:
            raise ValueError(
                f"mode must be one of {QP_MODES}, got {self.mode!r}")
        check_positive("qp_per_tenant", self.qp_per_tenant)
        check_positive("qp_cache", self.qp_cache)
        check_positive("cm_rate", self.cm_rate)
        if not (0.0 < self.thrash_floor <= 1.0):
            raise ValueError(
                f"thrash_floor must be in (0, 1], got {self.thrash_floor}")
        if self.cm_base_s < 0.0:
            raise ValueError(
                f"cm_base_s must be >= 0, got {self.cm_base_s}")


class _NicState:
    __slots__ = ("active", "pool", "qps")

    def __init__(self) -> None:
        self.active: Dict[str, int] = {}
        self.pool: Dict[str, int] = {}
        #: Active QPs on the NIC: the sum over tenants of their running
        #: jobs, each tenant capped at ``qp_per_tenant`` when pooled.
        self.qps = 0


class QpPoolSet:
    """QP census + CM queue for one pod's NICs (keyed by rail index)."""

    def __init__(self, ctx, config: QpPoolConfig):
        self.ctx = ctx
        self.config = config
        self._nics: Dict[int, _NicState] = {}
        self._cm_busy_until = 0.0
        self.qps_created = 0
        self.qp_reuses = 0
        self.thrashed_jobs = 0
        self.peak_active_qps = 0
        self.cm_delay_total = 0.0
        self.cm_delay_max = 0.0

    # -- the two cliffs ----------------------------------------------------
    def _cm_setup(self) -> float:
        """One QP creation through the serial CM daemon; returns its delay."""
        cfg = self.config
        now = self.ctx.now
        start = max(now, self._cm_busy_until)
        self._cm_busy_until = start + 1.0 / cfg.cm_rate
        delay = (start - now) + cfg.cm_base_s
        self.qps_created += 1
        self.cm_delay_total += delay
        if delay > self.cm_delay_max:
            self.cm_delay_max = delay
        return delay

    def acquire(self, rail_index: int, tenant: str) -> Tuple[float, float]:
        """Admit one job on *rail_index* for *tenant*.

        Returns ``(derate, setup_delay_s)``: the frozen message-rate
        derate for the job's flow cap and the CM setup latency to wait
        before the flow starts.
        """
        cfg = self.config
        st = self._nics.get(rail_index)
        if st is None:
            st = self._nics[rail_index] = _NicState()
        running = st.active.get(tenant, 0) + 1
        st.active[tenant] = running
        pooled = cfg.mode == "pooled"
        if not pooled or running <= cfg.qp_per_tenant:
            st.qps += 1
        delay = 0.0
        if pooled:
            have = st.pool.get(tenant, 0)
            if running > have and have < cfg.qp_per_tenant:
                st.pool[tenant] = have + 1
                delay = self._cm_setup()
            else:
                self.qp_reuses += 1
        else:
            delay = self._cm_setup()
        active = st.qps
        if active > self.peak_active_qps:
            self.peak_active_qps = active
        derate = 1.0
        if active > cfg.qp_cache:
            derate = max(cfg.thrash_floor, cfg.qp_cache / active)
            self.thrashed_jobs += 1
        return derate, delay

    def release(self, rail_index: int, tenant: str) -> None:
        """Retire one job's census entry (pooled QPs stay warm)."""
        st = self._nics[rail_index]
        running = st.active[tenant]
        st.active[tenant] = running - 1
        if self.config.mode != "pooled" or running <= self.config.qp_per_tenant:
            st.qps -= 1

    def as_dict(self) -> dict:
        """The cliff counters, JSON-canonical (one cell's ledger entry)."""
        return {
            "mode": self.config.mode,
            "qps_created": self.qps_created,
            "qp_reuses": self.qp_reuses,
            "thrashed_jobs": self.thrashed_jobs,
            "peak_active_qps": self.peak_active_qps,
            "cm_delay_total_s": self.cm_delay_total,
            "cm_delay_max_s": self.cm_delay_max,
        }
