"""Deterministic fault injection and the recovery policy that answers it.

``repro.faults`` adds the missing half of the paper's WAN story: what
the modeled stack does when the fabric misbehaves.  A
:class:`~repro.faults.plan.FaultPlan` declares typed faults (link
outages and NIC failures, failure-domain cuts, process crashes); the
:class:`~repro.faults.injector.FaultInjector` drives them through
ordinary simulator events so runs stay bit-reproducible per seed; and
:mod:`~repro.faults.recovery` fixes how the RFTP engine retransmits,
reconnects (:func:`~repro.faults.recovery.backoff`), and fails over.

Arm a plan per context with ``Context.create(faults=plan)``, or
run-wide with ``--faults`` / ``REPRO_FAULTS`` (the CLI's
:func:`fault_scope`, carried by every task planned inside it).
"""

from repro.faults.injector import FaultInjector, FaultStats, faults_active
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    fault_scope,
    scoped_plan,
)
from repro.faults.recovery import backoff

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "backoff",
    "fault_scope",
    "faults_active",
    "scoped_plan",
]
