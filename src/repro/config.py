"""One run configuration: every knob a run can set, parsed once.

The CLI builds a :class:`RunConfig` from the ``REPRO_*`` environment
(:meth:`RunConfig.from_env`, the package's only reader of it) and its
flags, and hands it on explicitly; nothing is written back.  The fault
plan alone also travels implicitly, in
:func:`~repro.faults.plan.fault_scope`.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

from repro.faults.plan import FaultPlan

__all__ = ["RunConfig"]


def _knob(name: str) -> Tuple[str, Callable[[str], object]]:
    """Field *name*'s environment variable and its one parser."""
    from repro.core.experiments import ext_availability, ext_service
    from repro.exec.runner import parse_jobs

    return {
        "faults": ("REPRO_FAULTS", FaultPlan.parse),
        "fleet_hosts": ("REPRO_FLEET_HOSTS", ext_availability.parse_hosts),
        "avail_hosts": ("REPRO_AVAIL_HOSTS", ext_availability.parse_hosts),
        "avail_rates": ("REPRO_AVAIL_RATE", ext_availability.parse_rates),
        "service_policy": ("REPRO_SERVICE_POLICY", ext_service.parse_policy),
        "arrival_rate": ("REPRO_SERVICE_ARRIVAL", ext_service.parse_rate),
        "jobs": ("REPRO_JOBS", parse_jobs),
        "full": ("REPRO_FULL", lambda text: text == "1"),
    }[name]


@dataclass(frozen=True)
class RunConfig:
    """Every settable value of one run; the defaults are a plain run.
    A None host or rate sweep keeps the experiment's quick/full one."""

    faults: Optional[FaultPlan] = None
    fleet_hosts: Optional[Tuple[int, ...]] = None
    avail_hosts: Optional[Tuple[int, ...]] = None
    avail_rates: Optional[Tuple[float, ...]] = None
    #: The baseline ext-service compares numa-aware against.
    service_policy: str = "numa-blind"
    #: ext-service jobs/s per host: ~50% rail utilization at the 128 MiB
    #: quick-mode mean size.
    arrival_rate: float = 55.0
    #: Worker processes; 0 = one per CPU core.
    jobs: int = 1
    #: Paper-scale durations.
    full: bool = False

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> RunConfig:
        """The configuration the ``REPRO_*`` variables of *environ*
        (default: the process environment) describe.  A blank variable
        keeps the default; a bad one raises ``ValueError`` led by its name.
        """
        env = os.environ if environ is None else environ
        config = cls()
        for field in dataclasses.fields(cls):
            var = _knob(field.name)[0]
            text = env.get(var, "").strip()
            if text:
                try:
                    config = config.parse(field.name, text)
                except ValueError as exc:
                    raise ValueError(f"{var} {exc}") from None
        return config

    def parse(self, name: str, text: str) -> RunConfig:
        """A copy with field *name* parsed from *text* by the parser
        behind its variable (which raises ``ValueError``)."""
        value = _knob(name)[1](text.strip())
        return dataclasses.replace(self, **{name: value})

    def kwargs_for(self, fn: Callable) -> dict:
        """``{"config": self}`` if *fn* takes a ``config`` argument:
        the experiment modules that read a knob declare one."""
        return ({"config": self}
                if "config" in inspect.signature(fn).parameters else {})
