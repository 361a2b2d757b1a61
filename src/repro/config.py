"""One run configuration: every knob a run can set, parsed once.

The CLI builds a :class:`RunConfig` from the ``REPRO_*`` environment
(:meth:`RunConfig.from_env`, the package's only reader of it) and its
flags, and hands it on explicitly; nothing is written back.  The fault
plan alone also travels implicitly, in
:func:`~repro.faults.plan.fault_scope`.  Each experiment's sweep is its
own constant: no variable re-keys it.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.exec.runner import parse_jobs
from repro.faults.plan import FaultPlan

__all__ = ["RunConfig"]


def _parse_full(text: str) -> bool:
    """``"1"`` is paper scale, ``"0"`` quick mode; nothing else is."""
    if text not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, got {text!r}")
    return text == "1"


#: Each field's environment variable and its one parser.
_KNOBS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "faults": ("REPRO_FAULTS", FaultPlan.parse),
    "jobs": ("REPRO_JOBS", parse_jobs),
    "full": ("REPRO_FULL", _parse_full),
}


@dataclass(frozen=True)
class RunConfig:
    """Every settable value of one run; the defaults are a plain run."""

    faults: Optional[FaultPlan] = None
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
            var = _KNOBS[field.name][0]
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
        value = _KNOBS[name][1](text.strip())
        return dataclasses.replace(self, **{name: value})
