"""Sensitivity analysis of the reproduction's headline shapes.

A calibrated model is only credible if its *conclusions* do not hinge on
the precise values of the calibrated constants.  This module perturbs
each influential calibration constant by ±20% and re-measures the
paper's qualitative anchors:

* Fig. 7 — NUMA tuning helps writes more than reads;
* Fig. 9 — RFTP beats GridFTP by a large factor (>2x);
* Fig. 4 — TCP costs several times RDMA's CPU per byte;
* §2.3  — NUMA tuning speeds up bi-directional iperf.

For each (constant, direction) the analysis records whether every shape
survives.  Shapes that flip under small perturbations would indicate the
reproduction is an artifact of tuning rather than mechanism.

Each shape decomposes into independent **legs** — one seeded simulation
each (the four fio runs behind Fig. 7, the RFTP and GridFTP transfers
behind Fig. 9, and so on) — and a shape predicate is a pure combiner
over its legs' measurements.  The per-cell path runs a cell's legs
directly; the grid's gang kernel (:func:`gang_cells`) runs every leg
across *all* cells at once through
:func:`repro.exec.gang.run_projected`, sharing evaluations between
cells whose perturbed calibrations agree on everything the leg actually
reads.  Both paths execute the identical leg code with identical
calibration values, so their results are bit-for-bit equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.calibration import CALIBRATION, Calibration
from repro.exec import GangSpec, SimTask, run_tasks
from repro.exec.task import _canonical
from repro.util.tables import Table

__all__ = ["SHAPES", "PERTURBED_CONSTANTS", "SensitivityResult",
           "run_sensitivity", "sensitivity_cell", "sensitivity_tasks",
           "assemble_sensitivity", "gang_cells"]

#: the constants whose values were calibrated (not taken from specs).
PERTURBED_CONSTANTS = (
    "qpi_bandwidth",
    "mem_bandwidth_per_node",
    "memcpy_rate_local",
    "tcp_kernel_rate",
    "coherence_invalidate_cpu_per_byte",
    "coherence_traffic_factor",
    "rdma_read_throughput_derate",
    "pcie_gen3_x8_bandwidth",
)


# ---------------------------------------------------------------------------
# Legs: one independent seeded simulation each.
# ---------------------------------------------------------------------------

def _leg_fio(cal: Calibration, tuning: str, rw: str) -> float:
    """One fio run of the Fig. 7 iSER testbed; returns the bandwidth."""
    from repro.apps.fio import FioJob, run_fio
    from repro.hw.presets import backend_lan_host, frontend_lan_host
    from repro.net.topology import wire_san
    from repro.sim.context import Context
    from repro.storage.initiator import IserInitiator
    from repro.storage.target import IserTarget
    from repro.util.units import GB, MIB

    ctx = Context.create(seed=1, cal=cal)
    front = frontend_lan_host(ctx, "f", with_ib=True)
    back = backend_lan_host(ctx, "b")
    wire_san(ctx, front, back)
    target = IserTarget(ctx, back, tuning=tuning, n_links=2)
    for _ in range(6):
        target.create_lun(GB)
    ini = IserInitiator(ctx, front, target)
    ctx.sim.run(until=ini.login_all())
    devices = [ini.devices[i] for i in sorted(ini.devices)]
    res = run_fio(ctx, front, devices,
                  FioJob(rw=rw, block_size=4 * MIB, runtime=8.0))
    return res.bandwidth


def _leg_fig9(cal: Calibration, protocol: str) -> float:
    """One end-to-end transfer of the Fig. 9 testbed; returns the goodput."""
    from repro.core.system import EndToEndSystem
    from repro.core.tuning import TuningPolicy
    from repro.util.units import GB

    if protocol == "rftp":
        system = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=2,
                                            cal=cal, lun_size=2 * GB)
        return system.run_rftp_transfer(duration=10.0).goodput
    system = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=3,
                                        cal=cal, lun_size=2 * GB)
    return system.run_gridftp_transfer(duration=10.0).goodput


def _fig4_pair(ctx):
    from repro.hw.nic import Nic, NicKind
    from repro.hw.topology import Machine
    from repro.net.link import connect

    a = Machine(ctx, "a", pcie_sockets=(0,))
    b = Machine(ctx, "b", pcie_sockets=(0,))
    na = Nic(a, a.pcie_slots[0], NicKind.ROCE_QDR)
    nb = Nic(b, b.pcie_slots[0], NicKind.ROCE_QDR)
    connect(na, nb)
    return a, b


def _leg_fig4(cal: Calibration, transport: str) -> Tuple[float, float]:
    """One Fig. 4 CPU-cost run; returns (cpu_seconds, bytes_moved)."""
    from repro.apps.iperf import run_iperf
    from repro.apps.rftp.transfer import RftpConfig, RftpTransfer
    from repro.sim.context import Context

    if transport == "rdma":
        ctx = Context.create(seed=4, cal=cal)
        a, b = _fig4_pair(ctx)
        res = RftpTransfer(ctx, a, b, source="zero", sink="null",
                           config=RftpConfig(streams_per_link=2)).run(8.0)
        cpu = (res.sender_accounting.total_seconds
               + res.receiver_accounting.total_seconds)
        return cpu, res.total_bytes
    ctx = Context.create(seed=5, cal=cal)
    a, b = _fig4_pair(ctx)
    ires = run_iperf(ctx, a, b, duration=8.0, streams_per_link=4,
                     bidirectional=False, numa_tuned=True)
    return ires.accounting.total_seconds, ires.total_bytes


def _leg_motivating(cal: Calibration, tuned: bool) -> float:
    """One §2.3 bi-directional iperf run; returns the aggregate rate."""
    from repro.apps.iperf import run_iperf
    from repro.hw.presets import frontend_lan_host
    from repro.net.topology import wire_frontend_lan
    from repro.sim.context import Context

    ctx = Context.create(seed=6, cal=cal)
    a = frontend_lan_host(ctx, "a")
    b = frontend_lan_host(ctx, "b")
    wire_frontend_lan(a, b)
    return run_iperf(ctx, a, b, duration=8.0, numa_tuned=tuned).aggregate_rate


#: leg name -> evaluator over a calibration (one simulation each).
_LEGS: Dict[str, Callable[[Calibration], Any]] = {
    "fio/default/read": lambda cal: _leg_fio(cal, "default", "read"),
    "fio/default/write": lambda cal: _leg_fio(cal, "default", "write"),
    "fio/numa/read": lambda cal: _leg_fio(cal, "numa", "read"),
    "fio/numa/write": lambda cal: _leg_fio(cal, "numa", "write"),
    "fig9/rftp": lambda cal: _leg_fig9(cal, "rftp"),
    "fig9/gridftp": lambda cal: _leg_fig9(cal, "gridftp"),
    "fig4/rdma": lambda cal: _leg_fig4(cal, "rdma"),
    "fig4/tcp": lambda cal: _leg_fig4(cal, "tcp"),
    "motivating/default": lambda cal: _leg_motivating(cal, False),
    "motivating/tuned": lambda cal: _leg_motivating(cal, True),
}


# ---------------------------------------------------------------------------
# Shapes: pure combiners over leg measurements.
# ---------------------------------------------------------------------------

def _combine_fig7(vals: Sequence[Any]) -> bool:
    """Write tuning gain exceeds read tuning gain (both >= 1)."""
    default_read, default_write, numa_read, numa_write = vals
    read_gain = numa_read / default_read
    write_gain = numa_write / default_write
    return write_gain >= read_gain >= 0.999


def _combine_fig9(vals: Sequence[Any]) -> bool:
    """RFTP beats GridFTP by more than 2x end to end."""
    rftp, grid = vals
    return rftp > 2.0 * grid


def _combine_fig4(vals: Sequence[Any]) -> bool:
    """TCP burns > 3x RDMA's CPU at matched throughput."""
    (rdma_cpu, rdma_bytes), (tcp_cpu, tcp_bytes) = vals
    return (tcp_cpu / tcp_bytes) > 3.0 * (rdma_cpu / rdma_bytes)


def _combine_motivating(vals: Sequence[Any]) -> bool:
    """NUMA-tuned iperf beats the default scheduler."""
    untuned, tuned = vals
    return tuned > untuned


#: shape name -> (leg names in combiner order, combiner).
_SHAPE_DEFS: Dict[str, Tuple[Tuple[str, ...], Callable[[Sequence[Any]], bool]]] = {
    "fig7: write gain >= read gain": (
        ("fio/default/read", "fio/default/write",
         "fio/numa/read", "fio/numa/write"), _combine_fig7),
    "fig9: RFTP > 2x GridFTP": (("fig9/rftp", "fig9/gridftp"), _combine_fig9),
    "fig4: TCP CPU/byte > 3x RDMA": (("fig4/rdma", "fig4/tcp"), _combine_fig4),
    "motivating: tuning helps iperf": (
        ("motivating/default", "motivating/tuned"), _combine_motivating),
}


def _make_predicate(legs: Tuple[str, ...],
                    combine: Callable[[Sequence[Any]], bool]
                    ) -> Callable[[Calibration], bool]:
    def predicate(cal: Calibration) -> bool:
        return combine([_LEGS[name](cal) for name in legs])
    return predicate


#: shape name -> predicate over a calibration.
SHAPES: Dict[str, Callable[[Calibration], bool]] = {
    name: _make_predicate(legs, combine)
    for name, (legs, combine) in _SHAPE_DEFS.items()
}


@dataclass
class SensitivityResult:
    """Outcome grid: (constant, direction) -> shape -> survived."""

    outcomes: Dict[Tuple[str, str], Dict[str, bool]] = field(
        default_factory=dict)

    @property
    def all_robust(self) -> bool:
        """True when every shape survived every perturbation."""
        return all(ok for row in self.outcomes.values()
                   for ok in row.values())

    def fragile(self) -> List[Tuple[str, str, str]]:
        """The (constant, direction, shape) triples that flipped."""
        return [
            (const, direction, shape)
            for (const, direction), row in self.outcomes.items()
            for shape, ok in row.items()
            if not ok
        ]

    def render(self) -> str:
        """Render to a fixed-width text block."""
        shapes = list(SHAPES)
        t = Table(["constant", "delta"] + [s.split(":")[0] for s in shapes],
                  title="Shape robustness under +/-20% calibration shifts")
        for (const, direction), row in sorted(self.outcomes.items()):
            t.add_row([const, direction]
                      + ["ok" if row[s] else "FLIPS" for s in shapes])
        return t.render()


def _direction_labels(delta: float) -> Tuple[str, str]:
    pct = f"{delta:.0%}"
    return (f"-{pct}", f"+{pct}")


def _perturbed(base: Calibration, constant: str, direction: str,
               delta: float) -> Calibration:
    """*base* with *constant* shifted ±*delta* (the grid-cell calibration)."""
    value = getattr(base, constant)
    factor = (1 - delta) if direction.startswith("-") else (1 + delta)
    return base.replace(**{constant: value * factor})


def sensitivity_cell(*, seed: int = 0, cal: Optional[Calibration] = None,
                     constant: str, direction: str,
                     delta: float = 0.20) -> Dict[str, bool]:
    """One grid cell: perturb *constant* by ±*delta*, test every shape.

    This is the :class:`~repro.exec.task.SimTask` target for the
    sensitivity sweep: every cell is an independent simulation batch
    (the shape legs create their own seeded contexts), so the grid fans
    out across worker processes.  ``cal`` is the *base* calibration the
    perturbation applies to (None = library default); ``seed`` is
    accepted for target-signature uniformity but unused — the legs pin
    their own seeds so cells stay comparable.
    """
    base = cal if cal is not None else CALIBRATION
    perturbed = _perturbed(base, constant, direction, delta)
    return {name: predicate(perturbed) for name, predicate in SHAPES.items()}


def gang_cells(tasks: Sequence[SimTask]) -> List[Any]:
    """Gang kernel for the sensitivity grid: all cells in one program.

    Runs every shape leg across the whole scenario axis through
    :func:`~repro.exec.gang.run_projected`: one evaluation per
    *projection class* (cells whose perturbed calibrations agree on
    every constant the leg reads share it — e.g. perturbing
    ``tcp_kernel_rate`` cannot change a leg that never reads it, so
    that leg's base-calibration run serves 13 of the 17 grid+base
    scenarios).  Results are bit-identical to :func:`sensitivity_cell`
    because the identical leg code runs with identical values.

    Defection: a fault plan on any task defects every cell (fault arming
    couples scenarios to event order — the per-task path owns that);
    a cell whose leg evaluation raises defects alone so the error
    surfaces with its ordinary traceback.
    """
    from repro.exec.gang import DEFECT, EvalError

    if any(t.faults for t in tasks):
        return [DEFECT] * len(tasks)
    cals = []
    for task in tasks:
        base = task.cal if task.cal is not None else CALIBRATION
        cals.append(_perturbed(base, task.params["constant"],
                               task.params["direction"],
                               task.params["delta"]))
    leg_values = {name: run_projected_leg(fn, cals)
                  for name, fn in _LEGS.items()}
    rows: List[Any] = []
    for k in range(len(tasks)):
        row: Dict[str, bool] = {}
        failed = False
        for shape, (legs, combine) in _SHAPE_DEFS.items():
            vals = [leg_values[name][k] for name in legs]
            if any(isinstance(v, EvalError) for v in vals):
                failed = True
                break
            row[shape] = combine(vals)
        rows.append(DEFECT if failed else row)
    return rows


def run_projected_leg(fn: Callable[[Calibration], Any],
                      cals: Sequence[Calibration]) -> List[Any]:
    """One leg across all scenarios (separated for monkeypatching in tests)."""
    from repro.exec.gang import run_projected

    return run_projected(fn, cals)


def sensitivity_tasks(
    delta: float = 0.20,
    constants: Sequence[str] = PERTURBED_CONSTANTS,
    base: Calibration = CALIBRATION,
) -> List[SimTask]:
    """The ±delta perturbation grid as independent tasks, in grid order.

    Every cell carries the grid's :class:`~repro.exec.GangSpec`, so a
    batch of cells gangs through :func:`gang_cells`; the same cells with
    the spec stripped (``dataclasses.replace(t, gang=None)``) are the
    ordinary per-task grid that defines the correct result.
    """
    cal = None if base is CALIBRATION else base
    spec = GangSpec(
        kernel="repro.core.sensitivity:gang_cells",
        key=f"sensitivity:{delta!r}:{_canonical(cal)!r}",
    )
    return [
        SimTask("repro.core.sensitivity:sensitivity_cell",
                {"constant": const, "direction": direction, "delta": delta},
                seed=0, cal=cal, label=f"sensitivity/{const}{direction}",
                gang=spec)
        for const in constants
        for direction in _direction_labels(delta)
    ]


def assemble_sensitivity(tasks: Sequence[SimTask],
                         rows: Sequence[Dict[str, bool]]) -> SensitivityResult:
    """Fold per-cell results (aligned with *tasks*) into one grid."""
    result = SensitivityResult()
    for task, row in zip(tasks, rows):
        key = (task.params["constant"], task.params["direction"])
        result.outcomes[key] = dict(row)
    return result


def run_sensitivity(
    delta: float = 0.20,
    constants: Sequence[str] = PERTURBED_CONSTANTS,
    base: Calibration = CALIBRATION,
) -> SensitivityResult:
    """Perturb each constant by ±delta and re-test every shape.

    Cells run through :func:`~repro.exec.runner.run_tasks`, so the grid
    parallelizes (and caches) under an ambient
    :class:`~repro.exec.runner.ExecContext` while staying serial — and
    bit-for-bit identical — by default.
    """
    tasks = sensitivity_tasks(delta=delta, constants=constants, base=base)
    return assemble_sensitivity(tasks, run_tasks(tasks))
