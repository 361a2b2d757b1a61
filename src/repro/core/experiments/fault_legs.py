"""Process-pool-safe legs for the fault-recovery experiment.

Each leg builds a *metro* testbed — the Figure 5 front-end pair, but
cabled over three 2.5 ms-one-way links so RFTP's credit window binds
well below line rate (2 credits x 2 MiB over a 5 ms RTT caps each
stream near 3.3 Gbps).  That regime is what makes multi-rail failover
observable: when one NIC dies, the surviving rails' streams absorb the
dead rails' credit budget and aggregate goodput returns to its
pre-fault level, whereas on a LAN-delay testbed the links themselves
bound throughput and no protocol can do better than 2/3.

The fault plan arrives as its ``--faults`` spec string (a plain
parameter, so it is hashed into the result-cache identity with
everything else) and arms the leg's context in place of any run-wide
plan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.calibration import Calibration
from repro.util.units import GB, MIB, to_gbps

__all__ = ["recovery_leg"]

#: One-way metro-link delay (2.5 ms: a ~500 km dark-fiber loop).
METRO_DELAY = 2.5e-3

# RFTP knobs that put the transfer in the credit-bound regime.
BLOCK_SIZE = 2 * MIB
STREAMS_PER_LINK = 2
CREDITS = 2
GRIDFTP_PROCESSES = 6  # two single-threaded movers per link


def _metro_pair(ctx):
    from repro.hw.nic import NicKind
    from repro.hw.presets import frontend_lan_host
    from repro.net.link import connect
    from repro.net.topology import _nics

    a = frontend_lan_host(ctx, "metro-a")
    b = frontend_lan_host(ctx, "metro-b")
    links = [
        connect(c, s, delay=METRO_DELAY, name=f"metro{i}")
        for i, (c, s) in enumerate(
            zip(_nics(a, NicKind.ROCE_QDR), _nics(b, NicKind.ROCE_QDR))
        )
    ]
    return a, b, links


def _ram_xfs(ctx, machine, name: str):
    from repro.fs.xfs import XfsFileSystem
    from repro.kernel.numa import NumaPolicy
    from repro.kernel.pages import place_region
    from repro.storage.blockdev import RamDisk

    placement = place_region(2 * GB, NumaPolicy.default(),
                             machine.n_nodes, touch_node=0)
    return XfsFileSystem(ctx, RamDisk(ctx, name, placement))


def _curve_stats(times: List[float], values: List[float], fault_at: float,
                 duration: float) -> Dict[str, float]:
    """Pre/post goodput and the time back to >= 90% of pre-fault rate."""
    t = np.asarray(times)
    v = np.asarray(values)
    pre_mask = (t > 2.0) & (t <= fault_at)
    tail_start = fault_at + 0.75 * (duration - fault_at)
    pre = float(v[pre_mask].mean()) if pre_mask.any() else 0.0
    post = float(v[t > tail_start].mean()) if (t > tail_start).any() else 0.0
    recovered = t[(t > fault_at) & (v >= 0.9 * pre)]
    recovery_s = float(recovered[0] - fault_at) if len(recovered) else float("inf")
    return {"pre_gbps": to_gbps(pre), "post_gbps": to_gbps(post),
            "post_over_pre": post / pre if pre else 0.0,
            "recovery_s": recovery_s}


def recovery_leg(*, seed: int, cal: Optional[Calibration], tool: str,
                 faults: str, duration: float, fault_at: float,
                 sample_interval: float = 0.5) -> Dict[str, Any]:
    """One metro-pair run of *tool* under the *faults* plan."""
    from repro.faults import FaultPlan
    from repro.sim.context import Context

    ctx = Context.create(seed=seed, cal=cal, faults=FaultPlan.parse(faults))
    injector = ctx.faults
    sender, receiver, _links = _metro_pair(ctx)

    if tool == "rftp":
        from repro.apps.rftp.transfer import RftpConfig, RftpTransfer

        xfer = RftpTransfer(
            ctx, sender, receiver, source="zero", sink="null",
            config=RftpConfig(block_size=BLOCK_SIZE,
                              streams_per_link=STREAMS_PER_LINK,
                              credits=CREDITS),
        )
        res = xfer.run(duration, sample_interval=sample_interval)
        counters = {"retransmitted_bytes": res.retransmitted_bytes,
                    "reconnects": res.reconnects,
                    "streams_failed": res.streams_failed,
                    "recovery_seconds": res.recovery_seconds}
    elif tool == "gridftp":
        from repro.apps.gridftp import GridFtp

        mover = GridFtp(
            ctx, sender, receiver,
            source_fs=_ram_xfs(ctx, sender, "metro-rama"),
            sink_fs=_ram_xfs(ctx, receiver, "metro-ramb"),
            processes=GRIDFTP_PROCESSES,
        )
        res = mover.run(duration, sample_interval=sample_interval)
        counters = {"retransmitted_bytes": 0.0, "reconnects": 0,
                    "streams_failed": 0, "recovery_seconds": 0.0}
    else:
        raise ValueError(f"unknown recovery-leg tool {tool!r}")

    times = list(res.series.times)
    values = list(res.series.values)
    out: Dict[str, Any] = {"tool": tool, "faults": faults,
                           "goodput_gbps": res.goodput_gbps,
                           "sparkline": res.series.sparkline(width=50),
                           "faults_injected": injector.stats.faults_injected,
                           "giveups": injector.stats.giveups}
    out.update(counters)
    out.update(_curve_stats(times, values, fault_at, duration))
    return out
