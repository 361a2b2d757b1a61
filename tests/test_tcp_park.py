"""Parked TCP window controllers: same ledger, bounded ticks.

A connection's window controller ends (parks) after a tick once
``TcpConnection._idle`` proves every later tick a no-op.  The reference
is the same controller with that predicate patched to ``False``: it
ticks until its flow ends, as the controller did before parking.
"""

from __future__ import annotations

import pytest

from repro import metrics
from repro.apps.iperf import run_iperf
from repro.core.experiments import ablation_tcp_wan
from repro.core.reportgen import generate_experiments_md
from repro.hw.presets import frontend_lan_host
from repro.net.tcp import TcpConnection
from repro.net.topology import wire_frontend_lan
from repro.sim.context import Context
from tests.test_tcp_cubic import wan_conns

#: Every ledger experiment that builds a TCP connection.
TCP_EXPERIMENTS = ("motivating", "cache", "mtu", "fig04", "tcp-wan",
                   "gridftp-procs", "sensitivity")


def never_park(monkeypatch) -> None:
    monkeypatch.setattr(TcpConnection, "_idle", lambda self: False)


def tcp_counts() -> dict:
    return dict(metrics.snapshot()["tcp"])


def quick_report(name: str, seed: int) -> str:
    return generate_experiments_md(quick=True, seed=seed, only={name},
                                   jobs=1, cache=None)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", TCP_EXPERIMENTS)
def test_parking_keeps_quick_report_identical(name, seed, monkeypatch):
    parked = quick_report(name, seed)
    parked_ticks = tcp_counts()["ticks"]
    metrics.reset()
    never_park(monkeypatch)
    reference = quick_report(name, seed)
    assert tcp_counts()["parked"] == 0
    assert tcp_counts()["ticks"] >= parked_ticks
    assert parked == reference


def lan_iperf(duration: float) -> tuple:
    """Controller ticks, parked controllers and connections of one
    unidirectional LAN iperf run."""
    metrics.reset()
    ctx = Context.create(seed=3)
    a, b = frontend_lan_host(ctx, "a"), frontend_lan_host(ctx, "b")
    wire_frontend_lan(a, b)
    res = run_iperf(ctx, a, b, duration=duration, streams_per_link=1,
                    bidirectional=False, numa_tuned=True)
    return tcp_counts()["ticks"], tcp_counts()["parked"], res.n_streams


def test_lan_tick_count_does_not_grow_with_duration():
    # A LAN controller that never parks ticks every 0.25 s for the
    # whole run: ten times the ticks for ten times the duration.
    (short, _, _), (long_, parked, n) = lan_iperf(30.0), lan_iperf(300.0)
    assert long_ == short
    assert parked == n


def test_window_bound_wan_connection_never_parks(monkeypatch):
    parked = ablation_tcp_wan.run(quick=True).render()
    counts = tcp_counts()
    assert counts["parked"] == 0 and counts["ticks"] > 0
    metrics.reset()
    never_park(monkeypatch)
    assert ablation_tcp_wan.run(quick=True).render() == parked
    assert tcp_counts() == counts


def wan_losses() -> list:
    ctx, link, conns = wan_conns(4, seed=134)
    ctx.sim.run(until=60.0)
    return [c.stats.loss_events for c in conns]


def test_saturated_wan_streams_lose_as_the_reference_does(monkeypatch):
    losses = wan_losses()
    assert sum(losses) > 0 and tcp_counts()["losses"] == sum(losses)
    assert tcp_counts()["parked"] == 0
    never_park(monkeypatch)
    assert wan_losses() == losses


def test_motivating_parks_every_connection_it_opens(monkeypatch):
    opened = []
    open_ = TcpConnection.open

    def counting_open(self, size=None):
        opened.append(self.name)
        return open_(self, size)

    monkeypatch.setattr(TcpConnection, "open", counting_open)
    stats: dict = {}
    generate_experiments_md(quick=True, only={"motivating"}, jobs=1,
                            cache=None, stats=stats)
    assert opened
    assert stats["tcp"]["parked"] == len(opened)
    assert stats["tcp"]["losses"] == 0
