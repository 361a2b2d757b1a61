"""Integration: every table/figure experiment reproduces its paper anchors.

These are the repository's headline tests — each runs the same code the
benchmark harness runs (quick mode) and asserts every check in the
report passed.
"""

import pytest

from repro.core import experiments as E


def _assert_ok(report):
    failed = [c for c in report.checks if c.ok is False]
    assert not failed, "diverging checks:\n" + "\n".join(
        f"  {c.metric}: paper={c.paper} measured={c.measured}" for c in failed
    )


@pytest.mark.parametrize("name", sorted(E.ALL_FIGURES))
def test_figure_reproduces(name):
    report = E.ALL_FIGURES[name].run(quick=True)
    assert report.checks, f"{name} has no checks"
    _assert_ok(report)


@pytest.mark.parametrize("name", sorted(E.ALL_ABLATIONS))
def test_ablation_reproduces(name):
    report = E.ALL_ABLATIONS[name].run(quick=True)
    assert report.checks, f"{name} has no checks"
    _assert_ok(report)


def test_reports_render_nonempty():
    report = E.exp_table1.run(quick=True)
    text = report.render()
    assert "table1" in text
    assert len(text.splitlines()) > 5


def test_experiment_registry_complete():
    assert set(E.ALL_FIGURES) == {
        "motivating", "table1", "fig03", "fig04", "fig05", "fig07", "fig08",
        "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    }
    assert set(E.ALL_ABLATIONS) == {
        "ssd", "threads", "fs", "rdma-ops", "luns", "cache",
        "mtu", "credits", "tcp-wan", "gridftp-procs", "latency-load",
        "tuning-value",
    }
    assert set(E.ALL_EXTENSIONS) == {
        "wan-e2e", "sensitivity", "filesize-mix", "100g", "recovery",
        "service", "fleet", "availability",
    }


@pytest.mark.parametrize("quick", [True, False])
def test_cpu_figures_plan_the_bandwidth_figures_runs(quick):
    """Figs. 8 and 14 report the CPU of Figs. 7 and 13's runs, so their
    plans name the same tasks: identity dedup and the result cache run
    each point once for both figures."""

    def identities(module):
        ids = [t.identity() for t in module.plan(quick=quick, seed=0)]
        assert len(set(ids)) == len(ids)
        return ids

    fig07 = identities(E.exp_fig07_iser_bw)
    assert set(identities(E.exp_fig08_iser_cpu)) <= set(fig07)
    assert identities(E.exp_fig14_wan_cpu) == identities(E.exp_fig13_wan_bw)


@pytest.mark.parametrize("name", sorted(E.ALL_EXTENSIONS))
def test_extension_reproduces(name):
    report = E.ALL_EXTENSIONS[name].run(quick=True)
    assert report.checks, f"{name} has no checks"
    _assert_ok(report)
