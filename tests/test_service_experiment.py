"""The ext-service experiment: planning, determinism, run-configuration
knobs."""

import json

import pytest

from repro.config import RunConfig
from repro.core.experiments import ext_service
from repro.core.experiments.service_legs import service_leg
from repro.exec import run_tasks


def test_plan_shape():
    tasks = ext_service.plan(quick=True, seed=0)
    # 2 fleet sizes x 2 policies + fifo + chaos
    assert len(tasks) == 6
    labels = [t.label for t in tasks]
    assert labels == [
        "service/numa-aware-x1", "service/numa-blind-x1",
        "service/numa-aware-x2", "service/numa-blind-x2",
        "service/fifo-x2", "service/chaos-x1",
    ]
    # policy pairs share a seed: the job streams must be identical
    assert tasks[0].seed == tasks[1].seed
    assert tasks[2].seed == tasks[3].seed
    assert tasks[5].params["faults"].startswith("link-down@link:0")


def test_plan_identities_are_stable():
    a = [t.identity() for t in ext_service.plan(quick=True, seed=0)]
    b = [t.identity() for t in ext_service.plan(quick=True, seed=0)]
    assert a == b
    assert len(set(a)) == len(a)  # no colliding cache keys


def test_leg_is_deterministic_per_seed():
    """The service-smoke CI determinism gate, in miniature."""
    kw = dict(seed=7, cal=None, hosts=1, policy="numa-aware",
              rate_per_host=40.0, duration=4.0)
    a = service_leg(**kw)
    b = service_leg(**kw)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["completed"] > 0


def test_policies_share_the_job_stream_but_not_placement():
    kw = dict(seed=3, cal=None, hosts=1, rate_per_host=40.0, duration=4.0)
    aware = service_leg(policy="numa-aware", **kw)
    blind = service_leg(policy="numa-blind", **kw)
    assert aware["submitted"] == blind["submitted"]
    assert aware["remote_placements"] == 0
    assert blind["remote_placements"] > 0


def test_quick_report_reproduces_and_caches():
    report = ext_service.run(quick=True, seed=0)
    assert report.all_ok
    # re-running the same plan hits identical task identities
    tasks = ext_service.plan(quick=True, seed=0)
    results = run_tasks(tasks)
    again = ext_service.assemble(results, quick=True, seed=0)
    assert again.render() == report.render()


def test_policy_env_override():
    config = RunConfig.from_env({"REPRO_SERVICE_POLICY": "fifo"})
    assert config.service_policy == "fifo"
    tasks = ext_service.plan(quick=True, seed=0, config=config)
    assert "service/fifo-x1" in [t.label for t in tasks]
    with pytest.raises(ValueError, match="REPRO_SERVICE_POLICY"):
        RunConfig.from_env({"REPRO_SERVICE_POLICY": "nope"})


def test_arrival_env_override():
    config = RunConfig.from_env({"REPRO_SERVICE_ARRIVAL": "12.5"})
    assert config.arrival_rate == 12.5
    tasks = ext_service.plan(quick=True, seed=0, config=config)
    assert tasks[0].params["rate_per_host"] == 12.5
    for bad in ("-3", "fast"):
        with pytest.raises(ValueError, match="REPRO_SERVICE_ARRIVAL"):
            RunConfig.from_env({"REPRO_SERVICE_ARRIVAL": bad})


def test_env_overrides_change_cache_identity():
    base = [t.identity() for t in ext_service.plan(quick=True, seed=0)]
    changed = [t.identity() for t in ext_service.plan(
        quick=True, seed=0, config=RunConfig(arrival_rate=20.0))]
    assert base != changed
