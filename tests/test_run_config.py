"""The run configuration: one parse of every knob, and the fault plan
travelling with the task instead of through the process environment."""

import ast
import multiprocessing
import pathlib

import pytest

import repro
from repro.__main__ import main
from repro.config import RunConfig
from repro.exec import SimTask, executor, run_tasks
from repro.faults.plan import FaultPlan, fault_scope, scoped_plan
from repro.sim.context import Context

SPEC = "link-down@link:1,at=5,duration=2"
PLAN = FaultPlan.parse(SPEC)


# -- defaults, parsing, flags ------------------------------------------------

def test_defaults_are_a_plain_run():
    assert RunConfig.from_env({}) == RunConfig()
    config = RunConfig()
    assert config.faults is None and config.jobs == 1 and not config.full


def test_from_env_reads_every_variable():
    config = RunConfig.from_env({
        "REPRO_FAULTS": SPEC, "REPRO_JOBS": "2", "REPRO_FULL": "1",
        "UNRELATED": "x"})
    assert config == RunConfig(faults=PLAN, jobs=2, full=True)
    # "0" and "1" are the only values; anything else fails fast
    assert not RunConfig.from_env({"REPRO_FULL": "0"}).full
    with pytest.raises(ValueError, match="REPRO_FULL must be 0 or 1"):
        RunConfig.from_env({"REPRO_FULL": "yes"})


def test_cli_rejects_a_bad_full_variable(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FULL", "true")
    assert main(["run", "table1"]) == 2
    assert ("bad environment: REPRO_FULL must be 0 or 1, got 'true'"
            in capsys.readouterr().err)


def test_cli_rejects_a_bad_variable_with_its_name(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert main(["run", "table1"]) == 2
    assert "bad environment: REPRO_JOBS" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["--faults", "link-down@link:1,at=oops"], "bad --faults spec:"),
    (["--faults", "link-down@link:1,at=nan"], "bad --faults spec:"),
])
def test_cli_rejects_a_bad_flag_with_its_name(argv, flag, capsys):
    assert main(["run", "table1", *argv]) == 2
    assert flag in capsys.readouterr().err


# -- the fault plan: explicit wins, the scope fills in -------------------------

def test_an_explicit_plan_wins_over_the_scope():
    own = FaultPlan.parse("link-down@link:0,at=1")
    assert Context.create().faults is None
    with fault_scope(PLAN):
        assert scoped_plan() == PLAN
        assert Context.create().faults.plan == PLAN
        assert Context.create(faults=own).faults.plan == own
        assert Context.create(faults=FaultPlan(())).faults is None
        # a task planned in the scope carries the plan; an explicit
        # None (or empty plan) is fault-free
        assert SimTask("m:f").faults == PLAN
        assert SimTask("m:f", faults=None).faults is None
        assert SimTask("m:f", faults=FaultPlan(())).faults is None
        with fault_scope(None):
            assert Context.create().faults is None
    assert scoped_plan() is None


def test_task_identity_golden():
    """Cache keys pinned byte-for-byte: fault-free and with a plan."""
    params = {"tool": "rftp", "faults": "link-down@link:0,at=4",
              "duration": 12.0, "fault_at": 4.0}
    target = "repro.core.experiments.fault_legs:recovery_leg"
    free = SimTask(target, params, seed=3)
    assert free.identity() == (
        '{"cal":null,"faults":"","params":{"duration":12.0,"fault_at":4.0,'
        '"faults":"link-down@link:0,at=4","tool":"rftp"},"seed":3,'
        '"target":"repro.core.experiments.fault_legs:recovery_leg","v":9}')
    assert free.cache_key("fp") == (
        "1335df40f21e696f160015a650b94381202d9eee502143ea5f226b8f3f29109e")
    armed = SimTask(target, params, seed=3, faults=FaultPlan.parse(
        "link-down@link:1,at=5,duration=2;crash@transfer:*,at=6"))
    assert armed.identity().startswith(
        '{"cal":null,"faults":"[{\\"at\\":5.0,\\"duration\\":2.0,'
        '\\"kind\\":\\"link-down\\",\\"target\\":\\"link:1\\"},'
        '{\\"at\\":6.0,\\"duration\\":0.0,\\"kind\\":\\"crash\\",'
        '\\"target\\":\\"transfer:*\\"}]","params"')
    assert armed.cache_key("fp") == (
        "4ed7069f1dd16200bf757b62d9413b30a48887db77c28335d90a4379a1775e99")


def armed_probe(*, seed, cal):
    """Task target: is a context created here armed, and where am I?"""
    ctx = Context.create(seed=seed, cal=cal)
    return {"armed": ctx.faults is not None and ctx.faults.plan == PLAN,
            "in_worker": multiprocessing.parent_process() is not None}


def test_a_task_arms_its_plan_in_a_worker(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    tasks = [
        SimTask("tests.test_run_config:armed_probe", faults=PLAN),
        SimTask("repro.core.reportgen:run_whole_experiment",
                {"registry": "figures", "name": "fig09", "quick": True},
                faults=PLAN),
    ]
    with executor(jobs=2):
        probe, report = run_tasks(tasks)
    assert probe == {"armed": True, "in_worker": True}
    assert report.render() == tasks[1].execute().render()
    fault_free = SimTask(tasks[1].target, tasks[1].params).execute()
    assert report.render() != fault_free.render()


# -- legs own their plans (these crashed or were overridden before) ----------

def test_ext_recovery_runs_under_a_run_wide_plan(capsys):
    assert main(["run", "ext-recovery", "--faults", SPEC]) == 0


def test_service_chaos_leg_keeps_its_own_plan(capsys):
    def chaos_lines(argv):
        assert main(["run", "ext-service", *argv]) == 0
        out = capsys.readouterr().out
        return [ln for ln in out.splitlines() if "chaos" in ln.lower()]

    alone = chaos_lines([])
    scoped = chaos_lines(["--faults", SPEC])
    assert any("rail failure injected" in ln and ln.rstrip().endswith("OK")
               for ln in scoped)
    assert scoped == alone


# -- the guard: nothing in src/ reads the environment but from_env -----------

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv",
              "unsetenv"}


def _env_accesses(tree: ast.AST):
    """``(scope, line)`` of every environment access in *tree*."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from walk(child, (*scope, child.name))
                continue
            name = (child.attr if isinstance(child, ast.Attribute)
                    else child.id if isinstance(child, ast.Name)
                    else child.name if isinstance(child, ast.alias)
                    else None)
            if name in _ENV_NAMES:
                yield ".".join(scope), child.lineno
            yield from walk(child, scope)

    return walk(tree, ())


def test_only_run_config_reads_the_environment():
    root = pathlib.Path(repro.__file__).parent
    hits = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in _env_accesses(tree):
            hits.add((path.relative_to(root).as_posix(), scope, line))
    outside = sorted(h for h in hits
                     if h[:2] != ("config.py", "RunConfig.from_env"))
    assert not outside, f"environment access outside from_env: {outside}"
    assert hits, "the guard found no access at all: it is not looking"
