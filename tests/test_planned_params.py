"""Every defaulted leg parameter has a caller.

A keyword parameter with a default that no experiment plan ever passes
is a configuration the ledger never runs: its value is a model
constant hiding in a signature.  For every target that some
experiment's ``plan(quick=...)`` returns, in either mode, each
defaulted keyword parameter must appear in the params of some planned
task for that target (``seed`` and ``cal`` come from the task itself).
"""

import inspect
from collections import defaultdict

from repro.core.experiments import ALL_ABLATIONS, ALL_EXTENSIONS, ALL_FIGURES


def _planned_tasks():
    for registry in (ALL_FIGURES, ALL_ABLATIONS, ALL_EXTENSIONS):
        for module in registry.values():
            plan = getattr(module, "plan", None)
            if plan is None:
                continue
            for quick in (True, False):
                yield from plan(quick=quick)


def test_every_defaulted_leg_parameter_is_planned():
    passed = defaultdict(lambda: {"seed", "cal"})
    task_for = {}
    for task in _planned_tasks():
        passed[task.target] |= set(task.params)
        task_for[task.target] = task
    assert task_for, "no experiment plans any task"
    unplanned = sorted(
        f"{target}:{name}"
        for target, task in task_for.items()
        for name, p in inspect.signature(task.resolve()).parameters.items()
        if p.default is not inspect.Parameter.empty
        and name not in passed[target])
    assert not unplanned, "never planned: " + ", ".join(unplanned)
