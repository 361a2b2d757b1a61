#!/usr/bin/env python3
"""Which functions of ``src/repro`` do the ledger, the CLI and the examples run?

Runs each entry point in a fresh ``python`` under a
``sys.setprofile``/``threading.setprofile`` hook that records every
Python function entered, then diffs that set against every ``def`` the
AST of ``src/repro`` declares:

* the quick report (``report --no-cache``);
* a cold (``-j 2``, so the worker-pool path runs too), then warm, cached
  report into a temporary cache directory;
* ``list``, ``run fig09`` and ``run ext-recovery`` under a link-down
  fault plan;
* every ``examples/*.py``;
* with ``--full``, also ``report --full --no-cache`` (minutes when
  profiled).

Each entry point runs as ``reachability.py --probe PREFIX KIND TARGET
ARGS...``; worker processes of the ``-j 2`` run flush their own records
when they exit.  Prints reached/total functions and the unreached ones grouped by
file, each with its body lines.

Usage::

    python scripts/reachability.py [--full]

Exit status: 0 = measured, 1 = an entry point failed.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import defaultdict
from typing import Iterable, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: A function's identity: (path relative to the package's parent, line of
#: its code object — the first decorator, else the ``def`` — and name).
Key = tuple[str, int, str]


class Function(NamedTuple):
    """One ``def`` in the package source."""

    path: str
    line: int
    name: str
    qualname: str
    lines: int
    outer: Key | None  # the innermost enclosing function, if any

    @property
    def key(self) -> Key:
        return (self.path, self.line, self.name)


def functions(package: pathlib.Path) -> list[Function]:
    """Every function and method the package's source defines."""
    out: list[Function] = []

    def visit(node: ast.AST, rel: str, prefix: str, outer: Key | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                fn = Function(rel, line, child.name, prefix + child.name,
                              child.end_lineno - child.lineno + 1, outer)
                out.append(fn)
                visit(child, rel, f"{fn.qualname}.<locals>.", fn.key)
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.", outer)
            else:
                visit(child, rel, prefix, outer)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).as_posix()
        visit(ast.parse(path.read_text(), str(path)), rel, "", None)
    return out


def unreached(defined: Iterable[Function],
              reached: set[Key]) -> list[Function]:
    """The defined functions whose key is not in *reached*."""
    return [fn for fn in defined if fn.key not in reached]


def render(defined: list[Function], reached: set[Key]) -> str:
    """Reached/total, then the unreached functions grouped by file.

    A function nested in an unreached function is listed but its lines
    are not added again to its file's or the overall body-line total.
    """
    missed = unreached(defined, reached)
    missed_keys = {fn.key for fn in missed}
    by_file: dict[str, list[Function]] = defaultdict(list)
    for fn in missed:
        by_file[fn.path].append(fn)

    def own_lines(fns: Iterable[Function]) -> int:
        return sum(fn.lines for fn in fns if fn.outer not in missed_keys)

    total = len(defined)
    out = [f"reached {total - len(missed)} of {total} functions; "
           f"{len(missed)} unreached ({own_lines(missed)} body lines)"]
    for path in sorted(by_file):
        fns = by_file[path]
        out.append(f"\n{path}  ({len(fns)} functions, "
                   f"{own_lines(fns)} lines)")
        out.extend(f"  {fn.line:5d}  {fn.qualname}  ({fn.lines})"
                   for fn in fns)
    return "\n".join(out)


# -- measurement -------------------------------------------------------------

def _probe(out_prefix: str, kind: str, target: str, argv: list[str]) -> None:
    """Run one entry point in this process, recording entered functions.

    *kind* is ``module`` (``python -m target``) or ``path`` (a script).
    Each process writes ``<out_prefix>.<pid>``; a forked pool worker
    registers its own flush, run when the worker exits.
    """
    import multiprocessing.util
    import runpy
    import threading

    root = os.path.realpath(PACKAGE.parent) + os.sep
    codes: set = set()

    def hook(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    def flush() -> None:
        sys.setprofile(None)
        files = {c.co_filename: os.path.realpath(c.co_filename) for c in codes}
        rows = {f"{os.path.relpath(files[c.co_filename], root)}:"
                f"{c.co_firstlineno}:{c.co_name}" for c in codes
                if files[c.co_filename].startswith(root)}
        pathlib.Path(f"{out_prefix}.{os.getpid()}").write_text(
            "\n".join(sorted(rows)))

    def after_fork(_hook) -> None:
        # a forked pool worker: record afresh and flush when it exits
        codes.clear()
        multiprocessing.util.Finalize(None, flush, exitpriority=100)

    # the registry holds its key weakly; *hook* lives as long as the probe
    multiprocessing.util.register_after_fork(hook, after_fork)
    sys.argv = [target, *argv]
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        # a diverging check exits non-zero; only a crash fails the probe
        if exc.code not in (None, 0):
            print(f"exit status {exc.code}", file=sys.stderr)
    finally:
        flush()


def _entry_points(tmp: pathlib.Path, full: bool) -> list[tuple[str, str, list[str]]]:
    cache = str(tmp / "cache")
    ledger = str(tmp / "ledger.md")
    points = [
        ("module", "repro", ["report", "--no-cache", "-o", ledger]),
        ("module", "repro", ["report", "-j", "2", "--cache-dir", cache,
                             "-o", ledger]),
        ("module", "repro", ["report", "--cache-dir", cache, "-o", ledger]),
        ("module", "repro", ["list"]),
        ("module", "repro", ["run", "fig09"]),
        ("module", "repro", ["run", "ext-recovery", "--faults",
                             "link-down@link:1,at=5,duration=2"]),
    ]
    points += [("path", str(p), []) for p in sorted((ROOT / "examples").glob("*.py"))]
    if full:
        points.append(("module", "repro",
                       ["report", "--full", "--no-cache", "-o", ledger]))
    return points


def measure(full: bool) -> set[Key] | None:
    """Run every entry point; the union of what they reached (None on a
    failed entry point)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    reached: set[Key] = set()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmpdir:
        tmp = pathlib.Path(tmpdir)
        for i, (kind, target, argv) in enumerate(_entry_points(tmp, full)):
            label = " ".join([target if kind == "path" else "-m " + target,
                              *argv])
            print(f"[{i}] {label}", file=sys.stderr, flush=True)
            prefix = str(tmp / f"reached-{i}")
            proc = subprocess.run(
                [sys.executable, __file__, "--probe", prefix, kind, target,
                 *argv],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"error: entry point failed ({proc.returncode}): {label}",
                      file=sys.stderr)
                return None
            for path in tmp.glob(f"reached-{i}.*"):
                for row in path.read_text().splitlines():
                    rel, line, name = row.split(":")
                    reached.add((rel, int(line), name))
    return reached


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe"]:
        _probe(argv[1], argv[2], argv[3], argv[4:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="also profile report --full --no-cache "
                        "(several minutes)")
    args = parser.parse_args(argv)
    reached = measure(args.full)
    if reached is None:
        return 1
    print(render(functions(PACKAGE), reached))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
