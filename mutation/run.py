"""Mutation testing for the ``pseudometric`` package, standard library only.

Usage::

    python mutation/run.py core:validate_pseudometric core:_raw_rational \
        --tests tests/test_core.py

Each target is ``module:function`` (or ``module:Class.method``), a function
in ``src/pseudometric/<module>.py``. Every site in its body gives one mutant
per replacement:

- comparison operators: ``<`` to ``<=`` or ``>=``, ``==`` to ``!=``, ``is``
  to ``is not``, ``in`` to ``not in``, and so on;
- arithmetic and bit operators, plain and augmented: ``+`` and ``-`` swap,
  ``*`` becomes ``//``, ``&`` and ``|`` swap, ``<<`` and ``>>`` swap, and so on;
- unary ``not`` and ``-``, dropped;
- int constants, to ``c + 1`` and to ``c - 1``.

The checkout is copied once to a temporary directory. Each mutant rewrites
its one function there (the rest of the file keeps its bytes) and runs the
test selection with ``pytest -x``. A mutant is killed when pytest fails,
timed out when it runs past the per-mutant limit (three times the unmutated
run, plus 10 s), and survives when the selection passes. The limit is
printed first; then the killed and timed-out counts, every survivor and the
elapsed time of the whole run. The exit status is 0 however many survive,
and 2 if the selection fails before any mutation.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "pseudometric"

COMPARE = {
    ast.Lt: (ast.LtE, ast.GtE),
    ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE),
    ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,),
    ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,),
    ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,),
    ast.NotIn: (ast.In,),
}
BINARY = {
    ast.Add: (ast.Sub,),
    ast.Sub: (ast.Add,),
    ast.Mult: (ast.FloorDiv,),
    ast.Div: (ast.Mult,),
    ast.FloorDiv: (ast.Mult,),
    ast.Mod: (ast.FloorDiv,),
    ast.Pow: (ast.Mult,),
    ast.BitAnd: (ast.BitOr,),
    ast.BitOr: (ast.BitAnd,),
    ast.BitXor: (ast.BitOr,),
    ast.LShift: (ast.RShift,),
    ast.RShift: (ast.LShift,),
}
IGNORED = ("__pycache__", ".git", ".pytest_cache", ".hypothesis", "*.egg-info", ".work-*")


@dataclass(frozen=True)
class Mutant:
    module: str
    target: str
    site: int  # index of the node in the function's sorted node list
    change: tuple  # ("compare", k, op) | ("binary", op) | ("drop",) | ("const", delta)
    line: int
    before: str
    after: str


def _find(tree: ast.Module, dotted: str) -> ast.FunctionDef:
    scope: list[ast.stmt] = tree.body
    *owners, name = dotted.split(".")
    for owner in owners:
        scope = next(n.body for n in scope if isinstance(n, ast.ClassDef) and n.name == owner)
    for node in scope:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {dotted!r}")


def _nodes(func: ast.FunctionDef) -> list[ast.AST]:
    # Every node of the body in source order; mutant ``site`` indexes this list.
    found = [n for stmt in func.body for n in ast.walk(stmt) if hasattr(n, "lineno")]
    return sorted(found, key=lambda n: (n.lineno, n.col_offset, n.end_lineno, -n.end_col_offset))


def _changes(node: ast.AST) -> list[tuple]:
    if isinstance(node, ast.Compare):
        return [("compare", k, new) for k, op in enumerate(node.ops) for new in COMPARE[type(op)]]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
        return [("binary", new) for new in BINARY[type(node.op)]]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        return [("drop",)]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [("const", 1), ("const", -1)]
    return []


def _apply(node: ast.AST, change: tuple) -> ast.AST:
    # The mutated copy of ``node``: what replaces it in the tree.
    kind = change[0]
    if kind == "drop":
        return node.operand
    new = copy.copy(node)
    if kind == "compare":
        new.ops = list(node.ops)
        new.ops[change[1]] = change[2]()
    elif kind == "binary":
        new.op = change[1]()
    else:
        new.value = node.value + change[1]
    return new


def mutants(module: str, target: str) -> list[Mutant]:
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    nodes = _nodes(_find(ast.parse(source), target))
    found = []
    for site, node in enumerate(nodes):
        for change in _changes(node):
            before = ast.get_source_segment(source, node) or ast.unparse(node)
            after = ast.unparse(_apply(node, change))
            found.append(Mutant(module, target, site, change, node.lineno, before, after))
    return found


def mutated_source(m: Mutant) -> str:
    """The module's source with ``m`` applied; only its function's lines change."""
    source = (ROOT / PACKAGE / f"{m.module}.py").read_text(encoding="utf-8")
    func = _find(ast.parse(source), m.target)
    node = _nodes(func)[m.site]
    replacement = _apply(node, m.change)
    for parent in ast.walk(func):
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, replacement)
            elif isinstance(value, list):
                value[:] = [replacement if v is node else v for v in value]
    lines = source.splitlines(keepends=True)
    first = min([func.lineno] + [d.lineno for d in func.decorator_list])
    body = textwrap.indent(ast.unparse(func), " " * func.col_offset) + "\n"
    return "".join(lines[: first - 1]) + body + "".join(lines[func.end_lineno :])


def run_tests(workdir: Path, tests: list[str], limit: float | None) -> str:
    """'passed', 'failed' or 'timeout' for the selection run in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        command,
        cwd=workdir,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # so a timeout ends the tests' own children too
    )
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "passed" if code == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="module:function, e.g. core:is_metric")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest selection")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    found = []
    for spec in args.targets:
        module, _, target = spec.partition(":")
        found += mutants(module, target)

    scratch = Path(tempfile.mkdtemp(prefix="mutation-"))
    try:
        workdir = scratch / "checkout"
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(*IGNORED))
        t0 = time.perf_counter()
        if run_tests(workdir, args.tests, None) != "passed":
            print("the unmutated test selection fails; no mutant was run", file=sys.stderr)
            return 2
        limit = 3 * (time.perf_counter() - t0) + 10
        print(f"{len(found)} mutants, tests {' '.join(args.tests)}, limit {limit:.0f} s per mutant")
        results: list[tuple[Mutant, str]] = []
        for m in found:
            path = workdir / PACKAGE / f"{m.module}.py"
            original = path.read_text(encoding="utf-8")
            path.write_text(mutated_source(m), encoding="utf-8")
            try:
                results.append((m, run_tests(workdir, args.tests, limit)))
            finally:
                path.write_text(original, encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for spec in args.targets:
        mine = [r for m, r in results if f"{m.module}:{m.target}" == spec]
        print(
            f"{spec}: {len(mine)} mutants, {mine.count('failed')} killed, "
            f"{mine.count('timeout')} timed out, {mine.count('passed')} survived"
        )
    survivors = [m for m, r in results if r == "passed"]
    print(f"survivors: {len(survivors)}")
    for m in survivors:
        print(f"  {m.module}.py:{m.line}  {m.target}  `{m.before}` -> `{m.after}`")
    elapsed = round(time.perf_counter() - started)
    print(f"elapsed: {elapsed // 60} min {elapsed % 60} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
