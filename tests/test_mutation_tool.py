"""The mutator (``mutation/run.py``) sits outside ``tests/`` and is run by
hand. It is loaded by path here and only its pure parts are called: no
checkout is copied and no test run is started."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "mutation" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("mutation_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the Mutant dataclass looks its module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_each_mutant_changes_its_site(run):
    found = run.mutants("document", "parse_document")
    assert found
    for m in found:
        assert (m.module, m.target) == ("document", "parse_document")
        assert m.after != m.before


def test_mutated_source_changes_only_the_target_function(run):
    path = run.ROOT / run.PACKAGE / "document.py"
    source = path.read_text(encoding="utf-8")
    func = run._find(ast.parse(source), "parse_document")
    lines = source.splitlines(keepends=True)
    before, after = lines[: func.lineno - 1], lines[func.end_lineno :]
    for m in run.mutants("document", "parse_document"):
        mutated = run.mutated_source(m).splitlines(keepends=True)
        assert mutated[: len(before)] == before
        assert mutated[len(mutated) - len(after) :] == after
        assert mutated != lines
        ast.parse("".join(mutated))


def test_find_resolves_a_method_of_a_class(run):
    source = (run.ROOT / run.PACKAGE / "core.py").read_text(encoding="utf-8")
    node = run._find(ast.parse(source), "Space._zero_partition")
    assert isinstance(node, ast.FunctionDef) and node.name == "_zero_partition"
    assert run.mutants("core", "Space._zero_partition")
    with pytest.raises(SystemExit):
        run._find(ast.parse(source), "Space.no_such_method")
