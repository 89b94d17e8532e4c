"""The benchmark tracer (``perfbench/tracing.py``) rebinds package names by
string; a name removed or renamed in the package would break a traced run.
The tracer is loaded by path and only read. Its validation counts also
assume that the CLI validates each file exactly once."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [target for _, targets in tracing.LAYERS.values() for target in targets]


@pytest.mark.parametrize("module_name, attr", _traced_names())
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"pseudometric.{module_name}")
    if attr.startswith("_RUNNERS["):
        target = module._RUNNERS[attr[len("_RUNNERS["):-1]]
    else:
        target = module
        for part in attr.split("."):
            target = getattr(target, part)
    assert callable(target)


DOCUMENTS = {
    "metric": '{"points": ["a", "b", "c"], "d": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}',
    "classes": '{"points": ["a", "b", "c"], "d": [["0", "0", "1/2"], ["0", "0", "1/2"], ["1/2", "1/2", "0"]]}',
    "broken": '{"points": ["a", "b", "c"], "d": [["0", "1", "1"], ["1", "0", "3"], ["1", "3", "0"]]}',
}


@pytest.mark.parametrize("command", ["validate", "reflect"])
@pytest.mark.parametrize("document", DOCUMENTS)
def test_cli_validates_each_file_once(command, document, tmp_path, monkeypatch, capsys):
    # The benchmark's core.validate_* metrics count these calls, so the CLI
    # must reach the exhaustive scan exactly once per file, by this name.
    core = importlib.import_module("pseudometric.core")
    cli = importlib.import_module("pseudometric.cli")
    original, calls = core.validate_pseudometric, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pseudometric" or name.startswith("pseudometric."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    path = tmp_path / "space.json"
    path.write_text(DOCUMENTS[document])
    cli.main([command, str(path)])
    assert len(calls) == 1
