"""The benchmark tracer (``perfbench/tracing.py``) rebinds package names by
string; a name removed or renamed in the package would break a traced run.
The tracer is loaded by path and only read."""

import importlib
import importlib.util
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
