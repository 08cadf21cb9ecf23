"""Guard for the benchmark's layer tracer: its entry points must exist.

``perfbench/tracing.py`` patches irkit functions by module and attribute
name, so a rename or a removal in irkit would break ``run.py --trace 1``.
The tracer is loaded by path because ``perfbench`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mod_name,attr", load_tracing().ENTRY_POINTS)
def test_entry_point_resolves(mod_name, attr):
    obj = importlib.import_module(f"irkit.{mod_name}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"irkit.{mod_name}.{attr} is missing"
        obj = getattr(obj, part)
    assert callable(obj)

