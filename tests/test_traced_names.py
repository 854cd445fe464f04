"""Every function the benchmark tracer rebinds must exist under its name.

`perfbench/tracing.py` looks each one up by module and attribute path, so a
rename in the program would otherwise break only traced benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import TRACED  # noqa: E402


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _ in TRACED])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])
