"""Every name the package exports, and every function that the traced
benchmark (``bench/inproc.py``) wraps by module and attribute, exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import swarmdec

INPROC = Path(__file__).resolve().parent.parent / "bench" / "inproc.py"
MODULES = [
    "swarmdec",
    *(f"swarmdec.{info.name}" for info in pkgutil.iter_modules(swarmdec.__path__)),
]


def test_traced_benchmark_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    targets = [(module, attribute) for module, attribute, *_ in inproc.TARGETS]
    assert targets
    missing = [t for t in targets if not hasattr(importlib.import_module(t[0]), t[1])]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
