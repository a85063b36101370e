"""Names that other code looks up: the package exports and the attributes the
benchmark's tracer wraps."""

import importlib.util
from pathlib import Path

import qvdw

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from qvdw import *", namespace)
    missing = [name for name in qvdw.__all__ if name not in namespace]
    assert missing == []


def test_every_traced_attribute_exists():
    # the traced run reads vars(owner)[attr] for each target and raises
    # KeyError when qvdw no longer defines one
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracing.qvdw_targets()
               if attr not in vars(owner)]
    assert missing == []
