"""The benchmark's per-layer ledger wraps entry points by name
(``benchmarks/e2e/tracing.py``'s ``TRACE_POINTS``).  A rename under ``src/``
would silently drop that layer's span instead of failing anything — so
every ``(module, attribute)`` the ledger names must resolve here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("_e2e_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    missing = []
    for span, points in tracing.TRACE_POINTS.items():
        for module_name, attr in points:
            try:
                target = importlib.import_module(module_name)
                for part in attr.split("."):
                    target = getattr(target, part)
            except (ImportError, AttributeError):
                target = None
            if not callable(target):
                missing.append(f"{span}: {module_name}.{attr}")
    assert not missing
