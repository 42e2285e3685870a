"""Package layering: each package of ``repro`` imports only from its left.

The order, lowest first (packages in one tier do not import each other)::

    precision, ops, utils · gpu · perfmodel · formats · datasets · kernels
    · baselines · testing · cluster · serve · core · gnn

Every ``import`` in ``src/repro`` counts, function-level ones included: a
late import hides a cycle from the interpreter, not from this test.  The
``repro`` package's own ``__init__`` is the facade over all of them and is
not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

LAYERS = (
    ("precision", "ops", "utils"),
    ("gpu",),
    ("perfmodel",),
    ("formats",),
    ("datasets",),
    ("kernels",),
    ("baselines",),
    ("testing",),
    ("cluster",),
    ("serve",),
    ("core",),
    ("gnn",),
)
TIER = {package: tier for tier, packages in enumerate(LAYERS) for package in packages}

#: Imports against the order that are still there, as
#: ``(importing file, imported module)``.  This set may only shrink: it is
#: empty, so every package imports only from its left.
ALLOWED: set[tuple[str, str]] = set()


def _repro_imports(path: Path):
    """Every ``repro.*`` module ``path`` imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            names = [node.module or ""]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] == "repro")


def _upward_imports() -> set[tuple[str, str]]:
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if len(rel.parts) == 1:
            continue  # the top-level facade
        package = rel.parts[0]
        for module in _repro_imports(path):
            parts = module.split(".")
            target = parts[1] if len(parts) > 1 else None
            if target == package:
                continue
            if target is None or TIER[target] >= TIER[package]:
                found.add((rel.as_posix(), module))
    return found


def test_every_package_has_a_layer():
    packages = {p.name for p in SRC.iterdir() if (p / "__init__.py").exists()}
    assert packages == set(TIER)


def test_packages_import_only_from_their_left():
    assert _upward_imports() <= ALLOWED


def test_allowlist_holds_no_stale_entries():
    # An entry whose import is gone must leave the list with it.
    assert ALLOWED <= _upward_imports()
