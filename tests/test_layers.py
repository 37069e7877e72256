"""The model packages never import the layers built on top of them.

``sim``, ``phy``, ``mac``, ``traffic``, ``core``, ``baseline``,
``metrics``, ``obs`` and ``faults`` make up the simulated model.  The
scenario, execution, harness and service layers (``network``,
``exec``, ``experiments``, ``validate``, ``serve``, ``redteam``,
``ess``, ``bench``, ``accel``) import the model, never the reverse.
The walk reads every import statement, at module level and inside
functions, so a lazy upward import fails here too.
"""

import ast
import pathlib

import repro

MODEL = ("sim", "phy", "mac", "traffic", "core", "baseline", "metrics",
         "obs", "faults")
UPPER = ("network", "exec", "experiments", "validate", "serve", "redteam",
         "ess", "bench", "accel")

ROOT = pathlib.Path(repro.__file__).parent


def _imported_modules(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, absolute dotted name) of everything ``path`` imports;
    ``from X import a`` yields ``X.a`` too, since ``a`` may be a module."""
    parts = ["repro", *path.relative_to(ROOT).with_suffix("").parts]
    package = parts[:-1]  # a module's own package; __init__ included
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            found.append((node.lineno, module))
            found += [(node.lineno, f"{module}.{alias.name}")
                      for alias in node.names]
    return found


def test_model_packages_import_no_upper_layer():
    upward = []
    for package in MODEL:
        for path in sorted((ROOT / package).rglob("*.py")):
            for line, module in _imported_modules(path):
                names = module.split(".")
                if names[0] == "repro" and len(names) > 1 and names[1] in UPPER:
                    upward.append(f"{path.relative_to(ROOT)}:{line} {module}")
    assert upward == []


def test_the_walk_resolves_relative_imports():
    """Relative forms resolve to the module they name (a fixture for
    the walk itself, so the check above cannot pass vacuously)."""
    found = {name for _, name in _imported_modules(ROOT / "network" / "bss.py")}
    assert "repro.faults.plan" in found  # from ..faults.plan import FaultPlan
    assert "repro.validate.invariants" in found  # lazy, inside a method
    init = {name for _, name in _imported_modules(ROOT / "faults" / "__init__.py")}
    assert "repro.faults.plan" in init  # from .plan import ... in __init__
    baseline = ROOT / "baseline" / "conventional.py"
    assert "repro.core" in {name for _, name in _imported_modules(baseline)}
