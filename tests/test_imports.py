"""Every module of the package, the tests and the demos uses each name it imports,
and the package root exports exactly the names listed here.

Package ``__init__.py`` files are skipped by the import scan: their imports
are re-exports.
"""

import ast
import types
from pathlib import Path

import pytest

import nbminer

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "nbminer", ROOT / "tests", ROOT / "demos")
                 for p in d.glob("*.py") if p.name != "__init__.py")


# what a caller calls or builds as input; the records that calls return stay
# importable from their modules. A new export is added here on purpose.
EXPORTS = [
    "BasketFormatError", "ConvergenceError", "GenConfig", "GroundTruth",
    "MinerConfig", "NBParams", "PRESETS", "TransactionDatabase",
    "UnderdispersedError", "allconf_runs", "find_threshold", "fit_database",
    "fit_moments", "generate", "gof_chi2", "load_basket", "mine_allconf",
    "mine_frequent", "nb_dfs", "nb_gen", "nb_pmf_prefix", "nb_runs",
    "nb_select", "predicted_precision", "preset_config", "read_itemsets",
    "read_model", "read_sweep", "read_truth", "score", "support_runs", "sweep",
    "write_basket", "write_itemsets", "write_model", "write_sweep", "write_truth",
]


def test_root_exports_are_the_listed_names():
    public = sorted(name for name, value in vars(nbminer).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == EXPORTS


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_scan_finds_unused_names():
    src = "import os.path\nimport sys as s\nfrom a import b, c as d\nfrom __future__ import annotations\nos, d\n"
    assert unused_imports(src) == [(2, "s"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
