"""The package's export list, and the test oracles' independence from it."""

import ast
from pathlib import Path

import demix

# The public data containers the oracles build; they carry no arithmetic.
ORACLE_CONTAINERS = {"DemixState"}


def test_all_names_are_exported_once():
    assert len(demix.__all__) == len(set(demix.__all__))
    assert [name for name in demix.__all__ if not hasattr(demix, name)] == []


def test_oracles_import_only_numpy_mpmath_and_public_containers():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if a.name not in ("numpy", "mpmath")]
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module == "demix":
                bad += sorted(names - ORACLE_CONTAINERS)
            elif node.module != "__future__":
                bad.append(f"{node.module}: {sorted(names)}")
    assert bad == []
