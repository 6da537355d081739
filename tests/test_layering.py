"""Import layering of ``src/dendro``, read from the source with ``ast``.

The verifier (``certify``) owns the certificate format and its replay and
imports none of the modules that produce certificates: it shares with them
only the face and complex layers.  Every import sits at module level: an
import inside a function hides a dependency (or a cycle) from the reader
and from tools that rebind module-level names.
"""

import ast
from pathlib import Path

import pytest

import dendro

SRC = Path(dendro.__file__).resolve().parent
PRODUCERS = {"anodyne", "order", "pushout", "cli"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def dendro_imports(module: ast.Module) -> set[str]:
    """The ``dendro`` modules that ``module`` imports, by short name."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "dendro" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            names = [base] if node.module else [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "dendro" and len(parts) > 1:
                out.add(parts[1])
    return out


def function_level_imports(module: ast.Module) -> list[str]:
    return [
        f"line {node.lineno} in {fn.name}"
        for fn in ast.walk(module)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_certify_imports_no_producer():
    imports = dendro_imports(_parse(SRC / "certify.py"))
    assert imports, "expected certify to import the face layers"
    assert imports & PRODUCERS == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_level_imports(_parse(path)) == []

