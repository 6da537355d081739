"""Import layering of ``src/dendro``, read from the source with ``ast``.

The verifier (``certify``) owns the certificate format and its replay and
imports none of the modules that produce certificates: its ``dendro``
imports are exactly the face and complex layers.  ``reference`` holds the
paper's literal definitions for the tests: it imports only the tree, face
and shuffle layers, no command's module imports it, and no definition it
holds is left behind in the module it came from.  Every import sits at
module level: an import inside a function hides a dependency (or a cycle)
from the reader and from tools that rebind module-level names.

Every ``dendro`` command is a fresh process, so start-up cost is paid per
command: no module imports ``dataclasses`` (which pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``), and a fresh ``import dendro,
dendro.cli`` loads none of those five modules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dendro
from dendro import faces, shuffles, trees

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
    assert imports & PRODUCERS == set()
    assert imports == {"faces", "complexes"}


@pytest.mark.parametrize("name", sorted(PRODUCERS | {"certify"}))
def test_no_command_imports_reference(name):
    assert "reference" not in dendro_imports(_parse(SRC / f"{name}.py"))


def test_reference_imports_only_trees_faces_and_shuffles():
    assert dendro_imports(_parse(SRC / "reference.py")) <= {"trees", "faces", "shuffles"}


MOVED_TO_REFERENCE = {
    faces: [
        "valid_face_key", "classify_pair", "GOOD", "MIXED", "ADJACENT", "BAD_SIBLING_TOPS",
        "BAD_SIBLING_BOTTOMS", "MixedPairError", "commute_square", "join_faces", "_chain_up",
        "join_bad_tops_explicit", "apply_elementary_face",
    ],
    shuffles: ["satisfies_shuffle_conditions"],
    trees: ["graft", "operation_vertices", "unit_tree"],
}


@pytest.mark.parametrize("module", MOVED_TO_REFERENCE, ids=lambda m: m.__name__)
def test_the_moved_definitions_are_gone_from_their_old_modules(module):
    names = MOVED_TO_REFERENCE[module]
    assert [name for name in names if hasattr(module, name)] == []
    assert all(hasattr(dendro.reference, name) for name in names)


def absolute_imports(module: ast.Module) -> set[str]:
    """Top-level names of the absolute imports in ``module``."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in absolute_imports(_parse(path))


def test_fresh_import_stays_lean():
    # -S: only what dendro itself imports, not what site hooks add
    code = "import sys, dendro, dendro.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "dendro.cli" in out
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(out) == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_level_imports(_parse(path)) == []



CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "deque", "Counter"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_container(value: ast.expr | None) -> bool:
    if isinstance(value, CONTAINER_NODES):
        return True
    if isinstance(value, ast.Call):
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        return name in CONTAINER_CALLS
    return False


def module_level_containers(module: ast.Module) -> set[str]:
    """Names bound to a mutable container for the life of the module: at
    module level or in a class body, outside any function."""
    out = set()
    todo = list(module.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        todo.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))
    return out


def test_sub_cache_is_the_only_module_level_container():
    # a module-level memo lives as long as the process; the only one,
    # faces._sub_cache, is bounded by faces._SUB_BOUND
    found = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in module_level_containers(_parse(path))
        if name != "__all__"
    }
    assert found == {("faces", "_sub_cache")}
