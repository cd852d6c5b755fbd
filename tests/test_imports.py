"""Import hygiene: every module of the package uses each name it imports,
and defines each name its ``__all__`` exports.

No linter is a dependency of the project, so this walks the sources with
``ast``.  ``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ctxdrt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    """The trees of the quoted annotations in ``tree``, such as ``"Bounds"``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield ast.parse(part.value, mode="eval")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = set()
    for part in (tree, *_annotations(tree)):
        used.update(node.id for node in ast.walk(part) if isinstance(node, ast.Name))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "import os.path\nimport json as j\nfrom typing import Optional, Union, Any\n"
        "from .drs import DRS\nx: Optional[int] = j.loads('1')\n"
        "def f(box: 'Optional[DRS]') -> None: ...\n"
    )
    assert unused_imports(source) == ["Any", "Union", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def undefined_exports(source: str) -> list[str]:
    """The names in ``source``'s ``__all__`` that no top-level statement binds."""
    bound: set[str] = set()
    exported: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if names == {"__all__"}:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_undefined_exports_are_found():
    source = (
        "from .drs import DRS\nimport os.path\n__all__ = ['DRS', 'os', 'f', 'C', 'X', 'Y', 'gone']\n"
        "def f(): ...\nclass C: ...\nX, Y = 1, 2\n"
        "def g():\n    gone = 1\n"
    )
    assert undefined_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_a_module_defines_every_name_it_exports(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []
