"""Every name the package exports, and every public function, class and
method it defines, has a caller in the package or the acceptance gate;
numpy is the only third-party package the command imports; and
``asymptotics`` calls einsum only in its one second-order kernel."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncelab"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def public_definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, name) of module-level functions and classes and of
    the methods of those classes, leaving out names that start with '_'."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def referenced_names(path: Path, attributes: bool = False) -> set[str]:
    """Names read as identifiers or imported by name, and with ``attributes``
    the names of attribute accesses; docstrings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif attributes and isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def callers() -> list[Path]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return paths + [ROOT / "tests" / "test_acceptance.py"]


def test_every_export_has_a_caller():
    used = set().union(*(referenced_names(p) for p in callers()))
    assert sorted(exported_names() - used) == []


def test_every_public_definition_has_a_caller():
    used = set().union(*(referenced_names(p, attributes=True) for p in callers()))
    unused = [
        f"{path.stem}.{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in public_definitions(path)
        if name not in used
    ]
    assert unused == []


def test_asymptotics_uses_einsum_only_in_its_one_kernel():
    # every second-order factor is sum_x G_x^T W_x G_x through _sandwich; a factor spelled
    # with its own einsum would bring back a second path to the same sums
    tree = ast.parse((PACKAGE / "asymptotics.py").read_text(encoding="utf-8"))
    (kernel,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_sandwich"]
    inside = {id(n) for n in ast.walk(kernel)}
    uses = [
        n for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and n.attr == "einsum")
        or (isinstance(n, ast.Name) and n.id == "einsum")
    ]
    assert uses
    assert [n.lineno for n in uses if id(n) not in inside] == []


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this process has scipy loaded as the tests' reference
    probe = (
        "import sys, ncelab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
