"""The package's runtime dependencies stay the standard library and numpy."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "thoughtsearch"}
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "thoughtsearch").glob("*.py"))
# The code that may keep an engine name alive: the engine, its scripts and
# its benchmark. Tests do not count.
CALLERS = sorted(path for top in ("src", "scripts", "perfbench") for path in (ROOT / top).rglob("*.py"))


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    assert SOURCES
    outside = {path.name: sorted(_imported_modules(path) - ALLOWED) for path in SOURCES}
    assert {name: modules for name, modules in outside.items() if modules} == {}


def _package_imports(path: Path) -> set[str]:
    """The package modules one source file imports: relative imports, and
    absolute ones that name the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            names.update(m for m in modules if m.split(".")[0] == "thoughtsearch")
    return names


def test_graph_and_config_import_only_errors_from_the_package():
    """The graph is the policy-free environment and the config the settings
    every layer reads, so neither depends on another layer."""
    src = ROOT / "src" / "thoughtsearch"
    assert {name: _package_imports(src / name) for name in ("graph.py", "config.py")} == {
        "graph.py": {"errors"},
        "config.py": {"errors"},
    }


def _unused_imports(path: Path) -> list[str]:
    """Names a module's top-level imports bind that nothing in the module
    names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in named]


def test_package_has_no_unused_imports():
    assert SOURCES
    unused = {path.name: _unused_imports(path) for path in SOURCES}
    assert {name: names for name, names in unused.items() if names} == {}


def _codec_bypasses(path: Path) -> list[str]:
    """Each call in one source file that decodes JSON, or picks its own
    separators for encoding it, outside the codec in errors.py."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append(f"line {node.lineno}: from json import")
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if not (isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            continue
        name = node.func.attr
        if name in ("load", "loads") or (
            name == "dumps" and any(kw.arg == "separators" for kw in node.keywords)
        ):
            found.append(f"line {node.lineno}: json.{name}")
    return found


def test_only_errors_decodes_json_and_picks_separators():
    """JSON is decoded, and written in a byte-stable form, by the codec in
    errors.py alone; the indented config and summary files and the request
    payload keep plain json.dumps."""
    assert SOURCES
    bypasses = {path.name: _codec_bypasses(path) for path in SOURCES if path.name != "errors.py"}
    assert {name: calls for name, calls in bypasses.items() if calls} == {}


def _referenced(node: ast.AST) -> set[str]:
    """Every name `node` refers to: as a name, an attribute or a string
    constant (perfbench wraps functions by name)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_engine_function_and_class_is_used():
    """A top-level function or class of the engine that no code refers to,
    outside its own definition, is dead: the engine keeps only the code its
    commands and workloads run."""
    assert SOURCES and CALLERS
    defined = {}  # (path, name) -> its definition
    used = []  # (path, top-level statement, the names it refers to)
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            used.append((path, stmt, _referenced(stmt)))
            if path in SOURCES and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[path, stmt.name] = stmt
    dead = [
        f"{path.name}:{name}"
        for (path, name), definition in defined.items()
        if not any(name in names for _, stmt, names in used if stmt is not definition)
    ]
    assert dead == []
