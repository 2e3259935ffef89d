"""Module layout: every import sits at module level, the map deciders
depend on the externologies, never the other way round, and only `spaces`
touches the name-level read-outs of a space."""

import ast
from pathlib import Path

import extseq

PACKAGE = Path(extseq.__file__).parent


def parsed_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_function_level_imports():
    found = []
    for name, tree in parsed_modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append(f"{name}.{fn.name}:{node.lineno}")
    assert found == []


def imported_modules(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                out.add(f"extseq.{node.module}" if node.module else "extseq")
                if not node.module:
                    out |= {f"extseq.{alias.name}" for alias in node.names}
            else:
                out.add(node.module)
    return out


def test_exteriority_does_not_import_maps():
    modules = dict(parsed_modules())
    assert "extseq.exteriority" in imported_modules(modules["maps"])
    assert "extseq.maps" not in imported_modules(modules["exteriority"])


def test_only_spaces_reads_spaces_by_name():
    helpers = {"min_open_map", "attach_map", "captures"}
    found = []
    for name, tree in parsed_modules():
        if name == "spaces":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                continue
            found += [f"{name}:{node.lineno}:{h}" for h in used & helpers]
    assert found == []
