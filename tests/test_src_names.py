"""Every module-level name in src/qsolve has a caller outside tests/: code
that only the tests use belongs in tests/, not in the package. Every name a
module imports is read by it or reached through it from outside tests/. The
tests' reference computations in tests/oracles.py import nothing from the
package they check."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsolve"
CALLER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def module_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions, classes and constants, by name, with the node
    that defines each; dunders such as ``__version__`` are protocol, not code."""
    defs: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return {name: node for name, node in defs.items() if not name.startswith("__")}


def annotation_names(annotation: ast.AST) -> set[str]:
    """Names in an annotation, including those inside string annotations."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= annotation_names(ast.parse(node.value, mode="eval"))
    return names


def read_names(tree: ast.AST, skip: set[int] = frozenset()) -> set[str]:
    """Plain names read or annotated anywhere in ``tree``, ignoring the nodes
    whose ids are in ``skip``; docstrings and comments never count."""
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            names |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= annotation_names(node.annotation)
    return names


def referenced_names(tree: ast.AST, skip: set[int] = frozenset()) -> set[str]:
    """:func:`read_names`, and the names of attributes and imports."""
    names = read_names(tree, skip)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rpartition(".")[2] for alias in node.names}
    return names


def imported_names(tree: ast.Module) -> set[str]:
    """The names the import statements anywhere in ``tree`` bind; a
    ``from __future__`` import is a compiler directive, not a name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def reached_names(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` for each ``module.name`` read and each ``from
    module import name`` in ``tree``, the module by the last part of its
    dotted name (or the name it is held under)."""
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
            owner = node.value
            pairs.add((owner.id if isinstance(owner, ast.Name) else owner.attr, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            pairs |= {(node.module.rpartition(".")[2], alias.name) for alias in node.names}
    return pairs


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_package_name_has_a_caller_outside_tests():
    trees = {path: parse(path) for root in CALLER_DIRS for path in sorted(root.rglob("*.py"))}
    refs = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in module_definitions(trees[path]).items():
            own = {id(node) for node in ast.walk(definition)}
            if name in referenced_names(trees[path], own):
                continue
            if not any(name in names for other, names in refs.items() if other != path):
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []


def test_every_import_in_src_is_read_or_reached_through_its_module():
    trees = {path: parse(path) for root in CALLER_DIRS for path in sorted(root.rglob("*.py"))}
    reached = set().union(*map(reached_names, trees.values()))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = PACKAGE.name if path.stem == "__init__" else path.stem
        for name in sorted(imported_names(trees[path]) - read_names(trees[path])):
            if (module, name) not in reached:
                unread.append(f"{path.relative_to(ROOT)}: {name}")
    assert unread == []


def test_the_oracles_import_nothing_from_qsolve():
    imported = set()
    for node in ast.walk(parse(ROOT / "tests" / "oracles.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert sorted(m for m in imported if m.split(".")[0] == "qsolve") == []
