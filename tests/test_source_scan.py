"""Every function and class in the package is used by the package itself."""

import ast
import importlib
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "careercast"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree) -> Counter:
    """Identifiers read or written as names or attributes under ``tree``.

    Import lines and ``__all__`` hold aliases and strings, not names, so
    they count for nothing; neither does a definition's own name.
    """
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def outside_overrides(module_name: str, tree) -> set[tuple[str, str]]:
    """(class, method) pairs that override a method of a class outside the
    package, such as ``argparse.ArgumentParser.error``: that class calls them."""
    module = importlib.import_module(module_name)
    pairs = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            outside = [
                base for base in getattr(module, node.name).__mro__[1:]
                if not base.__module__.startswith("careercast")
            ]
            pairs |= {(node.name, name) for base in outside for name in vars(base)}
    return pairs


def test_every_definition_is_used_inside_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.rglob("*.py")}
    uses = sum((referenced_names(tree) for tree in trees.values()), Counter())
    for tree in trees.values():  # `from .synth import write_csv as write_synth_csv`
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        uses[alias.name] += uses[alias.asname]
    unused = []
    for path, tree in trees.items():
        module_name = ".".join(("careercast", *path.relative_to(PACKAGE).with_suffix("").parts))
        called_from_outside = outside_overrides(module_name.removesuffix(".__init__"), tree)
        owners = {
            child: parent.name
            for parent in ast.walk(tree) if isinstance(parent, ast.ClassDef)
            for child in parent.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if (owners.get(node), node.name) in called_from_outside:
                continue
            # a recursive call inside the definition is no outside use
            if uses[node.name] - referenced_names(node)[node.name] <= 0:
                unused.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}")
    assert not unused, "defined but never used in src/careercast: " + ", ".join(unused)
