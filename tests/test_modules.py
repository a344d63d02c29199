"""Each module of the package reaches the others through their public names."""
import ast
from collections import Counter
from pathlib import Path

import gadgetlab


def private_imports(package: Path) -> list[str]:
    """Every `from m import _name` in the package's modules, as file:line name."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    assert private_imports(Path(gadgetlab.__file__).parent) == []


def callers(path: Path, names: set[str]) -> dict[str, set[str]]:
    """For each of names, the top-level functions of the module at path that call it."""
    found: dict[str, set[str]] = {name: set() for name in names}
    for fn in ast.parse(path.read_text()).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
                    found[node.func.id].add(fn.name)
    return found


def test_only_cli_main_writes_the_envelope():
    """Commands return their body; main alone adds the config, writes the artifact and prints."""
    cli = Path(gadgetlab.__file__).parent / "cli.py"
    assert callers(cli, {"write_artifact", "_config_dict", "print"}) == {
        "write_artifact": {"main"}, "_config_dict": {"main"}, "print": {"main"}}


# Kept with no caller yet: the exact evaluators a labelling ledger will read.
AWAITING_CALLERS = {"games.evaluate_lin", "games.evaluate_pcp_labeling", "longcode.common_element"}


def definitions(tree: ast.Module):
    """The module's top-level functions, classes and assigned names, and the
    methods of its classes (dunders aside), as (node, qualified name, name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((m, f"{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"))
        if isinstance(node, ast.Assign):
            yield from ((node, t.id, t.id) for t in node.targets
                        if isinstance(t, ast.Name) and not t.id.startswith("__"))


def referenced_names(node: ast.AST) -> Counter:
    """How often each name, attribute or imported name occurs under node."""
    return Counter(n.id if isinstance(n, ast.Name) else
                   n.attr if isinstance(n, ast.Attribute) else n.name.rpartition(".")[2]
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def test_every_src_definition_has_a_caller():
    """By name: each definition in the package is used by the rest of the
    package, by the benchmark, or by an acceptance criterion."""
    package = Path(gadgetlab.__file__).parent
    root = package.parent.parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    inside = sum(map(referenced_names, trees.values()), Counter())
    outside = set()
    for path in [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]:
        outside |= set(referenced_names(ast.parse(path.read_text())))
    uncalled = {f"{module}.{qualified}" for module, tree in trees.items()
                for node, qualified, name in definitions(tree)
                if name not in outside and inside[name] == referenced_names(node)[name]}
    assert uncalled == AWAITING_CALLERS
