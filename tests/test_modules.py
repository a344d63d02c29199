"""Each module of the package reaches the others through their public names."""
import ast
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
