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
