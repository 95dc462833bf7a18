"""Source hygiene: no module of the package imports a name it never reads."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plumeseek"

# (module, name) imported on purpose and never read: perfbench's tracer wraps
# belief.concentration under this name, as the import's comment says
WRAP_SITES = {("belief", "concentration")}


def unread_imports(path: Path) -> set[str]:
    """Names that path's import statements bind and no expression in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py files import to re-export, so they are left out
    found = {
        (".".join(path.relative_to(SRC).with_suffix("").parts), name)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
        for name in unread_imports(path)
    }
    assert found <= WRAP_SITES, sorted(found - WRAP_SITES)


def test_unread_imports_sees_through_aliases_and_attribute_reads(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "def f(x: np.ndarray):\n"
        "    import csv\n"
        "    return os.path.join(dumps(x))\n"
    )
    assert unread_imports(module) == {"parse", "csv"}
