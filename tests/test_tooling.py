"""Source hygiene: no module of ``src/kbd`` imports a name it never uses.

``__init__.py`` is left out, as its imports are the package's exports.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "kbd")
MODULES = sorted(path for path in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(path) != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports (``__future__`` aside) and never
    reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items()) if name not in used]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_reported():
    source = "import os\nfrom typing import Optional, Sequence\n" \
             "def f(x: Optional[int]): return os.sep\n"
    assert unused_imports(source) == ["Sequence (line 2)"]
