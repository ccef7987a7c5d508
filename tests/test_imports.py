"""Every module of the package uses each name that it imports."""
import ast
from pathlib import Path

import pytest

import fisherwatch

MODULES = sorted(Path(fisherwatch.__file__).parent.rglob("*.py"))


def unused_imports(source: str) -> list:
    """The names that the import statements of ``source`` bind and it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os.path\nfrom typing import Optional, Sequence\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Sequence"]
