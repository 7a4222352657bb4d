"""The engine modules stand apart from the scalar operator pipeline, which
stays as the independent oracle they are tested against."""

import ast
from pathlib import Path

import pytest

import lgscan

ENGINE = ("grid", "jointmeas", "scan", "config")
ORACLE = {"linalg", "measurement", "inequalities", "nsit"}


def _imported_modules(path: Path) -> set[str]:
    """Last components of every lgscan module `path` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            if node.level or node.module == "lgscan":  # `from . import linalg`
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ENGINE)
def test_engine_imports_no_oracle_module(module):
    path = Path(lgscan.__file__).with_name(f"{module}.py")
    assert not _imported_modules(path) & ORACLE


def test_finds_oracle_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .linalg import X\nfrom . import nsit\nimport lgscan.measurement\n"
                   "from lgscan import inequalities\n")
    assert _imported_modules(src) & ORACLE == ORACLE
