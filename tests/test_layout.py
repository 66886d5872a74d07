"""Source-layout rules that keep slow paths from coming back."""

import ast
import pathlib

import zetasteps

SRC = pathlib.Path(zetasteps.__file__).parent


def imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_only_ddmath_imports_decimal():
    # Decimal arithmetic costs tens of microseconds per call; it may only
    # seed dd constants and cached logs inside ddmath.
    files = sorted(SRC.glob("*.py"))
    users = [f.name for f in files if "decimal" in imported_modules(f)]
    assert users == ["ddmath.py"]
