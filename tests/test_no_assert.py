"""The package and the scripts hold no assert statement.

python -O strips asserts, so a verdict or consistency check written as one
would silently change under -O; internal checks raise typed errors instead.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wallman"
SCRIPTS = ROOT / "scripts"


def test_no_assert_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
