"""Source rules for the package: no check that ``python -O`` strips and no
handler that swallows every exception.

``assert`` statements vanish under ``python -O``, so a verification written
as one silently stops verifying; a bare ``except:`` or ``except Exception``
turns a programming error into whatever the handler reports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matcrypt"
BROAD = {"Exception", "BaseException"}


def _violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                if t is None:
                    yield node.lineno, "bare except"
                elif isinstance(t, ast.Name) and t.id in BROAD:
                    yield node.lineno, f"except {t.id}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_or_broad_except(path):
    found = [f"{path.name}:{line}: {what}" for line, what in _violations(path)]
    assert not found, "\n".join(found)


def test_rules_catch_each_form(tmp_path):
    src = tmp_path / "bad.py"
    src.write_text("assert x\n"
                   "try:\n    pass\nexcept:\n    pass\n"
                   "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
                   "try:\n    pass\nexcept BaseException as e:\n    pass\n"
                   "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert [what for _, what in _violations(src)] == [
        "assert statement", "bare except", "except Exception", "except BaseException"]
