"""Source rules for the package: no check that ``python -O`` strips, no
handler that swallows every exception, and no ``RingElement`` vector inside
the transporter recursion.

``assert`` statements vanish under ``python -O``, so a verification written
as one silently stops verifying; a bare ``except:`` or ``except Exception``
turns a programming error into whatever the handler reports.  The solvers of
``trapdoor`` pass vectors as flat per-summand data, converted once at the
public functions; a solver that calls a ``RingElement``-vector entry point
converts again at every node it passes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matcrypt"
BROAD = {"Exception", "BaseException"}
# the RingElement-vector entry points, and what the recursion uses instead:
# _act, _sample and _kron_split
VECTOR_ENTRY_POINTS = {"vector_act", "sample_transportable_vector",
                       "vector_tensor_split"}


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


def _solver_vector_uses(path: Path):
    """(line, class, name) for each use of a RingElement-vector entry point
    inside a class that is ``_Solver`` or derives from it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}

    def is_solver(name):
        c = classes.get(name)
        return c is not None and (name == "_Solver" or any(
            isinstance(b, ast.Name) and is_solver(b.id) for b in c.bases))
    for name, c in classes.items():
        if not is_solver(name):
            continue
        for node in ast.walk(c):
            used = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if used in VECTOR_ENTRY_POINTS:
                yield node.lineno, name, used


def test_solvers_pass_flat_vectors():
    found = [f"trapdoor.py:{line}: {cls} uses {name}"
             for line, cls, name in _solver_vector_uses(SRC / "trapdoor.py")]
    assert not found, "\n".join(found)


def test_solver_rule_catches_each_form(tmp_path):
    src = tmp_path / "bad.py"
    src.write_text("class _Solver:\n"
                   "    def sample(self):\n        return vector_act(u, g)\n"
                   "class _Unary(_Solver):\n    pass\n"
                   "class _Leaf(_Unary):\n"
                   "    def ltp(self):\n"
                   "        return trapdoor.sample_transportable_vector(t, rng)\n"
                   "    pairs_down = vector_tensor_split\n"
                   "class Other:\n"
                   "    def ltp(self):\n        return vector_act(u, g)\n"
                   "def free():\n    return vector_tensor_split(v, d, r)\n")
    assert [(cls, name) for _, cls, name in sorted(_solver_vector_uses(src))] == [
        ("_Solver", "vector_act"),
        ("_Leaf", "sample_transportable_vector"),
        ("_Leaf", "vector_tensor_split")]
