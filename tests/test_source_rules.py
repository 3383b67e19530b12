"""Source rules for the package: no check that ``python -O`` strips, no
handler that swallows every exception, no ``RingElement`` vector inside
the transporter recursion, and no ``RingElement`` view of a matrix in the
solvers, oracles and attacks.

``assert`` statements vanish under ``python -O``, so a verification written
as one silently stops verifying; a bare ``except:`` or ``except Exception``
turns a programming error into whatever the handler reports.  The solvers of
``trapdoor`` pass vectors as flat per-summand data, converted once at the
public functions; a solver that calls a ``RingElement``-vector entry point
converts again at every node it passes.  Likewise the solvers, the leaf
groups, the oracles and the attacks read a matrix only as ``Matrix.data``;
``rows`` and ``a[i, j]`` build n^2 ``RingElement``s.  ``cli`` imports inside
a function only the modules that a cold ``import matcrypt.cli`` would
otherwise pay for (``LAZY_CLI_MODULES``); everything else it imports once at
the top.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matcrypt.analysis import (enumerate_group, oracle_conjugator, oracle_member,
                               oracle_transporter)
from matcrypt.cli import main
from matcrypt.errors import CapExceeded
from matcrypt.instance import tree_eval, tree_random
from matcrypt.matrix import Matrix, mat_inv, mat_mul, vector_act, word_eval
from matcrypt.rng import Rng
from matcrypt.trapdoor import ltp_solve, membership, sample_transportable_vector
from test_golden_digest import HAND_TREES

SRC = Path(__file__).resolve().parent.parent / "src" / "matcrypt"
BROAD = {"Exception", "BaseException"}
# the RingElement-vector entry points, and what the recursion uses instead:
# _act, _sample and _kron_split
VECTOR_ENTRY_POINTS = {"vector_act", "sample_transportable_vector",
                       "vector_tensor_split"}
# the modules cli may import inside a function, to keep its cold import short
LAZY_CLI_MODULES = {"instance", "trapdoor", "analysis", "protocol", "homcrypt"}


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


class _ViewBuilt(Exception):
    """Raised by the patched views; no handler of the package catches it."""


def test_solvers_oracles_and_attacks_read_only_matrix_data(monkeypatch):
    def refuse(*args):
        raise _ViewBuilt("a RingElement view of a matrix was built")
    monkeypatch.setattr(Matrix, "rows", property(refuse))
    monkeypatch.setattr(Matrix, "__getitem__", refuse)
    trees = HAND_TREES + [tree_random(45, i, max_degree=9, max_ring=4000)
                          for i in range(30)]
    oracles = 0
    for i, t in enumerate(trees):
        gens = tree_eval(t).gens
        rng = Rng(i)
        g = word_eval(gens, [rng.randint(1, len(gens)) for _ in range(3)] + [-1])
        assert membership(t, g).accepted
        u = sample_transportable_vector(t, rng)
        v = vector_act(u, g)
        assert isinstance(ltp_solve(t, u, v), Matrix)
        try:
            enum = enumerate_group(gens, 600)
        except CapExceeded:
            continue
        oracles += 1
        h = gens[0]
        f = mat_mul(mat_mul(mat_inv(h), g), h)
        assert oracle_member(enum, g)[0]
        assert oracle_conjugator(enum, f, g)[0]
        assert oracle_transporter(enum, u, v)[0]
    assert oracles >= 40
    for argv in (["attack", "scsp"], ["attack", "scsp", "--q", "9"],
                 ["attack", "linearity"], ["attack", "linearity", "--q", "9"]):
        assert main(argv) == 0, argv


def _local_imports(path: Path):
    """(line, module) for each import inside a function body; a relative
    module is named without its package (``.trapdoor`` is ``trapdoor``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    # keyed by node: a nested function's imports are walked twice
    nodes = {id(node): node for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    for node in nodes.values():
        if isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or "."
        else:
            yield from ((node.lineno, a.name) for a in node.names)


def test_cli_imports_only_the_heavy_modules_lazily():
    found = [f"cli.py:{line}: imports {module}"
             for line, module in _local_imports(SRC / "cli.py")
             if module not in LAZY_CLI_MODULES]
    assert not found, "\n".join(found)


def test_local_import_rule_catches_each_form(tmp_path):
    src = tmp_path / "bad.py"
    src.write_text("import json\n"
                   "from .serialize import dumps\n"
                   "def cmd(args):\n"
                   "    from .trapdoor import membership\n"
                   "    from .serialize import dumps\n"
                   "    if args:\n        from math import gcd\n"
                   "    def inner():\n        import json, os\n"
                   "class C:\n"
                   "    def m(self):\n        from . import words\n")
    assert sorted(_local_imports(src)) == [
        (4, "trapdoor"), (5, "serialize"), (7, "math"), (9, "json"), (9, "os"),
        (12, ".")]


def test_cli_import_leaves_the_heavy_modules_unloaded():
    code = ("import sys, matcrypt.cli; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('matcrypt.'))))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert res.returncode == 0, res.stderr
    loaded = {m.rpartition(".")[2] for m in res.stdout.split()}
    assert "cli" in loaded and not loaded & LAZY_CLI_MODULES, loaded
