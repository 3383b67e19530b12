"""Mutation probe: which one-token faults in a module do the named tests miss?

    python3 tools/mutants.py MODULE TESTS N SEED [FUNCTION]

MODULE is a Python file and TESTS one argument of pytest paths or node ids,
separated by spaces, both relative to the current directory.  The probe lists
every mutation site of MODULE, or of FUNCTION within it (a name such as
``ltp_pure`` or ``_TwistedSolver.ltp_pure``): an arithmetic or comparison
operator swapped for another, or an integer constant 0, 1 or 2 bumped by one.
It draws N of them with ``random.Random(SEED)`` (all of them when N is at
least their number), and runs TESTS once per mutant, with that one mutant
in place.  A mutant survives when the tests pass; each survivor is printed
with its line.

Everything runs in a temporary copy of the current directory, with
``src`` and the copy's root on ``PYTHONPATH`` and no bytecode written: the
checkout is never edited.  The unmutated module is written the same way
(``ast.unparse``) and must pass TESTS first.  A mutant whose tests run ten
times longer than the unmutated run (at least 60 s) counts as killed.
"""

from __future__ import annotations

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
          ast.FloorDiv: ast.Mult, ast.Div: ast.Mult, ast.Mod: ast.FloorDiv,
          ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
          ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr}
CMPOPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
          ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.In: ast.NotIn, ast.NotIn: ast.In}
BUMPED = (0, 1, 2)


def _scope(tree: ast.Module, function: str | None) -> ast.AST:
    """The whole module, or the definition named by function (``name`` or
    ``Class.name``)."""
    if function is None:
        return tree

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            name = prefix + child.name
            if function in (name, child.name) and not isinstance(child, ast.ClassDef):
                return child
            found = walk(child, name + ".")
            if found is not None:
                return found
        return None
    found = walk(tree, "")
    if found is None:
        raise SystemExit(f"no function {function!r} in the module")
    return found


def sites(tree: ast.Module, function: str | None = None) -> list:
    """(node, slot, old, new) per mutation site, in a fixed order: slot is
    the attribute (``op``, ``value``) or the index into ``Compare.ops``."""
    out = []
    for node in ast.walk(_scope(tree, function)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
            out.append((node, "op", type(node.op), BINOPS[type(node.op)]))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in CMPOPS:
                    out.append((node, i, type(op), CMPOPS[type(op)]))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in BUMPED):
            out.append((node, "value", node.value, node.value + 1))
    return out


def describe(site) -> str:
    node, _slot, old, new = site
    if isinstance(old, int):
        return f"line {node.lineno}: constant {old} -> {new}"
    return f"line {node.lineno}: {old.__name__} -> {new.__name__}"


def mutant_source(source: str, index: int | None, function: str | None) -> str:
    """The module with site ``index`` mutated (None: unmutated), unparsed."""
    tree = ast.parse(source)
    if index is not None:
        node, slot, _old, new = sites(tree, function)[index]
        if slot == "value":
            node.value = new
        elif slot == "op":
            node.op = new()
        else:
            node.ops[slot] = new()
    return ast.unparse(tree) + "\n"


def _passes(root: Path, tests: list, timeout: float | None) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=root, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def probe(module: str, tests: list, n: int, seed: int, function: str | None = None,
          out=None) -> list:
    """Run the probe from the current directory, printing to out (default
    stdout); returns the survivors' descriptions."""
    source = Path(module).read_text()
    listed = sites(ast.parse(source), function)
    lines = source.splitlines()
    chosen = sorted(random.Random(seed).sample(range(len(listed)), min(n, len(listed))))
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "copy"
        shutil.copytree(".", root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        target = root / module
        target.write_text(mutant_source(source, None, function))
        start = time.monotonic()
        if not _passes(root, tests, None):
            raise SystemExit("the tests fail on the unmutated module")
        timeout = max(60.0, 10 * (time.monotonic() - start))
        for index in chosen:
            target.write_text(mutant_source(source, index, function))
            if _passes(root, tests, timeout):
                text = describe(listed[index])
                survivors.append(text)
                lineno = listed[index][0].lineno
                print(f"SURVIVED {text}    {lines[lineno - 1].strip()}", file=out)
    killed = len(chosen) - len(survivors)
    print(f"killed {killed} of {len(chosen)} mutants ({len(listed)} sites)", file=out)
    return survivors


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (4, 5):
        print("usage: python3 tools/mutants.py MODULE TESTS N SEED [FUNCTION]",
              file=sys.stderr)
        return 2
    module, tests, n, seed = args[:4]
    probe(module, tests.split(), int(n), int(seed), args[4] if len(args) == 5 else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
