"""Exact linear algebra per CRT summand: ``solve_linear`` and the field
nullspace against the reference solver of ``analysis_reference`` over
fields, and against brute-force enumeration over Galois rings with m > 1,
where the reference can decline solvable systems.  The solvers take flat
columns (``_vector_data``); the systems here are built as RingElements."""

import itertools

import pytest

from analysis_reference import ref_nullspace, ref_solve_linear
from conftest import rand_element
from matcrypt import matrix as matrix_module
from matcrypt.analysis import _nullspace, solve_linear
from matcrypt.errors import ShapeMismatch
from matcrypt.matrix import _vector_data
from matcrypt.ring import RingElement, Zmod, field, galois_ring
from matcrypt.rng import Rng

FIELDS = {"GF2": field(2), "GF5": field(5), "GF4": field(4)}
LOCAL = {"Z4": Zmod(4), "Z8": Zmod(8), "Z9": Zmod(9),
         "GR(4,2)": galois_ring(2, 2, 2), "Z12": Zmod(12)}
SYSTEMS = {"Z4": 400, "Z8": 400, "Z9": 400, "GR(4,2)": 60, "Z12": 100}


def _seed(name):
    return sum(map(ord, name))


def _combine(coeffs, columns):
    height = len(columns[0])
    out = []
    for i in range(height):
        acc = columns[0][i].ring.zero()
        for c, col in zip(coeffs, columns):
            acc = acc + c * col[i]
        out.append(acc)
    return tuple(out)


def _system(ring, rng, height, width):
    """Random columns; sometimes one is a combination of the others, so the
    elimination meets a column without a pivot."""
    cols = [tuple(rand_element(ring, rng) for _ in range(height))
            for _ in range(width)]
    if width > 1 and rng.below(2):
        coeffs = [rand_element(ring, rng) for _ in range(width - 1)]
        cols[rng.below(width)] = _combine(coeffs, cols[:width - 1])
    return cols


def _elements(ring):
    return [RingElement(ring, tuple(per)) for per in itertools.product(*(
        list(itertools.product(range(g.q), repeat=g.r)) for g in ring.summands))]


def _image(ring, columns):
    """Every value of sum c_j * columns[j], by enumeration of the c_j."""
    elems = _elements(ring)
    multiples = [[_flat(tuple(c * e for e in col)) for c in elems]
                 for col in columns]
    mods = [g.q for _ in columns[0] for g in ring.summands
            for _ in range(g.r)]
    return {tuple(sum(t) % q for t, q in zip(zip(*vs), mods))
            for vs in itertools.product(*multiples)}


def _flat(vec):
    return tuple(c for e in vec for cs in e.coeffs for c in cs)


def _solve(ring, columns, target):
    return solve_linear(ring, [_vector_data(c, ring) for c in columns],
                        _vector_data(target, ring))


def _null(ring, columns):
    return _nullspace(ring, [_vector_data(c, ring) for c in columns])


@pytest.mark.parametrize("name", FIELDS)
def test_solve_and_nullspace_match_reference_over_fields(name):
    ring = FIELDS[name]
    rng = Rng(_seed(name))
    for _ in range(120):
        height, width = rng.below(5) + 1, rng.below(5) + 1
        cols = _system(ring, rng, height, width)
        targets = [tuple(rand_element(ring, rng) for _ in range(height)),
                   _combine([rand_element(ring, rng) for _ in cols], cols)]
        for target in targets:
            assert _solve(ring, cols, target) == \
                ref_solve_linear(ring, cols, target)
        assert _null(ring, cols) == ref_nullspace(ring, cols)


@pytest.mark.parametrize("name", LOCAL)
def test_solve_is_exact_against_brute_force(name):
    ring = LOCAL[name]
    rng = Rng(_seed(name) + 1)
    for _ in range(SYSTEMS[name]):
        height, width = rng.below(3) + 1, rng.below(3) + 1
        cols = _system(ring, rng, height, width)
        image = _image(ring, cols)
        targets = [tuple(rand_element(ring, rng) for _ in range(height)),
                   _combine([rand_element(ring, rng) for _ in cols], cols)]
        for target in targets:
            sol = _solve(ring, cols, target)
            assert (sol is not None) == (_flat(target) in image), (cols, target)
            if sol is not None:
                assert _combine(sol, cols) == target


def test_solve_needs_a_column_swap():
    # the first column has no unit: a pivot 2 there leaves a unit to its
    # right in a free column, and with that unknown zero row 0 has no solution
    z4 = Zmod(4)
    cols = [tuple(z4.from_int(v) for v in col)
            for col in ((2, 0, 2), (3, 1, 2), (2, 3, 3))]
    target = tuple(z4.from_int(v) for v in (3, 2, 1))
    assert ref_solve_linear(z4, cols, target) is None
    sol = _solve(z4, cols, target)
    assert sol is not None and _combine(sol, cols) == target


def test_nullspace_needs_a_field():
    z4 = Zmod(4)
    with pytest.raises(ShapeMismatch):
        _null(z4, [(z4.from_int(2),)])


# --- systems on packed rows ----------------------------------------------------
#
# The elimination packs its rows from _PACK_ROWS_MIN rows on when they are
# dense; these systems sit on both sides of that crossover.

ROWS_MIN = matrix_module._PACK_ROWS_MIN
PACKED_FIELDS = {"GF2": field(2), "GF4": field(4), "GF5": field(5),
                 "GF65521": field(65521)}


def _spy_packed(monkeypatch):
    calls = []
    real = matrix_module._eliminate_packed
    monkeypatch.setattr(matrix_module, "_eliminate_packed",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("name", PACKED_FIELDS)
def test_packed_solve_and_nullspace_match_reference_over_fields(name, monkeypatch):
    ring = PACKED_FIELDS[name]
    packed = _spy_packed(monkeypatch)
    rng = Rng(_seed(name) + 2)
    for height in (ROWS_MIN - 1, ROWS_MIN, 24):
        for width in (12, 20):
            cols = _system(ring, rng, height, width)
            targets = [tuple(rand_element(ring, rng) for _ in range(height)),
                       _combine([rand_element(ring, rng) for _ in cols], cols)]
            for target in targets:
                assert _solve(ring, cols, target) == \
                    ref_solve_linear(ring, cols, target)
            assert _null(ring, cols) == ref_nullspace(ring, cols)
    assert packed


def _non_unit_system(ring, rng, height, width):
    """Columns whose entries are random multiples of random powers of p."""
    g = ring.summands[0]
    return [tuple(ring.from_int(rng.below(g.q) * g.p ** rng.below(g.m))
                  for _ in range(height)) for _ in range(width)]


@pytest.mark.parametrize("name", ["Z8", "Z9"])
def test_packed_solve_is_exact_over_local_rings(name, monkeypatch):
    # too large for brute force: a target built as a combination must be
    # solved, every answer must solve its system, and the packed rows must
    # give the answer the row lists give
    ring = LOCAL[name]
    packed = _spy_packed(monkeypatch)
    rng = Rng(_seed(name) + 3)
    for height, width in ((ROWS_MIN, 8), (ROWS_MIN, 16), (24, 12)):
        for _ in range(3):
            cols = _non_unit_system(ring, rng, height, width)
            combo = _combine([rand_element(ring, rng) for _ in cols], cols)
            other = tuple(rand_element(ring, rng) for _ in range(height))
            answers = []
            for target in (combo, other):
                sol = _solve(ring, cols, target)
                assert sol is not None or target is other
                assert sol is None or _combine(sol, cols) == target
                answers.append(sol)
            with monkeypatch.context() as m:
                m.setattr(matrix_module, "_PACK_ROWS_MIN", 10 ** 9)
                assert [_solve(ring, cols, t) for t in (combo, other)] == answers
    assert packed
