"""Differential tests: the flat per-summand kernels against the reference
entry-by-entry kernels in ``matrix_reference`` on seeded matrices."""

import copy
import pickle
import time
from itertools import product
from math import prod

import pytest

from conftest import rand_element, rand_invertible, rand_matrix
from matrix_reference import (
    ref_apply_coeffs,
    ref_crt_project,
    ref_mat_det,
    ref_mat_inv,
    ref_mat_kron,
    ref_mat_mul,
    ref_matrix_obj,
    ref_module_decode_table,
    ref_module_decompose,
    ref_preimage_coeffs,
    ref_random_entries,
    ref_vector_act,
)
from matcrypt import matrix as matrix_module
from matcrypt.errors import NonInvertible, RingMismatch, ShapeMismatch
from matcrypt.matrix import (
    Matrix,
    _random_data,
    _vector_data,
    block_perm_matrix,
    crt_project,
    find_embedding,
    identity,
    is_invertible,
    mat_det,
    mat_inv,
    mat_kron,
    mat_mul,
    matrix,
    vector_act,
)
from matcrypt.ring import RingElement, Zmod, direct_sum, field, galois_ring
from matcrypt.rng import Rng
from matcrypt.serialize import (
    dumps,
    matrix_from_obj,
    matrix_to_obj,
    ring_from_obj,
    ring_to_obj,
    vector_from_obj,
    vector_to_obj,
)
from matcrypt.trapdoor import affine_embed

RINGS = {
    "Z12": Zmod(12),                        # two summands, Z/4 (+) Z/3
    "GF5": field(5),
    "GF4": field(4),                        # rank 2
    "GF8": field(8),                        # rank 3
    "GF16": field(16),                      # rank 4
    "GF9": field(9),                        # rank 2, odd characteristic
    "GR(4,2)": galois_ring(2, 2, 2),  # rank 2 over Z/4
    "GR(8,3)": galois_ring(2, 3, 3),  # rank 3 over Z/8
    "GF4+Z9": direct_sum(field(4), Zmod(9)),  # mixed ranks
}
DEGREES = range(1, 9)
CASES = [(name, n) for name in RINGS for n in DEGREES]


def _seed(name, n):
    return sum(map(ord, name)) * 100 + n


def _non_units(ring, n, rng):
    """A matrix whose entries are all non-units in the first summand, so the
    first summand has no unit pivot (singular when n > 0)."""
    g = ring.summands[0]
    m = rand_matrix(ring, n, rng)
    rows = []
    for row in m.rows:
        out = []
        for e in row:
            cs = list(e.coeffs)
            cs[0] = tuple(c * g.p % g.q for c in cs[0])
            out.append(type(e)(ring, tuple(cs)))
        rows.append(tuple(out))
    return Matrix(n, ring, tuple(rows))


def _samples(ring, n, rng):
    out = [rand_matrix(ring, n, rng) for _ in range(4)]
    out.append(_non_units(ring, n, rng))
    if n >= 2:
        rows = list(rand_matrix(ring, n, rng).rows)
        rows[-1] = rows[0]
        out.append(Matrix(n, ring, tuple(rows)))   # repeated row
    return out


@pytest.mark.parametrize("name,n", CASES)
def test_mul_inv_det_match_reference(name, n):
    ring = RINGS[name]
    rng = Rng(_seed(name, n))
    mats = _samples(ring, n, rng)
    for a in mats:
        for b in mats[:3]:
            assert mat_mul(a, b) == Matrix(n, ring, ref_mat_mul(a, b))
        assert mat_det(a) == ref_mat_det(a)
        try:
            want = ref_mat_inv(a)
        except NonInvertible:
            with pytest.raises(NonInvertible):
                mat_inv(a)
        else:
            assert mat_inv(a).rows == want
            assert mat_mul(a, mat_inv(a)) == identity(n, ring)


def _singular(ring, n, rng):
    """A * D * B for random A, B and a diagonal D with one zero, so the
    pivot search meets a column without a unit in the middle of the
    elimination."""
    zero_at = rng.below(n)
    d = matrix(ring, [[(0 if i == zero_at else rng.below(5) + 1) if i == j
                       else 0 for j in range(n)] for i in range(n)])
    return mat_mul(mat_mul(rand_matrix(ring, n, rng), d),
                   rand_matrix(ring, n, rng))


SINGULAR_RINGS = {"GF2": field(2), "GF9": field(9), "Z4": Zmod(4),
                  "Z8": Zmod(8), "Z9": Zmod(9),
                  "GR(4,2)": galois_ring(2, 2, 2)}


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("name", SINGULAR_RINGS)
def test_singular_det_matches_reference(name, n):
    ring = SINGULAR_RINGS[name]
    rng = Rng(_seed(name, n) + 6)
    for _ in range(4):
        a = _singular(ring, n, rng)
        assert mat_det(a) == ref_mat_det(a)


def _mostly_non_units(ring, n, rng):
    """Entries that are mostly multiples of p, so that some columns have no
    unit while a later column does."""
    def entry():
        return RingElement(ring, tuple(
            tuple(rng.below(g.q) * (1 if rng.below(6) == 0
                                    else g.p ** (1 + rng.below(g.m))) % g.q
                  for _ in range(g.r))
            for g in ring.summands))
    return Matrix(n, ring, tuple(tuple(entry() for _ in range(n))
                                 for _ in range(n)))


@pytest.mark.parametrize("name", ["Z8", "Z9", "GR(4,2)"])
def test_det_with_column_swaps_matches_reference(name, monkeypatch):
    ring = SINGULAR_RINGS[name]
    swaps = []
    real_swap = matrix_module._swap_columns
    monkeypatch.setattr(matrix_module, "_swap_columns",
                        lambda a, j, c: swaps.append(c) or real_swap(a, j, c))
    rng = Rng(_seed(name, 0))
    for n in range(1, 6):
        for _ in range(20):
            a = _mostly_non_units(ring, n, rng)
            assert mat_det(a) == ref_mat_det(a)
    assert swaps


def test_non_unit_det_is_polynomial():
    # over Z/4 a matrix without a unit pivot used to be expanded by
    # cofactors, about 9x per degree: 16 s at degree 10
    z4 = Zmod(4)
    start = time.process_time()
    assert mat_det(matrix(z4, [[2] * 10] * 10)) == z4.zero()
    assert time.process_time() - start < 1.0
    # degree 24: the same, and A * D * B with invertible A, B and one 2 on
    # the diagonal of D, whose determinant is 2 (twice a unit)
    rng = Rng(24)
    diag = [2 if i == 11 else 3 for i in range(24)]
    d = matrix(z4, [[diag[i] if i == j else 0 for j in range(24)]
                    for i in range(24)])
    a, b = rand_invertible(z4, 24, rng), rand_invertible(z4, 24, rng)
    m = mat_mul(mat_mul(a, d), b)
    want = ref_mat_det(a) * ref_mat_det(b) * z4.from_int(prod(diag))
    start = time.process_time()
    assert mat_det(matrix(z4, [[2] * 24] * 24)) == z4.zero()
    assert mat_det(m) == want == z4.from_int(2)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("q", [2, 9])
def test_field_det_with_a_zero_column_is_zero(q):
    # no pivot in a column means a zero determinant over a field; a cofactor
    # expansion of the rest took seconds already at degree 10
    ring = field(q)
    rng = Rng(q)
    a = Matrix(24, ring, tuple(
        tuple(ring.zero() if j == 0 else rand_element(ring, rng)
              for j in range(24)) for _ in range(24)))
    assert mat_det(a) == ring.zero()


@pytest.mark.parametrize("name,n", CASES)
def test_vector_act_matches_reference(name, n):
    ring = RINGS[name]
    rng = Rng(_seed(name, n) + 1)
    for a in _samples(ring, n, rng):
        for _ in range(3):
            v = tuple(rand_element(ring, rng) for _ in range(n))
            assert vector_act(v, a) == ref_vector_act(v, a)
        zero = tuple(ring.zero() for _ in range(n))
        assert vector_act(zero, a) == zero


@pytest.mark.parametrize("name", RINGS)
def test_largest_coefficients_match_reference(name):
    # every coefficient q-1 gives every packed slot of a rank > 1 product,
    # before and after the fold, its largest value, so a slot width too
    # narrow by one bit carries into the next slot here; degrees 1-7 run
    # the straight-line kernels, 16 the per-entry path
    ring = RINGS[name]
    top = RingElement(ring, tuple((g.q - 1,) * g.r for g in ring.summands))
    for n in (*range(1, MUL_MIN), 16):
        a = Matrix(n, ring, ((top,) * n,) * n)
        assert mat_mul(a, a) == Matrix(n, ring, ref_mat_mul(a, a)), n
        assert vector_act(a.rows[0], a) == ref_vector_act(a.rows[0], a), n


@pytest.mark.parametrize("name,n", CASES)
def test_kron_matches_reference(name, n):
    ring = RINGS[name]
    rng = Rng(_seed(name, n) + 2)
    a = rand_matrix(ring, n, rng)
    for nb in (1, 2, 3):
        b = rand_matrix(ring, nb, rng)
        assert mat_kron(a, b) == Matrix(n * nb, ring, ref_mat_kron(a, b))
        assert mat_kron(b, a) == Matrix(n * nb, ring, ref_mat_kron(b, a))


@pytest.mark.parametrize("name,n", CASES)
def test_serialization_bytes_match_reference(name, n):
    ring = RINGS[name]
    rng = Rng(_seed(name, n) + 3)
    rows = rand_matrix(ring, n, rng).rows
    a = Matrix(n, ring, rows)
    text = dumps(matrix_to_obj(a))
    assert text == dumps(ref_matrix_obj(n, ring_to_obj(ring), rows))
    assert matrix_from_obj(matrix_to_obj(a)) == a


@pytest.mark.parametrize("name", ["Z12", "GF4+Z9"])
def test_files_listing_summands_out_of_order_load_canonical(name):
    # a file may list a ring's summands in another order, each element's
    # coefficient lists following it: the value read is the same
    ring = RINGS[name]
    rng = Rng(_seed(name, 0))
    a = rand_matrix(ring, 3, rng)
    u = tuple(rand_element(ring, rng) for _ in range(3))
    mobj, vobj = matrix_to_obj(a), vector_to_obj(ring, u)
    for obj, elems in ((mobj, [e for row in mobj["rows"] for e in row]),
                       (vobj, vobj["coords"])):
        obj["ring"]["summands"].reverse()
        for e in elems:
            e.reverse()
    assert ring_from_obj(mobj["ring"]) == ring
    assert matrix_from_obj(mobj) == a
    assert vector_from_obj(vobj) == u


@pytest.mark.parametrize("name,n", CASES)
def test_rows_view_round_trips(name, n):
    ring = RINGS[name]
    rng = Rng(_seed(name, n) + 4)
    rows = tuple(tuple(rand_element(ring, rng) for _ in range(n))
                 for _ in range(n))
    a = Matrix(n, ring, rows)
    assert a.rows == rows
    assert all(a[i, j] == rows[i][j] for i in range(n) for j in range(n))
    b = Matrix(n, ring, [list(row) for row in rows])   # lists flatten too
    assert a == b and hash(a) == hash(b) and a.key() == b.key()
    assert len({a, b}) == 1


@pytest.mark.parametrize("positions", [(0,), (1,), (0, 1)])
@pytest.mark.parametrize("name", ["Z12", "GF4+Z9"])
def test_crt_project_matches_reference(name, positions):
    ring = RINGS[name]
    sub = direct_sum(*(
        type(ring)((ring.summands[s],)) for s in positions))
    rng = Rng(_seed(name, len(positions)) + 5)
    for n in DEGREES:
        a = rand_matrix(ring, n, rng)
        assert crt_project(a, positions, sub) == \
            Matrix(n, sub, ref_crt_project(a, positions, sub))


def test_errors_raised_where_the_reference_raises():
    z5, z7 = field(5), field(7)
    rng = Rng(11)
    a2, b2 = rand_matrix(z5, 2, rng), rand_matrix(z7, 2, rng)
    a3 = rand_matrix(z5, 3, rng)
    for fn in (mat_mul, ref_mat_mul):
        with pytest.raises(RingMismatch):
            fn(a2, b2)
        with pytest.raises(ShapeMismatch):
            fn(a2, a3)
    for fn in (mat_kron, ref_mat_kron):
        with pytest.raises(RingMismatch):
            fn(a2, b2)
    for fn in (vector_act, ref_vector_act):
        with pytest.raises(ShapeMismatch):
            fn((z5.one(),) * 3, a2)
        with pytest.raises(RingMismatch):
            fn((z7.one(), z7.one()), a2)
    singular = matrix(z5, [[1, 2], [2, 4]])
    for fn in (mat_inv, ref_mat_inv):
        with pytest.raises(NonInvertible):
            fn(singular)
    with pytest.raises(ShapeMismatch):
        matrix(z5, [[1, 2], [3]])
    with pytest.raises(RingMismatch):
        Matrix(1, z5, ((z7.one(),),))


def test_degree_zero_matrices_are_refused():
    # none reaches mat_mul, mat_inv or mat_det, whose kernels need n >= 1
    z5 = field(5)
    for make in (lambda: Matrix(0, z5, ()), lambda: matrix(z5, []),
                 lambda: matrix_from_obj({"n": 0, "ring": ring_to_obj(z5), "rows": []})):
        with pytest.raises(ShapeMismatch):
            make()



def test_non_integer_degrees_are_refused():
    # a float or bool degree equal to the row count used to load, and then
    # failed in mat_mul with a TypeError
    z5 = field(5)
    one, two = ((z5.one(),),), ((z5.one(), z5.zero()), (z5.zero(), z5.one()))
    obj = matrix_to_obj(Matrix(2, z5, two))
    for make in (lambda: Matrix(2.0, z5, two), lambda: Matrix(True, z5, one),
                 lambda: matrix_from_obj(dict(obj, n=2.0)),
                 lambda: matrix_from_obj(dict(matrix_to_obj(Matrix(1, z5, one)),
                                              n=True))):
        with pytest.raises(ShapeMismatch):
            make()

def _block_diagonal(ring, blocks):
    n = sum(b.n for b in blocks)
    rows = [[ring.zero()] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[at + i][at:at + b.n] = row
        at += b.n
    return Matrix(n, ring, rows)


@pytest.mark.parametrize("name", ["GF4", "GR(4,2)"])
def test_sparse_rank_r_inverses_match_reference(name):
    # mostly zero entries: _rep_data leaves their regular-representation
    # blocks zero instead of building them
    ring = RINGS[name]
    rng = Rng(_seed(name, 0) + 6)
    for sizes in ((1, 1), (2, 2), (1, 2, 3), (2, 2, 2, 2)):
        blocks = [rand_invertible(ring, s, rng) for s in sizes]
        diag = _block_diagonal(ring, blocks)
        perm = block_perm_matrix(tuple(rng.shuffle(list(range(diag.n)))), 1, ring)
        for a in (diag, mat_mul(perm, diag), mat_mul(diag, perm)):
            assert mat_inv(a).rows == ref_mat_inv(a)
        blocks[-1] = Matrix(sizes[-1], ring, [[ring.zero()] * sizes[-1]] * sizes[-1])
        singular = mat_mul(perm, _block_diagonal(ring, blocks))
        for fn in (mat_inv, ref_mat_inv):
            with pytest.raises(NonInvertible):
                fn(singular)


def test_matrices_are_immutable_and_copy():
    a = matrix(Zmod(12), [[1, 2], [3, 5]])
    with pytest.raises(AttributeError):
        a.n = 3
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.rows == a.rows
    assert copy.deepcopy(a) == a


def test_affine_embed_of_identity_is_identity():
    ring = field(5)
    e = affine_embed(identity(2, ring))
    assert e == identity(3, ring)
    assert hash(e) == hash(identity(3, ring))
    assert {e: 1}[identity(3, ring)] == 1


EMBEDDINGS = {
    "GF2>GF4": (field(2), field(4)),
    "GF2>GF8": (field(2), field(8)),
    "GF2>GF16": (field(2), field(16)),
    "GF3>GF9": (field(3), field(9)),
    "GF3>GF27": (field(3), field(27)),
    "GF4>GF16": (field(4), field(16)),
    "GF5>GF25": (field(5), field(25)),
    "GR(4,1)>GR(4,2)": (Zmod(4), galois_ring(2, 2, 2)),
    "GR(9,1)>GR(9,2)": (Zmod(9), galois_ring(3, 2, 2)),
    "GF2+GF3>GF4+GF9": (Zmod(6), direct_sum(field(4), field(9))),
    # rank 2 sources over Z/p^2: the root found mod p is Hensel-lifted once
    "GR(4,2)>GR(4,4)": (galois_ring(2, 2, 2), galois_ring(2, 2, 4)),
    "GR(9,2)>GR(9,4)": (galois_ring(3, 2, 2), galois_ring(3, 2, 4)),
}


@pytest.mark.parametrize("name", EMBEDDINGS)
def test_embedding_table_matches_both_decoders(name):
    # apply and preimage against the subsystem decoder, coords against the
    # module decoder, on every element of the source and of the target
    emb = find_embedding(*EMBEDDINGS[name])
    table = ref_module_decode_table(emb)
    for a in emb.src.enumerate():
        for s, cs in enumerate(a.coeffs):
            assert emb.apply_coeffs(s, cs) == ref_apply_coeffs(emb, s, cs)
    inside = 0
    for e in emb.dst.enumerate():
        comps = ref_module_decompose(emb, e, table)
        pres = [emb.preimage_coeffs(s, cs) for s, cs in enumerate(e.coeffs)]
        for s, cs in enumerate(e.coeffs):
            assert pres[s] == ref_preimage_coeffs(emb, s, cs), (e, s)
            assert emb.coords(s, cs) == [c.coeffs[s] for c in comps], (e, s)
        inside += None not in pres
    assert inside == emb.src.order



# GR(8,2) > GR(8,6) lifts its root twice
HOMOMORPHISMS = {
    "GR(4,2)>GR(4,4)": EMBEDDINGS["GR(4,2)>GR(4,4)"],
    "GR(9,2)>GR(9,4)": EMBEDDINGS["GR(9,2)>GR(9,4)"],
    "GR(8,2)>GR(8,6)": (galois_ring(2, 3, 2), galois_ring(2, 3, 6)),
}


@pytest.mark.parametrize("name", HOMOMORPHISMS)
def test_embedding_is_a_unital_ring_homomorphism(name):
    # on every pair of source elements; a root that is not exact mod p^m
    # breaks the products
    emb = find_embedding(*HOMOMORPHISMS[name])
    elems = list(emb.src.enumerate())
    images = [emb.apply(a) for a in elems]
    assert emb.apply(emb.src.one()) == emb.dst.one()
    for a, fa in zip(elems, images):
        for b, fb in zip(elems, images):
            assert emb.apply(a + b) == fa + fb, (a, b)
            assert emb.apply(a * b) == fa * fb, (a, b)

DRAW_RINGS = {
    "Z15": Zmod(15),
    "GF4+Z9": direct_sum(field(4), Zmod(9)),
    "GR(4,2)": galois_ring(2, 2, 2),
    "GF8": field(8),
}


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("name", DRAW_RINGS)
def test_flat_draw_matches_the_element_draw(name, count):
    # the same entries from the same draws, and the generator left in the
    # same state
    ring = DRAW_RINGS[name]
    for seed in range(5):
        rng, ref_rng = Rng(seed), Rng(seed)
        want = ref_random_entries(ring, count, ref_rng)
        assert _random_data(ring, count, rng) == _vector_data(want, ring)
        assert rng._r.getstate() == ref_rng._r.getstate()


# --- packed rank-1 kernels ----------------------------------------------------
#
# Rank-1 products pack their rows from degree _PACK_MUL_MIN on, and
# eliminations from _PACK_ROWS_MIN rows on when the rows are not sparse.  The
# cases sit on both sides of each crossover, so the row-list and the packed
# paths are checked against the same references.

PACKED_RINGS = {
    "GF2": field(2),
    "GF65521": field(65521),
    "Z9": Zmod(9),
    "Z8": Zmod(8),
    "Z(2^31-1)": Zmod(2 ** 31 - 1),     # slots wider than 64 bits: shifts
}
MUL_MIN = matrix_module._PACK_MUL_MIN
ROWS_MIN = matrix_module._PACK_ROWS_MIN
PACKED_DEGREES = sorted({MUL_MIN - 1, MUL_MIN, ROWS_MIN - 1, ROWS_MIN, 48})


def _spy(monkeypatch, name):
    """Count the calls of a matrix-module kernel."""
    calls = []
    real = getattr(matrix_module, name)
    monkeypatch.setattr(matrix_module, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("n", PACKED_DEGREES)
@pytest.mark.parametrize("name", PACKED_RINGS)
def test_packed_kernels_match_reference(name, n, monkeypatch):
    ring = PACKED_RINGS[name]
    rng = Rng(_seed(name, n) + 7)
    muls = _spy(monkeypatch, "_mul_packed")
    elims = _spy(monkeypatch, "_eliminate_packed")
    a, b = rand_invertible(ring, n, rng), rand_matrix(ring, n, rng)
    assert mat_mul(a, b) == Matrix(n, ring, ref_mat_mul(a, b))
    assert mat_mul(b, a) == Matrix(n, ring, ref_mat_mul(b, a))
    assert bool(muls) == (n >= MUL_MIN)
    assert mat_inv(a).rows == ref_mat_inv(a)
    assert bool(elims) == (n >= ROWS_MIN)
    assert mat_det(a) == ref_mat_det(a)
    assert mat_det(b) == ref_mat_det(b)


@pytest.mark.parametrize("name", PACKED_RINGS)
def test_packed_singular_inverse_raises(name):
    ring = PACKED_RINGS[name]
    rng = Rng(_seed(name, 0) + 8)
    for n in (ROWS_MIN, 48):
        a = _singular(ring, n, rng)
        for fn in (mat_inv, ref_mat_inv):
            with pytest.raises(NonInvertible):
                fn(a)
        if ring.summands[0].m == 1:
            assert mat_det(a) == ring.zero()


@pytest.mark.parametrize("name", PACKED_RINGS)
def test_packed_largest_coefficients_match_reference(name):
    # every entry q-1 gives every slot of a packed product row its largest
    # value, n (q-1)^2, so a slot width one bit too narrow carries here
    ring = PACKED_RINGS[name]
    n = 64
    top = ring.from_int(-1)
    a = Matrix(n, ring, ((top,) * n,) * n)
    assert mat_mul(a, a) == Matrix(n, ring, ref_mat_mul(a, a))
    rng = Rng(_seed(name, n))
    b = rand_matrix(ring, n, rng)
    assert mat_mul(a, b) == Matrix(n, ring, ref_mat_mul(a, b))


NON_UNIT_ENTRIES = {"Z8": (2, 4, 6), "Z9": (3, 6)}


@pytest.mark.parametrize("name", NON_UNIT_ENTRIES)
def test_packed_det_with_non_unit_pivots(name, monkeypatch):
    # A * D * B with invertible A, B and several non-units on the diagonal
    # of D: det(A) det(B) prod(D), with least-valuation pivots on the packed
    # path (the forward-only determinant packs from twice ROWS_MIN rows)
    ring = PACKED_RINGS[name]
    elims = _spy(monkeypatch, "_eliminate_packed")
    rng = Rng(_seed(name, 1))
    for n in (2 * ROWS_MIN, 48):
        diag = [rng.choice(NON_UNIT_ENTRIES[name]) if i % 5 == 2 else 1
                for i in range(n)]
        d = matrix(ring, [[diag[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])
        a, b = rand_invertible(ring, n, rng), rand_invertible(ring, n, rng)
        want = ref_mat_det(a) * ref_mat_det(b) * ring.from_int(prod(diag))
        m = mat_mul(mat_mul(a, d), b)
        elims.clear()
        assert mat_det(m) == want
        assert len(elims) == 1


@pytest.mark.parametrize("forward", [False, True])
@pytest.mark.parametrize("name", NON_UNIT_ENTRIES)
def test_packed_elimination_matches_row_lists(name, forward, monkeypatch):
    # entries mostly multiples of p: columns without a unit, least-valuation
    # pivots and column swaps on the packed path, which must leave the same
    # pivots and the same rows as the row lists
    ring = PACKED_RINGS[name]
    g = ring.summands[0]
    swaps = []
    real_swap = matrix_module._swap_columns
    monkeypatch.setattr(matrix_module, "_swap_columns",
                        lambda a, j, c: swaps.append(c) or real_swap(a, j, c))
    rng = Rng(_seed(name, 2) + forward)
    packed_swaps = 0
    for height, width, ncols in ((16, 16, 16), (20, 14, 12), (16, 32, 16),
                                 (33, 40, 33)):
        for _ in range(4):
            mat = _mostly_non_units(ring, max(height, width), rng).data[0]
            rows = [list(mat[i * max(height, width):][:width])
                    for i in range(height)]
            want, got = [r[:] for r in rows], [r[:] for r in rows]
            swaps.clear()
            pivots = list(matrix_module._eliminate_rows(want, ncols, g.p, g.q,
                                                        forward))
            made, swaps[:] = swaps[:], []
            assert list(matrix_module._eliminate_packed(
                got, ncols, g.p, g.q, forward)) == pivots
            assert got == want and swaps == made
            packed_swaps += len(swaps)
    assert packed_swaps


@pytest.mark.parametrize("n", [ROWS_MIN, 2 * ROWS_MIN])
def test_packed_elimination_at_its_slot_bound(n, monkeypatch):
    # over GF(2), row 0 all ones over the identity, with six all-ones
    # columns riding along: each of the n - 1 pivots after the first adds
    # its row to row 0, so the riding slots of row 0 reach n, next to the
    # slot bound (q-1) + n (q-1)^2 = n + 1; at n a power of two a slot one
    # bit narrower carries
    elims = _spy(monkeypatch, "_eliminate_packed")
    rows = [[1] * n + [1] * 6] + [[int(j == i) for j in range(n)] + [1] * 6
                                  for i in range(1, n)]
    want = [r[:] for r in rows]
    pivots = list(matrix_module._eliminate_rows(want, n, 2, 2, False))
    assert list(matrix_module._eliminate(rows, n, 2, 2)) == pivots
    assert elims and rows == want
    assert want == [[int(j == i) for j in range(n)] + [int(i > 0)] * 6
                    for i in range(n)]


# --- straight-line products and closed-form inverses --------------------------
#
# Below MUL_MIN every product runs one generated kernel per (degree, rank),
# and inverses of degree 1 and 2 (rank-1 summands, and the regular
# representation of a rank-2 summand at degree 1) are adjugates over the
# determinant.


@pytest.mark.parametrize("name", ["Z12", "GF4", "GF8", "GF16", "GF4+Z9"])
def test_small_products_run_the_straight_line_kernel(name, monkeypatch):
    ring = RINGS[name]
    rng = Rng(_seed(name, 0) + 9)
    kernels = _spy(monkeypatch, "_mul_kernel")
    unpacks = _spy(monkeypatch, "_unpack")
    packs = _spy(monkeypatch, "_pack")
    muls = _spy(monkeypatch, "_mul_packed")
    for n in (*range(1, MUL_MIN), MUL_MIN):
        a, b = rand_matrix(ring, n, rng), rand_matrix(ring, n, rng)
        mat_mul(b, a)   # a first product packs the fold rows of _fold_table
        for spy in (kernels, unpacks, packs, muls):
            spy.clear()
        assert mat_mul(a, b) == Matrix(n, ring, ref_mat_mul(a, b))
        if n < MUL_MIN:
            assert kernels == [(n, g.r) for g in ring.summands]
            assert not unpacks and not packs and not muls
        else:
            assert not kernels and (unpacks or muls)


def _int_matrices(ring, n):
    """Every n x n matrix over the rank-1 ring, as integer rows."""
    q = ring.summands[0].q
    for flat in product(range(q), repeat=n * n):
        yield [list(flat[i:i + n]) for i in range(0, n * n, n)]


def _assert_inverse_matches_reference(a):
    try:
        want = ref_mat_inv(a)
    except NonInvertible:
        with pytest.raises(NonInvertible):
            mat_inv(a)
    else:
        assert mat_inv(a).rows == want


@pytest.mark.parametrize("name,n", [("Z4", 1), ("Z4", 2), ("Z9", 1), ("Z9", 2)])
def test_closed_form_inverses_match_reference(name, n, monkeypatch):
    ring = SINGULAR_RINGS[name]
    elims = _spy(monkeypatch, "_eliminate")
    for rows in _int_matrices(ring, n):
        _assert_inverse_matches_reference(matrix(ring, rows))
    assert not elims


def test_closed_form_inverses_over_a_rank_two_ring(monkeypatch):
    # degree 1 inverts its 2 x 2 regular representation in closed form;
    # degree 2 (a 4 x 4 representation) eliminates
    ring = RINGS["GR(4,2)"]
    elims = _spy(monkeypatch, "_eliminate")
    for cs in product(range(4), repeat=2):
        _assert_inverse_matches_reference(Matrix(1, ring, ((ring.element([cs]),),)))
    assert not elims
    rng = Rng(_seed("GR(4,2)", 2) + 10)
    for a in _samples(ring, 2, rng) + [rand_invertible(ring, 2, rng)]:
        _assert_inverse_matches_reference(a)
    assert elims


@pytest.mark.parametrize("name,rows,invertible", [
    ("Z4", [[1, 1], [1, 1]], False),     # entries all units, singular
    ("Z9", [[1, 1], [1, 1]], False),
    ("Z4", [[2, 1], [1, 1]], True),      # a non-unit entry, unit determinant
    ("Z4", [[2, 1], [0, 1]], False),     # determinant 2, not a unit
    ("Z9", [[3, 1], [0, 3]], False),
])
def test_closed_form_inverse_cases(name, rows, invertible):
    a = matrix(SINGULAR_RINGS[name], rows)
    _assert_inverse_matches_reference(a)
    assert is_invertible(a) == invertible
    if invertible:
        assert mat_mul(a, mat_inv(a)) == identity(2, a.ring)
