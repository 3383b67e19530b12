"""Matrix algebra: products, inverses, Kronecker, wreath reps, ring changes."""

import pytest

from conftest import rand_invertible, rand_matrix
from matcrypt.errors import NonInvertible, NoSuchEmbedding, RingMismatch
from matcrypt.matrix import (
    Matrix,
    block_perm_matrix,
    identity,
    imprimitive_rep,
    int_rows,
    mat_det,
    mat_inv,
    mat_kron,
    mat_mul,
    matrix,
    perm_compose,
    perm_id,
    perm_inverse,
    product_rep,
    ring_change,
    tensor_perm_matrix,
    vector,
    vector_act,
    word_eval,
)
from matcrypt.ring import Zmod, field, galois_ring
from matcrypt.rng import Rng

Z5 = Zmod(5)
Z15 = Zmod(15)
Z3 = Zmod(3)
Z7 = Zmod(7)


def int_matmul_mod(a, b, m):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n)]
            for i in range(n)]


def test_mat_mul_examples():
    a = matrix(Z5, [[1, 1], [0, 1]])
    b = matrix(Z5, [[1, 0], [1, 1]])
    assert int_rows(mat_mul(a, b)) == [[2, 1], [1, 1]]
    assert mat_mul(identity(2, Z5), a) == a
    # CRT consistency over Z_15 against integer matrices mod 3 and mod 5
    rng = Rng(5)
    for _ in range(10):
        x = rand_matrix(Z15, 2, rng)
        y = rand_matrix(Z15, 2, rng)
        xi, yi = int_rows(x), int_rows(y)
        prod = int_rows(mat_mul(x, y))
        for m in (3, 5, 15):
            assert [[v % m for v in row] for row in prod] == \
                int_matmul_mod([[v % m for v in r] for r in xi],
                               [[v % m for v in r] for r in yi], m)


def test_mat_inv_examples():
    any_ring = galois_ring(2, 2, 2, (1, 1, 1))
    x = any_ring.element([(0, 1)])
    u = matrix(any_ring, [[any_ring.one(), x],
                          [any_ring.zero(), any_ring.one()]])
    assert mat_inv(u) == matrix(any_ring, [[any_ring.one(), -x],
                                           [any_ring.zero(), any_ring.one()]])
    assert int_rows(mat_inv(matrix(Z5, [[2, 0], [0, 1]]))) == [[3, 0], [0, 1]]
    with pytest.raises(NonInvertible):
        mat_inv(matrix(Z15, [[1, 0], [0, 3]]))


def test_mat_mul_associative_and_inverse_sampled():
    rng = Rng(11)
    for ring in (Z5, Z15, field(4)):
        for _ in range(5):
            a = rand_invertible(ring, 3, rng)
            b = rand_matrix(ring, 3, rng)
            c = rand_matrix(ring, 3, rng)
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
            assert mat_mul(a, mat_inv(a)) == identity(3, ring)


def test_det():
    rng = Rng(3)
    # det is multiplicative; non-unit det matches NonInvertible
    for _ in range(8):
        a = rand_matrix(Z15, 2, rng)
        b = rand_matrix(Z15, 2, rng)
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)
    assert Z15.to_int(mat_det(matrix(Z15, [[1, 0], [0, 3]]))) == 3


def test_kron_examples():
    a = matrix(Z3, [[1, 1], [0, 1]])
    b = matrix(Z3, [[1, 2], [0, 1]])
    blocks = [[1, 2, 1, 2], [0, 1, 0, 1], [0, 0, 1, 2], [0, 0, 0, 1]]
    # blockwise expansion oracle
    oracle = [[0] * 4 for _ in range(4)]
    ai, bi = int_rows(a), int_rows(b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l_ in range(2):
                    oracle[i * 2 + k][j * 2 + l_] = ai[i][j] * bi[k][l_] % 3
    assert oracle == blocks
    assert int_rows(mat_kron(a, b)) == blocks
    assert mat_kron(a, identity(1, Z3)) == a
    assert mat_kron(identity(2, Z3), identity(2, Z3)) == identity(4, Z3)


def test_kron_mixed_product():
    rng = Rng(23)
    for _ in range(6):
        a, b = rand_matrix(Z5, 2, rng), rand_matrix(Z5, 2, rng)
        c, d = rand_matrix(Z5, 2, rng), rand_matrix(Z5, 2, rng)
        assert mat_mul(mat_kron(a, b), mat_kron(c, d)) == \
            mat_kron(mat_mul(a, c), mat_mul(b, d))


def test_wreath_examples():
    two = matrix(Z7, [[2]])
    w = imprimitive_rep([two, two], (1, 0))
    assert int_rows(w) == [[0, 2], [2, 0]]
    # oracle: image of basis tuples under the action formula
    # (u_1, u_2)^g = (u_{i_1}^{h_{i_1}}, u_{i_2}^{h_{i_2}}), i_j = j^{k^-1}
    u = vector(Z7, [1, 0])
    assert [Z7.to_int(e) for e in vector_act(u, w)] == [0, 2]
    ident = imprimitive_rep([identity(2, Z7)] * 3, perm_id(3))
    assert ident == identity(6, Z7)
    swap = product_rep([identity(2, Z7)] * 2, (1, 0))
    # images of e_i (x) e_j: slot swap
    for i in range(2):
        for j in range(2):
            e = [0] * 4
            e[i * 2 + j] = 1
            out = vector_act(vector(Z7, e), swap)
            expect = [0] * 4
            expect[j * 2 + i] = 1
            assert [Z7.to_int(x) for x in out] == expect


def wreath_mul(hk1, hk2):
    """Wreath product composition oracle: (h, k)(h', k') with right actions."""
    h1, k1 = hk1
    h2, k2 = hk2
    m = len(k1)
    h = [mat_mul(h1[i], h2[k1[i]]) for i in range(m)]
    return h, perm_compose(k1, k2)


@pytest.mark.parametrize("rep", [imprimitive_rep, product_rep],
                         ids=["imprimitive", "product"])
def test_wreath_homomorphism(rep):
    rng = Rng(7)
    for _ in range(8):
        hs1 = [rand_invertible(Z5, 2, rng) for _ in range(3)]
        hs2 = [rand_invertible(Z5, 2, rng) for _ in range(3)]
        k1 = tuple(rng.shuffle([0, 1, 2]))
        k2 = tuple(rng.shuffle([0, 1, 2]))
        lhs = mat_mul(rep(hs1, k1), rep(hs2, k2))
        h3, k3 = wreath_mul((hs1, k1), (hs2, k2))
        assert lhs == rep(h3, k3)


def test_perm_matrices_compose():
    for k1 in ((1, 0, 2), (2, 0, 1)):
        for k2 in ((0, 2, 1), (1, 2, 0)):
            k12 = perm_compose(k1, k2)
            assert mat_mul(block_perm_matrix(k1, 2, Z5),
                           block_perm_matrix(k2, 2, Z5)) == \
                block_perm_matrix(k12, 2, Z5)
            assert mat_mul(tensor_perm_matrix(k1, 2, Z5),
                           tensor_perm_matrix(k2, 2, Z5)) == \
                tensor_perm_matrix(k12, 2, Z5)
            assert perm_compose(k1, perm_inverse(k1)) == perm_id(3)


def test_ring_change_extend():
    gf2, gf4 = field(2), field(4)
    a = matrix(gf2, [[1, 1], [0, 1]])
    ext = ring_change(a, ("extend-to", gf4))
    assert ext.ring == gf4
    assert [[e.coeffs for e in row] for row in ext.rows] == \
        [[((1, 0),), ((1, 0),)], [((0, 0),), ((1, 0),)]]
    with pytest.raises(NoSuchEmbedding):
        ring_change(matrix(Z3, [[1]]), ("extend-to", Z15))


def test_ring_change_crt_lift():
    a = matrix(Z3, [[1, 1], [0, 1]])
    lifted = ring_change(a, ("crt-lift", Z15, 0))
    assert int_rows(lifted) == [[1, 10], [0, 1]]
    b = matrix(Zmod(5), [[1, 1], [0, 1]])
    assert int_rows(ring_change(b, ("crt-lift", Z15, 1))) == [[1, 6], [0, 1]]


def test_ring_change_rep():
    gf4 = field(4)
    x = gf4.element([(0, 1)])
    m = matrix(gf4, [[x]])
    rep = ring_change(m, ("rep-to", 2))
    assert int_rows(rep) == [[0, 1], [1, 1]]  # companion matrix of x^2+x+1
    # one destination ring per (p, m), shared by every ring-rep product
    assert rep.ring is Zmod(2) is ring_change(m, ("rep-to", 2)).ring


@pytest.mark.parametrize("target", [
    ("extend-to", field(4)),
    ("rep-to", None),       # filled per-case below
    ("crt-lift", Z15, 0),
])
def test_ring_change_product_preserving(target):
    rng = Rng(31)
    if target[0] == "extend-to":
        ring, tgt = field(2), target
    elif target[0] == "rep-to":
        ring, tgt = field(4), ("rep-to", 2)
    else:
        ring, tgt = Z3, target
    for _ in range(6):
        a = rand_invertible(ring, 2, rng)
        b = rand_invertible(ring, 2, rng)
        assert ring_change(mat_mul(a, b), tgt) == \
            mat_mul(ring_change(a, tgt), ring_change(b, tgt))


def test_word_eval():
    a = matrix(Z5, [[1, 1], [0, 1]])
    b = matrix(Z5, [[1, 0], [1, 1]])
    assert word_eval([a, b], []) == identity(2, Z5)
    assert word_eval([a], [1, -1]) == identity(2, Z5)
    assert int_rows(word_eval([a, b], [1, 2])) == [[2, 1], [1, 1]]


def test_word_eval_multiplies_once_per_letter_after_the_first(monkeypatch):
    # no product with the identity, and one inversion per distinct inverted
    # generator: a generator keeps its inverse once it is computed
    from matcrypt import matrix as matrix_module
    calls = {"mul": 0, "inv": 0}
    real_mul, real_inverse = matrix_module.mat_mul, matrix_module._inverse

    def counted_mul(x, y):
        calls["mul"] += 1
        return real_mul(x, y)

    def counted_inverse(x):
        calls["inv"] += 1
        return real_inverse(x)

    rng = Rng(5)
    gens = [rand_invertible(Z15, 3, rng) for _ in range(3)]
    word = [1, -2, -2, 3, -2, -1, 3]
    want = identity(3, Z15)
    for x in word:
        want = real_mul(want, gens[x - 1] if x > 0 else mat_inv(gens[-x - 1]))
    inv3 = mat_inv(gens[2])
    # equal generators that hold no inverse yet
    gens = [Matrix._of(g.n, g.ring, g.data) for g in gens]
    monkeypatch.setattr(matrix_module, "mat_mul", counted_mul)
    monkeypatch.setattr(matrix_module, "_inverse", counted_inverse)
    assert word_eval(gens, word) == want
    assert calls == {"mul": len(word) - 1, "inv": 2}
    calls.update(mul=0, inv=0)
    assert word_eval(gens, [-3]) == inv3
    assert word_eval(gens, [2]) == gens[1]
    assert word_eval(gens, [-1]) == mat_inv(gens[0])
    assert calls == {"mul": 0, "inv": 1}


def test_vector_act():
    v = vector(Z7, [1, 0])
    w = matrix(Z7, [[0, 2], [2, 0]])
    assert [Z7.to_int(e) for e in vector_act(v, w)] == [0, 2]
    assert vector_act(v, identity(2, Z7)) == v
    zero = vector(Z7, [0, 0])
    assert vector_act(zero, w) == zero
    rng = Rng(17)
    for _ in range(6):
        g = rand_matrix(Z15, 3, rng)
        h = rand_matrix(Z15, 3, rng)
        u = tuple(rand_matrix(Z15, 1, rng).rows[0][0] for _ in range(3))
        assert vector_act(vector_act(u, g), h) == vector_act(u, mat_mul(g, h))


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        mat_mul(matrix(Z5, [[1]]), matrix(Z3, [[1]]))
    with pytest.raises(RingMismatch):
        mat_kron(matrix(Z5, [[1]]), matrix(Z3, [[1]]))
