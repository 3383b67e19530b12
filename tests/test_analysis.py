"""Oracles and attacks: exhaustive ground truth and verified attack outputs."""

import warnings

import pytest

from analysis_reference import ref_coset_attacks
from conftest import rand_invertible
from matcrypt.analysis import (
    INCONCLUSIVE,
    CosetAttack,
    _fold,
    coset_attack,
    enumerate_group,
    linearity_attack,
    oracle_conjugator,
    oracle_member,
    oracle_transporter,
    scsp_linear_attack,
    solve_linear,
    span_basis,
)
from matcrypt.errors import (
    AttackFailure,
    CapExceeded,
    DegenerateKey,
    InsecurityWarning,
    RingMismatch,
    ShapeMismatch,
)
from matcrypt.homcrypt import (
    HomPublicKey,
    PermModel,
    dihedral4,
    f_inverse_word,
    hc_decrypt,
    hc_encrypt,
    hc_keygen,
    klein_four,
    presentation,
    sym3,
)
from matcrypt.instance import base_general_linear, leaf_generators
from matcrypt.matrix import (
    _vector_data,
    identity,
    mat_inv,
    mat_mul,
    matrix,
    vector,
    word_eval,
)
from matcrypt.ring import Zmod, field
from matcrypt.rng import Rng
from matcrypt.words import FreeWord, fw_inv, push_reduced

Z5 = Zmod(5)
Z15 = Zmod(15)


def test_enumerate_examples():
    e = enumerate_group([matrix(Z5, [[1, 1], [0, 1]])], 100)
    assert len(e) == 5
    gens = [matrix(Z15, [[1, 10], [0, 1]]), matrix(Z15, [[1, 6], [0, 1]])]
    e15 = enumerate_group(gens, 100)
    assert len(e15) == 15
    one, zero = Z15.one(), Z15.zero()
    for m in e15.matrices():
        assert m.rows[0][0] == one and m.rows[1][1] == one \
            and m.rows[1][0] == zero
    with pytest.raises(CapExceeded):
        enumerate_group(gens, 10)
    # a cap equal to the order admits the group, one less refuses it
    assert len(enumerate_group(gens, 15)) == 15
    with pytest.raises(CapExceeded):
        enumerate_group(gens, 14)


def test_oracle_membership():
    e = enumerate_group([matrix(Z5, [[1, 1], [0, 1]])], 100)
    ok, wit = oracle_member(e, identity(2, Z5))
    assert ok and wit == ()
    ok, _ = oracle_member(e, matrix(Z5, [[2, 0], [0, 1]]))
    assert not ok


def test_oracle_membership_compares_the_ring():
    # the same stored integers over Z/3 and Z/9
    z3, z9 = Zmod(3), Zmod(9)
    e = enumerate_group([matrix(z3, [[1, 1], [0, 1]])], 100)
    assert e.contains(matrix(z3, [[1, 2], [0, 1]]))
    assert not e.contains(matrix(z9, [[1, 2], [0, 1]]))
    assert not e.contains(identity(3, z3))
    for g in (matrix(z9, [[1, 2], [0, 1]]), identity(3, z3)):
        with pytest.raises(ShapeMismatch):
            oracle_member(e, g)


def test_oracle_conjugacy():
    rng = Rng(7)
    z3 = Zmod(3)
    gens = leaf_generators(base_general_linear(2, 3))
    e = enumerate_group(gens, 100)
    g = rand_invertible(z3, 2, rng)
    h = rand_invertible(z3, 2, rng)
    f = mat_mul(mat_mul(mat_inv(h), g), h)
    ok, found = oracle_conjugator(e, f, g)
    assert ok
    assert mat_mul(mat_mul(mat_inv(found), g), found) == f


def test_oracle_ltp():
    gens = [matrix(Zmod(7), [[0, 2], [2, 0]])]
    e = enumerate_group(gens, 100)
    z7 = Zmod(7)
    u, v = vector(z7, [1, 3]), vector(z7, [6, 2])
    ok, g = oracle_transporter(e, u, v)
    assert ok
    from matcrypt.matrix import vector_act
    assert vector_act(u, g) == v
    ok, _ = oracle_transporter(e, u, vector(z7, [0, 0]))
    assert not ok


def test_oracle_ltp_refuses_malformed_vectors():
    # a v over another ring or of another length is no query, not a
    # "no transporter" verdict
    e = enumerate_group(leaf_generators(base_general_linear(2, 5)), 1000)
    u = vector(Z5, [1, 0])
    with pytest.raises(RingMismatch):
        oracle_transporter(e, u, vector(field(7), [1, 0]))
    for v in (vector(Z5, [1, 0, 0]), vector(Z5, [1])):
        with pytest.raises(ShapeMismatch):
            oracle_transporter(e, u, v)
        with pytest.raises(ShapeMismatch):
            oracle_transporter(e, v, u)
    assert oracle_transporter(e, u, vector(Z5, [0, 1]))[0]


def test_solve_linear_over_zpm():
    # valuation pivoting handles non-unit pivots exactly over Z_9
    z9 = Zmod(9)
    cols = [(z9.from_int(3), z9.from_int(1)),
            (z9.from_int(6), z9.from_int(0))]
    target = (z9.from_int(3), z9.from_int(1))
    sol = solve_linear(z9, [_vector_data(c, z9) for c in cols],
                       _vector_data(target, z9))
    assert sol is not None
    acc0 = sol[0] * cols[0][0] + sol[1] * cols[1][0]
    acc1 = sol[0] * cols[0][1] + sol[1] * cols[1][1]
    assert (acc0, acc1) == target
    # and reports unsolvable systems
    assert solve_linear(z9, [_vector_data((z9.from_int(3),), z9)],
                        _vector_data((z9.from_int(1),), z9)) is None


def test_scsp_worked_example():
    g = matrix(Z5, [[1, 1], [0, 1]])
    f = matrix(Z5, [[1, 3], [0, 1]])
    # conjugator family includes [[2,0],[0,1]]
    h0 = matrix(Z5, [[2, 0], [0, 1]])
    assert mat_mul(mat_mul(mat_inv(h0), g), h0) == f
    gens = leaf_generators(base_general_linear(2, 5))
    rep = scsp_linear_attack(2, 5, gens, f, g, seed=3)
    assert mat_mul(mat_mul(mat_inv(rep.h), g), rep.h) == f
    # f = g: any returned solution conjugates g to itself
    rep2 = scsp_linear_attack(2, 5, gens, g, g, seed=1)
    assert mat_mul(mat_mul(mat_inv(rep2.h), g), rep2.h) == g


def test_scsp_small_q_warning():
    z3 = Zmod(3)
    gens = leaf_generators(base_general_linear(2, 3))
    g = matrix(z3, [[1, 1], [0, 1]])
    f = matrix(z3, [[1, 2], [0, 1]])
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            scsp_linear_attack(2, 3, gens, f, g, seed=5)
        except AttackFailure:
            pass
    assert any(isinstance(w.message, InsecurityWarning) for w in log)


@pytest.mark.parametrize("q, warns", [(4, True), (5, False)])
def test_scsp_warns_from_degree_half_q(q, warns):
    # n = 2: q = 4 is the largest q with n >= q/2
    ring = field(q)
    gens = leaf_generators(base_general_linear(2, q))
    g = matrix(ring, [[1, 1], [0, 1]])
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            scsp_linear_attack(2, q, gens, g, g, seed=1)
        except AttackFailure:
            pass
    assert any(isinstance(w.message, InsecurityWarning) for w in log) == warns


@pytest.mark.parametrize("q", [17, 31])
def test_scsp_success_rate(q):
    ring = Zmod(q)
    gens = leaf_generators(base_general_linear(2, q))
    rng = Rng(q)
    success = 0
    runs = 25
    for i in range(runs):
        g = rand_invertible(ring, 2, rng)
        h = rand_invertible(ring, 2, rng)
        f = mat_mul(mat_mul(mat_inv(h), g), h)
        try:
            rep = scsp_linear_attack(2, q, gens, f, g, seed=i)
            assert mat_mul(mat_mul(mat_inv(rep.h), g), rep.h) == f
            success += 1
        except AttackFailure:
            pass
    assert success >= 0.9 * runs


def test_linearity_attack_conjugation():
    gens = leaf_generators(base_general_linear(2, 5))
    rng = Rng(15)
    c = rand_invertible(Z5, 2, rng)
    cinv = mat_inv(c)
    images = [mat_mul(mat_mul(cinv, g), c) for g in gens]
    for _ in range(25):
        q = rand_invertible(Z5, 2, rng)
        rep = linearity_attack(gens, images, q)
        assert rep.prediction != INCONCLUSIVE
        assert rep.prediction == mat_mul(mat_mul(cinv, q), c)
        assert rep.consistent


def test_linearity_attack_frobenius_counterexample():
    from matcrypt.instance import hom_apply, hom_build, leaf, tree_eval
    t = leaf(base_general_linear(1, 4))
    h = hom_build(t, [("frob", 1)])
    inst = tree_eval(t)
    gens, images = list(inst.gens), list(h.gen_images)
    gf4 = field(4)
    found = False
    for a in gf4.enumerate():
        if a.is_zero():
            continue
        q = matrix(gf4, [[a]])
        rep = linearity_attack(gens, images, q)
        truth = hom_apply(h, q)
        if rep.prediction == INCONCLUSIVE or rep.prediction != truth:
            found = True
    assert found


def test_linearity_attack_flags_constant_map():
    gens = leaf_generators(base_general_linear(2, 5))
    images = [identity(2, Z5) for _ in gens]
    rep = linearity_attack(gens, images, gens[0])
    assert not rep.consistent


def test_coset_attack_klein_four():
    pres = klein_four()
    pk, sk = hc_keygen(pres, 11)
    attack = coset_attack(pk, pres.model, 11)
    assert len(attack.table) == pres.model.order()
    for seed in range(10):
        msg = FreeWord(2, ((seed % 2) + 1,))
        cipher = hc_encrypt(pk, msg, seed, pad_length=1)
        got = attack.decrypt(cipher)
        want = pres.model.eval_key(hc_decrypt(sk, cipher))
        assert got == want


def test_coset_attack_refuses_a_model_above_its_cap():
    # S_8 (order 40320), generated by a transposition and an 8-cycle
    model = PermModel([(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)])
    pres = presentation(2, [(1, 1), (2,) * 8], model)
    pk, _sk = hc_keygen(pres, 0)
    with pytest.raises(CapExceeded):
        coset_attack(pk, model, 1)


def test_coset_attack_bound_zero():
    pres = klein_four()
    pk, sk = hc_keygen(pres, 11)
    attack = coset_attack(pk, pres.model, 0)
    cipher = hc_encrypt(pk, FreeWord(2, (1,)), 5, pad_length=1)
    assert attack.decrypt(cipher) == INCONCLUSIVE


PRESETS = pytest.mark.parametrize("make", [klein_four, sym3, dihedral4],
                                  ids=["klein4", "s3", "d4"])


@PRESETS
def test_coset_search_matches_the_reference(make):
    # the table, pulled back through f, and every verdict agree with the
    # reference's single ball, on one-letter and on 1-4-letter messages
    pres = make()
    k = pres.k
    for seed in range(10):
        pk, _sk = hc_keygen(pres, seed)
        ciphers = [hc_encrypt(pk, FreeWord(k, (x,)), 7 * seed + j, pad_length=1)
                   for j, x in enumerate((1, -1, 2, -2))]
        rng = Rng(seed)
        for pad in (0, 2):
            for length in range(1, 5):
                msg = [rng.randint(1, k) * rng.choice((1, -1)) for _ in range(length)]
                ciphers.append(hc_encrypt(pk, FreeWord(k, tuple(msg)),
                                          rng.randint(0, 999), pad_length=pad))
        refs = ref_coset_attacks(pk, pres.model, 9)
        for bound, want in enumerate(refs):
            got = coset_attack(pk, pres.model, bound)
            assert [(key, f_inverse_word(pk, FreeWord(k, w)))
                    for key, w in got.table.items()] == want.table, (seed, bound)
            assert [got.decrypt(c) for c in ciphers] == \
                [want.decrypt(c) for c in ciphers], (seed, bound)


@PRESETS
@pytest.mark.parametrize("seeds, radius", [(range(1, 8), 7), (range(1), 9)],
                         ids=["bounds0-6", "bounds0-8"])
def test_graph_reader_decides_membership_as_the_ball_does(make, seeds, radius):
    # every word of the reference ball of radius b + 1, for every b below
    # the radius: the graph reads it back to the base, with the ball's
    # image, and its expression has at most b letters exactly when the ball
    # of radius b holds it, that is, as many letters as the first radius
    # whose ball holds it.  The graph does not depend on the bound, so one
    # read per word serves every b
    pres = make()
    model = pres.model
    for seed in seeds:
        pk, _sk = hc_keygen(pres, seed)
        first = {}
        for b, ref in enumerate(ref_coset_attacks(pk, model, radius)):
            ball = ref.searched
            for w in ball:
                first.setdefault(w, b)
        attack = coset_attack(pk, model, 0)
        for w, image in ball.items():
            expr = attack.read(w)
            assert expr is not None and model.eval_key(expr) == image, (seed, w)
            assert len(expr) == first[w], (seed, w)


@PRESETS
def test_every_path_to_a_word_carries_one_image(make):
    # every product of at most six public steps (undoing steps included)
    # that reaches an already-reached word reaches it with the same model
    # image.  The x-words of these keys are a free basis (the fold refuses
    # any other key), so each word has one x-word expression and this holds
    # by freeness; it stays as a check on the keys
    pres = make()
    model = pres.model
    for seed in range(20):
        pk, _sk = hc_keygen(pres, seed)
        steps = []
        for idx, xw in enumerate(pk.x_words):
            y = pk.f_table[idx] + 1
            x = FreeWord(pres.k, tuple(xw))
            steps.append((x.letters, model.gen_key(y, 1)))
            steps.append((fw_inv(x).letters, model.gen_key(y, -1)))
        seen = {(): model.identity_key()}
        level = [((), model.identity_key())]
        for _ in range(6):
            nxt = []
            for letters, img in level:
                for chunk, gk in steps:
                    w = tuple(push_reduced(list(letters), chunk))
                    img2 = model.mul_key(img, gk)
                    assert seen.setdefault(w, img2) == img2, (seed, w)
                    nxt.append((w, img2))
            level = nxt


def _random_reduced(rng, k: int, length: int) -> tuple:
    out: list = []
    while len(out) < length:
        x = rng.randint(1, k) * rng.choice((1, -1))
        if not out or x != -out[-1]:
            out.append(x)
    return tuple(out)


@pytest.mark.parametrize("k", [2, 3])
def test_fold_reads_products_over_random_free_keys(k):
    # k random x-words of 1-6 letters: unless the fold finds a relation
    # among them, they are a free basis, and reading a reduced product of
    # them gives back its index word.  The presets' keys never merge into
    # the base vertex nor fold a loop whose letter is 1 or -1; these keys do
    rng = Rng(k)
    decided = 0
    for _ in range(3000):
        words = [FreeWord(k, _random_reduced(rng, k, rng.randint(1, 6)))
                 for _ in range(k)]
        try:
            attack = CosetAttack({}, _fold(words), 0, None)
        except DegenerateKey:
            continue
        index = _random_reduced(rng, k, rng.randint(0, 6))
        q: list = []
        for i in index:
            push_reduced(q, words[abs(i) - 1].letters if i > 0
                         else fw_inv(words[abs(i) - 1]).letters)
        assert attack.read(tuple(q)) == index, (words, index)
        decided += 1
    assert decided > 2000


def test_coset_attack_decides_a_default_padded_cipher_at_bound_17():
    # out of reach of one ball of radius 17 (about 2.6e8 words)
    pres = klein_four()
    pk, sk = hc_keygen(pres, 11)
    cipher = hc_encrypt(pk, FreeWord(2, (1,)), 0)
    got = coset_attack(pk, pres.model, 17).decrypt(cipher)
    assert got == (1, 0, 3, 2) == pres.model.eval_key(hc_decrypt(sk, cipher))


def test_coset_attack_decides_at_bound_1000():
    # the cost of a verdict does not grow with the bound
    pres = klein_four()
    pk, sk = hc_keygen(pres, 11)
    cipher = hc_encrypt(pk, FreeWord(2, (1,)), 0)
    got = coset_attack(pk, pres.model, 1000).decrypt(cipher)
    assert got == (1, 0, 3, 2) == pres.model.eval_key(hc_decrypt(sk, cipher))


def test_coset_attack_refuses_x_words_with_a_relation():
    # no two of (1), (2) and (1, 2) commute, but (1)(2)(1, 2)^-1 = 1
    pres = presentation(3, [], PermModel([(1, 0), (1, 0), (1, 0)]))
    pk = HomPublicKey(pres, ((1,), (2,), (1, 2)), (0, 1, 2))
    with pytest.raises(DegenerateKey):
        coset_attack(pk, pres.model, 3)


def test_span_basis_stabilizes():
    gens = leaf_generators(base_general_linear(2, 5))
    basis, words = span_basis(Z5, gens)
    assert len(basis) == 4  # GL(2,5) spans the full 2x2 matrix algebra
    # each basis element is the product its word names; s^2 = 1, so the
    # swap s and the shear t need the word (1, 2) for s*t, not t*s
    for gens in (gens, [matrix(Z5, [[0, 1], [1, 0]]), matrix(Z5, [[1, 1], [0, 1]])]):
        basis, words = span_basis(Z5, gens)
        assert words[0] == ()
        assert [word_eval(gens, w) for w in words] == basis
    assert words == [(), (1,), (2,), (1, 2)]
