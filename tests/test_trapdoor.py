"""Tree-directed membership and transporter solvers against exhaustive oracles."""

import math
import warnings

import pytest

from conftest import rand_element, rand_invertible, rand_matrix
from matcrypt.analysis import enumerate_group, oracle_transporter
from matcrypt.errors import (
    CapExceeded,
    NotDecomposable,
    NotWreathShaped,
    RingMismatch,
    ShapeMismatch,
)
from matcrypt.instance import (
    base_diagonal,
    base_general_linear,
    base_special_linear,
    base_unipotent,
    conjugate,
    crt_assemble,
    direct_same_degree,
    leaf,
    ring_extend,
    tensor,
    tree_eval,
    tree_random,
    wreath_imprimitive,
    wreath_product,
)
from matcrypt.matrix import (
    identity,
    imprimitive_rep,
    int_rows,
    kron_all,
    mat_add,
    mat_inv,
    mat_kron,
    mat_mul,
    mat_scale,
    matrix,
    product_rep,
    vector,
    vector_act,
)
from matcrypt.ring import RingElement, Zmod, direct_sum, field, galois_ring, ring_inv
from matcrypt.rng import Rng
from matcrypt.trapdoor import (
    NoSolution,
    _bezout,
    _nth_root,
    _split_scalar,
    _spow,
    affine_bridge,
    affine_embed,
    lex_min_perfect_matching,
    ltp_solve,
    max_matching,
    membership,
    product_split_candidates,
    replay_witness,
    sample_transportable_vector,
    tensor_split,
    vector_tensor_split,
    wreath_split,
)
from trapdoor_reference import ref_vector_tensor_split

warnings.simplefilter("ignore")

Z5 = Zmod(5)
Z7 = Zmod(7)

UNIPOTENT5 = leaf(base_unipotent(5))
FACTORING = direct_same_degree(leaf(base_unipotent(3)), leaf(base_unipotent(5)))
WREATH7 = wreath_imprimitive(leaf(base_diagonal(1, 7, gen=(2,))), 2)


# --- membership ----------------------------------------------------------------

def test_membership_unipotent():
    assert membership(UNIPOTENT5, matrix(Z5, [[1, 3], [0, 1]])).accepted
    assert not membership(UNIPOTENT5, matrix(Z5, [[2, 0], [0, 1]])).accepted
    with pytest.raises(ShapeMismatch):
        membership(UNIPOTENT5, matrix(Z7, [[1, 1], [0, 1]]))


def test_membership_witness_replay():
    trees = [
        FACTORING,
        WREATH7,
        tensor(leaf(base_unipotent(3)), leaf(base_special_linear(2, 3))),
        conjugate(wreath_product(leaf(base_diagonal(1, 5)), 2), 5),
    ]
    rng = Rng(2)
    for t in trees:
        inst = tree_eval(t)
        enum = enumerate_group(list(inst.gens), 30000)
        elems = list(enum.matrices())
        for _ in range(10):
            g = elems[rng.below(len(elems))]
            verdict = membership(t, g)
            assert verdict.accepted
            assert replay_witness(t, verdict.witness) == g


def test_membership_matches_oracle_random_trees():
    rng = Rng(77)
    tested = 0
    seed = 0
    while tested < 12:
        seed += 1
        t = tree_random(45, seed, max_degree=9, max_ring=4000)
        inst = tree_eval(t)
        try:
            enum = enumerate_group(list(inst.gens), 4000)
        except CapExceeded:
            continue
        tested += 1
        elems = list(enum.matrices())
        for qi in range(20):
            if qi % 2 == 0:
                g = elems[rng.below(len(elems))]
            else:
                g = rand_matrix(inst.ring, inst.n, rng)
            want = enum.contains(g)
            assert membership(t, g).accepted == want


@pytest.mark.parametrize("first", [base_general_linear, base_special_linear])
def test_membership_over_a_large_field_tensor(first):
    # the twists of a GL(2, 4099) factor are all 4098 units, which the
    # recursion once enumerated, past its cap
    t = tensor(leaf(first(2, 4099)), leaf(base_general_linear(2, 4099)))
    inst = tree_eval(t)
    g = mat_mul(inst.gens[0], inst.gens[-1])
    verdict = membership(t, g)
    assert verdict.accepted
    assert replay_witness(t, verdict.witness) == g
    assert not membership(t, rand_matrix(inst.ring, 4, Rng(5))).accepted


# --- splitting -------------------------------------------------------------------

def test_wreath_split_imprimitive():
    two = matrix(Z7, [[2]])
    w = imprimitive_rep([two, two], (1, 0))
    hs, k = wreath_split(w, 1, 2)
    assert [int_rows(h) for h in hs] == [[[2]], [[2]]] and k == (1, 0)
    ident = identity(4, Z7)
    hs, k = wreath_split(ident, 2, 2)
    assert all(h.is_identity() for h in hs) and k == (0, 1)
    with pytest.raises(NotWreathShaped):
        wreath_split(matrix(Z7, [[1, 1], [1, 2]]), 1, 2)


def _first_product_split(g, n, m):
    return next(product_split_candidates(g, n, m))


@pytest.mark.parametrize("rep, split", [(imprimitive_rep, wreath_split),
                                        (product_rep, _first_product_split)],
                         ids=["imprimitive", "product"])
def test_wreath_split_roundtrip(rep, split):
    rng = Rng(41)
    for _ in range(40):
        m = rng.randint(2, 3)
        hs = [rand_invertible(Z5, 2, rng) for _ in range(m)]
        if rep is product_rep:
            # canonicalize: product-action coordinates are recoverable only up
            # to unit twists, so compare against the normalized tuple
            for i in range(1, m):
                u = next(e for row in hs[i].rows for e in row if e.is_unit())
                uinv = ring_inv(u)
                hs[i] = matrix(Z5, [[e * uinv for e in row]
                                    for row in hs[i].rows])
                hs[0] = matrix(Z5, [[e * u for e in row]
                                    for row in hs[0].rows])
        k = tuple(rng.shuffle(list(range(m))))
        w = rep(hs, k)
        hs2, k2 = split(w, 2, m)
        assert k2 == k
        assert list(hs2) == list(hs)
        assert rep(hs2, k2) == w


def test_tensor_split():
    rng = Rng(13)
    assert [m.n for m in tensor_split(identity(6, Z5), [2, 3])] == [2, 3]
    for _ in range(10):
        a = rand_invertible(Z5, 2, rng)
        b = rand_invertible(Z5, 3, rng)
        k = mat_kron(a, b)
        fa, fb = tensor_split(k, [2, 3])
        assert mat_kron(fa, fb) == k
        # factors differ from (a, b) by a single unit
        assert fb.rows[0][0].is_one() or any(
            fb.rows[i][j].is_one() for i in range(3) for j in range(3))
    with pytest.raises(NotDecomposable):
        a = rand_invertible(Z5, 2, rng)
        b = rand_invertible(Z5, 2, rng)
        tensor_split(mat_add(mat_kron(a, b), mat_kron(b, a)), [2, 2])


def _first_units(m):
    """Per summand, the coefficients of m's first entry (row-major) that is
    a unit there."""
    return tuple(next(e.coeffs[s] for row in m.rows for e in row
                      if any(c % g.p for c in e.coeffs[s]))
                 for s, g in enumerate(m.ring.summands))


@pytest.mark.parametrize("ring", [Z5, Zmod(15), field(4)],
                         ids=["Z5", "Z15", "GF4"])
def test_tensor_split_three_factors(ring):
    # tensor_split checks only each two-factor split; the reassembled
    # product must still be the input, and a non-Kronecker input must fail
    rng = Rng(19)
    one = tuple(g.one() for g in ring.summands)
    # a unit other than 1 in every summand: 2 in Z/5 and Z/3, x in GF(4)
    u = RingElement(ring, tuple((2,) if g.r == 1 else (0, 1)
                                for g in ring.summands))
    diag = matrix(ring, [[u, 0], [0, 1]])
    for degrees in ([2, 2, 2], [2, 3, 2]):
        ms = [rand_invertible(ring, d, rng) for d in degrees]
        # factor 3, diag(u, 1), has first unit entry u
        for ms_case in (ms, ms[:2] + [diag]):
            k = kron_all(ms_case)
            fs = tensor_split(k, degrees)
            assert [f.n for f in fs] == degrees
            assert kron_all(fs) == k
            for m, f in zip(ms_case[1:], fs[1:]):
                assert _first_units(f) == one
                c = ring_inv(RingElement(ring, _first_units(m)))
                assert f == mat_scale(m, c)
        assert _first_units(diag) != one
        with pytest.raises(NotDecomposable):
            tensor_split(mat_add(k, kron_all(ms[::-1])), degrees)
        # the first split succeeds, the second meets a non-Kronecker factor
        rest = rand_invertible(ring, degrees[1] * degrees[2], rng)
        with pytest.raises(NotDecomposable):
            tensor_split(mat_kron(ms[0], rest), degrees)


def _split_outcome(split, vec, degrees, ring):
    try:
        return split(vec, degrees, ring)
    except NotDecomposable:
        return NotDecomposable


SPLIT_RINGS = [Z5, Zmod(9), Zmod(15), field(4), field(9),
               galois_ring(2, 2, 2),
               direct_sum(field(4), Zmod(9))]


@pytest.mark.parametrize("ring", SPLIT_RINGS,
                         ids=["Z5", "Z9", "Z15", "GF4", "GF9", "GR4_2", "GF4+Z9"])
def test_vector_tensor_split_matches_reference(ring):
    # the vector split against the per-entry code it replaced: the same
    # factors, or NotDecomposable on both sides
    rng = Rng(23)
    split = 0
    for degrees in ([2, 2], [2, 3], [3, 2], [2, 2, 2], [2, 3, 2]):
        for i in range(24):
            parts = [tuple(rand_element(ring, rng) for _ in range(d))
                     for d in degrees]
            vec = parts[0]
            for part in parts[1:]:
                vec = tuple(a * b for a in vec for b in part)
            if i % 3 == 1:
                # not a pure tensor in general
                vec = tuple(rand_element(ring, rng) for _ in vec)
            elif i % 3 == 2:
                k = rng.below(len(vec))
                vec = vec[:k] + (vec[k] + ring.one(),) + vec[k + 1:]
            want = _split_outcome(ref_vector_tensor_split, vec, degrees, ring)
            assert _split_outcome(vector_tensor_split, vec, degrees, ring) == want
            split += want is not NotDecomposable
    assert split > 20


def test_vector_tensor_split_checks_the_length():
    # 5 is not 2 * 2: a shape error, not an undecomposable vector
    with pytest.raises(ShapeMismatch):
        vector_tensor_split(vector(Z5, [1, 2, 3, 4, 1]), [2, 2], Z5)


# --- ltp -------------------------------------------------------------------------

def test_ltp_worked_example():
    u = vector(Z7, [1, 3])
    v = vector(Z7, [6, 2])
    g = ltp_solve(WREATH7, u, v)
    assert int_rows(g) == [[0, 2], [2, 0]]
    assert vector_act(u, g) == v
    # u = v: stabilizer element returned and verified
    g2 = ltp_solve(WREATH7, u, u)
    assert vector_act(u, g2) == u
    # zero target is certified unsolvable
    res = ltp_solve(WREATH7, u, vector(Z7, [0, 0]))
    assert isinstance(res, NoSolution) and res.certified


def test_ltp_matches_oracle_random_trees():
    rng = Rng(99)
    tested = 0
    seed = 0
    while tested < 10:
        seed += 1
        t = tree_random(45, seed, max_degree=9, max_ring=4000)
        inst = tree_eval(t)
        try:
            enum = enumerate_group(list(inst.gens), 2500)
        except CapExceeded:
            continue
        tested += 1
        elems = list(enum.matrices())
        for qi in range(10):
            u = sample_transportable_vector(t, rng)
            if qi % 2 == 0:
                v = vector_act(u, elems[rng.below(len(elems))])
            else:
                v = sample_transportable_vector(t, rng)
            want, _ = oracle_transporter(enum, u, v)
            got = ltp_solve(t, u, v)
            if isinstance(got, NoSolution):
                assert not want
            else:
                assert want
                assert vector_act(u, got) == tuple(v)
                assert membership(t, got).accepted


def test_ltp_solution_is_member():
    t = tensor(leaf(base_unipotent(3)), leaf(base_special_linear(2, 3)))
    rng = Rng(4)
    inst = tree_eval(t)
    enum = enumerate_group(list(inst.gens), 10000)
    elems = list(enum.matrices())
    for _ in range(8):
        u = sample_transportable_vector(t, rng)
        v = vector_act(u, elems[rng.below(len(elems))])
        g = ltp_solve(t, u, v)
        assert not isinstance(g, NoSolution)
        assert membership(t, g).accepted


def test_ring_extend_ltp_over_two_summands():
    # GF(2) + GF(3) into GF(4) + GF(9) splits each pair over the module
    # basis; into GF(4) + GF(27) the summands' degrees 2 and 3 differ, and
    # the GF(4) summand's third coordinate is zero
    child = direct_same_degree(leaf(base_unipotent(2)), leaf(base_unipotent(3)))
    t = ring_extend(child, direct_sum(field(4), field(9)))
    rng = Rng(1)
    g = tree_eval(t).gens[0]
    for _ in range(4):
        u = sample_transportable_vector(t, rng)
        got = ltp_solve(t, u, vector_act(u, g))
        assert vector_act(u, got) == vector_act(u, g)
    mixed = ring_extend(child, direct_sum(field(4), field(27)))
    inst = tree_eval(mixed)
    enum = enumerate_group(list(inst.gens), 100)
    elems = list(enum.matrices())
    for qi in range(20):
        u = sample_transportable_vector(mixed, rng)
        if qi % 2 == 0:
            v = vector_act(u, elems[rng.below(len(elems))])
        else:
            v = sample_transportable_vector(mixed, rng)
        want, _ = oracle_transporter(enum, u, v)
        got = ltp_solve(mixed, u, v)
        if isinstance(got, NoSolution):
            assert not want
        else:
            assert want and vector_act(u, got) == v


@pytest.mark.parametrize("tree", [
    tensor(leaf(base_special_linear(2, 3)), leaf(base_general_linear(2, 3))),
    wreath_product(leaf(base_special_linear(2, 3)), 2),
], ids=["tensor SL(2,3) x GL(2,3)", "wreath-product SL(2,3) wr S2"])
def test_brute_fallback_answers_a_vector_that_is_no_pure_tensor(tree, monkeypatch):
    # u = e1 + e4 is no pure tensor, so the twisted search cannot split it
    # and the node answers by the bounded exhaustive fallback
    from matcrypt import trapdoor
    brute, ltp_brute = [], trapdoor._ltp_brute

    def counted(t, pairs):
        brute.append(t)
        return ltp_brute(t, pairs)
    monkeypatch.setattr(trapdoor, "_ltp_brute", counted)
    inst = tree_eval(tree)
    ring = inst.ring
    enum = enumerate_group(list(inst.gens), trapdoor.BRUTE_LTP_CAP)
    elems = list(enum.matrices())
    u = vector(ring, [1, 0, 0, 1])
    rng = Rng(11)
    targets = [vector_act(u, elems[rng.below(len(elems))]) for _ in range(4)]
    targets += [vector(ring, [rng.below(3) for _ in range(4)]) for _ in range(8)]
    targets += [vector(ring, [1, 0, 0, 0]), vector(ring, [0, 0, 0, 0])]
    answered = 0
    for v in targets:
        want, _ = oracle_transporter(enum, u, v)
        got = ltp_solve(tree, u, v)
        assert isinstance(got, NoSolution) == (not want), v
        if not isinstance(got, NoSolution):
            assert vector_act(u, got) == v
            answered += 1
    assert answered >= 4
    assert len(brute) == len(targets)


@pytest.mark.parametrize("tree, other", [
    (leaf(base_general_linear(2, 5)), Z7),
    (conjugate(leaf(base_general_linear(2, 5)), 3), Z7),
    (crt_assemble(leaf(base_general_linear(2, 3)), leaf(base_general_linear(2, 5))),
     Zmod(21)),
    (tensor(leaf(base_general_linear(2, 5)), leaf(base_special_linear(2, 5))), Z7),
], ids=["leaf", "conjugate", "crt", "tensor"])
def test_ltp_solve_refuses_a_vector_over_another_ring(tree, other):
    # every node kind gives the same answer: the query, not the tree, is wrong
    u = sample_transportable_vector(tree, Rng(1))
    w = vector(other, [1] * len(u))
    for pair in ((u, w), (w, u)):
        with pytest.raises(RingMismatch):
            ltp_solve(tree, *pair)


def test_ltp_solve_checks_its_answer(monkeypatch):
    # the checks must hold under python -O too, so they are not asserts
    from matcrypt import trapdoor
    from matcrypt.errors import UnverifiedResult
    u, v = vector(Z5, [1, 0]), vector(Z5, [1, 2])
    for wrong in (identity(2, Z5),                    # does not map u to v
                  matrix(Z5, [[1, 2], [0, 3]])):      # maps u to v, not a member
        monkeypatch.setattr(trapdoor, "_ltp", lambda t, pairs, g=wrong: g)
        with pytest.raises(UnverifiedResult):
            ltp_solve(UNIPOTENT5, u, v)


# --- scalar arithmetic ---------------------------------------------------------

@pytest.mark.parametrize("ms", [[1], [4], [4, 1], [3, 5], [12, 18], [6, 10, 15],
                                [9, 6, 4]])
def test_bezout_combines_to_the_gcd(ms):
    cs = _bezout(ms)
    assert len(cs) == len(ms)
    assert sum(c * m for c, m in zip(cs, ms)) == math.gcd(*ms)


@pytest.mark.parametrize("ring, orders", [
    (Zmod(13), [(4,), (6,)]), (Zmod(13), [(2,), (3,)]),
    (Zmod(13), [(6,), (4,), (3,)]), (Zmod(35), [(2, 3), (4, 2)]),
], ids=["GF(13) 4,6", "GF(13) 2,3", "GF(13) 6,4,3", "GF(5)+GF(7)"])
def test_split_scalar_splits_exactly_the_scalars_of_the_product(ring, orders):
    # x splits into z_i with z_i^d_i = 1 exactly when x^lcm(d_i) = 1 in
    # every summand, and the parts multiply to x
    lcms = [math.lcm(*ds) for ds in zip(*orders)]
    for x in ring.unit_list:
        parts = _split_scalar(x, orders)
        assert (parts is not None) == _spow(x, lcms).is_one(), x
        if parts is not None:
            assert math.prod(parts[1:], start=parts[0]) == x
            assert all(_spow(z, ds).is_one() for z, ds in zip(parts, orders))


@pytest.mark.parametrize("q, ns", [(13, (1, 2, 3, 4, 5, 6, 12)), (9, (2, 4, 8)),
                                   (16, (3, 5, 15)), (7, (2, 3, 4, 6))])
def test_nth_root_finds_a_root_exactly_when_one_exists(q, ns):
    units = field(q).unit_list
    for n in ns:
        powers = {y.pow(n) for y in units}
        for c in units:
            x = _nth_root(c, n)
            assert (x is not None) == (c in powers), (n, c)
            assert x is None or x.pow(n) == c, (n, c)


# --- matching ---------------------------------------------------------------------

def test_max_matching():
    adj = [[0, 1], [0], [2]]
    m = max_matching(adj, 3)
    assert len(m) == 3
    adj2 = [[0], [0], [1]]
    assert len(max_matching(adj2, 2)) == 2


def test_matchings_agree_with_brute_force():
    # over seeded random graphs on m <= 6 vertices a side: the lex-least
    # perfect matching is the lex-first permutation k with every edge
    # (i, k[i]) present, and a maximum matching has as many edges as the
    # best permutation keeps
    import itertools
    rng = Rng(13)
    for _ in range(600):
        m = 1 + rng.below(6)
        density = 1 + rng.below(4)
        adj = [[j for j in range(m) if rng.below(4) < density] for _ in range(m)]
        perms = list(itertools.permutations(range(m)))
        want = next((list(k) for k in perms
                     if all(k[i] in adj[i] for i in range(m))), None)
        assert lex_min_perfect_matching(adj, m) == want, adj
        got = max_matching(adj, m)
        assert all(j in adj[i] for i, j in got.items())
        assert len(set(got.values())) == len(got)
        assert len(got) == max(sum(k[i] in adj[i] for i in range(m))
                               for k in perms), adj


def test_lex_min_perfect_matching():
    adj = [[0, 1], [0, 1], [2]]
    assert lex_min_perfect_matching(adj, 3) == [0, 1, 2]
    assert lex_min_perfect_matching([[0], [0]], 2) is None
    # forced off the lexicographically first edge
    adj3 = [[0, 1], [0]]
    assert lex_min_perfect_matching(adj3, 2) == [1, 0]


# --- affine bridge ----------------------------------------------------------------

def test_affine_bridge_examples():
    zero = vector(Z5, [0, 0])
    tu, tv = affine_bridge(zero, zero)
    assert tu.is_identity() and tv.is_identity()
    u = vector(Z5, [1, 0])
    tu, tv = affine_bridge(u, u)
    assert tu == tv
    g = matrix(Z5, [[2, 0], [0, 1]])
    tu, tv = affine_bridge(u, vector(Z5, [2, 0]))
    emb = affine_embed(g)
    assert mat_mul(mat_mul(mat_inv(emb), tu), emb) == tv


def test_affine_bridge_iff():
    rng = Rng(8)
    for _ in range(20):
        u = tuple(rand_matrix(Z5, 1, rng).rows[0][0] for _ in range(2))
        g = rand_invertible(Z5, 2, rng)
        v = vector_act(u, g)
        tu, tv = affine_bridge(u, v)
        emb = affine_embed(g)
        assert mat_mul(mat_mul(mat_inv(emb), tu), emb) == tv
        # and a wrong v breaks the bridge
        v_bad = tuple(e + Z5.one() for e in v)
        _, tv_bad = affine_bridge(u, v_bad)
        assert mat_mul(mat_mul(mat_inv(emb), tu), emb) != tv_bad
