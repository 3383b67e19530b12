"""Derivation trees: evaluation, embeddings, sampling, homomorphisms."""

import warnings

import pytest

from matcrypt.analysis import enumerate_group
from matcrypt.cli import tree_from_obj, tree_to_obj
from matcrypt.errors import (
    BudgetTooSmall,
    CapExceeded,
    InsecurityWarning,
    InvalidAutomorphism,
    NotInGroup,
    NotInLeafGroup,
    TreeTypeError,
)
from matcrypt.instance import (
    BaseGroupSpec,
    DerivationTree,
    base_diagonal,
    base_general_linear,
    base_special_linear,
    base_unipotent,
    conjugate,
    crt_assemble,
    direct_same_degree,
    hom_apply,
    hom_build,
    leaf,
    leaf_embed,
    leaf_random,
    ring_extend,
    ring_rep,
    subgroup_sample,
    tensor,
    tree_eval,
    tree_leaves,
    tree_random,
    tree_size,
    validate_tree,
    wreath_imprimitive,
    wreath_product,
)
from matcrypt.matrix import (
    Matrix,
    identity,
    int_rows,
    is_invertible,
    mat_mul,
    matrix,
    vector_act,
    word_eval,
)
from matcrypt.ring import Zmod, field
from matcrypt.rng import Rng
from matcrypt.serialize import dumps, homspec_from_obj, homspec_to_obj
from matcrypt.trapdoor import (
    ltp_solve,
    membership,
    sample_transportable_vector,
    scalar_subgroup,
)

Z5 = Zmod(5)
Z15 = Zmod(15)

FACTORING_TREE = direct_same_degree(leaf(base_unipotent(3)),
                                    leaf(base_unipotent(5)))


def test_single_leaf_instance():
    inst = tree_eval(leaf(base_unipotent(5)))
    assert inst.n == 2
    assert inst.ring == Z5
    assert [int_rows(g) for g in inst.gens] == [[[1, 1], [0, 1]]]


def test_factoring_instance():
    inst = tree_eval(FACTORING_TREE)
    assert inst.ring == Z15
    assert [int_rows(g) for g in inst.gens] == \
        [[[1, 10], [0, 1]], [[1, 6], [0, 1]]]
    # same instance through crt-assemble
    inst2 = tree_eval(crt_assemble(leaf(base_unipotent(3)),
                                   leaf(base_unipotent(5))))
    assert [int_rows(g) for g in inst2.gens] == [int_rows(g) for g in inst.gens]


def test_tensor_dimension():
    t = tensor(leaf(base_unipotent(5)), leaf(base_special_linear(2, 5)))
    assert tree_eval(t).n == 4


def test_wreath_instances():
    t = wreath_imprimitive(leaf(base_unipotent(3)), 2)
    inst = tree_eval(t)
    assert inst.n == 4
    assert all(is_invertible(g) for g in inst.gens)
    tp = wreath_product(leaf(base_diagonal(1, 7, gen=(3,))), 2)
    assert tree_eval(tp).n == 1


def test_degree_and_ring_arithmetic():
    u = leaf(base_unipotent(3))
    assert tree_eval(wreath_imprimitive(u, 3)).n == 6
    assert tree_eval(wreath_product(u, 2)).n == 4
    assert tree_eval(tensor(u, u)).n == 4
    ext = ring_extend(leaf(base_special_linear(2, 2)), field(4))
    assert tree_eval(ext).ring == field(4)
    rep = ring_rep(leaf(base_general_linear(1, 4)), 2)
    assert tree_eval(rep).n == 2 and tree_eval(rep).ring == Zmod(2)


def test_ill_typed_trees():
    with pytest.raises(TreeTypeError):
        validate_tree(tensor(leaf(base_unipotent(3)), leaf(base_unipotent(5))))
    with pytest.raises(TreeTypeError):
        validate_tree(wreath_imprimitive(leaf(base_unipotent(3)), 1))
    with pytest.raises(TreeTypeError):
        validate_tree(ring_rep(leaf(base_unipotent(3)), 2))
    with pytest.raises(TreeTypeError):
        # common-ring direct product needs disjoint supports
        validate_tree(direct_same_degree(FACTORING_TREE, FACTORING_TREE))


def test_leaf_embed_examples():
    h = matrix(Zmod(3), [[1, 1], [0, 1]])
    assert int_rows(leaf_embed(FACTORING_TREE, 0, h)) == [[1, 10], [0, 1]]
    ident = identity(2, Zmod(3))
    assert leaf_embed(FACTORING_TREE, 0, ident).is_identity()
    with pytest.raises(NotInLeafGroup):
        leaf_embed(FACTORING_TREE, 0, matrix(Zmod(3), [[2, 0], [0, 1]]))
    # wreath: leaf element lands as a block-diagonal (h, I)
    t = wreath_imprimitive(leaf(base_unipotent(3)), 2)
    g = leaf_embed(t, 0, h)
    assert int_rows(g) == [[1, 1, 0, 0], [0, 1, 0, 0],
                           [0, 0, 1, 0], [0, 0, 0, 1]]


def test_leaf_embed_multiplicative():
    rng = Rng(3)
    trees = [
        FACTORING_TREE,
        wreath_imprimitive(leaf(base_special_linear(2, 3)), 2),
        tensor(leaf(base_unipotent(3)), leaf(base_unipotent(3))),
        conjugate(leaf(base_unipotent(7)), 99),
        ring_extend(leaf(base_general_linear(1, 2)), field(4)),
    ]
    for t in trees:
        specs = tree_leaves(t)
        for lid, spec in enumerate(specs):
            for _ in range(5):
                a = leaf_random(spec, rng)
                b = leaf_random(spec, rng)
                assert leaf_embed(t, lid, mat_mul(a, b)) == \
                    mat_mul(leaf_embed(t, lid, a), leaf_embed(t, lid, b))


def test_embedded_images_in_bfs_closure():
    rng = Rng(5)
    checked = 0
    for seed in range(12):
        t = tree_random(40, seed, max_degree=8, max_ring=1000)
        inst = tree_eval(t)
        try:
            enum = enumerate_group(list(inst.gens), 20000)
        except CapExceeded:
            continue
        checked += 1
        specs = tree_leaves(t)
        for lid, spec in enumerate(specs):
            g = leaf_embed(t, lid, leaf_random(spec, rng))
            assert enum.contains(g)
    assert checked >= 5


def test_tree_random_determinism_and_budget():
    t1 = tree_random(80, seed=42)
    t2 = tree_random(80, seed=42)
    assert t1 == t2
    assert tree_size(t1) <= 80
    with pytest.raises(BudgetTooSmall):
        tree_random(2, seed=1)


def test_tree_random_well_typed_batch():
    for seed in range(1000):
        t = tree_random(200, seed)
        validate_tree(t)  # raises on failure
        assert tree_size(t) <= 200


def test_tree_serialization_roundtrip():
    for seed in range(20):
        t = tree_random(70, seed)
        obj = tree_to_obj(t)
        assert tree_from_obj(obj) == t
        assert dumps(tree_to_obj(tree_from_obj(obj))) == dumps(obj)


def test_subgroup_sample():
    a1, b1 = subgroup_sample(FACTORING_TREE, 7)
    a2, b2 = subgroup_sample(FACTORING_TREE, 7)
    assert a1 == a2 and b1 == b2  # deterministic
    from matcrypt.trapdoor import membership
    for g in a1 + b1:
        assert membership(FACTORING_TREE, g).accepted
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        subgroup_sample(leaf(base_unipotent(5)), 3)
    assert any(isinstance(w.message, InsecurityWarning) for w in log)


def test_hom_trivial_and_frobenius():
    t = leaf(base_general_linear(1, 4))
    inst = tree_eval(t)
    h0 = hom_build(t, [("f0",)])
    for g in inst.gens:
        assert hom_apply(h0, g).is_identity()
    hf = hom_build(t, [("frob", 1)])
    gf4 = field(4)
    x = Matrix(1, gf4, ((gf4.element([(0, 1)]),),))
    assert hom_apply(hf, x) == mat_mul(x, x)  # entrywise squaring on GL(1,4)


def test_hom_frobenius_matrix_example():
    t = leaf(base_general_linear(2, 4))
    h = hom_build(t, [("frob", 1)])
    gf4 = field(4)
    x, one, zero = gf4.element([(0, 1)]), gf4.one(), gf4.zero()
    m = Matrix(2, gf4, ((x, zero), (zero, one)))
    out = hom_apply(h, m)
    assert out.rows[0][0].coeffs == ((1, 1),)  # x^2 = x + 1


def test_hom_crt_per_summand():
    choices = [("f0",), ("frob", 0)]
    h = hom_build(FACTORING_TREE, choices)
    inst = tree_eval(FACTORING_TREE)
    g = mat_mul(inst.gens[0], inst.gens[1])
    out = hom_apply(h, g)
    # the 3-summand is killed, the 5-summand kept
    assert int_rows(out) == [[1, 6], [0, 1]]


def test_hom_property_and_errors():
    t = wreath_imprimitive(leaf(base_special_linear(2, 3)), 2)
    inst = tree_eval(t)
    h = hom_build(t, [("f0",)])
    rng = Rng(11)
    enum = enumerate_group(list(inst.gens), 20000)
    elems = list(enum.matrices())
    for _ in range(10):
        a = elems[rng.below(len(elems))]
        b = elems[rng.below(len(elems))]
        assert hom_apply(h, mat_mul(a, b)) == \
            mat_mul(hom_apply(h, a), hom_apply(h, b))
    with pytest.raises(NotInGroup):
        hom_apply(h, matrix(Zmod(3), [[1, 0, 0, 0], [0, 1, 0, 0],
                                      [1, 0, 1, 0], [0, 0, 0, 1]]))
    with pytest.raises(InvalidAutomorphism):
        hom_build(t, [("frob", 5)])


def test_hom_gen_images_match_apply():
    t = conjugate(tensor(leaf(base_unipotent(3)),
                         leaf(base_unipotent(3))), 17)
    h = hom_build(t, [("f0",), ("frob", 0)])
    inst = tree_eval(t)
    for g, img in zip(inst.gens, h.gen_images):
        assert hom_apply(h, g) == img


def test_instance_serialization_byte_identical():
    from matcrypt.cli import instance_to_obj
    t = tree_random(50, 9)
    a = dumps(instance_to_obj(tree_eval(t)))
    b = dumps(instance_to_obj(tree_eval(tree_from_obj(tree_to_obj(t)))))
    assert a == b


def test_homspec_serialization_roundtrip():
    t = conjugate(tensor(leaf(base_unipotent(3)), leaf(base_unipotent(3))), 17)
    h = hom_build(t, [("f0",), ("frob", 0)])
    obj = homspec_to_obj(h)
    h2 = homspec_from_obj(obj)
    assert dumps(homspec_to_obj(h2)) == dumps(obj)
    assert h2.gen_images == h.gen_images


def _queries(t) -> tuple:
    """Generators, a membership witness and a transporter of t, seeded."""
    inst = tree_eval(t)
    g = word_eval(inst.gens, [*range(1, len(inst.gens) + 1), -1])
    u = sample_transportable_vector(t, Rng(7))
    return (inst.gens, membership(t, g).witness,
            ltp_solve(t, u, vector_act(u, g)))


def test_tree_hash_and_pickles_see_only_the_fields():
    import os
    import pickle
    import subprocess
    import sys

    t = tree_random(45, 20, max_degree=9, max_ring=4000)
    same = tree_from_obj(tree_to_obj(t))
    assert same == t and same is not t and hash(same) == hash(t)
    assert repr(same) == repr(t)
    # a pickle written by a process with another string-hash seed
    code = ("import pickle, sys\n"
            "from matcrypt.instance import tree_random\n"
            "t = tree_random(45, 20, max_degree=9, max_ring=4000)\n"
            "print(hash(t))\n"
            "sys.stdout.flush()\n"
            "sys.stdout.buffer.write(pickle.dumps(t))\n")
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True).stdout
    their_hash, _, blob = out.partition(b"\n")
    assert int(their_hash) != hash(t)    # the two processes hash differently
    loaded = pickle.loads(blob)
    assert loaded == t and hash(loaded) == hash(t)
    assert {t: "found"}[loaded] == "found"
    # the state queries leave on the nodes stays out of pickles
    before = pickle.dumps(t)
    _queries(t)
    assert pickle.dumps(t) == before == blob
    assert vars(pickle.loads(before)).keys() == {"base", "label", "children"}


def test_ring_extend_tree_pickles_the_same_after_transporter_queries():
    # twist queries list the units of the ring-extend target, a ring the
    # tree holds; neither that list nor a summand's characteristic enters
    # the pickle.  The target is built apart from field(4), which other
    # queries of this process may have asked already.
    import pickle

    target = field(4)
    t = tensor(conjugate(leaf(base_general_linear(1, 4)), 3),
               ring_extend(leaf(base_general_linear(1, 2)), target))
    before = pickle.dumps(t)
    inst = tree_eval(t)
    for seed in range(5):
        g = word_eval(inst.gens, [1 + seed % len(inst.gens), -1])
        u = sample_transportable_vector(t, Rng(seed))
        assert ltp_solve(t, u, vector_act(u, g)) is not None
    assert "unit_list" in vars(target)
    assert pickle.dumps(t) == before
    loaded = pickle.loads(before).children[1].label.target
    assert vars(loaded).keys() == {"summands"}
    assert vars(loaded.summands[0]).keys() == {"p", "m", "r", "modulus"}


def test_a_dropped_tree_is_freed_after_queries():
    import gc
    import weakref

    # a root no other test builds
    t = conjugate(tree_random(45, 20, max_degree=9, max_ring=4000), 20261018)
    _queries(t)
    refs = [weakref.ref(t), weakref.ref(t.children[0])]
    del t
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_equal_trees_built_apart_answer_alike():
    for seed in (5, 19, 20):
        a = tree_random(45, seed, max_degree=9, max_ring=4000)
        b = tree_random(45, seed, max_degree=9, max_ring=4000)
        assert a == b and a is not b
        assert _queries(a) == _queries(b)


def test_malformed_nodes_are_refused_by_every_query():
    gl = base_general_linear(2, 3)
    leaf_with_child = DerivationTree(base=gl, children=(leaf(gl),))
    unlabelled = DerivationTree(children=(leaf(gl),))
    for t, message in ((leaf_with_child, "leaf cannot carry"),
                       (unlabelled, "internal node needs an operation label")):
        for query in (validate_tree, tree_eval, scalar_subgroup):
            with pytest.raises(TreeTypeError, match=message):
                query(t)


def test_diagonal_leaf_reads_its_power_table(monkeypatch):
    # order and elements come from the generator's powers in exponent order,
    # and a generator whose order passes the power-testing cap is refused
    from matcrypt import instance
    spec = base_diagonal(2, 7, gen=(3,))  # 3 has order 6 mod 7: 1, 3, 2, 6, 4, 5
    assert instance.leaf_order(spec) == 36
    diagonals = [[e[i][i] for i in range(2)]
                 for e in map(int_rows, instance.leaf_enumerate(spec))]
    powers = [1, 3, 2, 6, 4, 5]
    assert diagonals == [[a, b] for a in powers for b in powers]
    monkeypatch.setattr(instance, "DIAG_ORDER_CAP", 5)
    instance._diag_power_set.cache_clear()
    with pytest.raises(CapExceeded):
        validate_tree(leaf(spec))
    assert instance._diag_power_set.cache_info().currsize == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_unipotent_leaf_lists_its_entries_in_ring_order(p):
    # the generators' closure reaches [[1, x], [0, 1]] at x = 0, 1, ..., p-1
    from matcrypt import instance
    got = list(map(int_rows, instance.leaf_enumerate(base_unipotent(p))))
    assert got == [[[1, x], [0, 1]] for x in range(p)]


def test_diagonal_order_cap_admits_a_generator_of_that_order(monkeypatch):
    from matcrypt import instance
    monkeypatch.setattr(instance, "DIAG_ORDER_CAP", 6)
    instance._diag_power_set.cache_clear()
    spec = base_diagonal(1, 7, gen=(3,))  # order 6 mod 7
    validate_tree(leaf(spec))
    assert instance.leaf_order(spec) == 6


def test_diagonal_powers_that_never_reach_one_are_refused():
    # a zero generator passes no check, but leaf_contains reads its powers
    from matcrypt import instance
    spec = BaseGroupSpec("diagonal-cyclic", (1, 7, (0,)))
    with pytest.raises(CapExceeded):
        instance.leaf_contains(spec, identity(1, field(7)))
