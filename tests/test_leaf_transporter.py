"""Leaf transporter scans on flat integers against the full-vector scans they
replaced (``trapdoor_reference``): the same first transporter.  The lazy
twisted search of tensor and wreath-product nodes against the eager search
it replaced: the same transporter, the units cap refused first, and one ring
enumeration for every query over the ring."""

import pytest

from matcrypt import trapdoor
from matcrypt.analysis import enumerate_group
from matcrypt.errors import MatcryptError, UnsupportedDecomposition
from matcrypt.instance import (
    _info,
    base_diagonal,
    base_general_linear,
    base_special_linear,
    direct_same_degree,
    leaf,
    leaf_enumerate,
    tensor,
    tree_eval,
    wreath_product,
)
from matcrypt.matrix import Matrix, _vector_data, vector_act
from matcrypt.ring import RingSpec, Zmod, direct_sum, field, galois_ring
from matcrypt.rng import Rng
from trapdoor_reference import ref_leaf_ltp, ref_ltp_brute, ref_ltp_pure

LEAVES = {
    "GL(2,3)": base_general_linear(2, 3),
    "GL(3,2)": base_general_linear(3, 2),
    "GL(2,5)": base_general_linear(2, 5),
    "GL(2,4)": base_general_linear(2, 4),
    "SL(2,5)": base_special_linear(2, 5),
    "SL(3,2)": base_special_linear(3, 2),
    "SL(2,4)": base_special_linear(2, 4),
    "SL(2,9)": base_special_linear(2, 9),
    "diag(3,5)": base_diagonal(3, 5),
    "diag(2,7,<2>)": base_diagonal(2, 7, (2,)),  # order 3: most units unanswered
    "diag(3,4)": base_diagonal(3, 4),
    "diag(2,9)": base_diagonal(2, 9),
}


def _elem(ring, rng):
    return ring.element([tuple(rng.below(g.q) for _ in range(g.r))
                         for g in ring.summands])


def _vec(ring, n, rng):
    return tuple(_elem(ring, rng) for _ in range(n))


def _flat(pairs, ring):
    """The pairs as the transporter recursion takes them: flat vectors."""
    return [(_vector_data(u, ring), _vector_data(v, ring)) for u, v in pairs]


def _key(g):
    return None if g is None else g.key()


def _queries(t, rng):
    """Single pairs: transportable, random, zero on either side, and a v
    whose leading entries are zero (so the scan keys on a later entry)."""
    inst = tree_eval(t)
    ring, n = inst.ring, inst.n
    elems = leaf_enumerate(t.base)
    zero = tuple(ring.zero() for _ in range(n))
    out = []
    for _ in range(3):
        u = _vec(ring, n, rng)
        out.append((u, vector_act(u, elems[rng.below(len(elems))])))
        out.append((u, _vec(ring, n, rng)))
    u = _vec(ring, n, rng)
    out += [(zero, _vec(ring, n, rng)), (zero, zero), (u, zero)]
    v = (ring.zero(),) * (n - 1) + (_elem(ring, rng),)
    out.append((_vec(ring, n, rng), v))
    out.append((vector_act(v, elems[rng.below(len(elems))]), v))
    return out


@pytest.mark.parametrize("name", list(LEAVES))
def test_leaf_ltp_matches_reference(name):
    t = leaf(LEAVES[name])
    rng = Rng(100 + len(name))
    ring, n = tree_eval(t).ring, tree_eval(t).n
    elems = leaf_enumerate(t.base)
    lists = [[pair] for pair in _queries(t, rng)]
    for _ in range(4):
        g = elems[rng.below(len(elems))]
        us = [_vec(ring, n, rng) for _ in range(3)]
        lists.append([(u, vector_act(u, g)) for u in us])   # one g serves all
        lists.append([(us[0], vector_act(us[0], g)),        # likely none
                      (us[1], _vec(ring, n, rng))])
    lists.append([])
    for pairs in lists:
        got = trapdoor._ltp(t, _flat(pairs, ring))
        want, _ = ref_leaf_ltp(t, pairs)
        assert _key(got) == _key(want), pairs


@pytest.mark.parametrize("tree", [
    direct_same_degree(leaf(base_special_linear(2, 4)),
                       leaf(base_diagonal(2, 3))),
    tensor(leaf(base_special_linear(2, 3)), leaf(base_general_linear(2, 3))),
], ids=["direct GF(4)+GF(3)", "tensor SL(2,3) x GL(2,3)"])
def test_brute_matches_reference(tree):
    inst = tree_eval(tree)
    ring, n = inst.ring, inst.n
    rng = Rng(7)
    elems = list(enumerate_group(list(inst.gens),
                                 trapdoor.BRUTE_LTP_CAP).matrices())
    lists = []
    for _ in range(4):
        g = elems[rng.below(len(elems))]
        us = [_vec(ring, n, rng) for _ in range(2)]
        lists.append([(u, vector_act(u, g)) for u in us])
        lists.append([(us[0], vector_act(us[0], g)), (us[1], _vec(ring, n, rng))])
    zero = tuple(ring.zero() for _ in range(n))
    lists.append([(zero, zero), (us[0], vector_act(us[0], g))])
    for pairs in lists:
        got = trapdoor._ltp_brute(tree, _flat(pairs, ring))
        want, _ = ref_ltp_brute(tree, pairs)
        assert _key(got) == _key(want), pairs


@pytest.mark.parametrize("ring", [
    galois_ring(2, 2, 2), galois_ring(3, 2, 2),
    direct_sum(Zmod(8), field(4)),
], ids=["GR(4,2)", "GR(9,2)", "Z/8+GF(4)"])
def test_flat_scan_matches_vector_act_over_galois_rings(ring):
    # the scan's arithmetic is exact over Z/p^m, not only over fields
    rng = Rng(5)
    for n in (1, 2, 3):
        for _ in range(30):
            h = Matrix(n, ring, [_vec(ring, n, rng) for _ in range(n)])
            u, other = _vec(ring, n, rng), _vec(ring, n, rng)
            v = vector_act(u, h)
            assert trapdoor._first_transporter([h], _flat([(u, v)], ring), ring) is h
            hit = trapdoor._first_transporter([h], _flat([(u, other)], ring), ring)
            assert (hit is h) == (other == v)


def test_brute_fallback_refuses_a_group_above_its_cap(monkeypatch):
    # (1, 0, 0, 1) is not a pure tensor, so the structured search leaves the
    # query to the exhaustive fallback; above its cap that refuses the query
    # instead of reporting that no transporter exists
    t = tensor(leaf(base_special_linear(2, 3)), leaf(base_general_linear(2, 3)))
    inst = tree_eval(t)
    ring = inst.ring
    u = tuple(ring.element([(c,)]) for c in (1, 0, 0, 1))
    v, zero = vector_act(u, inst.gens[0]), (ring.zero(),) * 4
    assert vector_act(u, trapdoor.ltp_solve(t, u, v)) == v
    assert trapdoor.ltp_solve(t, u, zero) == trapdoor.NoSolution(True)
    elems = enumerate_group(list(inst.gens), trapdoor.BRUTE_LTP_CAP).matrices()
    monkeypatch.setattr(trapdoor, "BRUTE_LTP_CAP", len(list(elems)) // 2)
    for w in (v, zero):
        with pytest.raises(UnsupportedDecomposition):
            trapdoor.ltp_solve(t, u, w)


# the lazy twisted search against the eager one it replaced: tensor and
# wreath-product trees over every leaf, a tensor of three factors and a tensor
# whose first factor is itself a tensor
def _next_on_ring(name):
    """The next leaf of LEAVES over the same ring, cyclically."""
    names = [n for n in LEAVES if LEAVES[n].params[1] == LEAVES[name].params[1]]
    return names[(names.index(name) + 1) % len(names)]


TWISTED_TREES = {
    **{f"{name} wr 2": (wreath_product(leaf(LEAVES[name]), 2), [name] * 2)
       for name in LEAVES},
    **{f"{name} x {_next_on_ring(name)}":
       (tensor(leaf(LEAVES[name]), leaf(LEAVES[_next_on_ring(name)])),
        [name, _next_on_ring(name)]) for name in LEAVES},
    "GL(2,4) x SL(2,4) x diag(3,4)": (
        tensor(*(leaf(LEAVES[n]) for n in ("GL(2,4)", "SL(2,4)", "diag(3,4)"))),
        ["GL(2,4)", "SL(2,4)", "diag(3,4)"]),
    "(GL(2,5) x diag(3,5)) x SL(2,5)": (
        tensor(tensor(leaf(LEAVES["GL(2,5)"]), leaf(LEAVES["diag(3,5)"])),
               leaf(LEAVES["SL(2,5)"])),
        ["GL(2,5)", "diag(3,5)", "SL(2,5)"]),
}


def _kron(a, b):
    return tuple(x * y for x in a for y in b)


def _tensor_queries(names, rng):
    """``_queries`` of each leaf, one query of every leaf tensored together
    in leaf order; so transportable, random, zero on either side, and a v
    with leading zeros.  Under equal leaves each pair also comes with v's
    factors in reverse order, which a product-action wreath can answer by
    swapping the factors."""
    per_leaf = [_queries(leaf(LEAVES[n]), rng) for n in names]
    out = []
    for pairs in zip(*per_leaf):
        u, v = pairs[0]
        for x, y in pairs[1:]:
            u, v = _kron(u, x), _kron(v, y)
        out.append((u, v))
        if len(set(names)) == 1:
            rv = pairs[-1][1]
            for _, y in reversed(pairs[:-1]):
                rv = _kron(rv, y)
            out.append((u, rv))
    return out


class _Brute(Exception):
    """Raised in place of the exhaustive fallback, which both searches reach
    by the same path and which is too slow to run twice per query."""


def _outcome(t, pair):
    """The transporter's key, None, or the name of what was raised."""
    try:
        return _key(trapdoor._ltp(t, [pair]))
    except _Brute:
        return "brute"
    except MatcryptError as e:
        return type(e).__name__


@pytest.mark.parametrize("name", list(TWISTED_TREES))
def test_twisted_search_matches_the_eager_reference(name, monkeypatch):
    t, names = TWISTED_TREES[name]
    ring = tree_eval(t).ring
    pairs = _flat(_tensor_queries(names, Rng(len(name))), ring)

    def brute(*args):
        raise _Brute
    monkeypatch.setattr(trapdoor, "_ltp_brute", brute)
    got = [_outcome(t, pair) for pair in pairs]
    monkeypatch.setattr(trapdoor._TwistedSolver, "ltp_pure", ref_ltp_pure)
    want = [_outcome(t, pair) for pair in pairs]
    assert got == want
    assert any(isinstance(o, tuple) for o in got), got


def test_twisted_search_keeps_the_units_cap(monkeypatch):
    # GL(1, 4099) has 4098 units > UNITS_CAP: the search is refused before
    # it asks a factor for a transporter
    t = tensor(leaf(base_general_linear(1, 4099)), leaf(base_general_linear(1, 4099)))
    info = _info(t)
    ring = info.ring
    asked = []
    monkeypatch.setattr(trapdoor, "_ltp", lambda *args: asked.append(args))
    for v in ((ring.one(),), (ring.element([(2,)]),)):
        pair, = _flat([((ring.one(),), v)], ring)
        with pytest.raises(UnsupportedDecomposition):
            trapdoor._SOLVERS["tensor"].ltp_pure(t, info, pair)
    assert asked == []


def test_twisted_queries_enumerate_the_ring_once(monkeypatch):
    # the unit list is kept with the ring: a second query, on the same tree
    # or on another tree over the same ring, reads it without enumerating
    t = tensor(leaf(base_general_linear(2, 5)), leaf(base_special_linear(2, 5)))
    other = wreath_product(leaf(base_special_linear(2, 5)), 2)
    ring = tree_eval(t).ring
    assert tree_eval(other).ring is ring
    monkeypatch.delitem(vars(ring), "unit_list", raising=False)
    calls = []
    enumerate_ring = RingSpec.enumerate

    def counted(self):
        calls.append(self)
        return enumerate_ring(self)
    monkeypatch.setattr(RingSpec, "enumerate", counted)
    e0, e1 = (ring.one(), ring.zero()), (ring.zero(), ring.one())
    for tree, (u, v) in ((t, (_kron(e0, e0), _kron(e1, e1))),
                         (t, (_kron(e0, e1), _kron(e1, e0))),
                         (other, (_kron(e0, e1), _kron(e1, e0)))):
        assert trapdoor._ltp(tree, _flat([(u, v)], ring)) is not None
        assert calls == [ring]
    # above the cap the query is refused before any list is made
    big_leaf = leaf(base_general_linear(1, 4099))
    big_tree = tensor(big_leaf, big_leaf)
    big = tree_eval(big_tree).ring
    pair, = _flat([((big.one(),), (big.one(),))], big)
    with pytest.raises(UnsupportedDecomposition):
        trapdoor._SOLVERS["tensor"].ltp_pure(big_tree, _info(big_tree), pair)
    assert "unit_list" not in vars(big)
