"""Leaf transporter scans on flat integers against the full-vector scans they
replaced (``trapdoor_reference``): the same first transporter, the same twist
set in the same unit order, and one leaf enumeration per twist query."""

import pytest

from matcrypt import trapdoor
from matcrypt.analysis import enumerate_group
from matcrypt.errors import UnsupportedDecomposition
from matcrypt.instance import (
    base_diagonal,
    base_general_linear,
    base_special_linear,
    direct_same_degree,
    leaf,
    leaf_enumerate,
    tensor,
    tree_eval,
)
from matcrypt.matrix import Matrix, _vector_data, vector_act
from matcrypt.ring import RingSpec, Zmod, direct_sum, field, galois_ring
from matcrypt.rng import Rng
from trapdoor_reference import ref_leaf_ltp, ref_leaf_ltp_twists, ref_ltp_brute

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


def _twists(t, u, v):
    """``trapdoor._ltp_twists`` on u and v, flattened."""
    (x, y), = _flat([(u, v)], tree_eval(t).ring)
    return trapdoor._ltp_twists(t, x, y)


def _key(g):
    return None if g is None else g.key()


def _twist_list(tw):
    return [(w, g.key()) for w, g in tw]


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
def test_leaf_twists_match_reference(name):
    t = leaf(LEAVES[name])
    for u, v in _queries(t, Rng(len(name))):
        got = _twists(t, u, v)
        want, _ = ref_leaf_ltp_twists(t, u, v)
        assert _twist_list(got) == _twist_list(want.values()), (u, v)


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


def test_twist_query_enumerates_the_leaf_once(monkeypatch):
    # one scan answers every unit; a scan per unit would enumerate 4 times
    t = leaf(base_general_linear(2, 5))
    calls = []

    def counted(spec, *args):
        calls.append(spec)
        return leaf_enumerate(spec, *args)
    monkeypatch.setattr(trapdoor, "leaf_enumerate", counted)
    ring = tree_eval(t).ring
    u, v = (ring.one(), ring.zero()), (ring.zero(), ring.one())
    tw = _twists(t, u, v)
    assert len(tw) == 4
    assert calls == [t.base]


def test_twist_query_keeps_the_units_cap():
    t = leaf(base_general_linear(1, 4099))  # 4098 units > UNITS_CAP
    ring = tree_eval(t).ring
    for v in ((ring.one(),), (ring.zero(),)):
        with pytest.raises(UnsupportedDecomposition):
            _twists(t, (ring.one(),), v)


def test_twist_queries_enumerate_the_ring_once(monkeypatch):
    # the unit list is kept with the ring: a second query, on the same leaf
    # or on another leaf over the same ring, reads it without enumerating
    t, other = leaf(base_general_linear(2, 5)), leaf(base_special_linear(2, 5))
    ring = tree_eval(t).ring
    assert tree_eval(other).ring is ring
    monkeypatch.delitem(vars(ring), "unit_list", raising=False)
    calls = []
    enumerate_ring = RingSpec.enumerate

    def counted(self):
        calls.append(self)
        return enumerate_ring(self)
    monkeypatch.setattr(RingSpec, "enumerate", counted)
    u, v = (ring.one(), ring.zero()), (ring.zero(), ring.one())
    first = _twists(t, u, v)
    assert calls == [ring]
    assert _twists(t, u, (ring.one(), ring.one())) is not None
    assert _twists(other, u, v) is not None
    assert calls == [ring]
    assert [w.coeffs for w, _ in first] == \
        [w.coeffs for w in ring.enumerate() if w.is_unit()]
    # above the cap the query is refused before any list is made
    big = tree_eval(leaf(base_general_linear(1, 4099))).ring
    with pytest.raises(UnsupportedDecomposition):
        _twists(leaf(base_general_linear(1, 4099)), (big.one(),), (big.one(),))
    assert "unit_list" not in vars(big)
