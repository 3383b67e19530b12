"""Galois ring arithmetic: spec examples, exhaustive axioms, digit laws."""

import itertools

import pytest

from matcrypt.errors import (
    MatcryptError,
    NonPrimeP,
    NonUnit,
    ReducibleModulus,
    RingMismatch,
)
from matcrypt.ring import (
    RingAutomorphism,
    RingSpec,
    Zmod,
    all_automorphisms,
    direct_sum,
    factorize,
    field,
    frobenius_apply,
    galois_ring,
    is_irreducible_mod_p,
    ring_add,
    ring_inv,
    teichmuller_decompose,
    teichmuller_recompose,
    units,
)


# --- independent oracles ------------------------------------------------------

def poly_divmod_int(num, den, q):
    """Schoolbook polynomial division over Z_q with a monic divisor."""
    num = list(num)
    d = len(den) - 1
    out = [0] * max(0, len(num) - d)
    for i in range(len(num) - d - 1 + 1):
        idx = len(num) - 1 - i
        c = num[idx] % q
        if c:
            k = idx - d
            out[k] = c
            for j, dc in enumerate(den):
                num[k + j] = (num[k + j] - c * dc) % q
    return out, [c % q for c in num[:d]]


def egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


GR42 = galois_ring(2, 2, 2, (1, 1, 1))


def test_ring_make_examples():
    z15 = Zmod(15)
    assert [(g.p, g.m, g.r) for g in z15.summands] == [(3, 1, 1), (5, 1, 1)]
    assert GR42.order == 16
    gf4 = field(4)
    assert gf4.summands[0].modulus == (1, 1, 1)
    assert gf4.order == 4


def test_ring_make_errors():
    with pytest.raises(NonPrimeP):
        galois_ring(4, 1, 2)
    with pytest.raises(ReducibleModulus):
        galois_ring(2, 1, 2, (0, 0, 1))  # x^2 = x*x
    with pytest.raises(NonPrimeP):
        field(12)


def test_factorize():
    assert factorize(15) == {3: 1, 5: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(10403) == {101: 1, 103: 1}
    assert factorize(1) == {}


def test_factorize_rejects_below_one():
    # -3 first: factorize(0) used to loop forever in the trial division
    for n in (-3, -1, 0):
        with pytest.raises(MatcryptError):
            factorize(n)
    with pytest.raises(MatcryptError):
        field(0)


def test_add_examples():
    z15 = Zmod(15)
    assert z15.to_int(z15.from_int(9) + z15.from_int(8)) == 2
    x = GR42.element([(0, 1)])
    assert (x + GR42.element([(3, 3)])).coeffs == ((3, 0),)
    # componentwise over a direct sum
    z3z5 = direct_sum(Zmod(3), Zmod(5))
    a = z3z5.element([(1,), (2,)])
    b = z3z5.element([(2,), (4,)])
    assert (a + b).coeffs == ((0,), (1,))


def test_mul_examples():
    z6 = Zmod(6)
    assert z6.to_int(z6.from_int(2) * z6.from_int(5)) == 4
    # x*x reduced by x^2+x+1 over Z_4, against a division oracle
    quot, rem = poly_divmod_int([0, 0, 1], [1, 1, 1], 4)
    assert rem == [3, 3]
    x = GR42.element([(0, 1)])
    assert (x * x).coeffs == ((3, 3),)
    two = GR42.from_int(2)
    assert (two * two).is_zero()


def test_inv_examples():
    z15 = Zmod(15)
    g, s, _ = egcd(7, 15)
    assert g == 1 and s % 15 == 13
    assert z15.to_int(ring_inv(z15.from_int(7))) == 13
    with pytest.raises(NonUnit):
        ring_inv(z15.from_int(3))
    x = GR42.element([(0, 1)])
    assert ring_inv(x).coeffs == ((3, 3),)  # x^3 = 1 so x^-1 = x^2


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        ring_add(Zmod(15).from_int(1), Zmod(6).from_int(1))


TEST_RINGS = [
    Zmod(4),
    Zmod(9),
    Zmod(15),
    GR42,
    galois_ring(2, 3, 2),   # GR(8, 2)
    field(8),
    direct_sum(field(4), Zmod(9)),
]


@pytest.mark.parametrize("ring", TEST_RINGS, ids=lambda r: f"order{r.order}")
def test_ring_axioms_exhaustive(ring):
    assert ring.order <= 4096
    elems = list(ring.enumerate())
    one, zero = ring.one(), ring.zero()
    sample = elems if len(elems) <= 16 else elems[:: max(1, len(elems) // 16)]
    for a in sample:
        assert (a + zero) == a and (a * one) == a
        for b in sample:
            assert a + b == b + a
            assert a * b == b * a
            for c in sample[:8]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("ring", TEST_RINGS, ids=lambda r: f"order{r.order}")
def test_unit_group(ring):
    expected = 1
    for g in ring.summands:
        expected *= (g.p ** g.r - 1) * g.p ** (g.r * (g.m - 1))
    us = list(units(ring))
    assert len(us) == expected == ring.units_count()
    for u in us:
        assert (u * ring_inv(u)).is_one()


@pytest.mark.parametrize("ring", TEST_RINGS, ids=lambda r: f"order{r.order}")
def test_teichmuller_roundtrip_exhaustive(ring):
    for a in ring.enumerate():
        digits = teichmuller_decompose(a)
        # digits lie in T u {0}: t^(p^r) = t
        for g, ds in zip(ring.summands, digits):
            for t in ds:
                el = RingSpec((g,)).element([t])
                assert el.pow(g.p ** g.r) == el
        assert teichmuller_recompose(ring, digits) == a


def test_teichmuller_examples():
    assert teichmuller_decompose(Zmod(4).from_int(2)) == [[(0,), (1,)]]
    # Z_9: exhaustive oracle over T u {0} = {0, 1, 8}
    found = [(t0, t1) for t0 in (0, 1, 8) for t1 in (0, 1, 8)
             if (t0 + 3 * t1) % 9 == 5]
    assert found == [(8, 8)]
    assert teichmuller_decompose(Zmod(9).from_int(5)) == [[(8,), (8,)]]
    # GR(4,2): x^2 = 3x+3 is a Teichmuller element
    assert teichmuller_decompose(GR42.element([(3, 3)])) == [[(3, 3), (0, 0)]]


def test_frobenius_examples():
    x = GR42.element([(0, 1)])
    aut = RingAutomorphism(GR42, (1,))
    assert frobenius_apply(aut, x) == (x * x)
    ident = RingAutomorphism(GR42, (0,))
    assert frobenius_apply(ident, x) == x
    z9 = Zmod(9)
    assert all_automorphisms(z9) == [RingAutomorphism(z9, (0,))]
    for a in z9.enumerate():
        assert frobenius_apply(RingAutomorphism(z9, (0,)), a) == a


@pytest.mark.parametrize("ring", [GR42, field(8), galois_ring(2, 3, 2)],
                         ids=lambda r: f"order{r.order}")
def test_frobenius_properties(ring):
    auts = all_automorphisms(ring)
    elems = list(ring.enumerate())
    for aut in auts:
        imgs = set()
        for a in elems:
            imgs.add(frobenius_apply(aut, a).coeffs)
        assert len(imgs) == len(elems)  # bijective
        for a in elems[::3]:
            for b in elems[::5]:
                assert frobenius_apply(aut, a + b) == \
                    frobenius_apply(aut, a) + frobenius_apply(aut, b)
                assert frobenius_apply(aut, a * b) == \
                    frobenius_apply(aut, a) * frobenius_apply(aut, b)
        # r-fold composition is the identity
        g = ring.summands[0]
        comp = aut
        for _ in range(g.r - 1):
            comp = comp.compose(aut)
        if aut.exponents[0] != 0:
            pass  # comp exponent = r*e mod r = 0 checked below
        total = RingAutomorphism(ring, tuple(
            (e * g.r) % g.r for e, g in zip(aut.exponents, ring.summands)))
        assert total.is_identity()


def test_irreducibility_oracle():
    # brute-force check of the Rabin test on all monic quadratics mod 3
    for c0 in range(3):
        for c1 in range(3):
            poly = (c0, c1, 1)
            has_root = any((r * r + c1 * r + c0) % 3 == 0 for r in range(3))
            assert is_irreducible_mod_p(poly, 3) == (not has_root)


def _monic_polys(p, r):
    """Every monic polynomial of degree r mod p, as (c_0..c_r)."""
    return [coeffs + (1,) for coeffs in itertools.product(range(p), repeat=r)]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducibility_against_factor_search(p):
    # a monic polynomial is reducible iff it is a product of two monic
    # polynomials of positive degree
    for r in range(1, 5):
        reducible = {_poly_mul(a, b, p)
                     for d in range(1, r // 2 + 1)
                     for a in _monic_polys(p, d)
                     for b in _monic_polys(p, r - d)}
        for f in _monic_polys(p, r):
            assert is_irreducible_mod_p(f, p) == (f not in reducible), (p, f)


def test_element_checks_the_summand_count():
    with pytest.raises(RingMismatch):
        field(4).element([(1, 0), (1,)])
    with pytest.raises(RingMismatch):
        Zmod(15).element([(1,)])
    assert Zmod(15).element([(4,), (7,)]).coeffs == ((1,), (2,))


def test_canonical_summand_order():
    r1 = direct_sum(Zmod(5), Zmod(3))
    r2 = direct_sum(Zmod(3), Zmod(5))
    assert r1 == r2
    assert [g.p for g in r1.summands] == [3, 5]


def test_summand_hash_is_the_field_hash_and_stays_out_of_pickles():
    # the kernels' caches key on summands: equal summands hash alike, to the
    # hash of their fields, and the hash kept after the first ask is not
    # part of the pickle
    import pickle

    g = galois_ring(3, 1, 2).summands[0]
    same = type(g)(g.p, g.m, g.r, g.modulus)
    before = pickle.dumps(same)
    assert hash(g) == hash(same) == hash((g.p, g.m, g.r, g.modulus))
    assert {g: "found"}[same] == "found"
    assert pickle.dumps(same) == before
    assert vars(pickle.loads(before)).keys() == {"p", "m", "r", "modulus"}
