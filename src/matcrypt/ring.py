"""Exact arithmetic in finite commutative rings.

A ring is a direct sum of Galois rings GR(p^m, r) = Z_{p^m}[x]/(f) with f
monic of degree r and irreducible mod p.  Elements are per-summand coefficient
vectors.  This representation covers Z_n (via CRT over the prime factorization
of n), finite fields GF(p^r) (m = 1) and their mixtures, and it supports
Teichmuller digit decomposition and lifted Frobenius automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd

from .errors import (
    FactorizationTooLarge,
    IndexOutOfRange,
    NonPrimeP,
    NonUnit,
    ReducibleModulus,
    RingMismatch,
)

FACTOR_LIMIT = 1 << 48


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise FactorizationTooLarge(f"cannot factor {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n (1 <= n < 2^48), as {prime: multiplicity}."""
    if n < 1:
        raise IndexOutOfRange(f"cannot factorize {n} < 1")
    if n >= FACTOR_LIMIT:
        raise FactorizationTooLarge(f"{n} >= 2^48")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = m
        while d == m:
            d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over Z_q, coefficient tuples of fixed length r
# ---------------------------------------------------------------------------

def _padd(a: tuple, b: tuple, q: int) -> tuple:
    if len(a) == 1:
        return ((a[0] + b[0]) % q,)
    return tuple((x + y) % q for x, y in zip(a, b))


def _psub(a: tuple, b: tuple, q: int) -> tuple:
    if len(a) == 1:
        return ((a[0] - b[0]) % q,)
    return tuple((x - y) % q for x, y in zip(a, b))


def _pneg(a: tuple, q: int) -> tuple:
    return tuple((-x) % q for x in a)


def _preduce(prod: list, modulus: tuple, q: int) -> tuple:
    """Reduce an unreduced product (length 2r-1) by the monic modulus, mod q."""
    r = len(modulus) - 1
    for d in range(len(prod) - 1, r - 1, -1):
        c = prod[d] % q
        if c:
            prod[d] = 0
            for j in range(r):
                prod[d - r + j] -= c * modulus[j]
    return tuple(c % q for c in prod[:r])


def _pmul(a: tuple, b: tuple, modulus: tuple, q: int) -> tuple:
    """Product reduced by the monic modulus, then mod q."""
    r = len(a)
    if r == 1:
        return ((a[0] * b[0]) % q,)
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _preduce(prod, modulus, q)


def _ppow(a: tuple, e: int, modulus: tuple, q: int) -> tuple:
    r = len(a)
    out = tuple([1] + [0] * (r - 1))
    base = a
    while e:
        if e & 1:
            out = _pmul(out, base, modulus, q)
        base = _pmul(base, base, modulus, q)
        e >>= 1
    return out


def _pinv(a: tuple, g: GaloisRingSpec) -> tuple:
    """Inverse of a unit coefficient tuple of summand g: a^(|units| - 1)."""
    return _ppow(a, g.units_order() - 1, g.modulus, g.q)


def _coeff_tuples(q: int, r: int):
    """All coefficient tuples of length r over [0, q), the first coefficient
    varying fastest."""
    return (cs[::-1] for cs in product(range(q), repeat=r))


# polynomial arithmetic over F_p with variable length (for the gcd step of
# the irreducibility test)

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mod(a: list[int], f: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and _fp_trim(a):
        da = len(a) - 1
        if da < df:
            break
        c = a[-1] * inv_lead % p
        for j in range(df + 1):
            a[da - df + j] = (a[da - df + j] - c * f[j]) % p
        _fp_trim(a)
    return a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    _fp_trim(a)
    _fp_trim(b)
    while b:
        a = _fp_mod(a, b, p)
        a, b = b, a
    return a


def is_irreducible_mod_p(coeffs: tuple, p: int) -> bool:
    """Rabin test for a monic polynomial given by (c_0..c_r), c_r = 1."""
    f = tuple(c % p for c in coeffs)
    r = len(f) - 1
    if r < 1 or f[-1] != 1:
        return False
    if r == 1:
        return True
    x = (0, 1) + (0,) * (r - 2)
    # x^(p^r) == x mod f
    if any(_psub(_ppow(x, p ** r, f, p), x, p)):
        return False
    for d in sorted(factorize(r)):
        y = _psub(_ppow(x, p ** (r // d), f, p), x, p)
        if len(_fp_gcd(y, f, p)) - 1 >= 1:
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, r: int) -> tuple:
    """Lexicographically least monic degree-r polynomial irreducible mod p."""
    if r == 1:
        return (0, 1)
    for coeffs in _coeff_tuples(p, r):
        cand = coeffs + (1,)
        if is_irreducible_mod_p(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible polynomial of degree {r} mod {p}")


# ---------------------------------------------------------------------------
# ring specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaloisRingSpec:
    """GR(p^m, r) presented as Z_{p^m}[x]/(modulus)."""
    p: int
    m: int
    r: int
    modulus: tuple  # (c_0, ..., c_r), monic, coefficients in [0, p^m)

    # values cached in the instance __dict__ (q, _hash) stay out of pickles
    # and copies, so a spec pickles the same whatever it has been asked
    def __getstate__(self):
        return {"p": self.p, "m": self.m, "r": self.r, "modulus": self.modulus}

    # the kernels' lru_caches key on specs: hash the fields once, to the
    # value the dataclass hash would give
    @cached_property
    def _hash(self) -> int:
        return hash((self.p, self.m, self.r, self.modulus))

    def __hash__(self):
        return self._hash

    @cached_property
    def q(self) -> int:
        """Characteristic p^m."""
        return self.p ** self.m

    @property
    def order(self) -> int:
        return self.p ** (self.m * self.r)

    @property
    def residue_order(self) -> int:
        """Order p^r of the residue field."""
        return self.p ** self.r

    def units_order(self) -> int:
        return (self.p ** self.r - 1) * self.p ** (self.r * (self.m - 1))

    def zero(self) -> tuple:
        return (0,) * self.r

    def one(self) -> tuple:
        return (1,) + (0,) * (self.r - 1)


def _validate_summand(g: GaloisRingSpec) -> GaloisRingSpec:
    if not is_prime(g.p):
        raise NonPrimeP(f"p = {g.p} is not prime")
    if g.m < 1 or g.r < 1:
        raise ReducibleModulus("m and r must be positive")
    if len(g.modulus) != g.r + 1 or g.modulus[-1] != 1:
        raise ReducibleModulus(f"modulus must be monic of degree {g.r}")
    if any(not (0 <= c < g.q) for c in g.modulus[:-1]):
        raise ReducibleModulus("modulus coefficients out of range")
    if not is_irreducible_mod_p(g.modulus, g.p):
        raise ReducibleModulus(f"modulus {g.modulus} reducible mod {g.p}")
    return g


def _summand_key(g: GaloisRingSpec):
    return (g.p, g.m, g.r, g.modulus)


@dataclass(frozen=True)
class RingSpec:
    """A direct sum of Galois rings, canonically ordered."""
    summands: tuple[GaloisRingSpec, ...]

    # as for GaloisRingSpec: the cached unit_list stays out of pickles
    def __getstate__(self):
        return {"summands": self.summands}

    @property
    def order(self) -> int:
        n = 1
        for g in self.summands:
            n *= g.order
        return n

    def units_count(self) -> int:
        n = 1
        for g in self.summands:
            n *= g.units_order()
        return n

    @cached_property
    def unit_list(self) -> tuple:
        """All units in canonical order, listed on first use and kept with
        the ring (desk-scale rings only: it enumerates the whole ring)."""
        return tuple(units(self))

    def zero(self) -> "RingElement":
        return RingElement(self, tuple(g.zero() for g in self.summands))

    def one(self) -> "RingElement":
        return RingElement(self, tuple(g.one() for g in self.summands))

    def element(self, coeffs) -> "RingElement":
        coeffs = [tuple(cs) for cs in coeffs]
        if len(coeffs) != len(self.summands) or any(
                len(cs) != g.r for g, cs in zip(self.summands, coeffs)):
            raise RingMismatch("coefficient shape does not match ring")
        return RingElement(self, tuple(tuple(c % g.q for c in cs)
                                       for g, cs in zip(self.summands, coeffs)))

    def from_int(self, n: int) -> "RingElement":
        """Image of the integer n under the unique map Z -> R."""
        return RingElement(self, tuple(
            (n % g.q,) + (0,) * (g.r - 1) for g in self.summands))

    def to_int(self, a: "RingElement") -> int:
        """CRT recombination; defined only when every summand has r = 1."""
        if any(g.r != 1 for g in self.summands):
            raise RingMismatch("to_int needs rank-1 summands")
        n, mod = 0, 1
        for g, cs in zip(self.summands, a.coeffs):
            q = g.q
            # solve x = n (mod mod), x = cs[0] (mod q); moduli coprime
            t = (cs[0] - n) * pow(mod, -1, q) % q
            n, mod = n + mod * t, mod * q
        return n % mod

    def enumerate(self):
        """All elements, in canonical order (desk-scale rings only): the
        first coefficient of the first summand varies fastest."""
        per = [_coeff_tuples(g.q, g.r) for g in reversed(self.summands)]
        for coeffs in product(*per):
            yield RingElement(self, coeffs[::-1])


def direct_sum_specs(parts: list[GaloisRingSpec]) -> tuple[RingSpec, list[int]]:
    """Canonically ordered direct sum; returns (ring, position of each input)."""
    order = sorted(range(len(parts)), key=lambda i: _summand_key(parts[i]))
    positions = [0] * len(parts)
    for pos, i in enumerate(order):
        positions[i] = pos
    return RingSpec(tuple(parts[i] for i in order)), positions


def galois_ring(p: int, m: int, r: int, modulus=None) -> RingSpec:
    """GR(p^m, r) = Z_{p^m}[x]/(modulus); the default modulus lifts the
    first irreducible polynomial of degree r over GF(p)."""
    if modulus is None:
        if not is_prime(p):
            raise NonPrimeP(f"p = {p} is not prime")
        modulus = tuple(c % (p ** m) for c in default_modulus(p, r))
    return RingSpec((_validate_summand(GaloisRingSpec(p, m, r, tuple(modulus))),))


def direct_sum(*rings: RingSpec) -> RingSpec:
    """The canonically ordered direct sum of the rings' summands."""
    parts = [g for ring in rings for g in ring.summands]
    for g in parts:
        _validate_summand(g)
    return direct_sum_specs(parts)[0]


@lru_cache(maxsize=None)
def Zmod(n: int) -> RingSpec:
    """Z/n, as the direct sum of its prime-power parts Z/p^m."""
    if n < 2:
        raise NonPrimeP(f"modulus {n} < 2")
    return direct_sum_specs([GaloisRingSpec(p, m, 1, (0, 1))
                             for p, m in sorted(factorize(n).items())])[0]


@lru_cache(maxsize=None)
def field(q: int) -> RingSpec:
    """GF(q), as the Galois ring GR(p, r) for q = p^r."""
    fac = factorize(q)
    if len(fac) != 1:
        raise NonPrimeP(f"{q} is not a prime power")
    p, r = next(iter(fac.items()))
    return galois_ring(p, 1, r)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingElement:
    ring: RingSpec
    coeffs: tuple  # per-summand coefficient tuples

    def __add__(self, other: "RingElement") -> "RingElement":
        return ring_add(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        _check(self, other)
        return RingElement(self.ring, tuple(
            _psub(a, b, g.q) for g, a, b in
            zip(self.ring.summands, self.coeffs, other.coeffs)))

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, tuple(
            _pneg(a, g.q) for g, a in zip(self.ring.summands, self.coeffs)))

    def __mul__(self, other: "RingElement") -> "RingElement":
        return ring_mul(self, other)

    def is_zero(self) -> bool:
        return all(all(c == 0 for c in cs) for cs in self.coeffs)

    def is_one(self) -> bool:
        return self == self.ring.one()

    def is_unit(self) -> bool:
        """Unit iff the residue mod p is nonzero in every summand."""
        return all(any(c % g.p for c in cs)
                   for g, cs in zip(self.ring.summands, self.coeffs))

    def inv(self) -> "RingElement":
        return ring_inv(self)

    def pow(self, e: int) -> "RingElement":
        if e < 0:
            return ring_inv(self).pow(-e)
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def _check(a: RingElement, b: RingElement) -> None:
    if a.ring != b.ring:
        raise RingMismatch("elements live in different rings")


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    _check(a, b)
    return RingElement(a.ring, tuple(
        _padd(x, y, g.q) for g, x, y in
        zip(a.ring.summands, a.coeffs, b.coeffs)))


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    _check(a, b)
    return RingElement(a.ring, tuple(
        _pmul(x, y, g.modulus, g.q) for g, x, y in
        zip(a.ring.summands, a.coeffs, b.coeffs)))


def ring_inv(a: RingElement) -> RingElement:
    """Inverse of a unit, via the unit-group order per summand."""
    if not a.is_unit():
        raise NonUnit("not a unit (zero divisor or nilpotent)")
    return RingElement(a.ring, tuple(
        _pinv(cs, g) for g, cs in zip(a.ring.summands, a.coeffs)))


# ---------------------------------------------------------------------------
# Teichmuller digits and Frobenius
# ---------------------------------------------------------------------------

def _teich_lift(cs: tuple, g: GaloisRingSpec) -> tuple:
    """The unique t in T u {0} with t = cs mod p (t = cs^(p^(r(m-1))))."""
    if g.m == 1:
        return cs
    return _ppow(cs, g.p ** (g.r * (g.m - 1)), g.modulus, g.q)


def _teich_digits(cs: tuple, g: GaloisRingSpec) -> list[tuple]:
    digits = []
    cur = cs
    for _ in range(g.m):
        t = _teich_lift(cur, g)
        digits.append(t)
        diff = _psub(cur, t, g.q)
        # every coefficient of an element of pR is divisible by p
        cur = tuple(c // g.p for c in diff)
    return digits


def teichmuller_decompose(a: RingElement) -> list[list[tuple]]:
    """Per summand, the digits (t_0..t_{m-1}) with a = sum t_i p^i, t_i in T u {0}."""
    return [
        _teich_digits(cs, g)
        for g, cs in zip(a.ring.summands, a.coeffs)
    ]


def _teich_sum(ds: list, g: GaloisRingSpec) -> tuple:
    """sum t_i p^i of the digits ds of summand g."""
    acc = g.zero()
    pk = 1
    for t in ds:
        acc = _padd(acc, tuple(c * pk % g.q for c in t), g.q)
        pk *= g.p
    return acc


def teichmuller_recompose(ring: RingSpec, digits: list[list[tuple]]) -> RingElement:
    return RingElement(ring, tuple(
        _teich_sum(ds, g) for g, ds in zip(ring.summands, digits)))


@dataclass(frozen=True)
class RingAutomorphism:
    """A lifted Frobenius: per summand, digits map t -> t^(p^e)."""
    ring: RingSpec
    exponents: tuple[int, ...]

    def __post_init__(self):
        for g, e in zip(self.ring.summands, self.exponents):
            if not (0 <= e < g.r):
                raise RingMismatch(f"Frobenius exponent {e} out of range for r={g.r}")

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def compose(self, other: "RingAutomorphism") -> "RingAutomorphism":
        if self.ring != other.ring:
            raise RingMismatch("automorphisms of different rings")
        return RingAutomorphism(self.ring, tuple(
            (a + b) % g.r for g, a, b in
            zip(self.ring.summands, self.exponents, other.exponents)))


def frobenius_apply(aut: RingAutomorphism, a: RingElement) -> RingElement:
    """Teichmuller-digitwise Frobenius power."""
    if aut.ring != a.ring:
        raise RingMismatch("automorphism and element rings differ")
    out = []
    for g, e, cs in zip(a.ring.summands, aut.exponents, a.coeffs):
        if e == 0 or g.r == 1:
            out.append(cs)
            continue
        out.append(_teich_sum([_ppow(t, g.p ** e, g.modulus, g.q)
                               for t in _teich_digits(cs, g)], g))
    return RingElement(a.ring, tuple(out))


def all_automorphisms(ring: RingSpec) -> list[RingAutomorphism]:
    """The group of per-summand lifted Frobenius maps (trivial for r = 1)."""
    return [RingAutomorphism(ring, c)
            for c in product(*(range(g.r) for g in ring.summands))]


def units(ring: RingSpec):
    """All units, canonical order (desk-scale rings only)."""
    for a in ring.enumerate():
        if a.is_unit():
            yield a


@lru_cache(maxsize=None)
def primitive_element_coeffs(p: int, m: int, r: int, modulus: tuple) -> tuple:
    """Coefficients of a generator of the Teichmuller group T (order p^r - 1).

    For m = 1 this is a generator of the multiplicative group of GF(p^r);
    search is brute force, so residue fields are desk-scale by contract.
    """
    g = GaloisRingSpec(p, m, r, modulus)
    n = g.residue_order - 1
    prime_divs = sorted(factorize(n)) if n > 1 else []
    one = g.one()
    for coeffs in _coeff_tuples(g.q, g.r):
        cs = _teich_lift(coeffs, g)
        if all(c == 0 for c in cs):
            continue
        if _ppow(cs, n, g.modulus, g.q) != one:
            continue
        if all(_ppow(cs, n // d, g.modulus, g.q) != one for d in prime_divs):
            return cs
    raise NonUnit("no primitive element found")


def root_of_unity(ring: RingSpec, s: int, d: int) -> RingElement:
    """A unit of order d in summand s, one in the other summands.

    Summand s must be a field (m = 1), whose unit group is cyclic of order
    q - 1, and d must divide q - 1.
    """
    g = ring.summands[s]
    z = _ppow(primitive_element_coeffs(g.p, g.m, g.r, g.modulus),
              g.units_order() // d, g.modulus, g.q)
    return RingElement(ring, tuple(
        z if i == s else h.one() for i, h in enumerate(ring.summands)))
