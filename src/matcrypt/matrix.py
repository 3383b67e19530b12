"""Matrices over direct sums of Galois rings.

Exact products and inverses (Gaussian elimination per CRT summand with unit
pivots), Kronecker products, the two linear representations of wreath
products, ring-change group embeddings, and word evaluation over generator
sets.  Vectors are rows acting on the right.

A matrix is stored flat per CRT summand (see ``Matrix``); the kernels work on
those tuples of plain ints or coefficient tuples, and ``RingElement`` entries
are built only when a caller reads ``rows`` or ``a[i, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import (
    DegreeMismatch,
    ArityMismatch,
    IncompatibleDegrees,
    IndexOutOfRange,
    NonInvertible,
    NoSuchEmbedding,
    RingMismatch,
    ShapeMismatch,
)
from .ring import (
    GaloisRingSpec,
    RingElement,
    RingSpec,
    _padd,
    _pmul,
    _pneg,
    _ppow,
    _preduce,
    _psub,
)

_set = object.__setattr__


def _to_entry(g: GaloisRingSpec, cs: tuple):
    """Stored form of a summand coefficient tuple: a plain int when r = 1."""
    return cs[0] if g.r == 1 else cs


def _to_coeffs(g: GaloisRingSpec, x) -> tuple:
    """Coefficient tuple of a stored summand entry."""
    return (x,) if g.r == 1 else x


def _zero(g: GaloisRingSpec):
    return 0 if g.r == 1 else g.zero()


def _one(g: GaloisRingSpec):
    return 1 if g.r == 1 else g.one()


def _fill(a, n: int, ring: RingSpec, data: tuple) -> None:
    _set(a, "n", n)
    _set(a, "ring", ring)
    _set(a, "data", data)
    _set(a, "_rows", None)
    _set(a, "_inv", None)


class Matrix:
    """Square matrix of degree n over ``ring``, stored flat per CRT summand.

    ``data[s]`` is a row-major tuple of length n^2 holding summand s of every
    entry (entry (i, j) at index i*n + j): plain ints when summand s has rank
    r = 1, coefficient tuples of length r otherwise.  Equality and hashing use
    (n, data), plus the ring for equality.

    ``Matrix(n, ring, rows)`` takes n rows of n ``RingElement``s and flattens
    them; kernels build results from ``data`` with ``Matrix._of``.  ``rows``
    and ``a[i, j]`` give ``RingElement`` views, built on first use.
    Matrices are immutable; ``rows`` and the inverse are kept once computed.
    """

    __slots__ = ("n", "ring", "data", "_rows", "_inv")

    def __init__(self, n: int, ring: RingSpec, rows):
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ShapeMismatch(f"degree {n} needs {n} rows of {n} entries")
        flat = [e for row in rows for e in row]
        if any(e.ring is not ring and e.ring != ring for e in flat):
            raise RingMismatch("matrix entries over a different ring")
        data = []
        for s, g in enumerate(ring.summands):
            q = g.q
            data.append(tuple([e.coeffs[s][0] % q for e in flat]) if g.r == 1
                        else tuple([tuple([c % q for c in e.coeffs[s]])
                                    for e in flat]))
        _fill(self, n, ring, tuple(data))

    @classmethod
    def _of(cls, n: int, ring: RingSpec, data: tuple) -> "Matrix":
        """Matrix from per-summand flat tuples (no copying, no checks)."""
        a = object.__new__(cls)
        _fill(a, n, ring, data)
        return a

    def __setattr__(self, name, value):
        raise AttributeError(f"Matrix is immutable (cannot set {name!r})")

    def __reduce__(self):
        return (Matrix._of, (self.n, self.ring, self.data))

    @property
    def rows(self) -> tuple:
        """n tuples of n RingElements."""
        if self._rows is None:
            n, ring = self.n, self.ring
            per = [[(x,) for x in d] if g.r == 1 else d
                   for g, d in zip(ring.summands, self.data)]
            flat = [RingElement(ring, cs) for cs in zip(*per)]
            _set(self, "_rows", tuple(tuple(flat[i:i + n])
                                      for i in range(0, n * n, n)))
        return self._rows

    def __getitem__(self, ij) -> RingElement:
        i, j = ij
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i}, {j}) outside degree {n}")
        k = i * n + j
        return RingElement(self.ring, tuple(
            _to_coeffs(g, d[k]) for g, d in zip(self.ring.summands, self.data)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.n == other.n and self.data == other.data
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash((self.n, self.data))

    def __repr__(self):
        return f"Matrix(n={self.n}, ring={self.ring!r}, data={self.data!r})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def inv(self) -> "Matrix":
        return mat_inv(self)

    def pow(self, e: int) -> "Matrix":
        if e < 0:
            return mat_inv(self).pow(-e)
        out = identity(self.n, self.ring)
        base = self
        while e:
            if e & 1:
                out = mat_mul(out, base)
            base = mat_mul(base, base)
            e >>= 1
        return out

    def is_identity(self) -> bool:
        return self == identity(self.n, self.ring)

    def is_diagonal(self) -> bool:
        step = self.n + 1
        for g, d in zip(self.ring.summands, self.data):
            zero = _zero(g)
            if any(x != zero for k, x in enumerate(d) if k % step):
                return False
        return True

    def key(self):
        """Hashable content key: (n, data)."""
        return (self.n, self.data)


@dataclass(frozen=True)
class GroupWord:
    """Word over an abstract generator set: +i is generator i (1-based), -i its inverse."""
    letters: tuple[int, ...]

    def __post_init__(self):
        if any(x == 0 for x in self.letters):
            raise IndexOutOfRange("zero letter in group word")

    def inv(self) -> "GroupWord":
        return GroupWord(tuple(-x for x in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)


def matrix(ring: RingSpec, int_rows) -> Matrix:
    """Build a matrix from integer entries (mapped through Z -> R)."""
    rows = tuple(
        tuple(v if isinstance(v, RingElement) else ring.from_int(v) for v in row)
        for row in int_rows)
    return Matrix(len(rows), ring, rows)


def _perm_matrix(target: tuple, ring: RingSpec) -> Matrix:
    """Permutation matrix of degree len(target): a one at (i, target[i])."""
    n = len(target)
    data = []
    for g in ring.summands:
        d = [_zero(g)] * (n * n)
        one = _one(g)
        for i, j in enumerate(target):
            d[i * n + j] = one
        data.append(tuple(d))
    return Matrix._of(n, ring, tuple(data))


@lru_cache(maxsize=None)
def identity(n: int, ring: RingSpec) -> Matrix:
    return _perm_matrix(tuple(range(n)), ring)


def int_rows(a: Matrix):
    """Entries as CRT-recombined integers (rank-1 summands only); for display."""
    return [[a.ring.to_int(e) for e in row] for row in a.rows]


def _check_pair(a: Matrix, b: Matrix) -> None:
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatch("matrices over different rings")
    if a.n != b.n:
        raise ShapeMismatch(f"degree {a.n} vs {b.n}")


def _square(d: tuple, n: int) -> list:
    """Row lists of a flat summand tuple."""
    return [list(d[i:i + n]) for i in range(0, n * n, n)]


# Rank > 1 entries are multiplied by Kronecker substitution: a coefficient
# tuple (c_0..c_{r-1}) in [0, q) becomes the integer sum c_i 2^(i w), so one
# integer product yields all 2r-1 product coefficients.  The slot width w
# holds a sum of ``terms`` products without carrying into the next slot.

def _slot_width(terms: int, g: GaloisRingSpec) -> int:
    return (terms * g.r * (g.q - 1) ** 2).bit_length()


def _pack(cs, w: int) -> int:
    v = 0
    for c in reversed(cs):
        v = (v << w) | c
    return v


def _unpack(v: int, w: int, g: GaloisRingSpec) -> tuple:
    """Coefficient tuple of a packed (unreduced) product sum."""
    mask = (1 << w) - 1
    prod = []
    for _ in range(2 * g.r - 1):
        prod.append(v & mask)
        v >>= w
    return _preduce(prod, g.modulus, g.q)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _check_pair(a, b)
    n = a.n
    data = []
    for g, x, y in zip(a.ring.summands, a.data, b.data):
        rows = [x[i:i + n] for i in range(0, n * n, n)]
        cols = [y[j::n] for j in range(n)]
        if g.r == 1:
            q = g.q
            data.append(tuple([sum(map(mul, row, col)) % q
                               for row in rows for col in cols]))
        else:
            w = _slot_width(n, g)
            rows = [[_pack(cs, w) for cs in row] for row in rows]
            cols = [[_pack(cs, w) for cs in col] for col in cols]
            data.append(tuple([_unpack(sum(map(mul, row, col)), w, g)
                               for row in rows for col in cols]))
    return Matrix._of(n, a.ring, tuple(data))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _check_pair(a, b)
    data = []
    for g, x, y in zip(a.ring.summands, a.data, b.data):
        q = g.q
        data.append(tuple([(u + v) % q for u, v in zip(x, y)]) if g.r == 1
                    else tuple([_padd(u, v, q) for u, v in zip(x, y)]))
    return Matrix._of(a.n, a.ring, tuple(data))


def mat_scale(a: Matrix, c: RingElement) -> Matrix:
    if c.ring is not a.ring and c.ring != a.ring:
        raise RingMismatch("scalar and matrix over different rings")
    data = []
    for g, cs, x in zip(a.ring.summands, c.coeffs, a.data):
        q = g.q
        if g.r == 1:
            cv = cs[0]
            data.append(tuple(cv * u % q for u in x))
        else:
            data.append(tuple(_pmul(cs, u, g.modulus, q) for u in x))
    return Matrix._of(a.n, a.ring, tuple(data))


# --- per-summand dense elimination ----------------------------------------

def _int_inv(x: tuple, n: int, p: int, q: int) -> tuple:
    """Inverse over Z_q, q a power of the prime p: Gauss-Jordan, unit pivots."""
    a = _square(x, n)
    for i, row in enumerate(a):
        row.extend([0] * n)
        row[n + i] = 1
    for col in range(n):
        for piv in range(col, n):
            if a[piv][col] % p:
                break
        else:
            raise NonInvertible("no unit pivot")
        a[col], a[piv] = a[piv], a[col]
        inv_p = pow(a[col][col], -1, q)
        # columns left of col are already zero in every row but their pivot's
        prow = [v * inv_p % q for v in a[col][col:]]
        a[col][col:] = prow
        for i, row in enumerate(a):
            f = row[col]
            if f and i != col:
                row[col:] = [(u - f * v) % q for u, v in zip(row[col:], prow)]
    return tuple(v for row in a for v in row[n:])


def _int_det(x: tuple, n: int, g: GaloisRingSpec) -> int:
    """Determinant over Z_q by elimination with unit pivots."""
    p, q = g.p, g.q
    a = _square(x, n)
    det = 1
    for col in range(n):
        for piv in range(col, n):
            if a[piv][col] % p:
                break
        else:
            if g.m == 1:
                return 0  # over a field, a column without a pivot is dependent
            # determinant is a non-unit: expand the rest exactly by cofactors
            sub = [[(v,) for v in row[col:]] for row in a[col:]]
            return det * _cofactor_det(sub, g)[0] % q
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        prow = a[col][col:]
        det = det * prow[0] % q
        inv_p = pow(prow[0], -1, q)
        for row in a[col + 1:]:
            if row[col]:
                f = row[col] * inv_p % q
                row[col:] = [(u - f * v) % q for u, v in zip(row[col:], prow)]
    return det % q


def _summand_det(mat, g: GaloisRingSpec):
    """Determinant over a local ring via elimination (unit pivots, no scaling)."""
    n = len(mat)
    p, q, mod = g.p, g.q, g.modulus
    a = [row[:] for row in mat]
    sign = 1
    det = g.one()
    for col in range(n):
        piv = None
        for i in range(col, n):
            if any(c % p for c in a[i][col]):
                piv = i
                break
        if piv is None:
            if g.m == 1:
                return g.zero()  # as in _int_det
            # determinant is a non-unit: expand the rest exactly by cofactors
            sub = [row[col:] for row in a[col:]]
            d = _cofactor_det(sub, g)
            d = _pmul(det, d, mod, q)
            return d if sign == 1 else _pneg(d, q)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot = a[col][col]
        det = _pmul(det, pivot, mod, q)
        inv_p = _ppow(pivot, g.units_order() - 1, mod, q)
        for i in range(col + 1, n):
            if any(a[i][col]):
                f = _pmul(a[i][col], inv_p, mod, q)
                a[i] = [_psub(c, _pmul(f, d, mod, q), q)
                        for c, d in zip(a[i], a[col])]
    return det if sign == 1 else _pneg(det, q)


def _cofactor_det(mat, g: GaloisRingSpec):
    n = len(mat)
    q, mod = g.q, g.modulus
    if n == 1:
        return mat[0][0]
    acc = g.zero()
    for j in range(n):
        if not any(mat[0][j]):
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = _pmul(mat[0][j], _cofactor_det(minor, g), mod, q)
        acc = _padd(acc, term, q) if j % 2 == 0 else _psub(acc, term, q)
    return acc


def mat_inv(a: Matrix) -> Matrix:
    if a._inv is None:
        _set(a, "_inv", _inverse(a))
    return a._inv


def _inverse(a: Matrix) -> Matrix:
    n = a.n
    data = []
    for g, x in zip(a.ring.summands, a.data):
        if g.r == 1:
            data.append(_int_inv(x, n, g.p, g.q))
        else:
            # invert the regular representation over Z_q (a ring monomorphism,
            # so its inverse is the image of the inverse), then read each
            # entry off the first row of its r x r block
            r, size = g.r, n * g.r
            big = _int_inv(_rep_data(x, n, g), size, g.p, g.q)
            data.append(tuple(
                big[(i * size + j) * r:(i * size + j) * r + r]
                for i in range(n) for j in range(n)))
    return Matrix._of(n, a.ring, tuple(data))


def mat_det(a: Matrix) -> RingElement:
    n = a.n
    return RingElement(a.ring, tuple(
        (_int_det(x, n, g),) if g.r == 1 else _summand_det(_square(x, n), g)
        for g, x in zip(a.ring.summands, a.data)))


def is_invertible(a: Matrix) -> bool:
    try:
        mat_inv(a)
        return True
    except NonInvertible:
        return False


# --- Kronecker and wreath representations ---------------------------------

def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    if a.ring != b.ring:
        raise RingMismatch("Kronecker factors over different rings")
    na, nb = a.n, b.n
    return Matrix._of(na * nb, a.ring, tuple(
        _kron_summand(x, na, y, nb, g)
        for g, x, y in zip(a.ring.summands, a.data, b.data)))


def _kron_summand(x: tuple, na: int, y: tuple, nb: int, g: GaloisRingSpec) -> tuple:
    """Flat Kronecker product of two flat summand tuples of degrees na, nb."""
    q = g.q
    out = []
    for i in range(0, na * na, na):
        xrow = x[i:i + na]
        for j in range(0, nb * nb, nb):
            yrow = y[j:j + nb]
            if g.r == 1:
                out.extend([u * v % q for u in xrow for v in yrow])
            else:
                out.extend([_pmul(u, v, g.modulus, q) for u in xrow for v in yrow])
    return tuple(out)


def kron_all(ms: list[Matrix]) -> Matrix:
    out = ms[0]
    for m in ms[1:]:
        out = mat_kron(out, m)
    return out


# permutations: 0-indexed tuples, k[i] = image of i; compose left-to-right
def perm_id(m: int) -> tuple:
    return tuple(range(m))


def perm_inverse(k: tuple) -> tuple:
    out = [0] * len(k)
    for i, j in enumerate(k):
        out[j] = i
    return tuple(out)


def perm_compose(k1: tuple, k2: tuple) -> tuple:
    """Apply k1 first, then k2."""
    return tuple(k2[k1[i]] for i in range(len(k1)))


def _tuple_index(a: tuple, n: int) -> int:
    idx = 0
    for x in a:
        idx = idx * n + x
    return idx


def _index_tuple(idx: int, n: int, m: int) -> tuple:
    out = []
    for _ in range(m):
        out.append(idx % n)
        idx //= n
    return tuple(reversed(out))


def block_perm_matrix(k: tuple, n: int, ring: RingSpec) -> Matrix:
    """Degree n*m matrix permuting coordinate blocks: block row i -> block column k[i]."""
    return _perm_matrix(tuple(k[i // n] * n + i % n
                              for i in range(n * len(k))), ring)


def tensor_perm_matrix(k: tuple, n: int, ring: RingSpec) -> Matrix:
    """Degree n^m matrix moving tensor slot i to slot k[i] on pure tensors."""
    m = len(k)
    kinv = perm_inverse(k)
    targets = []
    for idx in range(n ** m):
        a = _index_tuple(idx, n, m)
        targets.append(_tuple_index(tuple(a[kinv[j]] for j in range(m)), n))
    return _perm_matrix(tuple(targets), ring)


def wreath_rep(hs: list[Matrix], k: tuple, mode: str) -> Matrix:
    """Linear representation of the wreath element (h_1..h_m; k).

    Acting on row tuples (u_1..u_m): component j of the image is
    u_i^{h_i} with i = k^{-1}(j).  ``imprimitive`` acts on the m-fold direct
    sum (degree n*m), ``product`` on the m-fold tensor power (degree n^m).
    """
    m = len(hs)
    if len(k) != m:
        raise ArityMismatch(f"{m} matrices but permutation of {len(k)} points")
    ring = hs[0].ring
    n = hs[0].n
    for h in hs:
        if h.ring != ring:
            raise RingMismatch("wreath coordinates over different rings")
        if h.n != n:
            raise DegreeMismatch("wreath coordinates of different degrees")
    if mode == "imprimitive":
        size = n * m
        data = []
        for s, g in enumerate(ring.summands):
            d = [_zero(g)] * (size * size)
            for i in range(m):
                h = hs[i].data[s]
                for a in range(n):
                    start = (i * n + a) * size + k[i] * n
                    d[start:start + n] = h[a * n:a * n + n]
            data.append(tuple(d))
        return Matrix._of(size, ring, tuple(data))
    if mode == "product":
        return mat_mul(kron_all(hs), tensor_perm_matrix(k, n, ring))
    raise ArityMismatch(f"unknown wreath mode {mode!r}")


# --- ring-change embeddings ------------------------------------------------

@dataclass(frozen=True)
class SubringEmbedding:
    """Unital embedding R -> R', per-summand (same p, m; source r divides target r).

    Summand i of the source maps into summand i of the target; ``roots[i]``
    is the image of the source generator x, a root of the source modulus.
    """
    src: RingSpec
    dst: RingSpec
    roots: tuple  # per summand: coefficient tuple over the dst summand

    def apply(self, a: RingElement) -> RingElement:
        return RingElement(self.dst, tuple(
            self.apply_coeffs(s, cs) for s, cs in enumerate(a.coeffs)))

    def apply_coeffs(self, s: int, cs: tuple) -> tuple:
        """apply on summand s, coefficient tuples in and out."""
        gd, root = self.dst.summands[s], self.roots[s]
        acc = gd.zero()
        power = gd.one()
        for c in cs:
            if c:
                acc = _padd(acc, tuple(x * c % gd.q for x in power), gd.q)
            power = _pmul(power, root, gd.modulus, gd.q)
        return acc

    def preimage_coeffs(self, s: int, target: tuple):
        """Inverse of apply on summand s, or None when target (a coefficient
        tuple of the dst summand) is outside the subring."""
        sel_rows, inv_sub = _embedding_decode(self)[s]
        gs = self.src.summands[s]
        rhs = [target[i] for i in sel_rows]
        cand = tuple(sum(inv_sub[i][j] * rhs[j] for j in range(gs.r)) % gs.q
                     for i in range(gs.r))
        return cand if self.apply_coeffs(s, cand) == target else None


def _poly_eval(coeffs, at: tuple, g: GaloisRingSpec) -> tuple:
    """Evaluate a polynomial with integer coefficients at a point of summand g."""
    acc = g.zero()
    power = g.one()
    for c in coeffs:
        c = c % g.q
        if c:
            acc = _padd(acc, tuple(x * c % g.q for x in power), g.q)
        power = _pmul(power, at, g.modulus, g.q)
    return acc


def _find_root(modulus_src: tuple, g: GaloisRingSpec) -> tuple:
    """Root in summand g of a monic polynomial irreducible mod p (Hensel lift)."""
    if g.residue_order > 1 << 16:
        raise NoSuchEmbedding("target residue field too large for root search")
    deriv = tuple(i * c for i, c in enumerate(modulus_src))[1:]
    root = None
    for idx in range(g.residue_order):
        coeffs, v = [], idx
        for _ in range(g.r):
            coeffs.append(v % g.p)
            v //= g.p
        t = tuple(coeffs)
        val = _poly_eval(modulus_src, t, g)
        if all(c % g.p == 0 for c in val):
            root = t
            break
    if root is None:
        raise NoSuchEmbedding("modulus has no root in the target ring")
    for _ in range(g.m + 2):
        val = _poly_eval(modulus_src, root, g)
        if all(c == 0 for c in val):
            return root
        dval = _poly_eval(deriv, root, g)
        dinv = _ppow(dval, g.units_order() - 1, g.modulus, g.q)
        root = _psub(root, _pmul(val, dinv, g.modulus, g.q), g.q)
    raise NoSuchEmbedding("Hensel lifting did not converge")


@lru_cache(maxsize=None)
def find_embedding(src: RingSpec, dst: RingSpec) -> SubringEmbedding:
    """Canonical unital embedding src -> dst (summand i into summand i)."""
    if len(src.summands) != len(dst.summands):
        raise NoSuchEmbedding("summand counts differ")
    roots = []
    for gs, gd in zip(src.summands, dst.summands):
        if gs.p != gd.p or gs.m != gd.m or gd.r % gs.r != 0:
            raise NoSuchEmbedding(
                f"no embedding GR({gs.p}^{gs.m},{gs.r}) -> GR({gd.p}^{gd.m},{gd.r})")
        roots.append(_find_root(gs.modulus, gd))
    return SubringEmbedding(src, dst, tuple(roots))


@lru_cache(maxsize=None)
def _embedding_decode(emb: SubringEmbedding):
    """Per summand: (selected row indices, inverse r x r integer matrix mod q).

    Columns of the coordinate matrix are the dst coordinates of root^i; an
    invertible row-submatrix mod p exists because the root powers are a basis
    of the subring.
    """
    out = []
    for gs, gd, root in zip(emb.src.summands, emb.dst.summands, emb.roots):
        cols = []
        power = gd.one()
        for _ in range(gs.r):
            cols.append(power)
            power = _pmul(power, root, gd.modulus, gd.q)
        # select gs.r rows of the (gd.r x gs.r) matrix invertible mod p
        sel = _select_invertible_rows(cols, gs.r, gd)
        r = gs.r
        inv = _int_inv(tuple(cols[j][i] for i in sel for j in range(r)),
                       r, gd.p, gd.q)
        out.append((sel, [inv[i:i + r] for i in range(0, r * r, r)]))
    return tuple(out)


def _select_invertible_rows(cols, r, g: GaloisRingSpec):
    """Greedy unit-pivot row selection over the residue field F_p."""
    p = g.p
    rows = list(range(g.r))
    work = [[cols[j][i] % g.q for j in range(r)] for i in range(g.r)]
    sel = []
    used_cols = []
    cur = [row[:] for row in work]
    for j in range(r):
        found = None
        for i in rows:
            if i in sel:
                continue
            if cur[i][j] % p:
                found = i
                break
        if found is None:
            raise NoSuchEmbedding("embedding coordinate matrix is degenerate")
        sel.append(found)
        used_cols.append(j)
        pv = cur[found][j]
        pinv = pow(pv, -1, p)
        for i in rows:
            if i != found and cur[i][j] % p:
                f = cur[i][j] * pinv % p
                cur[i] = [(a - f * b) % p for a, b in zip(cur[i], cur[found])]
    return tuple(sel)


def regular_rep_block(a_coeffs: tuple, g: GaloisRingSpec):
    """r x r integer matrix over Z_{p^m}: row i = coefficients of a * x^i."""
    q, low = g.q, g.modulus[:-1]
    rows = [a_coeffs]
    cur = a_coeffs
    for _ in range(g.r - 1):
        # times x: shift up, then fold x^r = -(low part of the modulus)
        top = cur[-1]
        cur = tuple([(c - top * f) % q for c, f in zip((0,) + cur[:-1], low)])
        rows.append(cur)
    return rows


def _rep_data(x: tuple, n: int, g: GaloisRingSpec) -> tuple:
    """Flat degree n*r matrix over Z_q: entry (i, j) of x becomes its r x r
    regular-representation block."""
    r = g.r
    size = n * r
    out = [0] * (size * size)
    for k, cs in enumerate(x):
        i, j = divmod(k, n)
        for bi, brow in enumerate(regular_rep_block(cs, g)):
            start = (i * r + bi) * size + j * r
            out[start:start + r] = brow
    return tuple(out)


def ring_change(a: Matrix, target) -> Matrix:
    """Group monomorphism images under a ring change.

    target is one of ("extend-to", R2), ("rep-to", d) for the regular
    representation over the prime subring Z_{p^m}, or
    ("crt-lift", R_big, summand_index).
    """
    kind = target[0]
    if kind == "extend-to":
        dst = target[1]
        emb = find_embedding(a.ring, dst)
        return Matrix._of(a.n, dst, tuple(
            tuple(_to_entry(gd, emb.apply_coeffs(s, _to_coeffs(gs, x))) for x in d)
            for s, (gs, gd, d) in enumerate(
                zip(a.ring.summands, dst.summands, a.data))))
    if kind == "rep-to":
        d = target[1]
        if len(a.ring.summands) != 1:
            raise NoSuchEmbedding("rep-to needs a single-summand ring")
        g = a.ring.summands[0]
        if g.r != d:
            raise IncompatibleDegrees(f"rep-to degree {d} != ring rank {g.r}")
        dst = RingSpec((GaloisRingSpec(g.p, g.m, 1, (0, 1)),))
        x = a.data[0] if g.r > 1 else tuple((v,) for v in a.data[0])
        return Matrix._of(a.n * d, dst, (_rep_data(x, a.n, g),))
    if kind == "crt-lift":
        big, idx = target[1], target[2]
        if len(a.ring.summands) != 1 or a.ring.summands[0] != big.summands[idx]:
            raise NoSuchEmbedding("source ring is not the chosen summand")
        ident = identity(a.n, big).data
        return Matrix._of(a.n, big, tuple(
            a.data[0] if s == idx else ident[s] for s in range(len(ident))))
    raise NoSuchEmbedding(f"unknown ring-change kind {kind!r}")


def crt_project(a: Matrix, positions: tuple, sub: RingSpec) -> Matrix:
    """Restriction of a to the summands listed in positions, as a matrix over sub."""
    return Matrix._of(a.n, sub, tuple(a.data[s] for s in positions))


# --- words and vectors ------------------------------------------------------

def word_eval(gens: list[Matrix], w) -> Matrix:
    """Ordered product of generators/inverses; the empty word is the identity."""
    letters = w.letters if isinstance(w, GroupWord) else tuple(w)
    if not gens:
        raise IndexOutOfRange("empty generator list")
    n, ring = gens[0].n, gens[0].ring
    out = identity(n, ring)
    inv_cache: dict[int, Matrix] = {}
    for x in letters:
        i = abs(x) - 1
        if x == 0 or i >= len(gens):
            raise IndexOutOfRange(f"letter {x} outside 1..{len(gens)}")
        if x > 0:
            out = mat_mul(out, gens[i])
        else:
            if i not in inv_cache:
                inv_cache[i] = mat_inv(gens[i])
            out = mat_mul(out, inv_cache[i])
    return out


def vector_act(v: tuple, g: Matrix) -> tuple:
    """Right action of g on a row vector of RingElements."""
    n, ring = g.n, g.ring
    if len(v) != n:
        raise ShapeMismatch(f"vector length {len(v)} vs degree {n}")
    if any(e.ring is not ring and e.ring != ring for e in v):
        raise RingMismatch("vector and matrix over different rings")
    per = []
    for s, (gs, d) in enumerate(zip(ring.summands, g.data)):
        q = gs.q
        if gs.r == 1:
            xs = [e.coeffs[s][0] for e in v]
            per.append([(sum(map(mul, xs, d[j::n])) % q,) for j in range(n)])
        else:
            w = _slot_width(n, gs)
            xs = [_pack([c % q for c in e.coeffs[s]], w) for e in v]
            ys = [_pack(cs, w) for cs in d]
            per.append([_unpack(sum(map(mul, xs, ys[j::n])), w, gs)
                        for j in range(n)])
    return tuple(RingElement(ring, cs) for cs in zip(*per))


def vector(ring: RingSpec, ints) -> tuple:
    return tuple(v if isinstance(v, RingElement) else ring.from_int(v)
                 for v in ints)
