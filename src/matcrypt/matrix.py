"""Matrices over direct sums of Galois rings.

Exact products, inverses and determinants (per CRT summand, one Gauss-Jordan
kernel over Z/p^m whose pivots have least p-adic valuation), Kronecker
products, the two linear representations of wreath products, ring-change
group embeddings, and word evaluation over generator sets.  Vectors are rows
acting on the right.

A matrix is stored flat per CRT summand (see ``Matrix``); the kernels work on
those tuples of plain ints or coefficient tuples, and ``RingElement`` entries
are built only when a caller reads ``rows`` or ``a[i, j]``.  Products of
degree below _PACK_MUL_MIN run one generated straight-line kernel per degree
and summand rank (see "straight-line products" below).  From that degree on,
rank-1 products pack each row into one integer (see "packed rows"), and rank
> 1 products pack entry by entry.  Eliminations of _PACK_ROWS_MIN rows and
up that are not sparse pack their rows too; smaller ones run on row lists.
Inverses of degree 1 and 2 over Z/p^m are the adjugate over the determinant.
Every path gives the same entries.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, compress, product
from math import gcd, prod
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
    Zmod,
    _coeff_tuples,
    _padd,
    _pinv,
    _pmul,
    _pneg,
    _psub,
)


def _to_entry(g: GaloisRingSpec, cs: tuple):
    """Stored form of a summand coefficient tuple: a plain int when r = 1."""
    return cs[0] if g.r == 1 else cs


def _to_coeffs(g: GaloisRingSpec, x) -> tuple:
    """Coefficient tuple of a stored summand entry."""
    return (x,) if g.r == 1 else x


def _entries(ring: RingSpec, data: tuple) -> list:
    """RingElements of per-summand flat data, in index order."""
    per = [[(x,) for x in d] if g.r == 1 else d
           for g, d in zip(ring.summands, data)]
    return [RingElement(ring, cs) for cs in zip(*per)]


def _vector_data(v, ring: RingSpec) -> tuple:
    """Per-summand flat data of the RingElements v, stored as the data of a
    1 x len(v) matrix; RingMismatch when an entry is over another ring."""
    if any(e.ring is not ring and e.ring != ring for e in v):
        raise RingMismatch("entries over a different ring")
    data = []
    for s, g in enumerate(ring.summands):
        q = g.q
        data.append(tuple([e.coeffs[s][0] % q for e in v]) if g.r == 1
                    else tuple([tuple([c % q for c in e.coeffs[s]]) for e in v]))
    return tuple(data)


def _random_data(ring: RingSpec, count: int, rng) -> tuple:
    """Per-summand flat data of count seeded entries, as ``_vector_data``
    stores them.  The draws run entry by entry, then summand, then
    coefficient: the order that every seeded output pins."""
    below = rng.below
    per = [[] for _ in ring.summands]
    for _ in range(count):
        for d, g in zip(per, ring.summands):
            d.append(below(g.q) if g.r == 1
                     else tuple([below(g.q) for _ in range(g.r)]))
    return tuple(map(tuple, per))


def _zero(g: GaloisRingSpec):
    return 0 if g.r == 1 else g.zero()


def _one(g: GaloisRingSpec):
    return 1 if g.r == 1 else g.one()


class Matrix:
    """Square matrix of degree n over ``ring``, stored flat per CRT summand.

    ``data[s]`` is a row-major tuple of length n^2 holding summand s of every
    entry (entry (i, j) at index i*n + j): plain ints when summand s has rank
    r = 1, coefficient tuples of length r otherwise.  Equality and hashing use
    (n, data), plus the ring for equality.

    ``Matrix(n, ring, rows)`` takes an int n >= 1 and n rows of n
    ``RingElement``s and flattens them; kernels build results from ``data``
    with ``Matrix._of``.
    ``rows`` and ``a[i, j]`` give ``RingElement`` views, built on first use.
    Matrices are immutable; ``rows`` and the inverse are kept once computed.
    The storage stays flat: the packed rows of ``mat_mul`` and
    ``_eliminate`` are built per call and never stored.
    """

    __slots__ = ("n", "ring", "data", "_rows", "_inv")

    def __init__(self, n: int, ring: RingSpec, rows):
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ShapeMismatch(f"degree {n} needs {n} rows of {n} entries")
        if type(n) is not int or n < 1:
            raise ShapeMismatch(f"degree {n!r} is not a positive int")
        _fill(self, n, ring, _vector_data([e for row in rows for e in row], ring))

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
            n = self.n
            flat = _entries(self.ring, self.data)
            _set_rows(self, tuple(tuple(flat[i:i + n])
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


# Matrix is immutable: its slots are set through their member descriptors,
# which skip ``__setattr__`` and cost less than ``object.__setattr__``.
_set_n, _set_ring, _set_data, _set_rows, _set_inv = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def _fill(a, n: int, ring: RingSpec, data: tuple) -> None:
    _set_n(a, n)
    _set_ring(a, ring)
    _set_data(a, data)
    _set_rows(a, None)
    _set_inv(a, None)


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
# integer dot product yields all 2r-1 product coefficients as w-bit slots.
# The high slots r..2r-2 are folded back in the packed domain (slot d times
# the packed x^d mod f), and the r low slots are read mod q.

@lru_cache(maxsize=None)
def _fold_table(n: int, g: GaloisRingSpec) -> tuple:
    """(w, fold rows) for dot products of length n over summand g.

    The fold rows are x^r .. x^(2r-2) mod f packed at width w: rows 1..r-1
    of the regular representation of x^(r-1).  Every slot, before and after
    the fold, is a sum of products of coefficients with nonnegative weights,
    so it peaks when every coefficient is q-1; w is the bit length of the
    largest such peak, and no slot carries into the next.
    """
    r, q = g.r, g.q
    rows = regular_rep_block((0,) * (r - 1) + (1,), g)[1:]
    peak = [n * min(d + 1, 2 * r - 1 - d) * (q - 1) ** 2
            for d in range(2 * r - 1)]
    w = max(peak[j] + sum(c * row[j] for c, row in zip(peak[r:], rows))
            for j in range(r)).bit_length()
    return w, tuple(_pack(row, w) for row in rows)


def _pack(cs, w: int) -> int:
    v = 0
    for c in reversed(cs):
        v = (v << w) | c
    return v


def _unpack(v: int, w: int, folds: tuple, q: int) -> tuple:
    """Coefficient tuple of a packed dot product: the high slots folded
    back through the fold rows, then each low slot mod q."""
    mask = (1 << w) - 1
    low = w * (len(folds) + 1)
    high = v >> low
    v &= (1 << low) - 1
    for f in folds:
        v += (high & mask) * f
        high >>= w
    out = [(v & mask) % q]
    for _ in folds:
        v >>= w
        out.append((v & mask) % q)
    return tuple(out)


# --- packed rows -------------------------------------------------------------
#
# A row of ints in [0, 2^w) packs into one integer whose slot j (bits
# j*w .. j*w + w - 1) holds entry j: the Kronecker substitution that
# ``_fold_table`` makes within a rank > 1 entry, made across a row of rank-1
# entries (Harvey, J. Symbolic Comput. 44, 2009; Dumas, Giorgi and Pernet,
# ACM TOMS 35(3), 2008).  A sum of nonnegative multiples of packed rows then
# adds slot by slot, with no carry as long as every slot stays below 2^w,
# and is read mod q only at the end.  Each kernel states the bound that its
# slots stay below.  A width up to 64 bits is rounded up to 8, 16, 32 or 64,
# so ``array`` packs and reads all slots of a row in C; a wider slot goes
# through shifts.
#
# Packing costs a pass over the rows that short rows do not win back, so
# each kernel has a measured crossover below which other code runs; every
# path gives the same reduced entries.  Rank-1 products pack from degree
# _PACK_MUL_MIN on, and below it run the straight-line kernels (see
# "straight-line products").  Eliminations pack from _PACK_ROWS_MIN rows on
# (twice that for the forward-only determinant, which makes half the row
# updates), and only when the rows hold at least _PACK_NONZERO nonzero
# entries each on average: the row-list code skips a row whose entry in the
# pivot column is zero at no cost, so a sparse matrix (a permutation or
# block-monomial matrix of a wreath product) eliminates faster unpacked.

_PACK_MUL_MIN = 8
_PACK_ROWS_MIN = 16
_PACK_NONZERO = 6

_ORDER = sys.byteorder
_WORDS = {}
for _tc in "BHILQ":
    _WORDS.setdefault(array(_tc).itemsize * 8, _tc)


def _slots(bound: int) -> tuple:
    """(w, array typecode) for slots holding values up to bound: the bit
    length of bound rounded up to a word size, or itself with typecode None
    above 64 bits."""
    bits = bound.bit_length()
    for w in (8, 16, 32, 64):
        if bits <= w:
            return w, _WORDS[w]
    return bits, None


def _pack_row(row, w: int, tc) -> int:
    if tc is None:
        return _pack(row, w)
    return int.from_bytes(array(tc, row).tobytes(), _ORDER)


def _unpack_row(v: int, count: int, w: int, tc):
    """The count slots of v, unreduced, lowest first."""
    if tc is None:
        mask = (1 << w) - 1
        return [(v >> s) & mask for s in range(0, count * w, w)]
    return array(tc, v.to_bytes(count * w // 8, _ORDER))


def _mul_packed(x: tuple, y: tuple, n: int, q: int) -> tuple:
    """Rank-1 summand product on packed rows: row k of y packs into B_k,
    and row i of the product is sum_k x_ik B_k, one dot product.

    Each slot of row i is sum_k x_ik y_kj, n products of entries below q,
    so it is at most n (q-1)^2.
    """
    w, tc = _slots(n * (q - 1) ** 2)
    packed = [_pack_row(y[k:k + n], w, tc) for k in range(0, n * n, n)]
    return tuple([v % q for i in range(0, n * n, n)
                  for v in _unpack_row(sum(map(mul, x[i:i + n], packed)),
                                       n, w, tc)])


# --- straight-line products --------------------------------------------------
#
# Below _PACK_MUL_MIN a product costs interpreter overhead, not arithmetic:
# slices, generators and calls per entry outweigh the n^3 multiplications.
# ``_mul_kernel`` writes the product of one degree and rank out as one
# function whose entries are expressions over locals, compiles it once and
# keeps it.  Its source is built from n and r alone, never from data.

@lru_cache(maxsize=None)
def _mul_kernel(n: int, r: int):
    """``kernel(x, y, q, w, folds)``: the product of two flat summand tuples
    of degree n and rank r, straight-line.

    At r = 1 entry (i, j) is (x_i0 y_0j + ... + x_i,n-1 y_n-1,j) % q, and w
    and folds are unused.  At r > 1 they are ``_fold_table(n, g)``'s: each
    coefficient tuple is packed at width w, as ``_pack`` packs it, and each
    dot product is folded and read as ``_unpack`` reads it, so the slot
    bound of ``_fold_table`` holds.
    """
    def tup(items) -> str:
        return "(" + "".join(f"{s}, " for s in items) + ")"

    cells = range(n * n)
    dots = [" + ".join(f"x{i + k}*y{k * n + j}" for k in range(n))
            for i in range(0, n * n, n) for j in range(n)]
    lines = ["def kernel(x, y, q, w, folds):"]
    if r == 1:
        lines += [f"    {tup(f'{v}{k}' for k in cells)} = {v}" for v in "xy"]
        lines.append(f"    return {tup(f'({d}) % q' for d in dots)}")
    else:
        # slot t sits at shift s_t = t w; the slots from r on are folded
        shift = [""] + [f" >> s{t}" for t in range(1, r)]
        lines += [f"    s{t} = {t} * w" for t in range(1, r + 1)]
        lines += ["    mask = (1 << w) - 1", f"    low = (1 << s{r}) - 1",
                  f"    {tup(f'f{t}' for t in range(1, r))} = folds"]
        for v in "xy":
            coeffs = [[f"{v}{k}_{t}" for t in range(r)] for k in cells]
            lines.append(f"    {tup(map(tup, coeffs))} = {v}")
            lines += [f"    {v}{k} = " + " | ".join(
                [cs[0]] + [f"{c} << s{t}" for t, c in enumerate(cs) if t])
                for k, cs in enumerate(coeffs)]
        for k, d in enumerate(dots):
            fold = " + ".join(f"(h{shift[t]} & mask) * f{t + 1}"
                              for t in range(r - 1))
            lines += [f"    v = {d}", f"    h = v >> s{r}",
                      f"    v = (v & low) + {fold}",
                      f"    e{k} = {tup(f'(v{sh} & mask) % q' for sh in shift)}"]
        lines.append(f"    return {tup(f'e{k}' for k in cells)}")
    scope = {}
    exec(compile("\n".join(lines), f"<mat_mul kernel n={n} r={r}>", "exec"), scope)
    return scope["kernel"]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _check_pair(a, b)
    n = a.n
    data = []
    for g, x, y in zip(a.ring.summands, a.data, b.data):
        q = g.q
        if n < _PACK_MUL_MIN:
            w, folds = _fold_table(n, g) if g.r > 1 else (0, ())
            data.append(_mul_kernel(n, g.r)(x, y, q, w, folds))
        elif g.r == 1:
            data.append(_mul_packed(x, y, n, q))
        else:
            w, folds = _fold_table(n, g)
            rows = [[_pack(cs, w) for cs in x[i:i + n]]
                    for i in range(0, n * n, n)]
            cols = [[_pack(cs, w) for cs in y[j::n]] for j in range(n)]
            data.append(tuple([_unpack(sum(map(mul, row, col)), w, folds, q)
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
    return Matrix._of(a.n, a.ring, _scale(a.ring, a.data, c))


def _scale(ring: RingSpec, data: tuple, c: RingElement) -> tuple:
    """Per-summand flat data times the scalar c, entry by entry."""
    out = []
    for g, cs, x in zip(ring.summands, c.coeffs, data):
        q = g.q
        if g.r == 1:
            cv = cs[0]
            out.append(tuple(cv * u % q for u in x))
        else:
            out.append(tuple(_pmul(cs, u, g.modulus, q) for u in x))
    return tuple(out)


# --- per-summand dense elimination ----------------------------------------
#
# Pivots have least p-adic valuation (the Howell/Smith-form rule; Storjohann,
# "Algorithms for Matrix Canonical Forms", ETH thesis, 2000), which keeps the
# elimination exact over Z/p^m: each pivot p^v*u divides every entry right of
# it and below it.  An entry's valuation is read as gcd(entry, q) = p^v, which
# is q for a zero entry.

def _pivot(a: list, k: int, j: int, ncols: int, val, q: int):
    """(row, column) of the pivot for column j of the rows from k on, when
    that column has no unit there; None when it is zero there.  ``val`` maps
    an entry to p^v, and a zero entry to q.

    The pivot is the column's first entry of least valuation.  Only when
    that valuation is above the least one among columns j..ncols-1 is the
    pivot taken from the first column that reaches it.  Over a field a
    column without a unit is zero, and on an invertible matrix every column
    has one, so neither meets a swap.
    """
    n = len(a)
    if all(val(a[i][j]) == q for i in range(k, n)):
        return None
    _, c, i = min((val(a[i][c]), c, i)
                  for c in range(j, ncols) for i in range(k, n))
    return i, c


def _swap_columns(a: list, j: int, c: int) -> None:
    for row in a:
        row[j], row[c] = row[c], row[j]


def _eliminate(a: list, ncols: int, p: int, q: int, forward: bool = False):
    """Gauss-Jordan over Z/q, q = p^m, in place on the row lists ``a``,
    whose entries lie in [0, q).

    Columns 0..ncols-1 are eliminated in order; any further columns (an
    identity, a right-hand side) ride along.  The pivot is the column's
    first unit among the rows without a pivot, else ``_pivot`` picks it or
    skips the column; it is swapped into place.  The pivot row is scaled by
    the inverse of the pivot's unit part, so the pivot becomes p^v, and
    every other row is reduced by it (rows above keep a remainder below
    p^v).  With ``forward`` the rows above the pivot are left alone: rows
    at and below it get the same updates either way, so the pivots are the
    same, and a determinant needs nothing else.

    A generator: it yields each pivot once its column is eliminated, so a
    caller may stop at the first pivot it cannot use.  Pivot k sits in row k
    as (column, d), d the entry before scaling, negated for each row or
    column swap made for it; with len(a) pivots of a square matrix the
    product of the d is its determinant.  The rows of ``a`` hold the result
    once the generator is exhausted, column swaps undone.

    The rows are packed (``_eliminate_packed``) or not (``_eliminate_rows``)
    by the crossover rule of the packed-rows section, chosen here once per
    call; both paths make the same pivots and leave the same reduced rows.
    """
    n = len(a)
    packed = (n >= _PACK_ROWS_MIN * (2 if forward else 1)
              and sum(map(len, a)) - sum(row.count(0) for row in a)
              >= _PACK_NONZERO * n)
    kernel = _eliminate_packed if packed else _eliminate_rows
    return kernel(a, ncols, p, q, forward)


def _eliminate_rows(a: list, ncols: int, p: int, q: int, forward: bool):
    """``_eliminate`` on the row lists themselves."""
    n = len(a)
    order = list(range(ncols))  # order[j]: the input column now at j
    k = 0
    for j in range(ncols):
        if k == n:
            break
        for i in range(k, n):
            if a[i][j] % p:
                c, g = j, 1
                break
        else:
            piv = _pivot(a, k, j, ncols, partial(gcd, q), q)
            if piv is None:
                continue
            i, c = piv
            if c != j:
                _swap_columns(a, j, c)
                order[j], order[c] = order[c], order[j]
            g = gcd(a[i][j], q)
        if i != k:
            a[k], a[i] = a[i], a[k]
        pk = a[k]
        x = pk[j]
        inv_u = pow(x // g, -1, q)
        # columns left of j are zero in the pivot row
        prow = [v * inv_u % q for v in pk[j:]]
        pk[j:] = prow
        for row in a[k + 1:] if forward else a:
            f = row[j] // g
            if f and row is not pk:
                row[j:] = [(u - f * v) % q for u, v in zip(row[j:], prow)]
        # one swap, of rows or of columns, negates the determinant
        yield order[j], (-x if (i != k) != (c != j) else x)
        k += 1
    if order != list(range(ncols)):
        _unswap(a, order)


def _eliminate_packed(a: list, ncols: int, p: int, q: int, forward: bool):
    """``_eliminate`` on packed rows: each row of ``a`` packs into one
    integer, and a row update is R += (q - f) P, P the pivot row, scaled
    and packed once per pivot; entry (r, j) is slot j of R read mod q.

    Every row starts reduced, below q.  A pivot row is read, reduced,
    scaled and packed again, so it restarts below q; every other row gets
    at most one update per pivot, adding at most (q-1)^2 to a slot.  There
    are at most min(rows, ncols) pivots, so no slot exceeds
    (q-1) + min(rows, ncols) (q-1)^2.

    Rows whose entry in the pivot column is zero are skipped
    (``compress``).  A column without a unit among the rows left (never
    over a field unless the column is zero there) unpacks every row for
    ``_pivot`` and its column swap, and packs them again.  The rows are
    written back to ``a``, reduced, when the generator ends.
    """
    n, width = len(a), len(a[0])
    w, tc = _slots((q - 1) + min(n, ncols) * (q - 1) ** 2)
    mask = (1 << w) - 1
    rows = [_pack_row(row, w, tc) for row in a]
    order = list(range(ncols))
    k = 0
    for j in range(ncols):
        if k == n:
            break
        s = j * w
        col = [(v >> s) & mask for v in rows]
        for i in range(k, n):
            if col[i] % p:
                c, g = j, 1
                break
        else:
            if not any(v % q for v in col[k:]):
                continue
            a[:] = [[v % q for v in _unpack_row(v, width, w, tc)] for v in rows]
            i, c = _pivot(a, k, j, ncols, partial(gcd, q), q)
            if c != j:
                _swap_columns(a, j, c)
                order[j], order[c] = order[c], order[j]
            rows = [_pack_row(row, w, tc) for row in a]
            col = [row[j] for row in a]
            g = gcd(col[i], q)
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            col[k], col[i] = col[i], col[k]
        x = col[k] % q
        inv_u = pow(x // g, -1, q)
        # columns left of j are zero mod q in the pivot row: pack from j on
        prow = _pack_row([v * inv_u % q for v in
                          _unpack_row(rows[k] >> s, width - j, w, tc)],
                         w, tc) << s
        rows[k] = prow
        lo = k + 1 if forward else 0
        for r in compress(range(lo, n), col[lo:]):
            # the entry over p^v is f; add (q - f) P, nothing when f = 0
            m = -(col[r] % q // g) % q
            if m and r != k:
                rows[r] += m * prow
        yield order[j], (-x if (i != k) != (c != j) else x)
        k += 1
    a[:] = [[v % q for v in _unpack_row(v, width, w, tc)] for v in rows]
    if order != list(range(ncols)):
        _unswap(a, order)


def _unswap(a: list, order: list) -> None:
    """Put the columns that ``_eliminate`` swapped back in input order."""
    for row in a:
        row[:len(order)] = [v for _, v in sorted(zip(order, row))]


def _int_inv(x: tuple, n: int, p: int, q: int) -> tuple:
    """Inverse over Z_q, q a power of the prime p.

    At n <= 2, the adjugate over the determinant: over the local ring Z_q a
    matrix is invertible exactly when its determinant is a unit, and the
    inverse is unique.  Above, ``_eliminate`` on [x | I], stopped at the
    first pivot that is missing, moved or not a unit, and otherwise run to
    its end, so that the rows hold [I | x^-1]."""
    if n <= 2:
        det = x[0] if n == 1 else (x[0] * x[3] - x[1] * x[2]) % q
        if det % p == 0:
            raise NonInvertible("no unit pivot")
        t = pow(det, -1, q)
        if n == 1:
            return (t,)
        return (x[3] * t % q, -x[1] * t % q, -x[2] * t % q, x[0] * t % q)
    a = _square(x, n)
    for i, row in enumerate(a):
        row.extend([0] * n)
        row[n + i] = 1
    k = 0
    for c, d in _eliminate(a, n, p, q):
        if c != k or d % p == 0:
            break
        k += 1
    if k < n:
        raise NonInvertible("no unit pivot")
    return tuple(chain.from_iterable([row[n:] for row in a]))


def _summand_det(mat, g: GaloisRingSpec):
    """Determinant over a rank > 1 summand (coefficient tuples): forward
    elimination with the pivot rule of ``_eliminate``, no scaling.

    The regular representation would give the norm of the determinant, so
    these summands do not go through the integer kernel.
    """
    n = len(mat)
    p, q, mod = g.p, g.q, g.modulus

    def val(cs):
        return gcd(q, *cs)

    a = [row[:] for row in mat]
    det = g.one()
    sign = 1
    for j in range(n):
        for i in range(j, n):
            if any(cv % p for cv in a[i][j]):
                break
        else:
            piv = _pivot(a, j, j, n, val, q)
            if piv is None:
                return g.zero()
            i, c = piv
            if c != j:
                _swap_columns(a, j, c)
                sign = -sign
        if i != j:
            a[j], a[i] = a[i], a[j]
            sign = -sign
        x = a[j][j]
        det = _pmul(det, x, mod, q)
        pv = val(x)
        # x = p^v * u: a row below subtracts (its entry / p^v) * u^-1 times row j
        inv_u = _pinv(tuple(cv // pv for cv in x), g)
        for row in a[j + 1:]:
            if any(row[j]):
                f = _pmul(tuple(cv // pv for cv in row[j]), inv_u, mod, q)
                row[j:] = [_psub(u, _pmul(f, v, mod, q), q)
                           for u, v in zip(row[j:], a[j][j:])]
    return det if sign == 1 else _pneg(det, q)


def mat_inv(a: Matrix) -> Matrix:
    if a._inv is None:
        _set_inv(a, _inverse(a))
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
    out = []
    for g, x in zip(a.ring.summands, a.data):
        if g.r > 1:
            out.append(_summand_det(_square(x, n), g))
            continue
        # the product of the pivots, or 0 when a column has none
        pivots = list(_eliminate(_square(x, n), n, g.p, g.q, forward=True))
        det = prod(v for _, v in pivots) if len(pivots) == n else 0
        out.append((det % g.q,))
    return RingElement(a.ring, tuple(out))


def is_invertible(a: Matrix) -> bool:
    try:
        mat_inv(a)
        return True
    except NonInvertible:
        return False


def _random_invertible(ring: RingSpec, n: int, rng) -> Matrix:
    """A uniform invertible n x n matrix over ring, by rejection over at
    most 256 draws of ``_random_data``; NonInvertible after that."""
    for _ in range(256):
        a = Matrix._of(n, ring, _random_data(ring, n * n, rng))
        if is_invertible(a):
            return a
    raise NonInvertible(f"no invertible matrix in 256 draws of degree {n}")


# --- Kronecker and wreath representations ---------------------------------

def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    if a.ring != b.ring:
        raise RingMismatch("Kronecker factors over different rings")
    na, nb = a.n, b.n
    return Matrix._of(na * nb, a.ring, tuple(
        _kron_summand(x, (na, na), y, (nb, nb), g)
        for g, x, y in zip(a.ring.summands, a.data, b.data)))


def _kron_summand(x: tuple, xshape: tuple, y: tuple, yshape: tuple,
                  g: GaloisRingSpec) -> tuple:
    """Flat Kronecker product of two flat summand tuples, each of shape
    (rows, cols)."""
    q = g.q
    (xr, xc), (yr, yc) = xshape, yshape
    out = []
    for i in range(0, xr * xc, xc):
        xrow = x[i:i + xc]
        for j in range(0, yr * yc, yc):
            yrow = y[j:j + yc]
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
    return tuple([k2[i] for i in k1])


def _tuple_index(a: tuple, n: int) -> int:
    idx = 0
    for x in a:
        idx = idx * n + x
    return idx


def block_perm_matrix(k: tuple, n: int, ring: RingSpec) -> Matrix:
    """Degree n*m matrix permuting coordinate blocks: block row i -> block column k[i]."""
    return _perm_matrix(tuple(k[i // n] * n + i % n
                              for i in range(n * len(k))), ring)


def tensor_perm_matrix(k: tuple, n: int, ring: RingSpec) -> Matrix:
    """Degree n^m matrix moving tensor slot i to slot k[i] on pure tensors."""
    kinv = perm_inverse(k)
    return _perm_matrix(tuple(_tuple_index(tuple(a[j] for j in kinv), n)
                              for a in product(range(n), repeat=len(k))), ring)


def _wreath_coords(hs: list[Matrix], k: tuple) -> tuple[RingSpec, int]:
    """The common ring and degree of the wreath coordinates h_1..h_m."""
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
    return ring, n


def imprimitive_rep(hs: list[Matrix], k: tuple) -> Matrix:
    """The wreath element (h_1..h_m; k) acting on the m-fold direct sum
    (degree n*m): on row tuples (u_1..u_m), component j of the image is
    u_i^{h_i} with i = k^{-1}(j)."""
    ring, n = _wreath_coords(hs, k)
    m = len(hs)
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


def product_rep(hs: list[Matrix], k: tuple) -> Matrix:
    """The wreath element (h_1..h_m; k) acting on the m-fold tensor power
    (degree n^m): h_1 (x) ... (x) h_m, then tensor slot i moves to k[i]."""
    ring, n = _wreath_coords(hs, k)
    return mat_mul(kron_all(hs), tensor_perm_matrix(k, n, ring))


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

    @cached_property
    def table(self) -> tuple:
        """Per summand: (basis, inverse), r' x r' integer matrices mod q as
        row tuples, r' the dst rank and r the src rank.

        Column j*r + i of ``basis`` holds the dst coefficients of
        root^i * x'^j, x' the dst generator and j below d = r'/r.  These are
        a basis of the dst summand over the src summand, so ``inverse``
        gives unique coordinates; the first r columns span the image.
        """
        out = []
        for gs, gd, root in zip(self.src.summands, self.dst.summands, self.roots):
            mod, q, r = gd.modulus, gd.q, gs.r
            x = tuple(int(k == 1) for k in range(gd.r))
            cols = [gd.one()]
            for k in range(1, gd.r):
                cols.append(_pmul(cols[-1], root, mod, q) if k < r
                            else _pmul(cols[k - r], x, mod, q))
            basis = tuple(zip(*cols))
            inv = _int_inv(sum(basis, ()), gd.r, gd.p, q)
            out.append((basis, tuple(inv[k:k + gd.r]
                                     for k in range(0, gd.r * gd.r, gd.r))))
        return tuple(out)

    def apply(self, a: RingElement) -> RingElement:
        return RingElement(self.dst, tuple(
            self.apply_coeffs(s, cs) for s, cs in enumerate(a.coeffs)))

    def apply_coeffs(self, s: int, cs: tuple) -> tuple:
        """apply on summand s, coefficient tuples in and out: the first
        len(cs) = r columns of the basis times cs."""
        q = self.dst.summands[s].q
        return tuple([sum(map(mul, row, cs)) % q for row in self.table[s][0]])

    def coords(self, s: int, target: tuple) -> list:
        """The src coefficient tuples c_0..c_{d-1} of target (a dst summand s
        coefficient tuple) written as the sum of apply(c_j) * x'^j."""
        q, r = self.dst.summands[s].q, self.src.summands[s].r
        z = [sum(map(mul, row, target)) % q for row in self.table[s][1]]
        return [tuple(z[k:k + r]) for k in range(0, len(z), r)]

    def preimage_coeffs(self, s: int, target: tuple):
        """Inverse of apply on summand s, or None when target (a coefficient
        tuple of the dst summand) is outside the subring."""
        first, *rest = self.coords(s, target)
        return None if any(map(any, rest)) else first


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
    for root in _coeff_tuples(g.p, g.r):
        if all(c % g.p == 0 for c in _poly_eval(modulus_src, root, g)):
            break
    else:
        raise NoSuchEmbedding("modulus has no root in the target ring")
    for _ in range(g.m + 2):
        val = _poly_eval(modulus_src, root, g)
        if all(c == 0 for c in val):
            return root
        dval = _poly_eval(deriv, root, g)
        dinv = _pinv(dval, g)
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
    regular-representation block (a zero entry's block is left zero)."""
    r = g.r
    size = n * r
    out = [0] * (size * size)
    for k, cs in enumerate(x):
        if not any(cs):
            continue
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
        dst = Zmod(g.q)
        x = a.data[0] if g.r > 1 else tuple((v,) for v in a.data[0])
        return Matrix._of(a.n * d, dst, (_rep_data(x, a.n, g),))
    if kind == "crt-lift":
        big, idx = target[1], target[2]
        if len(a.ring.summands) != 1 or a.ring.summands[0] != big.summands[idx]:
            raise NoSuchEmbedding("source ring is not the chosen summand")
        return _crt_lift(a, big, (idx,))
    raise NoSuchEmbedding(f"unknown ring-change kind {kind!r}")


def crt_project(a: Matrix, positions: tuple, sub: RingSpec) -> Matrix:
    """Restriction of a to the summands listed in positions, as a matrix over sub."""
    return Matrix._of(a.n, sub, tuple(a.data[s] for s in positions))


def _crt_lift(h: Matrix, big: RingSpec, positions: tuple) -> Matrix:
    """Matrix over big agreeing with h on the listed summands, identity
    elsewhere; ``crt_project`` to those positions gives h back."""
    back = {pos: t for t, pos in enumerate(positions)}
    ident = identity(h.n, big).data
    return Matrix._of(h.n, big, tuple(
        h.data[back[s]] if s in back else ident[s] for s in range(len(ident))))


# --- words and vectors ------------------------------------------------------

def word_eval(gens: list[Matrix], w) -> Matrix:
    """Ordered product of generators/inverses; the empty word is the identity.
    Each inverse is the generator's own cached one (``mat_inv``)."""
    if not gens:
        raise IndexOutOfRange("empty generator list")
    out = None
    for x in w:
        i = abs(x) - 1
        if x == 0 or i >= len(gens):
            raise IndexOutOfRange(f"letter {x} outside 1..{len(gens)}")
        m = gens[i] if x > 0 else mat_inv(gens[i])
        out = m if out is None else mat_mul(out, m)
    return out if out is not None else identity(gens[0].n, gens[0].ring)


def vector_act(v: tuple, g: Matrix) -> tuple:
    """Right action of g on a row vector of RingElements."""
    if len(v) != g.n:
        raise ShapeMismatch(f"vector length {len(v)} vs degree {g.n}")
    return tuple(_entries(g.ring, _act(_vector_data(v, g.ring), g)))


def _act(x: tuple, g: Matrix) -> tuple:
    """Per-summand flat data of the row vector x (flat as ``_vector_data``
    stores it) times g."""
    n = g.n
    out = []
    for gs, xs, d in zip(g.ring.summands, x, g.data):
        q = gs.q
        if gs.r == 1:
            out.append(tuple([sum(map(mul, xs, d[j::n])) % q for j in range(n)]))
        else:
            w, folds = _fold_table(n, gs)
            xs = [_pack(cs, w) for cs in xs]
            ys = [_pack(cs, w) for cs in d]
            out.append(tuple([_unpack(sum(map(mul, xs, ys[j::n])), w, folds, q)
                              for j in range(n)]))
    return tuple(out)


def vector(ring: RingSpec, ints) -> tuple:
    return tuple(v if isinstance(v, RingElement) else ring.from_int(v)
                 for v in ints)
