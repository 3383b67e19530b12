"""Reference matrix kernels for the differential tests.

These are the entry-by-entry ``RingElement`` kernels that the flat
per-summand kernels of ``matcrypt.matrix`` replaced, kept unchanged apart
from returning plain row tuples.  They read the input only through the
``rows`` view and share no arithmetic with the kernels under test beyond
``RingElement`` and the per-summand polynomial helpers of ``matcrypt.ring``.
"""

from matcrypt.errors import (
    NoSuchEmbedding,
    NonInvertible,
    RingMismatch,
    ShapeMismatch,
    UnsupportedDecomposition,
)
from matcrypt.matrix import _eliminate, _int_inv
from matcrypt.ring import (
    RingElement,
    _padd,
    _pmul,
    _pneg,
    _ppow,
    _preduce,
    _psub,
)


def ref_mat_mul(a, b):
    if a.ring != b.ring:
        raise RingMismatch("matrices over different rings")
    if a.n != b.n:
        raise ShapeMismatch(f"degree {a.n} vs {b.n}")
    n, ring = a.n, a.ring
    arows, brows = a.rows, b.rows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            per = []
            for s, g in enumerate(ring.summands):
                q = g.q
                if g.r == 1:
                    acc = 0
                    for k in range(n):
                        acc += arows[i][k].coeffs[s][0] * brows[k][j].coeffs[s][0]
                    per.append((acc % q,))
                else:
                    accl = [0] * (2 * g.r - 1)
                    for k in range(n):
                        x = arows[i][k].coeffs[s]
                        y = brows[k][j].coeffs[s]
                        for ii, xi in enumerate(x):
                            if xi:
                                for jj, yj in enumerate(y):
                                    accl[ii + jj] += xi * yj
                    per.append(_preduce(accl, g.modulus, q))
            row.append(RingElement(ring, tuple(per)))
        out.append(tuple(row))
    return tuple(out)


def _summand_entries(a, s):
    return [[a.rows[i][j].coeffs[s] for j in range(a.n)] for i in range(a.n)]


def _summand_inv(mat, g):
    n = len(mat)
    p, q, mod = g.p, g.q, g.modulus
    one, zero = g.one(), g.zero()
    a = [row[:] + [one if i == j else zero for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if any(c % p for c in a[i][col]):
                piv = i
                break
        if piv is None:
            raise NonInvertible("no unit pivot")
        a[col], a[piv] = a[piv], a[col]
        inv_p = _ppow(a[col][col], g.units_order() - 1, mod, q)
        a[col] = [_pmul(inv_p, c, mod, q) for c in a[col]]
        for i in range(n):
            if i != col and any(a[i][col]):
                f = a[i][col]
                a[i] = [_psub(c, _pmul(f, d, mod, q), q)
                        for c, d in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _summand_det(mat, g):
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


def _cofactor_det(mat, g):
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


def ref_mat_inv(a):
    parts = [_summand_inv(_summand_entries(a, s), g)
             for s, g in enumerate(a.ring.summands)]
    return tuple(
        tuple(RingElement(a.ring, tuple(parts[s][i][j]
                                        for s in range(len(a.ring.summands))))
              for j in range(a.n))
        for i in range(a.n))


def ref_mat_det(a):
    return RingElement(a.ring, tuple(
        _summand_det(_summand_entries(a, s), g)
        for s, g in enumerate(a.ring.summands)))


def ref_vector_act(v, g):
    if len(v) != g.n:
        raise ShapeMismatch(f"vector length {len(v)} vs degree {g.n}")
    out = []
    for j in range(g.n):
        acc = g.ring.zero()
        for i in range(g.n):
            if not v[i].is_zero():
                acc = acc + v[i] * g.rows[i][j]
        out.append(acc)
    return tuple(out)


def ref_mat_kron(a, b):
    if a.ring != b.ring:
        raise RingMismatch("Kronecker factors over different rings")
    na, nb = a.n, b.n
    n = na * nb
    rows = []
    for i in range(n):
        ia, ib = divmod(i, nb)
        row = []
        for j in range(n):
            ja, jb = divmod(j, nb)
            row.append(a.rows[ia][ja] * b.rows[ib][jb])
        rows.append(tuple(row))
    return tuple(rows)


def ref_crt_project(a, positions, sub):
    return tuple(
        tuple(RingElement(sub, tuple(e.coeffs[s] for s in positions)) for e in row)
        for row in a.rows)


def ref_matrix_obj(n, ring_obj, rows):
    """The serialized form of a matrix given as rows of RingElements."""
    return {"n": n, "ring": ring_obj,
            "rows": [[[list(cs) for cs in e.coeffs] for e in row] for row in rows]}


# --- the two subring-embedding decoders that the embedding's basis table
# replaced: ``SubringEmbedding.apply_coeffs`` and ``preimage_coeffs`` with
# ``_embedding_decode`` (from matcrypt.matrix), and ``_module_decode_table``
# with ``_module_decompose`` (from matcrypt.trapdoor), without their caches.
# As before, they invert with the elimination kernel of matcrypt.matrix.


def ref_apply_coeffs(emb, s, cs):
    gd, root = emb.dst.summands[s], emb.roots[s]
    acc = gd.zero()
    power = gd.one()
    for c in cs:
        if c:
            acc = _padd(acc, tuple(x * c % gd.q for x in power), gd.q)
        power = _pmul(power, root, gd.modulus, gd.q)
    return acc


def ref_preimage_coeffs(emb, s, target):
    sel_rows, inv_sub = ref_embedding_decode(emb)[s]
    gs = emb.src.summands[s]
    rhs = [target[i] for i in sel_rows]
    cand = tuple(sum(inv_sub[i][j] * rhs[j] for j in range(gs.r)) % gs.q
                 for i in range(gs.r))
    return cand if ref_apply_coeffs(emb, s, cand) == target else None


def ref_embedding_decode(emb):
    """Per summand: (selected row indices, inverse r x r integer matrix mod q)."""
    out = []
    for gs, gd, root in zip(emb.src.summands, emb.dst.summands, emb.roots):
        cols = []
        power = gd.one()
        for _ in range(gs.r):
            cols.append(power)
            power = _pmul(power, root, gd.modulus, gd.q)
        r = gs.r
        pivots = list(_eliminate([list(c) for c in cols], gd.r, gd.p, gd.q))
        if len(pivots) < r or any(v % gd.p == 0 for _, v in pivots):
            raise NoSuchEmbedding("embedding coordinate matrix is degenerate")
        sel = tuple(c for c, _ in pivots)
        inv = _int_inv(tuple(cols[j][i] for i in sel for j in range(r)),
                       r, gd.p, gd.q)
        out.append((sel, [inv[i:i + r] for i in range(0, r * r, r)]))
    return tuple(out)


def ref_module_decode_table(emb):
    per = []
    d = None
    for gs, gd, root in zip(emb.src.summands, emb.dst.summands, emb.roots):
        dloc = gd.r // gs.r
        if d is None:
            d = dloc
        elif d != dloc:
            raise UnsupportedDecomposition("mixed extension degrees")
        # basis of dst over src: phi(x^i) * x'^j, coordinates over Z_{p^m}
        cols = []
        xp = gd.one()
        phi_pows = []
        cur = gd.one()
        for _ in range(gs.r):
            phi_pows.append(cur)
            cur = _pmul(cur, root, gd.modulus, gd.q)
        for j in range(dloc):
            for i in range(gs.r):
                col = _pmul(phi_pows[i], xp, gd.modulus, gd.q)
                cols.append(col)
            xp = _pmul(xp, (0, 1) + (0,) * (gd.r - 2), gd.modulus, gd.q)
        r = gd.r
        inv = _int_inv(tuple(cols[c][i] for i in range(r) for c in range(r)),
                       r, gd.p, gd.q)
        per.append([inv[i:i + r] for i in range(0, r * r, r)])
    return {"d": d, "inv": per}


def ref_module_decompose(emb, e, table):
    """e in dst as sum phi(c_j) * x'^j; returns [c_0, ..., c_{d-1}] in src."""
    d = table["d"]
    comps = [[] for _ in range(d)]
    for sidx, (gs, gd) in enumerate(zip(emb.src.summands, emb.dst.summands)):
        inv = table["inv"][sidx]
        target = e.coeffs[sidx]
        z = [sum(inv[i][j] * target[j] for j in range(gd.r)) % gd.q
             for i in range(gd.r)]
        for j in range(d):
            comps[j].append(tuple(z[j * gs.r: (j + 1) * gs.r]))
    return [RingElement(emb.src, tuple(comps[j])) for j in range(d)]


def ref_random_entries(ring, count, rng):
    """count seeded RingElements drawn one element at a time, each summand
    in turn and each coefficient in turn, checked and reduced by
    ``RingSpec.element``."""
    return [ring.element([tuple(rng.below(g.q) for _ in range(g.r))
                          for g in ring.summands])
            for _ in range(count)]
