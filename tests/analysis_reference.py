"""Reference analysis code for the differential tests.

These are the per-summand solver and the field nullspace that
``matcrypt.analysis`` used before its linear algebra moved onto the shared
elimination kernel of ``matcrypt.matrix``, and the coset attack's search
over letter tuples that it used before the search moved onto packed words,
kept unchanged apart from the imports and names.  ``ref_solve_linear`` can
decline a solvable system over Z/p^m with m > 1 (its pivots are of least
valuation within a column only), so the tests compare against it over
fields and against brute force elsewhere.
"""

from dataclasses import dataclass

from matcrypt.analysis import INCONCLUSIVE
from matcrypt.errors import CapExceeded, ShapeMismatch
from matcrypt.ring import RingElement, _padd, _pmul, _ppow, _psub, ring_inv
from matcrypt.words import FreeWord, fw_inv, fw_mul, push_reduced


def _val(c, p, m):
    if c == 0:
        return m
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def _elem_val(cs, p, m):
    return min(_val(c, p, m) for c in cs)


def ref_solve_linear(ring, columns, target):
    if not columns:
        return None
    height = len(target)
    per_summand = []
    for s, gs in enumerate(ring.summands):
        sol = _solve_local(
            [[col[i].coeffs[s] for col in columns] for i in range(height)],
            [target[i].coeffs[s] for i in range(height)], gs)
        if sol is None:
            return None
        per_summand.append(sol)
    out = []
    for j in range(len(columns)):
        out.append(RingElement(ring, tuple(per_summand[s][j]
                                           for s in range(len(ring.summands)))))
    return out


def _solve_local(rows, rhs, gs):
    p, m, q, mod = gs.p, gs.m, gs.q, gs.modulus
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    piv_cols = []
    row_at = 0
    for col in range(ncol):
        best, best_val = None, m + 1
        for i in range(row_at, nrow):
            val = _elem_val(a[i][col], p, m)
            if val < best_val:
                best, best_val = i, val
        if best is None or best_val >= m:
            continue
        a[row_at], a[best] = a[best], a[row_at]
        pivot = a[row_at][col]
        unit = tuple(c // (p ** best_val) for c in pivot)
        uinv = _ppow(unit, gs.units_order() - 1, mod, q)
        a[row_at] = [_pmul(c, uinv, mod, q) for c in a[row_at]]
        for i in range(nrow):
            if i == row_at:
                continue
            val_i = _elem_val(a[i][col], p, m)
            if val_i >= best_val:
                f = tuple(c // (p ** best_val) for c in a[i][col])
                a[i] = [_psub(c, _pmul(f, d, mod, q), q)
                        for c, d in zip(a[i], a[row_at])]
        piv_cols.append((row_at, col, best_val))
        row_at += 1
        if row_at == nrow:
            break
    sol = [gs.zero() for _ in range(ncol)]
    for i, col, val in piv_cols:
        b = a[i][ncol]
        pv = p ** val
        if any(c % pv for c in b):
            return None
        sol[col] = tuple((c // pv) % q for c in b)
    for i in range(nrow):
        acc = gs.zero()
        for j in range(ncol):
            acc = _padd(acc, _pmul(rows[i][j], sol[j], mod, q), q)
        if acc != tuple(c % q for c in rhs[i]):
            return None
    return sol


def ref_nullspace(ring, columns):
    g = ring.summands[0]
    if len(ring.summands) != 1 or g.m != 1:
        raise ShapeMismatch("nullspace solver expects a single finite field")
    ncols = len(columns)
    height = len(columns[0]) if ncols else 0
    rows = [[columns[j][i] for j in range(ncols)] for i in range(height)]
    pivots = {}
    work = [row[:] for row in rows]
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if not work[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = ring_inv(work[r][c])
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][c].is_zero():
                f_ = work[i][c]
                work[i] = [x - f_ * y for x, y in zip(work[i], work[r])]
        pivots[c] = r
        r += 1
    free_cols = [c for c in range(ncols) if c not in pivots]
    out = []
    one, zero = ring.one(), ring.zero()
    for fc in free_cols:
        coeffs = [zero] * ncols
        coeffs[fc] = one
        for c, ri in pivots.items():
            coeffs[c] = -work[ri][fc]
        out.append(tuple(coeffs))
    return out


@dataclass
class RefCosetAttack:
    table: list          # (model element key, representative X-word)
    searched: dict       # free word letters -> model image key of the f-image
    bound: int
    pk: object
    model: object

    def decrypt(self, cipher: FreeWord):
        """Model image of the plaintext, or INCONCLUSIVE."""
        for key, rep_word in self.table:
            q = fw_mul(cipher, fw_inv(rep_word))
            hit = self.searched.get(q.letters)
            if hit is not None and hit == self.model.identity_key():
                return key
        return INCONCLUSIVE


def ref_coset_attacks(pk, model, max_bound: int) -> list:
    """List the model group, pick coset representatives f^-1(h_i), and decide
    cosets by bounded-length search over products of public generators; one
    attack per bound 0..max_bound.  The search adds words radius by radius,
    so the ball of each bound is the first entries of the largest ball."""
    from matcrypt.homcrypt import f_inverse_word

    if model.order() > 4096:
        raise CapExceeded("model group too large for the coset attack")
    # one representative word per model element, by BFS over Y letters
    reps: dict = {}
    k = pk.presentation.k
    frontier = [FreeWord(k, ())]
    reps[model.identity_key()] = FreeWord(k, ())
    while frontier and len(reps) < model.order():
        nxt = []
        for w in frontier:
            for letter in range(1, k + 1):
                for sgn in (1, -1):
                    w2 = fw_mul(w, FreeWord(k, (sgn * letter,)))
                    key = model.eval_key(w2)
                    if key not in reps:
                        reps[key] = w2
                        nxt.append(w2)
        frontier = nxt
    table = [(key, f_inverse_word(pk, w)) for key, w in reps.items()]
    # bounded-length search table: products of X-generators and inverses
    searched: dict = {(): model.identity_key()}
    steps = []
    for idx, xw in enumerate(pk.x_words):
        y = pk.f_table[idx] + 1
        x = FreeWord(k, tuple(xw))
        steps.append((x.letters, model.gen_key(y, 1)))
        steps.append((fw_inv(x).letters, model.gen_key(y, -1)))
    frontier2 = [((), model.identity_key())]
    sizes = [len(searched)]
    for _ in range(max_bound):
        nxt = []
        for letters, img in frontier2:
            for chunk, gk in steps:
                w2 = tuple(push_reduced(list(letters), chunk))
                if w2 not in searched:
                    img2 = model.mul_key(img, gk)
                    searched[w2] = img2
                    nxt.append((w2, img2))
        frontier2 = nxt
        sizes.append(len(searched))
    items = list(searched.items())
    return [RefCosetAttack(table, dict(items[:size]), bound, pk, model)
            for bound, size in enumerate(sizes)]
