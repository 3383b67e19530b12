"""Tree-directed polynomial-time solvers for membership and transporter queries.

Knowing the derivation tree, membership testing recurses through each node:
conjugations are undone, ring changes inverted, CRT blocks projected, wreath
elements split into (coordinate list, permutation) by block/probe structure,
and tensor factors recovered by Kronecker factorization.  Tensor-style
factorizations are unique only up to scalar twists, so the recursion under
tensor and product-wreath nodes carries explicit unit-twist sets.

The Linear Transporter Problem reduces at wreath nodes to bipartite maximum
matching over per-coordinate solvability, exactly mirroring the membership
recursion; leaves solve directly (unipotent: a linear condition; other leaf
groups: bounded exhaustive search).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    NotDecomposable,
    NotWreathShaped,
    ShapeMismatch,
    UnsupportedDecomposition,
)
from .instance import (
    DerivationTree,
    _info,
    leaf_contains,
    leaf_enumerate,
    tree_eval,
    _diag_power_set,
)
from .matrix import (
    Matrix,
    RingElement,
    _kron_summand,
    _to_coeffs,
    _to_entry,
    _zero,
    crt_project,
    find_embedding,
    identity,
    kron_all,
    mat_det,
    mat_mul,
    mat_scale,
    perm_inverse,
    regular_rep_block,
    ring_change,
    tensor_perm_matrix,
    vector_act,
    wreath_rep,
)
from .ring import RingSpec, _pmul
from .ring import units as ring_units

TWIST_CAP = 4096
UNITS_CAP = 4096
PERM_CAP = 720  # 6! candidate permutations in product-action splitting


@dataclass(frozen=True)
class MembershipVerdict:
    accepted: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class NoSolution:
    certified: bool = False


# ---------------------------------------------------------------------------
# splitting primitives
# ---------------------------------------------------------------------------

def _first_unit(d, g):
    """Index of the first unit among stored summand entries, or None."""
    p = g.p
    for k, x in enumerate(d):
        if (x % p if g.r == 1 else any(c % p for c in x)):
            return k
    return None


def _block(d: tuple, size: int, n: int, bi: int, bj: int) -> tuple:
    """Flat n x n block (bi, bj) of a flat summand tuple of degree size."""
    out = []
    for row in range(bi * n, bi * n + n):
        start = row * size + bj * n
        out.extend(d[start:start + n])
    return tuple(out)


def _split2_summand(d: tuple, g, n1: int, n2: int):
    """Kronecker split of a flat degree n1*n2 summand tuple into flat factors."""
    n = n1 * n2
    k = _first_unit(d, g)
    if k is None:
        raise NotDecomposable("no unit entry in a summand")
    i0, j0 = divmod(k, n)
    bi, k0 = divmod(i0, n2)
    bj, l0 = divmod(j0, n2)
    q, mod = g.q, g.modulus
    block = _block(d, n, n2, bi, bj)
    if g.r == 1:
        winv = pow(d[k], -1, q)
        b = tuple(x * winv % q for x in block)
    else:
        winv = _pow_unit_inv(d[k], g)
        b = tuple(_pmul(x, winv, mod, q) for x in block)
    a = tuple(d[(i * n2 + k0) * n + j * n2 + l0]
              for i in range(n1) for j in range(n1))
    if _kron_summand(a, n1, b, n2, g) != d:
        raise NotDecomposable("entries inconsistent with a Kronecker product")
    return a, b


def _pow_unit_inv(cs, gspec):
    from .ring import _ppow
    return _ppow(cs, gspec.units_order() - 1, gspec.modulus, gspec.q)


def _split2(g: Matrix, n1: int, n2: int) -> tuple[Matrix, Matrix]:
    parts = [_split2_summand(d, gs, n1, n2)
             for gs, d in zip(g.ring.summands, g.data)]
    return (Matrix._of(n1, g.ring, tuple(a for a, _ in parts)),
            Matrix._of(n2, g.ring, tuple(b for _, b in parts)))


def _first_unit_entry(m: Matrix) -> RingElement:
    """Per-summand first unit entry, combined into one unit of the full ring."""
    coeffs = []
    for gs, d in zip(m.ring.summands, m.data):
        k = _first_unit(d, gs)
        if k is None:
            raise NotDecomposable("no unit entry in a summand")
        coeffs.append(_to_coeffs(gs, d[k]))
    return RingElement(m.ring, tuple(coeffs))


def tensor_split(g: Matrix, degrees) -> list[Matrix]:
    """Kronecker factors of g, degrees as listed.

    Factors after the first are normalized (per CRT summand, the first unit
    entry in row-major scan equals 1); the single leading unit multiplier is
    absorbed into the first factor.  Reassembly by mat_kron is exact.
    """
    degrees = list(degrees)
    total = 1
    for d in degrees:
        total *= d
    if g.n != total:
        raise ShapeMismatch(f"degree {g.n} is not the product of {degrees}")
    if len(degrees) == 1:
        return [g]
    factors = [g]
    for d in degrees[:-1]:
        last = factors.pop()
        rest = last.n // d
        a, b = _split2(last, d, rest)
        factors.extend([a, b])
    # push normalization scales of factors 2..s into the first factor
    from .ring import ring_inv
    lead = factors[0]
    normed = [None] * len(factors)
    normed[0] = lead
    for i in range(1, len(factors)):
        u = _first_unit_entry(factors[i])
        if u.is_one():
            normed[i] = factors[i]
            continue
        normed[i] = mat_scale(factors[i], ring_inv(u))
        normed[0] = mat_scale(normed[0], u)
    if kron_all(normed) != g:
        raise NotDecomposable("reassembly mismatch")
    return normed


def wreath_split(g: Matrix, n: int, m: int, mode: str):
    """Recover (coordinate matrices, permutation) from a wreath-shaped matrix.

    Imprimitive recovery is exact (the block pattern is the probe image set);
    product-action factors are normalized like tensor_split, so the
    coordinate list is canonical up to the same unit convention.
    """
    if mode == "imprimitive":
        if g.n != n * m:
            raise ShapeMismatch(f"degree {g.n} != {n}*{m}")
        k = []
        zeros = [_zero(gs) for gs in g.ring.summands]
        for i in range(m):
            cols = [j for j in range(m)
                    if any(x != z for d, z in zip(g.data, zeros)
                           for x in _block(d, g.n, n, i, j))]
            if len(cols) != 1:
                raise NotWreathShaped(
                    "a block row has no unique nonzero block")
            k.append(cols[0])
        if sorted(k) != list(range(m)):
            raise NotWreathShaped("block pattern is not a permutation")
        hs = [Matrix._of(n, g.ring, tuple(_block(d, g.n, n, i, k[i])
                                          for d in g.data))
              for i in range(m)]
        return hs, tuple(k)
    if mode == "product":
        for hs, k in product_split_candidates(g, n, m):
            return hs, k
        raise NotWreathShaped("no permutation yields a Kronecker factorization")
    raise ShapeMismatch(f"unknown wreath mode {mode!r}")


def product_split_candidates(g: Matrix, n: int, m: int):
    """All (factors, k) with g = kron(factors) * S_k, k in lex order."""
    if g.n != n ** m:
        raise ShapeMismatch(f"degree {g.n} != {n}^{m}")
    perms = list(itertools.permutations(range(m)))
    if len(perms) > PERM_CAP:
        raise UnsupportedDecomposition("product-action arity too large")
    for k in perms:
        sk_inv = tensor_perm_matrix(perm_inverse(k), n, g.ring)
        p = mat_mul(g, sk_inv)
        try:
            hs = tensor_split(p, [n] * m)
        except NotDecomposable:
            continue
        yield hs, k


# ---------------------------------------------------------------------------
# scalar subgroups
# ---------------------------------------------------------------------------

_scalar_cache: dict = {}


def scalar_subgroup(t: DerivationTree) -> dict:
    """{key: u} for all units u with u*I in the group of t (desk-scale sets)."""
    if t in _scalar_cache:
        return _scalar_cache[t]
    out = _scalar_subgroup(t)
    if len(out) > TWIST_CAP:
        raise UnsupportedDecomposition("scalar subgroup exceeds the twist cap")
    _scalar_cache[t] = out
    return out


def _elem_key(u: RingElement):
    return u.coeffs


def _scalar_subgroup(t: DerivationTree) -> dict:
    info = _info(t)
    ring = info.ring
    if t.is_leaf():
        spec = t.base
        n = info.degree
        out = {}
        if spec.kind in ("unipotent-cyclic", "trivial"):
            one = ring.one()
            return {_elem_key(one): one}
        if spec.kind == "special-linear":
            one = ring.one()
            for u in _iter_units(ring):
                if u.pow(n) == one:
                    out[_elem_key(u)] = u
            return out
        if spec.kind == "general-linear":
            return {_elem_key(u): u for u in _iter_units(ring)}
        if spec.kind == "diagonal-cyclic":
            powers = _diag_power_set(spec)
            for u in _iter_units(ring):
                if u.coeffs in powers:
                    out[_elem_key(u)] = u
            return out
        raise UnsupportedDecomposition(f"unknown leaf kind {spec.kind!r}")
    lab = t.label
    if lab.kind in ("conjugate", "wreath-imprimitive"):
        return scalar_subgroup(t.children[0])
    if lab.kind == "wreath-product":
        z = scalar_subgroup(t.children[0])
        return _product_sets([z] * lab.m)
    if lab.kind == "tensor":
        return _product_sets([scalar_subgroup(c) for c in t.children])
    if lab.kind in ("direct-same-degree", "crt-assemble"):
        kid_rings = [_info(c).ring for c in t.children]
        if all(r == ring for r in kid_rings):
            return _product_sets([scalar_subgroup(c) for c in t.children])
        # assemble mode: combine per-block scalars, identity off nothing
        per_child = [scalar_subgroup(c) for c in t.children]
        out = {}
        for combo in itertools.product(*(z.values() for z in per_child)):
            coeffs = [None] * len(ring.summands)
            for idx, u in enumerate(combo):
                for tpos, pos in enumerate(info.positions[idx]):
                    coeffs[pos] = u.coeffs[tpos]
            el = RingElement(ring, tuple(coeffs))
            out[_elem_key(el)] = el
            if len(out) > TWIST_CAP:
                raise UnsupportedDecomposition("scalar subgroup too large")
        return out
    if lab.kind == "ring-extend":
        emb = find_embedding(_info(t.children[0]).ring, lab.target)
        z = scalar_subgroup(t.children[0])
        out = {}
        for u in z.values():
            v = emb.apply(u)
            out[_elem_key(v)] = v
        return out
    if lab.kind == "ring-rep":
        z = scalar_subgroup(t.children[0])
        out = {}
        for u in z.values():
            cs = u.coeffs[0]
            if all(c == 0 for c in cs[1:]):
                v = ring.element([(cs[0],)])
                out[_elem_key(v)] = v
        return out
    raise UnsupportedDecomposition(f"unknown operation {lab.kind!r}")


def _iter_units(ring: RingSpec):
    if ring.units_count() > UNITS_CAP:
        raise UnsupportedDecomposition("unit group exceeds the enumeration cap")
    return list(ring_units(ring))


def _product_sets(sets: list[dict]) -> dict:
    out = None
    for z in sets:
        if out is None:
            out = dict(z)
            continue
        nxt = {}
        for a in out.values():
            for b in z.values():
                c = a * b
                nxt[_elem_key(c)] = c
                if len(nxt) > TWIST_CAP:
                    raise UnsupportedDecomposition("scalar product set too large")
        out = nxt
    return out or {}


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def membership(t: DerivationTree, g: Matrix) -> MembershipVerdict:
    """Decide g in G(t) with a replayable decomposition witness."""
    inst = tree_eval(t)
    if g.ring != inst.ring or g.n != inst.n:
        raise ShapeMismatch("query shape does not match the instance")
    wit = _member(t, g)
    if wit is None:
        return MembershipVerdict(False, None)
    return MembershipVerdict(True, wit)


def _member(t: DerivationTree, g: Matrix):
    info = _info(t)
    if t.is_leaf():
        return ("leaf", g) if leaf_contains(t.base, g) else None
    lab = t.label
    if lab.kind == "conjugate":
        inner = mat_mul(mat_mul(info.conj, g), info.conj_inv)
        sub = _member(t.children[0], inner)
        return None if sub is None else ("conjugate", sub)
    if lab.kind == "ring-extend":
        g0 = _unembed(g, _info(t.children[0]).ring, lab.target)
        if g0 is None:
            return None
        sub = _member(t.children[0], g0)
        return None if sub is None else ("ring", sub)
    if lab.kind == "ring-rep":
        g0 = _unrep(g, _info(t.children[0]).ring, lab.d)
        if g0 is None:
            return None
        sub = _member(t.children[0], g0)
        return None if sub is None else ("ring", sub)
    if lab.kind in ("direct-same-degree", "crt-assemble"):
        subs = []
        covered = set()
        for idx, c in enumerate(t.children):
            q = _child_block(g, t, idx)
            covered |= set(info.positions[idx]) if info.positions else set()
            sub = _member(c, q)
            if sub is None:
                return None
            subs.append(sub)
        if not _identity_off(g, covered):
            return None
        return ("crt", tuple(subs))
    if lab.kind == "tensor":
        try:
            factors = tensor_split(g, [_info(c).degree for c in t.children])
        except NotDecomposable:
            return None
        subs = _twist_combine(t.children, factors)
        return None if subs is None else ("tensor", tuple(subs))
    if lab.kind == "wreath-imprimitive":
        try:
            hs, k = wreath_split(g, _info(t.children[0]).degree, lab.m,
                                 "imprimitive")
        except NotWreathShaped:
            return None
        subs = []
        for h in hs:
            sub = _member(t.children[0], h)
            if sub is None:
                return None
            subs.append(sub)
        return ("wreath", k, tuple(subs))
    if lab.kind == "wreath-product":
        n = _info(t.children[0]).degree
        for hs, k in product_split_candidates(g, n, lab.m):
            subs = _twist_combine([t.children[0]] * lab.m, hs)
            if subs is not None:
                return ("wreath", k, tuple(subs))
        return None
    raise UnsupportedDecomposition(f"unknown operation {lab.kind!r}")


def _child_block(g: Matrix, t: DerivationTree, idx: int) -> Matrix:
    """The membership query for child idx of a crt/direct node."""
    info = _info(t)
    child_ring = _info(t.children[idx]).ring
    if child_ring == info.ring:
        # common-ring child: keep its support, identity elsewhere
        return _patch_identity(g, info.positions[idx])
    return crt_project(g, info.positions[idx], child_ring)


def _patch_identity(g: Matrix, support) -> Matrix:
    """g on the summands in support, the identity on the others."""
    ident = identity(g.n, g.ring).data
    return Matrix._of(g.n, g.ring, tuple(
        d if s in support else ident[s] for s, d in enumerate(g.data)))


def _identity_off(g: Matrix, covered: set) -> bool:
    ident = identity(g.n, g.ring).data
    return all(d == ident[s] for s, d in enumerate(g.data) if s not in covered)


def _unembed(g: Matrix, src: RingSpec, dst: RingSpec):
    emb = find_embedding(src, dst)
    data = []
    for s, (gs, gd, d) in enumerate(zip(src.summands, dst.summands, g.data)):
        out = []
        for x in d:
            pre = emb.preimage_coeffs(s, _to_coeffs(gd, x))
            if pre is None:
                return None
            out.append(_to_entry(gs, pre))
        data.append(tuple(out))
    return Matrix._of(g.n, src, tuple(data))


def _unrep(g: Matrix, src: RingSpec, d: int):
    """Invert the regular-representation blow-up, or None."""
    gs = src.summands[0]
    if g.n % d:
        return None
    n, n0 = g.n, g.n // d
    x = g.data[0]
    out = []
    for i in range(n0):
        for j in range(n0):
            start = i * d * n + j * d
            cand = x[start:start + d]
            for bi, brow in enumerate(regular_rep_block(cand, gs)):
                start = (i * d + bi) * n + j * d
                if x[start:start + d] != brow:
                    return None
            out.append(_to_entry(gs, cand))
    return Matrix._of(n0, src, (tuple(out),))


def _twist_combine(children: list, factors: list[Matrix]):
    """Per-factor twist witnesses whose units multiply to one, or None."""
    twist_sets = []
    for c, f in zip(children, factors):
        tw = member_twists(c, f)
        if not tw:
            return None
        twist_sets.append(list(tw.values()))
    one = factors[0].ring.one()
    return _search_unit_product(twist_sets, one)


def _search_unit_product(twist_sets, target):
    """Pick one (u, witness) per set with product of units == target."""
    if len(twist_sets) == 1:
        for u, wit in twist_sets[0]:
            if u == target:
                return [wit]
        return None
    last = {u.coeffs: (u, wit) for u, wit in twist_sets[-1]}
    from .ring import ring_inv

    def rec(i, acc):
        if i == len(twist_sets) - 1:
            need = ring_inv(acc) * target
            hit = last.get(need.coeffs)
            return None if hit is None else [hit[1]]
        for u, wit in twist_sets[i]:
            sub = rec(i + 1, acc * u)
            if sub is not None:
                return [wit] + sub
        return None

    return rec(0, target.ring.one())


_twist_memo: dict = {}


def member_twists(t: DerivationTree, a: Matrix) -> dict:
    """{key: (u, witness)} over units u with a*u in G(t)."""
    memo_key = (t, a.key())
    if memo_key in _twist_memo:
        return _twist_memo[memo_key]
    out = _member_twists(t, a)
    if len(out) > TWIST_CAP:
        raise UnsupportedDecomposition("twist set exceeds cap")
    if len(_twist_memo) > 20000:
        _twist_memo.clear()
    _twist_memo[memo_key] = out
    return out


def _member_twists(t: DerivationTree, a: Matrix) -> dict:
    info = _info(t)
    ring = info.ring
    out: dict = {}
    if t.is_leaf():
        spec = t.base
        if spec.kind == "unipotent-cyclic":
            d = a[1, 1]
            if d.is_unit():
                from .ring import ring_inv
                u = ring_inv(d)
                cand = mat_scale(a, u)
                if leaf_contains(spec, cand):
                    out[_elem_key(u)] = (u, ("leaf", cand))
            return out
        if spec.kind == "trivial":
            d = a[0, 0]
            if d.is_unit():
                from .ring import ring_inv
                u = ring_inv(d)
                cand = mat_scale(a, u)
                if cand.is_identity():
                    out[_elem_key(u)] = (u, ("leaf", cand))
            return out
        if spec.kind == "special-linear":
            det = mat_det(a)
            one = ring.one()
            for u in _iter_units(ring):
                if det * u.pow(a.n) == one:
                    cand = mat_scale(a, u)
                    out[_elem_key(u)] = (u, ("leaf", cand))
            return out
        if spec.kind == "general-linear":
            from .matrix import is_invertible
            if is_invertible(a):
                for u in _iter_units(ring):
                    out[_elem_key(u)] = (u, ("leaf", mat_scale(a, u)))
            return out
        if spec.kind == "diagonal-cyclic":
            if not a.is_diagonal():
                return out
            for u in _iter_units(ring):
                cand = mat_scale(a, u)
                if leaf_contains(spec, cand):
                    out[_elem_key(u)] = (u, ("leaf", cand))
            return out
        raise UnsupportedDecomposition(f"unknown leaf kind {spec.kind!r}")
    lab = t.label
    if lab.kind == "conjugate":
        inner = mat_mul(mat_mul(info.conj, a), info.conj_inv)
        sub = member_twists(t.children[0], inner)
        return {k: (u, ("conjugate", w)) for k, (u, w) in sub.items()}
    if lab.kind == "ring-extend":
        child_ring = _info(t.children[0]).ring
        a0 = _unembed(a, child_ring, lab.target)
        if a0 is None:
            return out
        emb = find_embedding(child_ring, lab.target)
        sub = member_twists(t.children[0], a0)
        for u, w in sub.values():
            v = emb.apply(u)
            out[_elem_key(v)] = (v, ("ring", w))
        return out
    if lab.kind == "ring-rep":
        child_ring = _info(t.children[0]).ring
        a0 = _unrep(a, child_ring, lab.d)
        if a0 is None:
            return out
        sub = member_twists(t.children[0], a0)
        for u, w in sub.values():
            cs = u.coeffs[0]
            if all(c == 0 for c in cs[1:]):
                v = ring.element([(cs[0],)])
                out[_elem_key(v)] = (v, ("ring", w))
        return out
    if lab.kind in ("direct-same-degree", "crt-assemble"):
        per_child = []
        covered = set()
        for idx, c in enumerate(t.children):
            q = _child_block(a, t, idx)
            covered |= set(info.positions[idx])
            tw = member_twists(c, q)
            if not tw:
                return out
            per_child.append(tw)
        rest = [s for s in range(len(ring.summands)) if s not in covered]
        # off all supports the group acts as I, so the twist is forced there
        forced = {}
        for s in rest:
            usum = _solve_unit_scalar(a, s, ring.summands[s])
            if usum is None:
                return out
            forced[s] = usum
        for combo in itertools.product(*(tw.values() for tw in per_child)):
            coeffs = [forced.get(s) for s in range(len(ring.summands))]
            for idx, (w, _) in enumerate(combo):
                child_ring = _info(t.children[idx]).ring
                for tpos, pos in enumerate(info.positions[idx]):
                    src = pos if child_ring == ring else tpos
                    coeffs[pos] = w.coeffs[src]
            cand_u = RingElement(ring, tuple(coeffs))
            wit = ("crt", tuple(w for _, w in combo))
            out[_elem_key(cand_u)] = (cand_u, wit)
            if len(out) > TWIST_CAP:
                raise UnsupportedDecomposition("twist set exceeds cap")
        return out
    if lab.kind == "tensor":
        try:
            factors = tensor_split(a, [_info(c).degree for c in t.children])
        except NotDecomposable:
            return out
        per = [member_twists(c, f) for c, f in zip(t.children, factors)]
        if any(not tw for tw in per):
            return out
        for combo in itertools.product(*(tw.values() for tw in per)):
            u = combo[0][0]
            for v, _ in combo[1:]:
                u = u * v
            out[_elem_key(u)] = (u, ("tensor", tuple(w for _, w in combo)))
            if len(out) > TWIST_CAP:
                raise UnsupportedDecomposition("twist set exceeds cap")
        return out
    if lab.kind == "wreath-imprimitive":
        try:
            hs, k = wreath_split(a, _info(t.children[0]).degree, lab.m,
                                 "imprimitive")
        except NotWreathShaped:
            return out
        per = [member_twists(t.children[0], h) for h in hs]
        if any(not tw for tw in per):
            return out
        keys = set(per[0])
        for tw in per[1:]:
            keys &= set(tw)
        for key in keys:
            u = per[0][key][0]
            out[key] = (u, ("wreath", k, tuple(tw[key][1] for tw in per)))
        return out
    if lab.kind == "wreath-product":
        n = _info(t.children[0]).degree
        for hs, k in product_split_candidates(a, n, lab.m):
            per = [member_twists(t.children[0], h) for h in hs]
            if any(not tw for tw in per):
                continue
            for combo in itertools.product(*(tw.values() for tw in per)):
                u = combo[0][0]
                for v, _ in combo[1:]:
                    u = u * v
                key = _elem_key(u)
                if key not in out:
                    out[key] = (u, ("wreath", k, tuple(w for _, w in combo)))
                if len(out) > TWIST_CAP:
                    raise UnsupportedDecomposition("twist set exceeds cap")
        return out
    raise UnsupportedDecomposition(f"unknown operation {lab.kind!r}")


def _solve_unit_scalar(a: Matrix, s: int, gs):
    """Unit u (summand coeffs) with a|_s * u = I, or None."""
    # a|_s must be w*I for a unit w
    d = a.data[s]
    diag, zero, step = d[0], _zero(gs), a.n + 1
    if not any(c % gs.p for c in _to_coeffs(gs, diag)):
        return None
    if any(x != (zero if k % step else diag) for k, x in enumerate(d)):
        return None
    return _pow_unit_inv(_to_coeffs(gs, diag), gs)


def replay_witness(t: DerivationTree, wit: tuple) -> Matrix:
    """Reassemble the matrix certified by a membership witness."""
    info = _info(t)
    kind = wit[0]
    if kind == "leaf":
        return wit[1]
    if kind == "conjugate":
        inner = replay_witness(t.children[0], wit[1])
        return mat_mul(mat_mul(info.conj_inv, inner), info.conj)
    if kind == "ring":
        inner = replay_witness(t.children[0], wit[1])
        if t.label.kind == "ring-extend":
            return ring_change(inner, ("extend-to", t.label.target))
        return ring_change(inner, ("rep-to", t.label.d))
    if kind == "crt":
        out = identity(info.degree, info.ring)
        for idx, w in enumerate(wit[1]):
            part = replay_witness(t.children[idx], w)
            if part.ring != info.ring:
                from .instance import _crt_lift_multi
                part = _crt_lift_multi(part, info.ring, info.positions[idx])
            out = mat_mul(out, part)
        return out
    if kind == "tensor":
        parts = [replay_witness(c, w) for c, w in zip(t.children, wit[1])]
        return kron_all(parts)
    if kind == "wreath":
        _, k, subs = wit
        parts = [replay_witness(t.children[0], w) for w in subs]
        mode = "imprimitive" if t.label.kind == "wreath-imprimitive" else "product"
        return wreath_rep(parts, k, mode)
    raise UnsupportedDecomposition(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# bipartite matching
# ---------------------------------------------------------------------------

def max_matching(adj: list[list[int]], n_right: int) -> dict:
    """Hopcroft-Karp style augmenting search; returns left->right matching."""
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}

    def try_augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_r or try_augment(match_r[v], seen):
                match_l[u] = v
                match_r[v] = u
                return True
        return False

    improved = True
    while improved:
        improved = False
        for u in range(len(adj)):
            if u not in match_l:
                if try_augment(u, set()):
                    improved = True
    return match_l


def lex_min_perfect_matching(adj: list[list[int]], m: int):
    """Lexicographically least perfect matching (by sorted edge list), or None."""
    if len(max_matching(adj, m)) != m:
        return None
    chosen: list[int] = []
    used: set[int] = set()
    work = [sorted(a) for a in adj]
    for i in range(m):
        for j in work[i]:
            if j in used:
                continue
            rest = [[v for v in work[u] if v not in used and v != j]
                    for u in range(i + 1, m)]
            if len(max_matching(rest, m)) == m - i - 1:
                chosen.append(j)
                used.add(j)
                break
        else:
            return None
    return chosen


# ---------------------------------------------------------------------------
# linear transporter problem
# ---------------------------------------------------------------------------

def ltp_solve(t: DerivationTree, u: tuple, v: tuple):
    """g in G(t) with u^g = v, or NoSolution.

    The returned matrix is verified (action and membership) before returning.
    NoSolution(certified=True) only when every branch of the recursion decided
    exhaustively.
    """
    inst = tree_eval(t)
    if len(u) != inst.n or len(v) != inst.n:
        raise ShapeMismatch("vector length does not match the instance degree")
    g, certified = _ltp(t, [(tuple(u), tuple(v))])
    if g is None:
        return NoSolution(certified)
    assert vector_act(u, g) == tuple(v)
    assert membership(t, g).accepted
    return g


def _ltp(t: DerivationTree, pairs: list):
    """Simultaneous transporter for all (u, v) pairs; returns (g | None, certified)."""
    info = _info(t)
    if t.is_leaf():
        return _ltp_leaf(t, pairs)
    lab = t.label
    if lab.kind == "conjugate":
        cinv = info.conj_inv
        sub_pairs = [(vector_act(u, cinv), vector_act(v, cinv))
                     for u, v in pairs]
        g0, cert = _ltp(t.children[0], sub_pairs)
        if g0 is None:
            return None, cert
        return mat_mul(mat_mul(cinv, g0), info.conj), cert
    if lab.kind in ("direct-same-degree", "crt-assemble"):
        return _ltp_crt(t, pairs)
    if lab.kind == "ring-extend":
        return _ltp_ring_extend(t, pairs)
    if lab.kind == "ring-rep":
        return _ltp_ring_rep(t, pairs)
    if lab.kind == "wreath-imprimitive":
        return _ltp_wreath_imp(t, pairs)
    if lab.kind == "tensor":
        if len(pairs) != 1:
            return _ltp_brute(t, pairs)
        try:
            return _ltp_tensor(t, pairs[0])
        except UnsupportedDecomposition:
            return _ltp_brute(t, pairs)
    if lab.kind == "wreath-product":
        if len(pairs) != 1:
            return _ltp_brute(t, pairs)
        try:
            return _ltp_wreath_prod(t, pairs[0])
        except UnsupportedDecomposition:
            return _ltp_brute(t, pairs)
    raise UnsupportedDecomposition(f"unknown operation {lab.kind!r}")


def _ltp_leaf(t: DerivationTree, pairs: list):
    spec = t.base
    ring = _info(t).ring
    if spec.kind == "unipotent-cyclic":
        # g = [[1,x],[0,1]]: (u0, u1) -> (u0, u0 x + u1)
        constraints = []
        for u, v in pairs:
            if u[0] != v[0]:
                return None, True
            constraints.append((u[0], v[1] - u[1]))
        x = None
        for a, b in constraints:
            if a.is_unit():
                from .ring import ring_inv
                x = b * ring_inv(a)
                break
        if x is None:
            # all coefficients are zero in the field, so demand b == 0
            for a, b in constraints:
                if not a.is_zero() or not b.is_zero():
                    return None, True
            x = ring.zero()
        for a, b in constraints:
            if a * x != b:
                return None, True
        one, zero = ring.one(), ring.zero()
        return Matrix(2, ring, ((one, x), (zero, one))), True
    for h in leaf_enumerate(spec):
        if all(vector_act(u, h) == v for u, v in pairs):
            return h, True
    return None, True


def _ltp_crt(t: DerivationTree, pairs: list):
    info = _info(t)
    ring = info.ring
    covered = set()
    parts = []
    certified = True
    for idx, c in enumerate(t.children):
        child_ring = _info(c).ring
        positions = info.positions[idx]
        covered |= set(positions)
        if child_ring == ring:
            g0, cert = _ltp_common_child(c, pairs, positions)
        else:
            sub_pairs = [
                (tuple(RingElement(child_ring,
                                   tuple(e.coeffs[s] for s in positions))
                       for e in u),
                 tuple(RingElement(child_ring,
                                   tuple(e.coeffs[s] for s in positions))
                       for e in v))
                for u, v in pairs]
            g0, cert = _ltp(c, sub_pairs)
        certified = certified and cert
        if g0 is None:
            return None, certified
        parts.append((idx, g0))
    # off-support coordinates are acted on by the identity
    rest = [s for s in range(len(ring.summands)) if s not in covered]
    for u, v in pairs:
        for e_u, e_v in zip(u, v):
            for s in rest:
                if e_u.coeffs[s] != e_v.coeffs[s]:
                    return None, certified
    out = identity(info.degree, ring)
    from .instance import _crt_lift_multi
    for idx, g0 in parts:
        if g0.ring != ring:
            g0 = _crt_lift_multi(g0, ring, info.positions[idx])
        out = mat_mul(out, g0)
    return out, certified


def _ltp_common_child(c: DerivationTree, pairs: list, positions) -> tuple:
    """Transporter for a common-ring child: only its support summands matter."""
    # project pairs onto the child's support; off-support the child acts as I
    ring = _info(c).ring
    proj_pairs = []
    for u, v in pairs:
        pu = tuple(_mask_to(e, positions, ring) for e in u)
        pv = tuple(_mask_to(e, positions, ring) for e in v)
        proj_pairs.append((pu, pv))
    return _ltp(c, proj_pairs)


def _mask_to(e: RingElement, positions, ring: RingSpec) -> RingElement:
    return RingElement(ring, tuple(
        cs if s in positions else gs.zero()
        for s, (gs, cs) in enumerate(zip(ring.summands, e.coeffs))))


def _ltp_ring_extend(t: DerivationTree, pairs: list):
    child_ring = _info(t.children[0]).ring
    emb = find_embedding(child_ring, t.label.target)
    decomp = _module_decompose_vectors(emb, pairs)
    if decomp is None:
        raise UnsupportedDecomposition("vector entries outside the module basis")
    g0, cert = _ltp(t.children[0], decomp)
    if g0 is None:
        return None, cert
    return ring_change(g0, ("extend-to", t.label.target)), cert


def _module_decompose_vectors(emb, pairs):
    table = _module_decode_table(emb)
    out = []
    d = table["d"]
    for u, v in pairs:
        us = [[] for _ in range(d)]
        vs = [[] for _ in range(d)]
        for e in u:
            comps = _module_decompose(emb, e, table)
            for j in range(d):
                us[j].append(comps[j])
        for e in v:
            comps = _module_decompose(emb, e, table)
            for j in range(d):
                vs[j].append(comps[j])
        for j in range(d):
            out.append((tuple(us[j]), tuple(vs[j])))
    return out


_module_tables: dict = {}


def _module_decode_table(emb):
    if emb in _module_tables:
        return _module_tables[emb]
    from .matrix import _int_inv
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
    table = {"d": d, "inv": per}
    _module_tables[emb] = table
    return table


def _module_decompose(emb, e: RingElement, table):
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


def _ltp_ring_rep(t: DerivationTree, pairs: list):
    child_ring = _info(t.children[0]).ring
    d = t.label.d
    sub_pairs = []
    for u, v in pairs:
        def chunk(vec):
            out = []
            for i in range(len(vec) // d):
                coeffs = tuple(vec[i * d + l].coeffs[0][0] for l in range(d))
                out.append(RingElement(child_ring, (coeffs,)))
            return tuple(out)
        sub_pairs.append((chunk(u), chunk(v)))
    g0, cert = _ltp(t.children[0], sub_pairs)
    if g0 is None:
        return None, cert
    return ring_change(g0, ("rep-to", d)), cert


BRUTE_LTP_CAP = 1 << 15


def _ltp_brute(t: DerivationTree, pairs: list):
    """Bounded exhaustive fallback for node shapes outside the structured
    recursion (non-decomposable vectors or simultaneous queries under tensor
    and product-action nodes)."""
    from .instance import _bfs_closure
    inst = tree_eval(t)
    try:
        elems = _bfs_closure(list(inst.gens), BRUTE_LTP_CAP)
    except Exception:
        raise UnsupportedDecomposition(
            "node group too large for the exhaustive transporter fallback")
    for g in elems:
        if all(vector_act(u, g) == tuple(v) for u, v in pairs):
            return g, True
    return None, True


def _ltp_wreath_imp(t: DerivationTree, pairs: list):
    info = _info(t)
    m = t.label.m
    n = _info(t.children[0]).degree
    blocks = []
    for u, v in pairs:
        ub = [tuple(u[i * n:(i + 1) * n]) for i in range(m)]
        vb = [tuple(v[i * n:(i + 1) * n]) for i in range(m)]
        blocks.append((ub, vb))
    adj = []
    all_certified = True
    memo = {}
    for i in range(m):
        row = []
        for j in range(m):
            sub_pairs = [(b[0][i], b[1][j]) for b in blocks]
            g0, cert = _ltp(t.children[0], sub_pairs)
            memo[(i, j)] = g0
            if g0 is not None:
                row.append(j)
            elif not cert:
                all_certified = False
        adj.append(row)
    chosen = lex_min_perfect_matching(adj, m)
    if chosen is None:
        return None, all_certified
    hs = [memo[(i, chosen[i])] for i in range(m)]
    return wreath_rep(hs, tuple(chosen), "imprimitive"), True


def vector_tensor_split(vec: tuple, degrees: list, ring: RingSpec):
    """Split a vector into pure-tensor factors (normalization as tensor_split)."""
    degrees = list(degrees)
    if len(degrees) == 1:
        return [tuple(vec)]
    n1 = degrees[0]
    rest = 1
    for d_ in degrees[1:]:
        rest *= d_
    # treat as an n1 x rest array of ring elements; must be rank one per summand
    a_parts, b_parts = [], []
    for s, gs in enumerate(ring.summands):
        ent = [e.coeffs[s] for e in vec]
        k = _first_unit([_to_entry(gs, cs) for cs in ent], gs)
        if k is None:
            raise NotDecomposable("no unit coordinate in a summand")
        i0, j0 = divmod(k, rest)
        winv = _pow_unit_inv(ent[k], gs)
        b = [_pmul(ent[i0 * rest + j], winv, gs.modulus, gs.q)
             for j in range(rest)]
        a = [ent[i * rest + j0] for i in range(n1)]
        for i in range(n1):
            for j in range(rest):
                if _pmul(a[i], b[j], gs.modulus, gs.q) != ent[i * rest + j]:
                    raise NotDecomposable("vector is not a pure tensor")
        a_parts.append(a)
        b_parts.append(b)
    nsum = len(ring.summands)
    a_vec = tuple(RingElement(ring, tuple(a_parts[s][i] for s in range(nsum)))
                  for i in range(n1))
    b_vec = tuple(RingElement(ring, tuple(b_parts[s][j] for s in range(nsum)))
                  for j in range(rest))
    return [a_vec] + vector_tensor_split(b_vec, degrees[1:], ring)


def _ltp_twists(t: DerivationTree, u: tuple, v: tuple) -> tuple[dict, bool]:
    """{key: (w, g)} with u^g = v*w over units w; plus a certified flag."""
    ring = _info(t).ring
    out = {}
    certified = True
    for w in _iter_units(ring):
        vw = tuple(e * w for e in v)
        g, cert = _ltp(t, [(u, vw)])
        certified = certified and cert
        if g is not None:
            out[_elem_key(w)] = (w, g)
    return out, certified


def _ltp_tensor(t: DerivationTree, pair):
    u, v = pair
    info = _info(t)
    degrees = [_info(c).degree for c in t.children]
    try:
        us = vector_tensor_split(u, degrees, info.ring)
        vs = vector_tensor_split(v, degrees, info.ring)
    except NotDecomposable as e:
        raise UnsupportedDecomposition(
            f"transporter vectors are not decomposable: {e}") from None
    sets = []
    certified = True
    for c, ui, vi in zip(t.children, us, vs):
        tw, cert = _ltp_twists(c, ui, vi)
        certified = certified and cert
        if not tw:
            return None, certified
        sets.append(list(tw.values()))
    hit = _search_unit_product(sets, info.ring.one())
    if hit is None:
        return None, certified
    return kron_all(hit), certified


def _ltp_wreath_prod(t: DerivationTree, pair):
    u, v = pair
    info = _info(t)
    m = t.label.m
    n = _info(t.children[0]).degree
    try:
        us = vector_tensor_split(u, [n] * m, info.ring)
        vs = vector_tensor_split(v, [n] * m, info.ring)
    except NotDecomposable as e:
        raise UnsupportedDecomposition(
            f"transporter vectors are not decomposable: {e}") from None
    edge_sets = {}
    certified = True
    for i in range(m):
        for j in range(m):
            tw, cert = _ltp_twists(t.children[0], us[i], vs[j])
            certified = certified and cert
            if tw:
                edge_sets[(i, j)] = list(tw.values())
    adj = [sorted(j for j in range(m) if (i, j) in edge_sets)
           for i in range(m)]
    for k in itertools.permutations(range(m)):
        if any(k[i] not in adj[i] for i in range(m)):
            continue
        sets = [edge_sets[(i, k[i])] for i in range(m)]
        hit = _search_unit_product(sets, info.ring.one())
        if hit is not None:
            return wreath_rep(hit, tuple(k), "product"), certified
    return None, certified


# ---------------------------------------------------------------------------
# structured vector sampling
# ---------------------------------------------------------------------------

def sample_transportable_vector(t: DerivationTree, rng) -> tuple:
    """A random vector within the tree-directed transporter envelope.

    Under tensor and product-action nodes the transporter recursion needs
    decomposable vectors, so sampling follows the node structure: pure
    tensors there, per-block samples at CRT nodes, child samples transported
    through conjugations and ring changes.
    """
    info = _info(t)
    ring = info.ring
    if t.is_leaf():
        return _random_vector(ring, info.degree, rng)
    k = t.label.kind
    if k == "conjugate":
        return vector_act(sample_transportable_vector(t.children[0], rng),
                          info.conj)
    if k == "tensor":
        parts = [sample_transportable_vector(c, rng) for c in t.children]
        return _kron_vectors(parts)
    if k == "wreath-product":
        parts = [sample_transportable_vector(t.children[0], rng)
                 for _ in range(t.label.m)]
        return _kron_vectors(parts)
    if k == "wreath-imprimitive":
        out: tuple = ()
        for _ in range(t.label.m):
            out = out + sample_transportable_vector(t.children[0], rng)
        return out
    if k in ("direct-same-degree", "crt-assemble"):
        parts = [sample_transportable_vector(c, rng) for c in t.children]
        filler = _random_vector(ring, info.degree, rng)
        out = []
        for i in range(info.degree):
            coeffs = [filler[i].coeffs[s] for s in range(len(ring.summands))]
            for idx, part in enumerate(parts):
                child_ring = _info(t.children[idx]).ring
                for tpos, pos in enumerate(info.positions[idx]):
                    src = pos if child_ring == ring else tpos
                    coeffs[pos] = part[i].coeffs[src]
            out.append(RingElement(ring, tuple(coeffs)))
        return tuple(out)
    if k == "ring-extend":
        # entries decompose over the module basis for any value
        return _random_vector(ring, info.degree, rng)
    if k == "ring-rep":
        child = sample_transportable_vector(t.children[0], rng)
        out = []
        for e in child:
            for c in e.coeffs[0]:
                out.append(ring.element([(c,)]))
        return tuple(out)
    raise UnsupportedDecomposition(f"unknown operation {k!r}")


def _random_vector(ring: RingSpec, n: int, rng) -> tuple:
    """Random vector with a unit coordinate in every summand (normalizable)."""
    for _ in range(256):
        vec = tuple(
            RingElement(ring, tuple(tuple(rng.below(g.q) for _ in range(g.r))
                                    for g in ring.summands))
            for _ in range(n))
        if all(any(any(c % g.p for c in e.coeffs[s]) for e in vec)
               for s, g in enumerate(ring.summands)):
            return vec
    raise UnsupportedDecomposition("could not sample a normalizable vector")


def _kron_vectors(parts: list) -> tuple:
    out = parts[0]
    for p in parts[1:]:
        out = tuple(a * b for a in out for b in p)
    return out


# ---------------------------------------------------------------------------
# translation-group bridge
# ---------------------------------------------------------------------------

def affine_bridge(u: tuple, v: tuple):
    """Affine translation matrices (T_u, T_v), degree n+1.

    For g in GL(n, R) embedded as [[g, 0], [0, 1]]:
    T_v = g^-1 T_u g exactly when u^g = v.
    """
    if len(u) != len(v):
        raise ShapeMismatch("translation vectors of different lengths")
    ring = u[0].ring
    return _translation(u, ring), _translation(v, ring)


def _translation(u: tuple, ring: RingSpec) -> Matrix:
    n = len(u)
    one, zero = ring.one(), ring.zero()
    rows = []
    for i in range(n):
        rows.append(tuple(one if j == i else zero for j in range(n + 1)))
    rows.append(tuple(list(u) + [one]))
    return Matrix(n + 1, ring, tuple(rows))


def affine_embed(g: Matrix) -> Matrix:
    """[[g, 0], [0, 1]] of degree n+1."""
    one, zero = g.ring.one(), g.ring.zero()
    rows = []
    for i in range(g.n):
        rows.append(g.rows[i] + (zero,))
    rows.append((zero,) * g.n + (one,))
    return Matrix(g.n + 1, g.ring, rows)
