"""Tree-directed polynomial-time solvers for membership and transporter queries.

Knowing the derivation tree, membership testing recurses through each node:
conjugations are undone, ring changes inverted, CRT blocks projected, wreath
elements split into (coordinate list, permutation) by block/probe structure,
and tensor factors recovered by Kronecker factorization.  Tensor-style
factorizations are unique only up to scalars: the twists {u : h*u in G} of
a factor h are empty or a coset u0 * Z of the scalar subgroup of G, held as
its order per (field) summand, so the recursion carries one unit u0.

The Linear Transporter Problem follows the same recursion and returns a
transporter or None.  Imprimitive wreath nodes reduce to bipartite matching
over per-block solvability; tensor and product-action nodes split both
vectors into pure tensors and search, per candidate permutation of the
factors, for one twisted transporter per factor whose twists multiply to
one.  Leaves solve directly (unipotent: a linear condition; other leaf
groups: bounded exhaustive search).  Where the recursion cannot decide, it
raises UnsupportedDecomposition or CapExceeded instead of answering.

Each leaf and operation kind has one solver class here, found through
``_SOLVERS``; its structure is its class in ``instance``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from .analysis import enumerate_group
from .errors import (
    CapExceeded,
    NotDecomposable,
    NotWreathShaped,
    ShapeMismatch,
    UnsupportedDecomposition,
    UnverifiedResult,
)
from .instance import (
    DerivationTree,
    NodeInfo,
    _diag_power_set,
    _info,
    _place,
    _replay,
    leaf_contains,
    leaf_enumerate,
    tree_eval,
)
from .matrix import (
    Matrix,
    RingElement,
    _act,
    _entries,
    _kron_summand,
    _random_data,
    _scale,
    _to_coeffs,
    _to_entry,
    _vector_data,
    _zero,
    crt_project,
    find_embedding,
    is_invertible,
    mat_det,
    mat_inv,
    mat_mul,
    mat_scale,
    perm_inverse,
    regular_rep_block,
    tensor_perm_matrix,
)
from .ring import RingSpec, _pinv, _pmul, _ppow, ring_inv, root_of_unity

UNITS_CAP = 4096
PERM_CAP = 720  # 6! candidate permutations in product-action splitting


@dataclass(frozen=True)
class MembershipVerdict:
    accepted: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class NoSolution:
    """No transporter exists.  certified: the answer was decided
    exhaustively, which every NoSolution from ltp_solve is."""
    certified: bool = False


def _solver(t: DerivationTree) -> tuple[NodeInfo, "_Solver"]:
    info = _info(t)
    return info, _SOLVERS[info.impl.kind]


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


def _block(d: tuple, cols: int, shape: tuple, bi: int, bj: int) -> tuple:
    """Flat block (bi, bj) of shape (rows, cols) of a flat summand tuple
    with ``cols`` columns."""
    r, c = shape
    out = []
    for row in range(bi * r, bi * r + r):
        start = row * cols + bj * c
        out.extend(d[start:start + c])
    return tuple(out)


def _split2_summand(d: tuple, g, shape1: tuple, shape2: tuple):
    """Kronecker split of a flat summand tuple into flat factors of shapes
    (rows, cols) shape1 and shape2."""
    (r1, c1), (r2, c2) = shape1, shape2
    cols = c1 * c2
    k = _first_unit(d, g)
    if k is None:
        raise NotDecomposable("no unit entry in a summand")
    i0, j0 = divmod(k, cols)
    bi, k0 = divmod(i0, r2)
    bj, l0 = divmod(j0, c2)
    q, mod = g.q, g.modulus
    block = _block(d, cols, shape2, bi, bj)
    if g.r == 1:
        winv = pow(d[k], -1, q)
        b = tuple(x * winv % q for x in block)
    else:
        winv = _pinv(d[k], g)
        b = tuple(_pmul(x, winv, mod, q) for x in block)
    a = tuple(d[(i * r2 + k0) * cols + j * c2 + l0]
              for i in range(r1) for j in range(c1))
    if _kron_summand(a, shape1, b, shape2, g) != d:
        raise NotDecomposable("entries inconsistent with a Kronecker product")
    return a, b


def _kron_split(data: tuple, ring: RingSpec, shapes: list) -> list:
    """Per-summand flat data of the Kronecker factors of ``data``, one per
    (rows, cols) shape as listed.

    Factors after the first are normalized: per CRT summand, their first
    unit entry in row-major scan is 1.  Each two-factor split divides its
    right factor by the first unit entry of its input, which becomes that
    factor's first unit entry, and the left factor of a normalized input
    takes the input's first unit entry, a 1.  ``_split2_summand`` checks
    every split, so reassembly by the Kronecker product is exact.
    """
    rows, cols = math.prod(r for r, _ in shapes), math.prod(c for _, c in shapes)
    factors = [data]
    for r1, c1 in shapes[:-1]:
        rows, cols = rows // r1, cols // c1
        parts = [_split2_summand(d, g, (r1, c1), (rows, cols))
                 for g, d in zip(ring.summands, factors.pop())]
        factors += [tuple(a for a, _ in parts), tuple(b for _, b in parts)]
    return factors


def tensor_split(g: Matrix, degrees) -> list[Matrix]:
    """Kronecker factors of g, degrees as listed, normalized as
    ``_kron_split`` says."""
    degrees = list(degrees)
    if g.n != math.prod(degrees):
        raise ShapeMismatch(f"degree {g.n} is not the product of {degrees}")
    return [Matrix._of(n, g.ring, data) for n, data in
            zip(degrees, _kron_split(g.data, g.ring, [(n, n) for n in degrees]))]


def wreath_split(g: Matrix, n: int, m: int):
    """Recover (coordinate matrices, permutation) from an imprimitive wreath
    matrix, exactly: the block pattern is the probe image set.  Product-action
    splits are ``product_split_candidates``."""
    if g.n != n * m:
        raise ShapeMismatch(f"degree {g.n} != {n}*{m}")
    k = []
    zeros = [_zero(gs) for gs in g.ring.summands]
    for i in range(m):
        cols = [j for j in range(m)
                if any(x != z for d, z in zip(g.data, zeros)
                       for x in _block(d, g.n, (n, n), i, j))]
        if len(cols) != 1:
            raise NotWreathShaped(
                "a block row has no unique nonzero block")
        k.append(cols[0])
    if sorted(k) != list(range(m)):
        raise NotWreathShaped("block pattern is not a permutation")
    hs = [Matrix._of(n, g.ring, tuple(_block(d, g.n, (n, n), i, k[i])
                                      for d in g.data))
          for i in range(m)]
    return hs, tuple(k)


def product_split_candidates(g: Matrix, n: int, m: int):
    """All (factors, k) with g = kron(factors) * S_k, k in lex order; the
    factors are normalized as ``tensor_split`` normalizes them."""
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

def scalar_subgroup(t: DerivationTree) -> tuple:
    """Per ring summand s (a field), the order d_s of the scalars of G(t):
    u*I is in G(t) exactly when u_s^d_s = 1 in every summand."""
    z = t.__dict__.get("_scalars")
    if z is None:
        info, solver = _solver(t)
        z = t.__dict__["_scalars"] = solver.scalars(t, info)
    return z


def _spow(x: RingElement, exps) -> RingElement:
    """x_s^e_s in each summand s; e_s may be negative."""
    return RingElement(x.ring, tuple(
        _ppow(cs, e % g.units_order(), g.modulus, g.q)
        for g, cs, e in zip(x.ring.summands, x.coeffs, exps)))


def _bezout(ms: list) -> list:
    """Integers c with sum c_i * ms[i] = gcd(ms)."""
    g, cs = 0, []
    for m in ms:
        # extended Euclid; each row (r, a, b) has a * g + b * m = r
        row0, row1 = (g, 1, 0), (m, 0, 1)
        while row1[0]:
            k = row0[0] // row1[0]
            row0, row1 = row1, tuple(x - k * y for x, y in zip(row0, row1))
        g, a, b = row0
        cs = [c * a for c in cs] + [b]
    return cs


def _split_scalar(x: RingElement, orders: list):
    """[z_i] with z_i in the scalar subgroup of orders[i] and prod z_i = x, or
    None when x is outside their product, which per summand is the cyclic
    group of order L = lcm(d_i): Bezout gives sum c_i L / d_i = 1, and
    z_i = x^(c_i L / d_i) needs no discrete logarithm."""
    if x.is_one():  # most splits need no scalar
        return [x] * len(orders)
    lcms, exps = [], []
    for ds in zip(*orders):
        lcm = math.lcm(*ds)
        ms = [lcm // d for d in ds]
        lcms.append(lcm)
        exps.append([c * m for c, m in zip(_bezout(ms), ms)])
    if not _spow(x, lcms).is_one():
        return None
    return [_spow(x, [e[i] for e in exps]) for i in range(len(orders))]


def _nth_root(c: RingElement, n: int):
    """x with x^n = c in the unit group of a field, or None.  The group is
    cyclic of order coprime * rest, rest made of the primes of n: x is
    c^(n^-1) on the part of order coprime and is searched for on the rest."""
    order = c.ring.summands[0].units_order()
    rest = 1
    while math.gcd(order // rest, n) > 1:
        rest *= math.gcd(order // rest, n)
    coprime = order // rest
    e = rest * pow(rest, -1, coprime)  # 1 mod coprime, 0 mod rest
    x, c_rest = c.pow(e * pow(n, -1, coprime)), c.pow(order + 1 - e)
    h, y = root_of_unity(c.ring, 0, rest), c.ring.one()
    for _ in range(rest):
        if y.pow(n) == c_rest:
            return x * y
        y = y * h
    return None


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
    info, solver = _solver(t)
    return solver.member(t, info, g)


def _members(info: NodeInfo, queries, k=None):
    """The node's witness when every (subtree, element) query is a member."""
    subs = []
    for c, q in queries:
        sub = _member(c, q)
        if sub is None:
            return None
        subs.append(sub)
    return info.impl.witness(subs, k)


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


def member_twists(t: DerivationTree, a: Matrix):
    """A unit u0 with a*u0 in G(t), or None.  The units u with a*u in G(t)
    are then exactly u0 times the scalars of ``scalar_subgroup(t)``."""
    # each node remembers its answers by the queried matrix: factors of small
    # groups recur across queries, and each membership split asks its factors
    # twice (twists, then members); without a memo the p90 latency of
    # perfbench's trapdoor workload rose by about a fifth
    memo = t.__dict__.setdefault("_twists", {})
    key = a.key()
    if key not in memo:
        if len(memo) > 20000:
            memo.clear()
        info, solver = _solver(t)
        memo[key] = solver.twists(t, info, a)
    return memo[key]


def _factor_twists(factors: list, hs: list):
    """Each factor's twist unit u0, or None when one factor has none."""
    us = []
    for c, h in zip(factors, hs):
        u = member_twists(c, h)
        if u is None:
            return None
        us.append(u)
    return us


def replay_witness(t: DerivationTree, wit: tuple) -> Matrix:
    """Reassemble the matrix that a membership witness decomposes."""
    return _replay(t, wit)


# ---------------------------------------------------------------------------
# bipartite matching
# ---------------------------------------------------------------------------

def max_matching(adj: list[list[int]], n_right: int) -> dict:
    """Kuhn's augmenting-path search; returns a maximum left->right matching.
    One search per left vertex suffices: a vertex with no augmenting path
    never gains one as the matching grows."""
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

    for u in range(len(adj)):
        try_augment(u, set())
    return match_l


def lex_min_perfect_matching(adj: list[list[int]], m: int):
    """Lexicographically least perfect matching (by sorted edge list), or None."""
    if len(max_matching(adj, m)) != m:
        return None
    chosen: list[int] = []
    used: set[int] = set()
    work = [sorted(a) for a in adj]
    for i in range(m):
        # the choices so far extend to a perfect matching, so some j passes
        for j in work[i]:
            if j in used:
                continue
            rest = [[v for v in work[u] if v not in used and v != j]
                    for u in range(i + 1, m)]
            if len(max_matching(rest, m)) == m - i - 1:
                chosen.append(j)
                used.add(j)
                break
    return chosen


# ---------------------------------------------------------------------------
# linear transporter problem
# ---------------------------------------------------------------------------

def ltp_solve(t: DerivationTree, u: tuple, v: tuple):
    """g in G(t) with u^g = v, or NoSolution.

    u and v are checked (ShapeMismatch, RingMismatch) and flattened once;
    the recursion passes flat vectors.  The returned matrix is verified
    (action and membership) before returning.  Every branch of the recursion
    decides exhaustively, so NoSolution means that no transporter exists; a
    query the recursion cannot decide raises UnsupportedDecomposition or
    CapExceeded instead.
    """
    inst = tree_eval(t)
    if len(u) != inst.n or len(v) != inst.n:
        raise ShapeMismatch("vector length does not match the instance degree")
    x, y = _vector_data(u, inst.ring), _vector_data(v, inst.ring)
    g = _ltp(t, [(x, y)])
    if g is None:
        return NoSolution(True)
    if _act(x, g) != y:
        raise UnverifiedResult("the transporter does not map u to v")
    if not membership(t, g).accepted:
        raise UnverifiedResult("the transporter is not in the instance group")
    return g


def _ltp(t: DerivationTree, pairs: list):
    """Simultaneous transporter for all (u, v) pairs, or None.  Inside the
    recursion a vector is per-summand flat data, as ``_vector_data`` stores
    it."""
    info, solver = _solver(t)
    return solver.ltp(t, info, pairs)


BRUTE_LTP_CAP = 1 << 15


def _ltp_brute(t: DerivationTree, pairs: list):
    """Bounded exhaustive fallback for node shapes outside the structured
    recursion (non-decomposable vectors or simultaneous queries under tensor
    and product-action nodes)."""
    inst = tree_eval(t)
    try:
        elems = enumerate_group(list(inst.gens), BRUTE_LTP_CAP).matrices()
    except CapExceeded:
        raise UnsupportedDecomposition(
            "node group too large for the exhaustive transporter fallback") from None
    return _first_transporter(elems, pairs, inst.ring)


# Leaf and fallback scans compare u^h with v on flat integers, one coordinate
# (one column of h) at a time, so most h are dropped after one dot product.
# Over a rank r > 1 summand, coefficient t of u_i * h_ij is linear in the
# coefficients of h_ij (row l of the regular representation of u_i holds
# u_i * x^l), so entry j of u^h is r dot products with column j of h read
# as n*r ints, and needs no reduction by the modulus.

def _flat_pairs(pairs, ring: RingSpec):
    """Each flat (u, v) pair as, per summand g of ring, (x, y): x the entries
    of u (plain ints; for rank r > 1, r rows over the n*r coefficients of a
    column), y the stored entries of v."""
    out = []
    for u, v in pairs:
        per = []
        for g, us, vs in zip(ring.summands, u, v):
            if g.r == 1:
                per.append((us, vs))
                continue
            r = g.r
            reps = [regular_rep_block(cs, g) for cs in us]
            per.append(([[rep[l][t] for rep in reps for l in range(r)]
                         for t in range(r)], vs))
        out.append(per)
    return out


def _coord(x: list, d: tuple, j: int, n: int, g):
    """Entry j of the flat row vector x times the flat summand tuple d."""
    q = g.q
    if g.r == 1:
        return sum(map(mul, x, d[j::n])) % q
    col = d[j::n]
    return tuple([sum(map(mul, row, itertools.chain.from_iterable(col))) % q
                  for row in x])


def _maps(h: Matrix, flat: list) -> bool:
    """u^h = v for every flat pair; False at the first entry that differs."""
    n = h.n
    for per in flat:
        for (x, y), g, d in zip(per, h.ring.summands, h.data):
            for j in range(n):
                if _coord(x, d, j, n, g) != y[j]:
                    return False
    return True


def _first_transporter(elems, pairs: list, ring: RingSpec):
    """The first h of elems with u^h = v for every (u, v) pair, or None."""
    flat = _flat_pairs(pairs, ring)
    for h in elems:
        if _maps(h, flat):
            return h
    return None


def vector_tensor_split(vec: tuple, degrees: list, ring: RingSpec):
    """Pure-tensor factors of a vector: ``_kron_split`` on 1 x n shapes, so
    normalized as tensor_split's factors are."""
    degrees = list(degrees)
    if len(vec) != math.prod(degrees):
        raise ShapeMismatch(f"length {len(vec)} is not the product of {degrees}")
    return [tuple(_entries(ring, part)) for part in
            _kron_split(_vector_data(vec, ring), ring, [(1, d) for d in degrees])]


def _iter_units(ring: RingSpec):
    if ring.units_count() > UNITS_CAP:
        raise UnsupportedDecomposition("unit group exceeds the enumeration cap")
    return ring.unit_list


def _pure_tensor_factors(t: DerivationTree, info: NodeInfo, pair) -> tuple:
    """Both vectors of pair split into pure-tensor factors, one per factor of t."""
    shapes = [(1, _info(c).degree) for c in info.impl.factors(t)]
    try:
        return (_kron_split(pair[0], info.ring, shapes),
                _kron_split(pair[1], info.ring, shapes))
    except NotDecomposable as e:
        raise UnsupportedDecomposition(
            f"transporter vectors are not decomposable: {e}") from None


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
    return tuple(_entries(_info(t).ring, _sample(t, rng)))


def _sample(t: DerivationTree, rng) -> tuple:
    """``sample_transportable_vector`` as per-summand flat data."""
    info, solver = _solver(t)
    return solver.sample(t, info, rng)


def _random_vector(ring: RingSpec, n: int, rng) -> tuple:
    """Random flat vector with a unit coordinate in every summand
    (normalizable)."""
    for _ in range(256):
        vec = _random_data(ring, n, rng)
        if all(_first_unit(d, g) is not None for g, d in zip(ring.summands, vec)):
            return vec
    raise UnsupportedDecomposition("could not sample a normalizable vector")


# ---------------------------------------------------------------------------
# per-kind solvers
# ---------------------------------------------------------------------------

class _Solver:
    """The tree-directed solvers of one node kind.  scalars: the per-summand
    orders of the scalar subgroup of G(t); member: a witness for g, or None;
    twists: a unit u0 with a*u0 in G(t), or None; ltp: g with u^g = v for
    every (u, v) pair, or None; sample: a vector the ltp recursion can
    decompose."""

    def sample(self, t: DerivationTree, info: NodeInfo, rng) -> tuple:
        return _random_vector(info.ring, info.degree, rng)


class _LeafSolver(_Solver):
    def member(self, t, info, g):
        return ("leaf", g) if leaf_contains(t.base, g) else None

    def ltp(self, t, info, pairs):
        return _first_transporter(leaf_enumerate(t.base), pairs, info.ring)


class _UnipotentSolver(_LeafSolver):
    def scalars(self, t, info):
        return (1,)

    def twists(self, t, info, a):
        return _entry_twist(t, a, 3)  # entry (1, 1)

    def ltp(self, t, info, pairs):
        # g = [[1,x],[0,1]]: (u0, u1) -> (u0, u0 x + u1), over GF(p); the
        # first pair with u0 != 0 fixes x, and x = 0 when there is none
        p = info.ring.summands[0].p
        constraints = []
        for (u,), (v,) in pairs:
            if u[0] != v[0]:
                return None
            constraints.append((u[0], (v[1] - u[1]) % p))
        x = next((b * pow(a, -1, p) % p for a, b in constraints if a), 0)
        if any(a * x % p != b for a, b in constraints):
            return None
        return Matrix._of(2, info.ring, ((1, x, 0, 1),))


class _SpecialLinearSolver(_LeafSolver):
    def scalars(self, t, info):
        n, q = t.base.params
        return (math.gcd(n, q - 1),)

    def twists(self, t, info, a):
        # det(a * u) = det(a) * u^n
        det = mat_det(a)
        return _nth_root(ring_inv(det), a.n) if det.is_unit() else None


class _GeneralLinearSolver(_LeafSolver):
    def scalars(self, t, info):
        return (t.base.params[1] - 1,)

    def twists(self, t, info, a):
        return info.ring.one() if is_invertible(a) else None


class _DiagonalSolver(_LeafSolver):
    def scalars(self, t, info):
        return (len(_diag_power_set(t.base)),)

    def twists(self, t, info, a):
        # exact: when some u works, every a_ii / a_00 is a power of the
        # generator, so a_00^-1 works
        return _entry_twist(t, a, 0)


def _entry_twist(t: DerivationTree, a: Matrix, k: int):
    """u = a_k^-1 for the flat entry k of a, when a*u is in the leaf group
    of t, else None."""
    g = a.ring.summands[0]  # a leaf's ring is one field GF(q)
    x = RingElement(a.ring, (_to_coeffs(g, a.data[0][k]),))
    if x.is_unit():
        u = ring_inv(x)
        if leaf_contains(t.base, mat_scale(a, u)):
            return u
    return None


class _UnarySolver(_Solver):
    """One-child nodes: down(t, info, g) is the child's query (or None) and
    pairs_down its transporter pairs; answers come back by assembly."""

    def up(self, t, info, u):
        """A node unit in the coset u * Z(child) of child twist units, or None."""
        return u

    def scalars(self, t, info):
        return scalar_subgroup(t.children[0])

    def member(self, t, info, g):
        g0 = self.down(t, info, g)
        return None if g0 is None else _members(info, [(t.children[0], g0)])

    def twists(self, t, info, a):
        a0 = self.down(t, info, a)
        u = None if a0 is None else member_twists(t.children[0], a0)
        return None if u is None else self.up(t, info, u)

    def ltp(self, t, info, pairs):
        g0 = _ltp(t.children[0], self.pairs_down(t, info, pairs))
        return None if g0 is None else info.impl.assemble(t, info, [g0])


class _ConjugateSolver(_UnarySolver):
    def down(self, t, info, g):
        return mat_mul(mat_mul(info.conj, g), mat_inv(info.conj))

    def pairs_down(self, t, info, pairs):
        cinv = mat_inv(info.conj)
        return [(_act(u, cinv), _act(v, cinv)) for u, v in pairs]

    def sample(self, t, info, rng):
        return _act(_sample(t.children[0], rng), info.conj)


class _RingExtendSolver(_UnarySolver):
    def down(self, t, info, g):
        return _unembed(g, _info(t.children[0]).ring, t.label.target)

    def up(self, t, info, u):
        return find_embedding(_info(t.children[0]).ring, t.label.target).apply(u)

    def pairs_down(self, t, info, pairs):
        """Each (u, v) over the target as d pairs over the child's ring, one
        per basis power x'^j of the embedding's table, d the largest
        extension degree of a summand.  A summand of a smaller degree d_s
        has zero coordinates at j >= d_s, and a zero pair constrains
        nothing."""
        emb = find_embedding(_info(t.children[0]).ring, t.label.target)
        summands = list(zip(emb.src.summands, emb.dst.summands))
        d = max(gd.r // gs.r for gs, gd in summands)

        def split(vec):
            per = []
            for s, ((gs, gd), xs) in enumerate(zip(summands, vec)):
                cols = [emb.coords(s, _to_coeffs(gd, x)) for x in xs]
                per.append([tuple(_to_entry(gs, c[j]) if j < len(c) else _zero(gs)
                                  for c in cols) for j in range(d)])
            return list(zip(*per))
        return [pair for u, v in pairs for pair in zip(split(u), split(v))]

    # the default sample is a random vector; its entries decompose over the
    # module basis for any value, but tensor and wreath-product children
    # answer the d > 1 pairs it splits into only by the bounded exhaustive
    # fallback, which refuses a group past its cap, so there a random vector
    # need not be transportable


class _RingRepSolver(_UnarySolver):
    def down(self, t, info, g):
        return _unrep(g, _info(t.children[0]).ring, t.label.d)

    def scalars(self, t, info):
        # the child's scalars that lie in the prime field
        return (math.gcd(scalar_subgroup(t.children[0])[0],
                         info.ring.summands[0].units_order()),)

    def up(self, t, info, u):
        # u = v * z with v in the prime field (the units of order p - 1) and
        # z a child scalar; v, a constant, is the node's twist
        parts = _split_scalar(u, [(info.ring.summands[0].units_order(),),
                                  scalar_subgroup(t.children[0])])
        return None if parts is None else info.ring.element(
            [parts[0].coeffs[0][:1]])

    def pairs_down(self, t, info, pairs):
        # the node's one summand is Z/p^m and the child's has rank d >= 2: a
        # child entry is the coefficient tuple of d consecutive node entries
        d = t.label.d

        def chunk(vec):
            xs, = vec
            return (tuple(xs[i:i + d] for i in range(0, len(xs), d)),)
        return [(chunk(u), chunk(v)) for u, v in pairs]

    def sample(self, t, info, rng):
        child, = _sample(t.children[0], rng)
        return (tuple(c for cs in child for c in cs),)


class _SameDegreeSolver(_Solver):
    """direct-same-degree and crt-assemble: child idx owns the summands
    info.positions[idx] of the node's ring."""

    def scalars(self, t, info):
        return _place(info, [scalar_subgroup(c) for c in t.children])

    def member(self, t, info, g):
        return _members(info, ((c, crt_project(g, pos, _info(c).ring))
                               for c, pos in zip(t.children, info.positions)))

    def twists(self, t, info, a):
        us = _factor_twists(t.children, [
            crt_project(a, pos, _info(c).ring)
            for c, pos in zip(t.children, info.positions)])
        return None if us is None else _combine(info, us)

    def ltp(self, t, info, pairs):
        parts = []
        for c, positions in zip(t.children, info.positions):
            g0 = _ltp(c, [(tuple(u[s] for s in positions),
                           tuple(v[s] for s in positions)) for u, v in pairs])
            if g0 is None:
                return None
            parts.append(g0)
        return info.impl.assemble(t, info, parts)

    def sample(self, t, info, rng):
        parts = [_sample(c, rng) for c in t.children]
        # the blocks cover every summand, so this vector is overwritten; it
        # is drawn only to keep the seeded samples of earlier versions
        _random_vector(info.ring, info.degree, rng)
        return _place(info, parts)


def _combine(info: NodeInfo, elems) -> RingElement:
    """The node-ring element whose block idx holds the coefficients of elems[idx]."""
    return RingElement(info.ring, _place(info, [e.coeffs for e in elems]))


class _TwistedSolver(_Solver):
    """tensor and wreath-product: splits(t, info, g) yields candidate (Kronecker
    factors, permutation); factors are recovered only up to scalar twists.
    perms(t) lists the permutations of the factors that a transporter may
    carry, in the order ltp tries them."""

    def scalars(self, t, info):
        return tuple(math.lcm(*ds) for ds in zip(
            *(scalar_subgroup(c) for c in info.impl.factors(t))))

    def member(self, t, info, g):
        factors = info.impl.factors(t)
        for hs, k in self.splits(t, info, g):
            us = _factor_twists(factors, hs)
            if us is None:
                continue
            # factor i is twisted by u_i * z_i, z_i a scalar of its group,
            # and the twists must multiply to one
            zs = _split_scalar(ring_inv(math.prod(us[1:], start=us[0])),
                               [scalar_subgroup(c) for c in factors])
            if zs is None:
                continue
            # h itself, when its twist is one, keeps its cached inverse
            subs = [_member(c, h if (u * z).is_one() else mat_scale(h, u * z))
                    for c, h, u, z in zip(factors, hs, us, zs)]
            if None in subs:
                raise UnverifiedResult(
                    "a factor times one of its twists is not a member")
            return info.impl.witness(subs, k)
        return None

    def twists(self, t, info, a):
        factors = info.impl.factors(t)
        for hs, _ in self.splits(t, info, a):
            us = _factor_twists(factors, hs)
            if us is not None:
                return math.prod(us[1:], start=us[0])
        return None

    def ltp(self, t, info, pairs):
        if len(pairs) == 1:
            try:
                return self.ltp_pure(t, info, pairs[0])
            except UnsupportedDecomposition:
                pass
        return _ltp_brute(t, pairs)

    def ltp_pure(self, t, info, pair):
        """For pure tensors u = (x) u_i and v = (x) v_j, the transporter
        permuting the factors by k maps u_i to v_k(i) times a twist w_i with
        prod w_i = 1.  Per permutation, a depth-first search takes w_i in
        canonical unit order, the product of the earlier twists fixes the
        last, and the first twist tuple whose factors all have a transporter
        wins.  Factor i's transporter at (j, w) is asked for only when the
        search first needs it, and kept for the rest of the call."""
        factors = info.impl.factors(t)
        us, vs = _pure_tensor_factors(t, info, pair)
        units = _iter_units(info.ring)
        found = {}

        def hit(i, j, w):
            key = (i, j, w.coeffs)
            if key not in found:
                found[key] = _ltp(factors[i], [(us[i], _scale(info.ring, vs[j], w))])
            return found[key]

        def search(k, i, acc):
            """Transporters of factors i.. under k whose twists times acc are one."""
            if i == len(k) - 1:
                g = hit(i, k[i], ring_inv(acc))
                return None if g is None else [g]
            for w in units:
                g = hit(i, k[i], w)
                rest = None if g is None else search(k, i + 1, acc * w)
                if rest is not None:
                    return [g] + rest
            return None

        for k in self.perms(t):
            gs = search(k, 0, info.ring.one())
            if gs is not None:
                return info.impl.assemble(t, info, gs, k)
        return None

    def sample(self, t, info, rng):
        out, *rest = [_sample(c, rng) for c in info.impl.factors(t)]
        for part in rest:
            out = tuple(_kron_summand(a, (1, len(a)), b, (1, len(b)), g)
                        for g, a, b in zip(info.ring.summands, out, part))
        return out


class _TensorSolver(_TwistedSolver):
    def splits(self, t, info, g):
        try:
            return [(tensor_split(g, [_info(c).degree for c in t.children]), None)]
        except NotDecomposable:
            return []

    def perms(self, t):
        return [tuple(range(len(t.children)))]


class _WreathProductSolver(_TwistedSolver):
    def splits(self, t, info, g):
        return product_split_candidates(g, _info(t.children[0]).degree, t.label.m)

    def perms(self, t):
        return itertools.permutations(range(t.label.m))


class _WreathImprimitiveSolver(_Solver):
    def scalars(self, t, info):
        return scalar_subgroup(t.children[0])

    def split(self, t, g: Matrix):
        try:
            return wreath_split(g, _info(t.children[0]).degree, t.label.m)
        except NotWreathShaped:
            return None, None

    def member(self, t, info, g):
        hs, k = self.split(t, g)
        return None if hs is None else _members(
            info, [(t.children[0], h) for h in hs], k)

    def twists(self, t, info, a):
        # every block's twists are a coset of the child's scalars: they meet
        # when every block's u0 is the first block's times a scalar
        hs, _ = self.split(t, a)
        us = None if hs is None else _factor_twists(info.impl.factors(t), hs)
        if us is None:
            return None
        z, inv = scalar_subgroup(t.children[0]), ring_inv(us[0])
        return us[0] if all(_spow(u * inv, z).is_one() for u in us[1:]) else None

    def ltp(self, t, info, pairs):
        # block i of u can go to block j of v when the child has a
        # transporter for every pair's (i, j) blocks
        m = t.label.m
        n = _info(t.children[0]).degree

        def block(vec, i):
            return tuple(d[i * n:(i + 1) * n] for d in vec)
        hs, adj = {}, []
        for i in range(m):
            adj.append([])
            for j in range(m):
                g0 = _ltp(t.children[0], [(block(u, i), block(v, j))
                                          for u, v in pairs])
                if g0 is not None:
                    hs[(i, j)] = g0
                    adj[i].append(j)
        chosen = lex_min_perfect_matching(adj, m)
        if chosen is None:
            return None
        return info.impl.assemble(
            t, info, [hs[(i, j)] for i, j in enumerate(chosen)], tuple(chosen))

    def sample(self, t, info, rng):
        parts = [_sample(t.children[0], rng) for _ in range(t.label.m)]
        return tuple(sum(ds, ()) for ds in zip(*parts))


_same_degree = _SameDegreeSolver()
_SOLVERS = {
    "unipotent-cyclic": _UnipotentSolver(),
    "special-linear": _SpecialLinearSolver(),
    "general-linear": _GeneralLinearSolver(),
    "diagonal-cyclic": _DiagonalSolver(),
    "conjugate": _ConjugateSolver(),
    "ring-extend": _RingExtendSolver(),
    "ring-rep": _RingRepSolver(),
    "direct-same-degree": _same_degree,
    "crt-assemble": _same_degree,
    "tensor": _TensorSolver(),
    "wreath-product": _WreathProductSolver(),
    "wreath-imprimitive": _WreathImprimitiveSolver(),
}


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
