"""Derivation trees and trapdoored group instances.

A derivation tree is the secret key: leaves carry base matrix groups over
finite fields, internal nodes carry group operations (tensor and same-degree
direct products, the two wreath actions, ring changes, conjugation).
Evaluating the tree bottom-up yields the public instance: a degree, a ring
and a generator list, plus per-leaf embedding data that replays each leaf
group into the composite.  Homomorphisms are built by choosing a trivial map
or a lifted Frobenius at every leaf and composing along the tree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    BudgetTooSmall,
    CapExceeded,
    InsecurityWarning,
    InvalidAutomorphism,
    NotInLeafGroup,
    TreeTypeError,
)
from .matrix import (
    Matrix,
    RingElement,
    block_perm_matrix,
    find_embedding,
    identity,
    is_invertible,
    kron_all,
    mat_det,
    mat_inv,
    mat_mul,
    perm_id,
    ring_change,
    tensor_perm_matrix,
    word_eval,
)
from .ring import (
    GaloisRingSpec,
    RingAutomorphism,
    RingSpec,
    field,
    frobenius_apply,
    primitive_element_coeffs,
)
from .rng import Rng

DIAG_ORDER_CAP = 1 << 20
LEAF_ENUM_CAP = 1 << 16
DEGREE_CAP = 64
RING_CAP = 1 << 32


# ---------------------------------------------------------------------------
# base groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseGroupSpec:
    """A leaf group with a polynomial-time membership procedure.

    kinds and params:
      unipotent-cyclic: (p,)            degree 2 over Z_p, all [[1,x],[0,1]]
      special-linear:   (n, q)          SL(n, GF(q))
      general-linear:   (n, q)          GL(n, GF(q))
      diagonal-cyclic:  (n, q, gen)     diagonal matrices with entries in <gen>
      trivial:          (n, q)          the identity subgroup (homomorphism images)
    """
    kind: str
    params: tuple


def base_unipotent(p: int) -> BaseGroupSpec:
    return BaseGroupSpec("unipotent-cyclic", (p,))


def base_special_linear(n: int, q: int) -> BaseGroupSpec:
    return BaseGroupSpec("special-linear", (n, q))


def base_general_linear(n: int, q: int) -> BaseGroupSpec:
    return BaseGroupSpec("general-linear", (n, q))


def base_diagonal(n: int, q: int, gen: tuple | None = None) -> BaseGroupSpec:
    ring = field(q)
    g = ring.summands[0]
    if gen is None:
        gen = primitive_element_coeffs(g.p, g.m, g.r, g.modulus)
    return BaseGroupSpec("diagonal-cyclic", (n, q, tuple(gen)))


def base_trivial(n: int, q: int) -> BaseGroupSpec:
    return BaseGroupSpec("trivial", (n, q))


def leaf_ring(spec: BaseGroupSpec) -> RingSpec:
    if spec.kind == "unipotent-cyclic":
        return field(spec.params[0])
    return field(spec.params[1])


def leaf_degree(spec: BaseGroupSpec) -> int:
    if spec.kind == "unipotent-cyclic":
        return 2
    return spec.params[0]


def _element_order(a: RingElement, cap: int = DIAG_ORDER_CAP) -> int:
    cur = a
    one = a.ring.one()
    for k in range(1, cap + 1):
        if cur == one:
            return k
        cur = cur * a
    raise CapExceeded(f"element order exceeds {cap}")


def _diag_gen(spec: BaseGroupSpec) -> RingElement:
    ring = leaf_ring(spec)
    return ring.element([spec.params[2]])


def _field_basis_elems(ring: RingSpec) -> list[RingElement]:
    g = ring.summands[0]
    out = []
    for t in range(g.r):
        coeffs = [0] * g.r
        coeffs[t] = 1
        out.append(ring.element([tuple(coeffs)]))
    return out


def leaf_generators(spec: BaseGroupSpec) -> list[Matrix]:
    ring = leaf_ring(spec)
    n = leaf_degree(spec)
    one, zero = ring.one(), ring.zero()
    if spec.kind == "unipotent-cyclic":
        return [Matrix(2, ring, ((one, one), (zero, one)))]
    if spec.kind == "trivial":
        return [identity(n, ring)]
    if spec.kind == "diagonal-cyclic":
        d = _diag_gen(spec)
        gens = []
        for i in range(n):
            rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
            rows[i][i] = d
            gens.append(Matrix(n, ring, tuple(tuple(r) for r in rows)))
        return gens
    if spec.kind in ("special-linear", "general-linear"):
        gens = []
        if n >= 2:
            for i in range(n - 1):
                for b in _field_basis_elems(ring):
                    for (r_, c_) in ((i, i + 1), (i + 1, i)):
                        rows = [[one if a == bb else zero for bb in range(n)]
                                for a in range(n)]
                        rows[r_][c_] = b
                        gens.append(Matrix(n, ring, tuple(tuple(r) for r in rows)))
        if spec.kind == "general-linear":
            g = ring.summands[0]
            zeta = ring.element([primitive_element_coeffs(g.p, g.m, g.r, g.modulus)])
            rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
            rows[0][0] = zeta
            gens.append(Matrix(n, ring, tuple(tuple(r) for r in rows)))
        if not gens:  # SL(1, q) is trivial
            gens = [identity(n, ring)]
        return gens
    raise TreeTypeError(f"unknown base group kind {spec.kind!r}")


def leaf_contains(spec: BaseGroupSpec, g: Matrix) -> bool:
    ring = leaf_ring(spec)
    n = leaf_degree(spec)
    if g.ring != ring or g.n != n:
        return False
    one, zero = ring.one(), ring.zero()
    if spec.kind == "unipotent-cyclic":
        return g[0, 0] == one and g[1, 1] == one and g[1, 0] == zero
    if spec.kind == "trivial":
        return g.is_identity()
    if spec.kind == "special-linear":
        return mat_det(g) == one
    if spec.kind == "general-linear":
        return is_invertible(g)
    if spec.kind == "diagonal-cyclic":
        if not g.is_diagonal():
            return False
        powers = _diag_power_set(spec)
        return all(g[i, i].coeffs in powers for i in range(n))
    raise TreeTypeError(f"unknown base group kind {spec.kind!r}")


_diag_powers_cache: dict = {}


def _diag_power_set(spec: BaseGroupSpec) -> dict:
    """coeffs -> exponent for all powers of the diagonal generator."""
    if spec not in _diag_powers_cache:
        d = _diag_gen(spec)
        order = _element_order(d)
        table = {}
        cur = d.ring.one()
        for e in range(order):
            table[cur.coeffs] = e
            cur = cur * d
        _diag_powers_cache[spec] = table
    return _diag_powers_cache[spec]


def leaf_order(spec: BaseGroupSpec) -> int:
    if spec.kind == "unipotent-cyclic":
        return spec.params[0]
    if spec.kind == "trivial":
        return 1
    n, q = spec.params[0], spec.params[1]
    if spec.kind == "special-linear":
        o = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            o *= q ** i - 1
        return o
    if spec.kind == "general-linear":
        o = 1
        for i in range(n):
            o *= q ** n - q ** i
        return o
    if spec.kind == "diagonal-cyclic":
        return _element_order(_diag_gen(spec)) ** n
    raise TreeTypeError(f"unknown base group kind {spec.kind!r}")


_leaf_enum_cache: dict = {}


def leaf_enumerate(spec: BaseGroupSpec, cap: int = LEAF_ENUM_CAP) -> list[Matrix]:
    """All leaf group elements (bounded; leaves are desk-scale by contract)."""
    if spec in _leaf_enum_cache:
        return _leaf_enum_cache[spec]
    if leaf_order(spec) > cap:
        raise CapExceeded(f"leaf group of order {leaf_order(spec)} exceeds {cap}")
    ring = leaf_ring(spec)
    n = leaf_degree(spec)
    if spec.kind == "unipotent-cyclic":
        one, zero = ring.one(), ring.zero()
        out = [Matrix(2, ring, ((one, x), (zero, one))) for x in ring.enumerate()]
    elif spec.kind == "trivial":
        out = [identity(n, ring)]
    elif spec.kind == "diagonal-cyclic":
        d = _diag_gen(spec)
        order = _element_order(d)
        powers = [d.pow(e) for e in range(order)]
        one, zero = ring.one(), ring.zero()
        out = []

        def rec(i, diag):
            if i == n:
                rows = tuple(tuple(diag[a] if a == b else zero
                                   for b in range(n)) for a in range(n))
                out.append(Matrix(n, ring, rows))
                return
            for p_ in powers:
                rec(i + 1, diag + [p_])
        rec(0, [])
    else:
        out = _bfs_closure(leaf_generators(spec), cap)
    _leaf_enum_cache[spec] = out
    return out


def _bfs_closure(gens: list[Matrix], cap: int) -> list[Matrix]:
    start = identity(gens[0].n, gens[0].ring)
    seen = {start.key(): start}
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mat_mul(a, g)
                k = b.key()
                if k not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure exceeds cap {cap}")
                    seen[k] = b
                    nxt.append(b)
        frontier = nxt
    return list(seen.values())


def leaf_random(spec: BaseGroupSpec, rng: Rng) -> Matrix:
    gens = leaf_generators(spec)
    length = rng.randint(1, 6)
    letters = []
    for _ in range(length):
        i = rng.randint(1, len(gens))
        letters.append(i if rng.chance(0.7) else -i)
    return word_eval(gens, letters)


# ---------------------------------------------------------------------------
# derivation trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpLabel:
    kind: str
    m: int = 0                      # wreath arity
    d: int = 0                      # ring-rep block degree
    seed: int = 0                   # conjugate
    target: RingSpec | None = None  # ring-extend target


@dataclass(frozen=True)
class DerivationTree:
    base: BaseGroupSpec | None = None
    label: OpLabel | None = None
    children: tuple = ()

    def is_leaf(self) -> bool:
        return self.base is not None


def leaf(base: BaseGroupSpec) -> DerivationTree:
    return DerivationTree(base=base)


def node(label: OpLabel, children) -> DerivationTree:
    return DerivationTree(label=label, children=tuple(children))


def tensor(*children) -> DerivationTree:
    return node(OpLabel("tensor"), children)


def direct_same_degree(*children) -> DerivationTree:
    return node(OpLabel("direct-same-degree"), children)


def crt_assemble(*children) -> DerivationTree:
    return node(OpLabel("crt-assemble"), children)


def wreath_imprimitive(child, m: int) -> DerivationTree:
    return node(OpLabel("wreath-imprimitive", m=m), [child])


def wreath_product(child, m: int) -> DerivationTree:
    return node(OpLabel("wreath-product", m=m), [child])


def conjugate(child, seed: int) -> DerivationTree:
    return node(OpLabel("conjugate", seed=seed), [child])


def ring_extend(child, target: RingSpec) -> DerivationTree:
    return node(OpLabel("ring-extend", target=target), [child])


def ring_rep(child, d: int) -> DerivationTree:
    return node(OpLabel("ring-rep", d=d), [child])


@dataclass(frozen=True)
class NodeInfo:
    ring: RingSpec
    degree: int
    # crt/direct nodes: per child, summand positions inside ring
    positions: tuple | None = None
    # summand indices where elements of this group may differ from identity
    support: tuple = ()
    conj: Matrix | None = None
    conj_inv: Matrix | None = None


_info_cache: dict = {}


def _info(t: DerivationTree) -> NodeInfo:
    if t in _info_cache:
        return _info_cache[t]
    info = _compute_info(t)
    _info_cache[t] = info
    return info


def _compute_info(t: DerivationTree) -> NodeInfo:
    if t.is_leaf():
        _validate_leaf(t.base)
        ring = leaf_ring(t.base)
        return NodeInfo(ring, leaf_degree(t.base),
                        support=tuple(range(len(ring.summands))))
    lab = t.label
    kids = [_info(c) for c in t.children]
    if lab.kind == "tensor":
        if len(kids) < 2:
            raise TreeTypeError("tensor needs at least two children")
        ring = kids[0].ring
        if any(k.ring != ring for k in kids):
            raise TreeTypeError("tensor children must share a ring")
        deg = 1
        for k in kids:
            deg *= k.degree
        support = tuple(sorted(set().union(*(set(k.support) for k in kids))))
        return NodeInfo(ring, deg, support=support)
    if lab.kind in ("direct-same-degree", "crt-assemble"):
        if lab.kind == "direct-same-degree" and len(kids) < 2:
            raise TreeTypeError("direct-same-degree needs at least two children")
        if not kids:
            raise TreeTypeError("crt-assemble needs at least one child")
        deg = kids[0].degree
        if any(k.degree != deg for k in kids):
            raise TreeTypeError("same-degree product children must share a degree")
        same_ring = all(k.ring == kids[0].ring for k in kids)
        if (lab.kind == "direct-same-degree" and same_ring
                and len(kids[0].ring.summands) > 1):
            # common-ring mode: supports must be pairwise disjoint
            seen: set = set()
            for k in kids:
                if seen & set(k.support):
                    raise TreeTypeError(
                        "direct-same-degree factors must live on disjoint summands")
                seen |= set(k.support)
            positions = tuple(k.support for k in kids)
            return NodeInfo(kids[0].ring, deg, positions=positions,
                            support=tuple(sorted(seen)))
        # assemble mode: fresh direct sum, one block per child
        from .ring import direct_sum_specs
        parts = []
        owner = []
        for i, k in enumerate(kids):
            for g in k.ring.summands:
                parts.append(g)
                owner.append(i)
        big, posmap = direct_sum_specs(parts)
        positions: list[list[int]] = [[] for _ in kids]
        for j, i in enumerate(owner):
            positions[i].append(posmap[j])
        positions = tuple(tuple(sorted(p)) for p in positions)
        return NodeInfo(big, deg, positions=positions,
                        support=tuple(range(len(big.summands))))
    if lab.kind in ("wreath-imprimitive", "wreath-product"):
        if len(kids) != 1:
            raise TreeTypeError("wreath takes a single child")
        if lab.m < 2:
            raise TreeTypeError("wreath arity must be >= 2")
        k = kids[0]
        deg = k.degree * lab.m if lab.kind == "wreath-imprimitive" \
            else k.degree ** lab.m
        return NodeInfo(k.ring, deg, support=k.support)
    if lab.kind == "ring-extend":
        if len(kids) != 1:
            raise TreeTypeError("ring-extend takes a single child")
        find_embedding(kids[0].ring, lab.target)  # raises NoSuchEmbedding
        return NodeInfo(lab.target, kids[0].degree,
                        support=tuple(range(len(lab.target.summands))))
    if lab.kind == "ring-rep":
        if len(kids) != 1:
            raise TreeTypeError("ring-rep takes a single child")
        k = kids[0]
        if len(k.ring.summands) != 1:
            raise TreeTypeError("ring-rep needs a single-summand ring")
        g = k.ring.summands[0]
        if g.r != lab.d or lab.d < 2:
            raise TreeTypeError("ring-rep block degree must equal the ring rank >= 2")
        dst = RingSpec((GaloisRingSpec(g.p, g.m, 1, (0, 1)),))
        return NodeInfo(dst, k.degree * lab.d, support=(0,))
    if lab.kind == "conjugate":
        if len(kids) != 1:
            raise TreeTypeError("conjugate takes a single child")
        k = kids[0]
        c = _derive_conjugator(k.ring, k.degree, lab.seed)
        return NodeInfo(k.ring, k.degree, support=k.support,
                        conj=c, conj_inv=mat_inv(c))
    raise TreeTypeError(f"unknown operation {lab.kind!r}")


def _validate_leaf(spec: BaseGroupSpec) -> None:
    try:
        ring = leaf_ring(spec)
        n = leaf_degree(spec)
    except Exception as e:  # bad prime / prime power
        raise TreeTypeError(f"bad leaf parameters: {e}") from None
    if n < 1:
        raise TreeTypeError("leaf degree must be >= 1")
    if spec.kind == "diagonal-cyclic":
        d = _diag_gen(spec)
        if not d.is_unit():
            raise TreeTypeError("diagonal generator must be a unit")
        _element_order(d)  # raises CapExceeded past the power-testing cap
    elif spec.kind in ("special-linear", "general-linear"):
        if n < 1:
            raise TreeTypeError("degree must be positive")
    elif spec.kind not in ("unipotent-cyclic", "trivial"):
        raise TreeTypeError(f"unknown base group kind {spec.kind!r}")


def _derive_conjugator(ring: RingSpec, n: int, seed: int) -> Matrix:
    rng = Rng(seed ^ 0x5EED_C0DE)
    for _ in range(256):
        rows = []
        for _i in range(n):
            row = []
            for _j in range(n):
                coeffs = tuple(
                    tuple(rng.below(g.q) for _ in range(g.r))
                    for g in ring.summands)
                row.append(RingElement(ring, coeffs))
            rows.append(tuple(row))
        c = Matrix(n, ring, tuple(rows))
        if is_invertible(c):
            return c
    raise TreeTypeError("could not derive an invertible conjugator")


def validate_tree(t: DerivationTree) -> None:
    """Raise TreeTypeError when the tree is ill-typed."""
    if t.is_leaf():
        if t.label is not None or t.children:
            raise TreeTypeError("leaf cannot carry an operation label or children")
    else:
        if t.label is None:
            raise TreeTypeError("internal node needs an operation label")
        for c in t.children:
            validate_tree(c)
    _info(t)


def tree_leaves(t: DerivationTree) -> list[BaseGroupSpec]:
    if t.is_leaf():
        return [t.base]
    out = []
    for c in t.children:
        out.extend(tree_leaves(c))
    return out


def tree_size(t: DerivationTree) -> int:
    """L(T): sum of label sizes plus the edge count."""
    if t.is_leaf():
        ring = leaf_ring(t.base)
        return leaf_degree(t.base) ** 2 * max(1, ring.order.bit_length())
    lab = t.label
    if lab.kind == "ring-extend":
        size = max(1, lab.target.order.bit_length())
    elif lab.kind == "ring-rep":
        size = lab.d * lab.d
    elif lab.kind in ("wreath-imprimitive", "wreath-product"):
        size = lab.m
    elif lab.kind == "conjugate":
        size = 2
    else:
        size = len(t.children)
    return size + len(t.children) + sum(tree_size(c) for c in t.children)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class GroupInstance:
    n: int
    ring: RingSpec
    gens: tuple
    provenance: dict  # leaf_id -> tuple of embedding steps, leaf to root


def _crt_lift_multi(h: Matrix, big: RingSpec, positions: tuple) -> Matrix:
    """Matrix over big agreeing with h on the listed summands, identity elsewhere."""
    back = {pos: t for t, pos in enumerate(positions)}
    ident = identity(h.n, big).data
    return Matrix._of(h.n, big, tuple(
        h.data[back[s]] if s in back else ident[s] for s in range(len(ident))))


def _apply_step(step: tuple, h: Matrix) -> Matrix:
    kind = step[0]
    if kind == "tensor":
        _, ring, degrees, idx = step
        parts = [identity(d, ring) for d in degrees]
        parts[idx] = h
        return kron_all(parts)
    if kind == "assemble":
        _, big, positions = step
        return _crt_lift_multi(h, big, positions)
    if kind == "noop":
        return h
    if kind == "wreath-imp":
        _, m = step
        return wreath_embed_imprimitive(h, m)
    if kind == "wreath-prod":
        _, m = step
        return kron_all([h] + [identity(h.n, h.ring)] * (m - 1))
    if kind == "ring-extend":
        _, dst = step
        return ring_change(h, ("extend-to", dst))
    if kind == "ring-rep":
        _, d = step
        return ring_change(h, ("rep-to", d))
    if kind == "conjugate":
        _, c, cinv = step
        return mat_mul(mat_mul(cinv, h), c)
    raise TreeTypeError(f"unknown embedding step {kind!r}")


def wreath_embed_imprimitive(h: Matrix, m: int) -> Matrix:
    """Block-diagonal (h, I, ..., I) of degree h.n * m."""
    from .matrix import wreath_rep
    return wreath_rep([h] + [identity(h.n, h.ring)] * (m - 1),
                      perm_id(m), "imprimitive")


def _eval(t: DerivationTree, next_leaf: list[int]):
    """Returns (gens, leafsteps: dict leaf_id -> list of steps leaf-to-root)."""
    info = _info(t)
    if t.is_leaf():
        lid = next_leaf[0]
        next_leaf[0] += 1
        return list(leaf_generators(t.base)), {lid: []}
    lab = t.label
    gens: list[Matrix] = []
    steps: dict[int, list] = {}
    kid_results = []
    for c in t.children:
        kid_results.append(_eval(c, next_leaf))
    if lab.kind == "tensor":
        degrees = [_info(c).degree for c in t.children]
        for idx, (kg, ks) in enumerate(kid_results):
            step = ("tensor", info.ring, tuple(degrees), idx)
            for g in kg:
                gens.append(_apply_step(step, g))
            for lid, s in ks.items():
                steps[lid] = s + [step]
    elif lab.kind in ("direct-same-degree", "crt-assemble"):
        for idx, (kg, ks) in enumerate(kid_results):
            child_ring = _info(t.children[idx]).ring
            if child_ring == info.ring:
                step = ("noop",)
            else:
                step = ("assemble", info.ring, info.positions[idx])
            for g in kg:
                gens.append(_apply_step(step, g))
            for lid, s in ks.items():
                steps[lid] = s + [step]
    elif lab.kind == "wreath-imprimitive":
        kg, ks = kid_results[0]
        step = ("wreath-imp", lab.m)
        gens = [_apply_step(step, g) for g in kg]
        gens.extend(_perm_part_gens(lab.m, _info(t.children[0]).degree,
                                    info.ring, "imprimitive"))
        steps = {lid: s + [step] for lid, s in ks.items()}
    elif lab.kind == "wreath-product":
        kg, ks = kid_results[0]
        step = ("wreath-prod", lab.m)
        gens = [_apply_step(step, g) for g in kg]
        gens.extend(_perm_part_gens(lab.m, _info(t.children[0]).degree,
                                    info.ring, "product"))
        steps = {lid: s + [step] for lid, s in ks.items()}
    elif lab.kind == "ring-extend":
        kg, ks = kid_results[0]
        step = ("ring-extend", lab.target)
        gens = [_apply_step(step, g) for g in kg]
        steps = {lid: s + [step] for lid, s in ks.items()}
    elif lab.kind == "ring-rep":
        kg, ks = kid_results[0]
        step = ("ring-rep", lab.d)
        gens = [_apply_step(step, g) for g in kg]
        steps = {lid: s + [step] for lid, s in ks.items()}
    elif lab.kind == "conjugate":
        kg, ks = kid_results[0]
        step = ("conjugate", info.conj, info.conj_inv)
        gens = [_apply_step(step, g) for g in kg]
        steps = {lid: s + [step] for lid, s in ks.items()}
    else:
        raise TreeTypeError(f"unknown operation {lab.kind!r}")
    return gens, steps


def _perm_part_gens(m: int, n: int, ring: RingSpec, mode: str) -> list[Matrix]:
    """Symmetric-group part: a transposition and an m-cycle on coordinates."""
    perms = [tuple([1, 0] + list(range(2, m)))]
    if m > 2:
        perms.append(tuple(list(range(1, m)) + [0]))
    build = block_perm_matrix if mode == "imprimitive" else tensor_perm_matrix
    return [build(k, n, ring) for k in perms]


_eval_cache: dict = {}


def tree_eval(t: DerivationTree) -> GroupInstance:
    """Public instance of the tree: degree, ring, generators, leaf embeddings."""
    if t in _eval_cache:
        return _eval_cache[t]
    validate_tree(t)
    info = _info(t)
    gens, steps = _eval(t, [0])
    inst = GroupInstance(info.degree, info.ring, tuple(gens),
                         {lid: tuple(s) for lid, s in steps.items()})
    _eval_cache[t] = inst
    return inst


def leaf_embed(t: DerivationTree, leaf_id: int, h: Matrix) -> Matrix:
    """Replay the provenance path of a leaf element into the composite group."""
    specs = tree_leaves(t)
    if not (0 <= leaf_id < len(specs)):
        raise NotInLeafGroup(f"no leaf {leaf_id}")
    if not leaf_contains(specs[leaf_id], h):
        raise NotInLeafGroup(f"element is not in leaf group {leaf_id}")
    inst = tree_eval(t)
    out = h
    for step in inst.provenance[leaf_id]:
        out = _apply_step(step, out)
    return out


def subgroup_sample(t: DerivationTree, seed: int):
    """Two generator lists from random leaf elements; warns when they centralize."""
    rng = Rng(seed)
    specs = tree_leaves(t)
    gens_a, gens_b = [], []
    for lid, spec in enumerate(specs):
        for _ in range(rng.randint(1, 2)):
            gens_a.append(leaf_embed(t, lid, leaf_random(spec, rng.fork(1))))
        for _ in range(rng.randint(1, 2)):
            gens_b.append(leaf_embed(t, lid, leaf_random(spec, rng.fork(2))))
    if all(mat_mul(a, b) == mat_mul(b, a) for a in gens_a for b in gens_b):
        warnings.warn(InsecurityWarning(
            "sampled subgroups centralize each other; commutator keys are trivial"))
    return gens_a, gens_b


# ---------------------------------------------------------------------------
# random trees
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
_SMALL_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def tree_random(budget: int, seed: int, *, max_degree: int = DEGREE_CAP,
                max_ring: int = RING_CAP) -> DerivationTree:
    """A well-typed random tree with L(T) <= budget, deterministic in seed."""
    min_leaf = tree_size(leaf(base_unipotent(2)))
    if budget < min_leaf:
        raise BudgetTooSmall(f"budget {budget} below smallest leaf size {min_leaf}")
    rng = Rng(seed)
    for _ in range(64):
        t = _rand_node(rng, budget, None, None, 0, max_degree, max_ring)
        if tree_size(t) <= budget:
            validate_tree(t)
            return t
    t = _rand_leaf(rng, None, None)
    validate_tree(t)
    return t


def _rand_leaf(rng: Rng, forced_ring, forced_degree) -> DerivationTree:
    for _ in range(64):
        if forced_ring is not None:
            g = forced_ring.summands[0]
            q = g.order
            p = g.p
            kinds = []
            if forced_degree in (None, 2) and g.r == 1 and g.m == 1:
                kinds.append("unipotent")
            if forced_degree is None or forced_degree >= 1:
                kinds.append("diag")
            if (forced_degree is None or forced_degree >= 2) and q <= 9:
                kinds.append("sl")
            if forced_degree is None or forced_degree >= 1:
                kinds.append("gl")
            kind = rng.choice(kinds)
            if kind == "unipotent":
                return leaf(base_unipotent(p))
            n = forced_degree if forced_degree is not None else rng.randint(1, 2)
            if kind == "diag":
                return leaf(base_diagonal(n, q))
            if kind == "sl" and n >= 2:
                return leaf(base_special_linear(n, q))
            return leaf(base_general_linear(n, q))
        kind = rng.choice(["unipotent", "unipotent", "sl", "gl", "diag"])
        if kind == "unipotent" and forced_degree in (None, 2):
            return leaf(base_unipotent(rng.choice(_SMALL_PRIMES)))
        if kind == "sl":
            n = forced_degree if forced_degree is not None else 2
            if n >= 2:
                return leaf(base_special_linear(n, rng.choice((2, 3, 4, 5))))
            continue
        if kind == "gl":
            n = forced_degree if forced_degree is not None else rng.randint(1, 2)
            return leaf(base_general_linear(n, rng.choice((2, 3, 4, 5))))
        if kind == "diag":
            n = forced_degree if forced_degree is not None else rng.randint(1, 2)
            return leaf(base_diagonal(n, rng.choice(_SMALL_PRIME_POWERS)))
    return leaf(base_unipotent(2) if forced_degree in (None, 2)
                else base_diagonal(forced_degree or 1, 3))


def _rand_node(rng: Rng, budget: int, forced_ring, forced_degree, depth: int,
               max_degree: int, max_ring: int) -> DerivationTree:
    leaf_prob = 0.25 if budget > 60 else (0.5 if budget > 25 else 0.95)
    if depth >= 5 or rng.chance(leaf_prob):
        return _rand_leaf(rng, forced_ring, forced_degree)
    ops = ["conjugate", "tensor", "wreath-imp", "wreath-prod",
           "direct", "crt", "ring-extend", "ring-rep"]
    rng.shuffle(ops)
    for op in ops:
        t = _try_op(op, rng, budget, forced_ring, forced_degree, depth,
                    max_degree, max_ring)
        if t is not None:
            return t
    return _rand_leaf(rng, forced_ring, forced_degree)


def _try_op(op: str, rng: Rng, budget: int, forced_ring, forced_degree,
            depth: int, max_degree: int, max_ring: int):
    sub = budget // 2 - 2
    if sub < 4:
        return None
    try:
        if op == "conjugate":
            child = _rand_node(rng, budget - 4, forced_ring, forced_degree,
                               depth + 1, max_degree, max_ring)
            return conjugate(child, rng.below(1 << 32))
        if op == "tensor":
            if forced_degree is not None:
                return None
            c1 = _rand_node(rng, sub, forced_ring, None, depth + 1,
                            max_degree, max_ring)
            r1 = _info(c1).ring
            d1 = _info(c1).degree
            if d1 * 2 > max_degree or len(r1.summands) != 1:
                return None
            c2 = _rand_node(rng, sub, r1, None, depth + 1,
                            max_degree // max(1, d1), max_ring)
            if d1 * _info(c2).degree > max_degree:
                return None
            return tensor(c1, c2)
        if op in ("direct", "crt"):
            if forced_ring is not None:
                return None
            c1 = _rand_node(rng, sub, None, forced_degree, depth + 1,
                            max_degree, max_ring)
            i1 = _info(c1)
            c2 = _rand_node(rng, sub, None, i1.degree, depth + 1,
                            max_degree, max_ring)
            i2 = _info(c2)
            if i2.degree != i1.degree:
                return None
            if i1.ring.order * i2.ring.order > max_ring:
                return None
            return (direct_same_degree if op == "direct" else crt_assemble)(c1, c2)
        if op == "wreath-imp":
            m = rng.randint(2, 3)
            if forced_degree is not None and forced_degree % m != 0:
                return None
            child_deg = forced_degree // m if forced_degree else None
            child = _rand_node(rng, budget - m - 1, forced_ring, child_deg,
                               depth + 1, max_degree // m, max_ring)
            if _info(child).degree * m > max_degree:
                return None
            return wreath_imprimitive(child, m)
        if op == "wreath-prod":
            if forced_degree is not None:
                return None
            m = 2
            child = _rand_node(rng, budget - m - 1, forced_ring, None,
                               depth + 1, 8, max_ring)
            if _info(child).degree ** m > max_degree:
                return None
            return wreath_product(child, m)
        if op == "ring-extend":
            if forced_ring is not None:
                return None
            child = _rand_node(rng, budget - 8, None, forced_degree,
                               depth + 1, max_degree, max_ring)
            r = _info(child).ring
            if len(r.summands) != 1:
                return None
            g = r.summands[0]
            if g.m != 1:
                return None
            d = 2
            if g.p ** (g.r * d) > min(max_ring, 1 << 12):
                return None
            target = field(g.p ** (g.r * d))
            return ring_extend(child, target)
        if op == "ring-rep":
            q = rng.choice((4, 9))
            gq = field(q).summands[0]
            if forced_ring is not None and forced_ring != field(gq.p):
                return None
            child_deg = None
            if forced_degree is not None:
                if forced_degree % gq.r != 0:
                    return None
                child_deg = forced_degree // gq.r
            child = _rand_node(rng, budget - 6, field(q), child_deg,
                               depth + 1, max_degree // gq.r, max_ring)
            if _info(child).degree * gq.r > max_degree:
                return None
            return ring_rep(child, gq.r)
    except (TreeTypeError, BudgetTooSmall):
        return None
    return None


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

@dataclass
class HomSpec:
    tree: DerivationTree
    choices: tuple       # per leaf id: ("f0",) or ("frob", e)
    image_tree: DerivationTree
    gen_images: tuple    # images of the domain instance's generators


def hom_build(t: DerivationTree, choices) -> HomSpec:
    """Compose per-leaf homomorphism choices along the tree."""
    validate_tree(t)
    specs = tree_leaves(t)
    choices = tuple(tuple(c) for c in choices)
    if len(choices) != len(specs):
        raise InvalidAutomorphism(
            f"expected {len(specs)} leaf choices, got {len(choices)}")
    for spec, ch in zip(specs, choices):
        if ch[0] == "f0":
            continue
        if ch[0] != "frob":
            raise InvalidAutomorphism(f"unknown leaf choice {ch!r}")
        g = leaf_ring(spec).summands[0]
        if not (0 <= ch[1] < g.r):
            raise InvalidAutomorphism(
                f"Frobenius exponent {ch[1]} out of range for rank {g.r}")
    _validate_hom_compat(t, choices)
    image = _image_tree(t, choices, [0])
    validate_tree(image)
    dom = tree_eval(t)
    img_inst = tree_eval(image)
    gen_images = _image_gens(t, image, choices, [0])
    if len(gen_images) != len(dom.gens):
        raise InvalidAutomorphism("generator image table misaligned")
    del img_inst
    return HomSpec(t, choices, image, tuple(gen_images))


def _image_tree(t: DerivationTree, choices, counter) -> DerivationTree:
    if t.is_leaf():
        ch = choices[counter[0]]
        counter[0] += 1
        if ch[0] == "f0":
            ring = leaf_ring(t.base)
            return leaf(base_trivial(leaf_degree(t.base), ring.order))
        return t
    kids = [_image_tree(c, choices, counter) for c in t.children]
    return DerivationTree(label=t.label, children=tuple(kids))


def leaf_hom_apply(spec: BaseGroupSpec, ch: tuple, h: Matrix) -> Matrix:
    if ch[0] == "f0":
        return identity(h.n, h.ring)
    ring = h.ring
    aut = RingAutomorphism(ring, (ch[1],) * len(ring.summands))
    rows = tuple(tuple(frobenius_apply(aut, e) for e in row) for row in h.rows)
    return Matrix(h.n, ring, rows)


def _image_gens(t, img, choices, counter) -> list[Matrix]:
    """Images of the node's generator list, built alongside the image tree."""
    if t.is_leaf():
        ch = choices[counter[0]]
        counter[0] += 1
        return [leaf_hom_apply(t.base, ch, g) for g in leaf_generators(t.base)]
    lab = t.label
    img_info = _info(img)
    kid_images = []
    for c, ic in zip(t.children, img.children):
        kid_images.append(_image_gens(c, ic, choices, counter))
    out: list[Matrix] = []
    if lab.kind == "tensor":
        degrees = [_info(ic).degree for ic in img.children]
        for idx, kg in enumerate(kid_images):
            step = ("tensor", img_info.ring, tuple(degrees), idx)
            out.extend(_apply_step(step, g) for g in kg)
    elif lab.kind in ("direct-same-degree", "crt-assemble"):
        for idx, kg in enumerate(kid_images):
            child_ring = _info(img.children[idx]).ring
            step = ("noop",) if child_ring == img_info.ring else \
                ("assemble", img_info.ring, img_info.positions[idx])
            out.extend(_apply_step(step, g) for g in kg)
    elif lab.kind == "wreath-imprimitive":
        out = [_apply_step(("wreath-imp", lab.m), g) for g in kid_images[0]]
        out.extend(_perm_part_gens(lab.m, _info(img.children[0]).degree,
                                   img_info.ring, "imprimitive"))
    elif lab.kind == "wreath-product":
        out = [_apply_step(("wreath-prod", lab.m), g) for g in kid_images[0]]
        out.extend(_perm_part_gens(lab.m, _info(img.children[0]).degree,
                                   img_info.ring, "product"))
    elif lab.kind == "ring-extend":
        out = [_apply_step(("ring-extend", lab.target), g) for g in kid_images[0]]
    elif lab.kind == "ring-rep":
        out = [_apply_step(("ring-rep", lab.d), g) for g in kid_images[0]]
    elif lab.kind == "conjugate":
        step = ("conjugate", img_info.conj, img_info.conj_inv)
        out = [_apply_step(step, g) for g in kid_images[0]]
    return out


def _subtree_signature(t: DerivationTree, choices, counter):
    """Effective scalar action of the composed map: 'one', ('frob', e) or 'mixed'."""
    if t.is_leaf():
        ch = choices[counter[0]]
        counter[0] += 1
        return "one" if ch[0] == "f0" else ("frob", ch[1])
    sigs = [_subtree_signature(c, choices, counter) for c in t.children]
    first = sigs[0]
    if all(s == first for s in sigs):
        return first
    return "mixed"


def _validate_hom_compat(t: DerivationTree, choices) -> None:
    """Well-definedness on tensor / product-wreath nodes.

    Factor decompositions there are unique only up to scalar twists, so the
    child maps must agree on the shared scalar subgroups; a trivial overlap
    imposes nothing.
    """
    from . import trapdoor

    def walk(node, counter):
        if node.is_leaf():
            counter[0] += 1
            return
        start = counter[0]
        child_sigs = []
        for c in node.children:
            sub_counter = [counter[0]]
            sig = _subtree_signature(c, choices, sub_counter)
            child_sigs.append(sig)
            counter[0] = sub_counter[0]
        if node.label.kind in ("tensor", "wreath-product"):
            kids = list(node.children)
            if node.label.kind == "wreath-product":
                kids = kids * node.label.m
                child_sigs = child_sigs * node.label.m
            zs = [trapdoor.scalar_subgroup(c) for c in kids]
            # over a multi-summand ring with three or more factors, scalar
            # relations can couple factors whose subgroups do not intersect;
            # demand one common signature as soon as any factor has scalars
            ring = _info(node).ring
            if (len(kids) >= 3 and len(ring.summands) > 1
                    and sum(1 for z in zs if len(z) > 1) >= 2):
                if len(set(child_sigs)) != 1:
                    raise InvalidAutomorphism(
                        "differing leaf maps over coupled factor scalars")
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    overlap = [u for k, u in zs[i].items() if k in zs[j]]
                    nontrivial = [u for u in overlap if not u.is_one()]
                    if not nontrivial:
                        continue
                    si, sj = child_sigs[i], child_sigs[j]
                    if si == "mixed" or sj == "mixed":
                        raise InvalidAutomorphism(
                            "mixed leaf maps over factors with shared scalars")
                    for u in nontrivial:
                        if _scalar_image(si, u) != _scalar_image(sj, u):
                            raise InvalidAutomorphism(
                                "leaf maps disagree on shared factor scalars")
        # recurse using fresh counters per child
        c2 = [start]
        for c in node.children:
            walk(c, c2)

    walk(t, [0])


def _scalar_image(sig, u: RingElement) -> RingElement:
    if sig == "one":
        return u.ring.one()
    aut = RingAutomorphism(u.ring, tuple(
        sig[1] % g.r for g in u.ring.summands))
    return frobenius_apply(aut, u)


def hom_apply(h: HomSpec, g: Matrix):
    """f(g): decompose g along the tree, map leaf components, reassemble."""
    from . import trapdoor
    from .errors import NotInGroup

    verdict = trapdoor.membership(h.tree, g)
    if not verdict.accepted:
        raise NotInGroup("element is outside the instance group")
    return _apply_witness(h.tree, h.image_tree, h.choices, verdict.witness, [0])


def _apply_witness(t, img, choices, wit, counter) -> Matrix:
    if t.is_leaf():
        ch = choices[counter[0]]
        counter[0] += 1
        return leaf_hom_apply(t.base, ch, wit[1])
    lab = t.label
    img_info = _info(img)
    kind = wit[0]
    if kind == "conjugate":
        sub = _apply_witness(t.children[0], img.children[0], choices,
                             wit[1], counter)
        return mat_mul(mat_mul(img_info.conj_inv, sub), img_info.conj)
    if kind == "ring":
        sub = _apply_witness(t.children[0], img.children[0], choices,
                             wit[1], counter)
        if lab.kind == "ring-extend":
            return ring_change(sub, ("extend-to", lab.target))
        return ring_change(sub, ("rep-to", lab.d))
    if kind == "crt":
        parts = []
        for idx, w in enumerate(wit[1]):
            parts.append(_apply_witness(t.children[idx], img.children[idx],
                                        choices, w, counter))
        out = identity(img_info.degree, img_info.ring)
        for idx, part in enumerate(parts):
            child_ring = _info(img.children[idx]).ring
            step = ("noop",) if child_ring == img_info.ring else \
                ("assemble", img_info.ring, img_info.positions[idx])
            out = mat_mul(out, _apply_step(step, part))
        return out
    if kind == "tensor":
        parts = []
        for idx, w in enumerate(wit[1]):
            parts.append(_apply_witness(t.children[idx], img.children[idx],
                                        choices, w, counter))
        return kron_all(parts)
    if kind == "wreath":
        _, k, subs = wit
        parts = []
        saved = counter[0]
        for w in subs:
            counter[0] = saved
            parts.append(_apply_witness(t.children[0], img.children[0],
                                        choices, w, counter))
        mode = "imprimitive" if lab.kind == "wreath-imprimitive" else "product"
        from .matrix import wreath_rep
        return wreath_rep(parts, k, mode)
    raise TreeTypeError(f"unknown witness node {kind!r}")
