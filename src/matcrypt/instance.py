"""Derivation trees and trapdoored group instances.

A derivation tree is the secret key: leaves carry base matrix groups over
finite fields, internal nodes carry group operations (tensor and same-degree
direct products, the two wreath actions, ring changes, conjugation).
Evaluating the tree bottom-up yields the public instance: a degree, a ring
and a generator list.  Homomorphisms are built by choosing a trivial map or a
lifted Frobenius at every leaf and composing along the tree.

Each leaf and operation kind is one class here (``_KINDS`` maps the stored
kind strings to them) with its checks, lifting and assembly; its solvers are
one class in ``trapdoor``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .analysis import enumerate_group
from .errors import (
    BudgetTooSmall,
    CapExceeded,
    InsecurityWarning,
    InvalidAutomorphism,
    MatcryptError,
    NonInvertible,
    NotInLeafGroup,
    TreeTypeError,
)
from .matrix import (
    Matrix,
    RingElement,
    _crt_lift,
    _random_invertible,
    _to_entry,
    _zero,
    block_perm_matrix,
    find_embedding,
    identity,
    imprimitive_rep,
    is_invertible,
    kron_all,
    mat_det,
    mat_inv,
    mat_mul,
    perm_id,
    product_rep,
    ring_change,
    tensor_perm_matrix,
    word_eval,
)
from .ring import (
    RingAutomorphism,
    RingSpec,
    Zmod,
    direct_sum_specs,
    field,
    frobenius_apply,
    is_prime,
    primitive_element_coeffs,
    root_of_unity,
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

    kinds and params (each kind is a ``_LeafKind`` class below):
      unipotent-cyclic: (p,)            degree 2 over Z_p (p prime), all [[1,x],[0,1]]
      special-linear:   (n, q)          SL(n, GF(q))
      general-linear:   (n, q)          GL(n, GF(q))
      diagonal-cyclic:  (n, q, gen)     diagonal matrices with entries in <gen>,
                                        gen the coefficient tuple of a unit of GF(q)

    Other params (not ints, n < 1, q no prime power) are a TreeTypeError.
    Params that are not ints or tuples of ints fail at construction, so that
    no spec equals (and shares a cache entry with) a well-typed one, as
    (2.0, 3) would equal (2, 3).
    """
    kind: str
    params: tuple

    def __post_init__(self):
        for p in self.params:
            if type(p) is not int and not (
                    type(p) is tuple and all(type(c) is int for c in p)):
                raise TreeTypeError(f"{self.kind} parameters must be integers")


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


def _is_int(x) -> bool:
    return type(x) is int


def _with_entry(n: int, ring: RingSpec, i: int, j: int, x: RingElement) -> Matrix:
    """The identity with entry (i, j) replaced by x."""
    one, zero = ring.one(), ring.zero()
    rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
    rows[i][j] = x
    return Matrix(n, ring, tuple(tuple(r) for r in rows))


class _LeafKind:
    """One leaf kind: its parameter checks and its base group.  The defaults
    fit params (n, q) and enumerate by closing the generators."""

    kind = ""
    arity = 2

    def check(self, params: tuple) -> None:
        """TreeTypeError unless params fit this kind (n >= 1, q a prime power)."""
        if len(params) != self.arity or not all(map(_is_int, params[:2])):
            raise TreeTypeError(
                f"{self.kind} takes {self.arity} parameters, n and q integers")
        if params[0] < 1:
            raise TreeTypeError("leaf degree must be >= 1")
        if params[1] < 2:
            raise TreeTypeError(f"leaf field order {params[1]} < 2")
        try:
            field(params[1])
        except MatcryptError as e:  # not a prime power, or too large to factor
            raise TreeTypeError(f"bad leaf parameters: {e}") from None

    def ring(self, params: tuple) -> RingSpec:
        return field(params[1])

    def degree(self, params: tuple) -> int:
        return params[0]

    def enumerate(self, spec: BaseGroupSpec, ring: RingSpec, n: int) -> list[Matrix]:
        return list(enumerate_group(leaf_generators(spec),
                                    LEAF_ENUM_CAP).matrices())


class _Unipotent(_LeafKind):
    kind = "unipotent-cyclic"
    arity = 1

    def check(self, params):
        if len(params) != 1 or not _is_int(params[0]):
            raise TreeTypeError("unipotent-cyclic takes one integer parameter p")
        if not is_prime(params[0]):
            raise TreeTypeError(f"unipotent-cyclic needs a prime p, not {params[0]}")

    def ring(self, params):
        return field(params[0])

    def degree(self, params):
        return 2

    def generators(self, spec, ring, n):
        return [_with_entry(2, ring, 0, 1, ring.one())]

    def contains(self, spec, g):
        d = g.data[0]  # entries (0, 0), (1, 0) and (1, 1) are 1, 0, 1
        return d[0] == 1 and d[2] == 0 and d[3] == 1

    def order(self, spec):
        return spec.params[0]


class _SpecialLinear(_LeafKind):
    kind = "special-linear"

    def generators(self, spec, ring, n):
        # SL(1, q) is trivial
        return _elementary_gens(n, ring) or [identity(n, ring)]

    def contains(self, spec, g):
        return mat_det(g) == g.ring.one()

    def order(self, spec):
        n, q = spec.params
        o = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            o *= q ** i - 1
        return o


class _GeneralLinear(_LeafKind):
    kind = "general-linear"

    def generators(self, spec, ring, n):
        g = ring.summands[0]
        zeta = ring.element([primitive_element_coeffs(g.p, g.m, g.r, g.modulus)])
        return _elementary_gens(n, ring) + [_with_entry(n, ring, 0, 0, zeta)]

    def contains(self, spec, g):
        return is_invertible(g)

    def order(self, spec):
        n, q = spec.params
        o = 1
        for i in range(n):
            o *= q ** n - q ** i
        return o


def _elementary_gens(n: int, ring: RingSpec) -> list[Matrix]:
    """Elementary transvections generating SL(n, GF(q)), n >= 2."""
    return [_with_entry(n, ring, r_, c_, b)
            for i in range(n - 1) for b in _field_basis_elems(ring)
            for (r_, c_) in ((i, i + 1), (i + 1, i))]


class _Diagonal(_LeafKind):
    kind = "diagonal-cyclic"
    arity = 3

    def check(self, params):
        super().check(params)
        gen, r = params[2], field(params[1]).summands[0].r
        if not (isinstance(gen, tuple) and len(gen) == r
                and all(map(_is_int, gen))):
            raise TreeTypeError(
                f"diagonal generator must be a tuple of {r} integers")
        spec = BaseGroupSpec(self.kind, params)
        if not _diag_gen(spec).is_unit():
            raise TreeTypeError("diagonal generator must be a unit")
        _diag_power_set(spec)  # raises CapExceeded past the power-testing cap

    def generators(self, spec, ring, n):
        d = _diag_gen(spec)
        return [_with_entry(n, ring, i, i, d) for i in range(n)]

    def contains(self, spec, g):
        if not g.is_diagonal():
            return False
        powers = _diag_power_set(spec)
        return all(x in powers for x in g.data[0][::g.n + 1])

    def order(self, spec):
        return len(_diag_power_set(spec)) ** spec.params[0]

    def enumerate(self, spec, ring, n):
        # the table's keys are the generator's powers in exponent order
        out = []
        d = [_zero(ring.summands[0])] * (n * n)
        for diag in itertools.product(_diag_power_set(spec), repeat=n):
            d[::n + 1] = diag
            out.append(Matrix._of(n, ring, (tuple(d),)))
        return out


def _leaf_kind(spec: BaseGroupSpec) -> _LeafKind:
    return _kind_class(spec.kind, _LeafKind)


def leaf_ring(spec: BaseGroupSpec) -> RingSpec:
    return _leaf_kind(spec).ring(spec.params)


def leaf_degree(spec: BaseGroupSpec) -> int:
    return _leaf_kind(spec).degree(spec.params)


def leaf_generators(spec: BaseGroupSpec) -> list[Matrix]:
    return _leaf_kind(spec).generators(spec, leaf_ring(spec), leaf_degree(spec))


def leaf_contains(spec: BaseGroupSpec, g: Matrix) -> bool:
    kind = _leaf_kind(spec)
    if g.ring != kind.ring(spec.params) or g.n != kind.degree(spec.params):
        return False
    return kind.contains(spec, g)


@lru_cache(maxsize=None)
def _diag_power_set(spec: BaseGroupSpec) -> dict:
    """Stored entry (an int at rank 1, else coefficients) -> exponent for
    all powers of the diagonal generator, built by multiplying until a power
    repeats; CapExceeded when the order passes DIAG_ORDER_CAP, or when the
    powers cycle without reaching 1 (a generator that is no unit)."""
    d = _diag_gen(spec)
    g = d.ring.summands[0]
    table = {}
    cur = d.ring.one()
    while (x := _to_entry(g, cur.coeffs[0])) not in table:
        if len(table) >= DIAG_ORDER_CAP:
            raise CapExceeded(f"element order exceeds {DIAG_ORDER_CAP}")
        table[x] = len(table)
        cur = cur * d
    if table[x]:
        raise CapExceeded("the generator's powers never reach 1")
    return table


def leaf_order(spec: BaseGroupSpec) -> int:
    return _leaf_kind(spec).order(spec)


def leaf_enumerate(spec: BaseGroupSpec) -> list[Matrix]:
    """All leaf group elements (bounded; leaves are desk-scale by contract)."""
    # the cache sits on a helper, so that a tracer wrapping the package's
    # plain public functions still sees every call
    return _leaf_elements(spec)


@lru_cache(maxsize=None)
def _leaf_elements(spec: BaseGroupSpec) -> list[Matrix]:
    if leaf_order(spec) > LEAF_ENUM_CAP:
        raise CapExceeded(
            f"leaf group of order {leaf_order(spec)} exceeds {LEAF_ENUM_CAP}")
    return _leaf_kind(spec).enumerate(spec, leaf_ring(spec), leaf_degree(spec))


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
    """An operation label; m, d and seed must be ints, checked here, so that
    a label read from a file fails at construction and not in a solver."""
    kind: str
    m: int = 0                      # wreath arity
    d: int = 0                      # ring-rep block degree
    seed: int = 0                   # conjugate
    target: RingSpec | None = None  # ring-extend target

    def __post_init__(self):
        if not (type(self.m) is int and type(self.d) is int
                and type(self.seed) is int):
            raise TreeTypeError(f"{self.kind} label fields m, d and seed must be integers")


@dataclass(frozen=True)
class DerivationTree:
    """A leaf (base) or an operation (label) on children.

    A node keeps what the solvers derive from it (its NodeInfo, evaluated
    instance, scalar orders, twist memo) in its own ``__dict__``, next to
    the three fields, so the state lives exactly as long as the node.
    Equal trees built separately derive it each on their own.  Pickles,
    copies, equality and the hash see only the fields."""
    base: BaseGroupSpec | None = None
    label: OpLabel | None = None
    children: tuple = ()

    def __getstate__(self):
        return {"base": self.base, "label": self.label,
                "children": self.children}

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
    impl: object    # the node's kind class: a _LeafKind or an _Op
    ring: RingSpec
    degree: int
    leaves: int = 1
    # crt/direct nodes: per child, summand positions inside ring
    positions: tuple | None = None
    conj: Matrix | None = None


def _place(info: NodeInfo, parts) -> tuple:
    """Per node summand, the entry of parts[idx] for child idx, which owns it."""
    out = [None] * len(info.ring.summands)
    for part, positions in zip(parts, info.positions):
        for tpos, pos in enumerate(positions):
            out[pos] = part[tpos]
    return tuple(out)


def _info(t: DerivationTree) -> NodeInfo:
    """t's NodeInfo, computed once per node; TreeTypeError when the subtree
    is ill-typed, and then nothing is stored."""
    info = t.__dict__.get("_info")
    if info is None:
        info = t.__dict__["_info"] = _compute_info(t)
    return info


def _compute_info(t: DerivationTree) -> NodeInfo:
    if t.is_leaf():
        if t.label is not None or t.children:
            raise TreeTypeError("leaf cannot carry an operation label or children")
        kind = _leaf_kind(t.base)
        kind.check(t.base.params)
        ring = kind.ring(t.base.params)
        return NodeInfo(kind, ring, kind.degree(t.base.params))
    if t.label is None:
        raise TreeTypeError("internal node needs an operation label")
    return _kind_class(t.label.kind, _Op).info(
        t.label, [_info(c) for c in t.children])


def _child_firsts(t: DerivationTree, first: int) -> list:
    """(child, leaf id of its first leaf) for each child of t."""
    out = []
    for c in t.children:
        out.append((c, first))
        first += _info(c).leaves
    return out


def _factor_firsts(t: DerivationTree, first: int) -> list:
    """(factor, leaf id of its first leaf) per factor of t."""
    if len(t.children) == 1:
        return [(c, first) for c in _info(t).impl.factors(t)]
    return _child_firsts(t, first)


class _Op:
    """One operation kind: info(label, child infos) checks the typing and
    returns the NodeInfo; lift(t, info, idx, h) is h from child idx as an
    element of the node's group; assemble(t, info, parts, k) builds an
    element from one part per factor (a part per child, or m parts of the
    one child under a wreath node, with the permutation k there);
    witness/unwitness build and take apart a membership witness (tag, child
    witnesses...)."""

    kind = ""
    tag = ""
    # factorizations are unique only up to scalar twists (see trapdoor)
    twisted = False

    def node_info(self, kids: list, ring: RingSpec, degree: int, **kw) -> NodeInfo:
        return NodeInfo(self, ring, degree, sum(k.leaves for k in kids), **kw)

    def label_size(self, t: DerivationTree) -> int:
        return len(t.children)

    def factors(self, t: DerivationTree) -> list:
        """The subtree each part of an element belongs to."""
        return list(t.children)

    def lift(self, t: DerivationTree, info: NodeInfo, idx: int, h: Matrix) -> Matrix:
        parts = [identity(_info(c).degree, info.ring) for c in self.factors(t)]
        parts[idx] = h
        return self.assemble(t, info, parts, perm_id(len(parts)))

    def gens(self, t: DerivationTree, info: NodeInfo, kid_gens: list) -> list:
        """The node's generators from its children's generator lists."""
        return [self.lift(t, info, idx, g)
                for idx, kg in enumerate(kid_gens) for g in kg]


def _single(kind: str, kids: list) -> NodeInfo:
    if len(kids) != 1:
        raise TreeTypeError(f"{kind} takes a single child")
    return kids[0]


class _Unary(_Op):
    def witness(self, subs, k=None) -> tuple:
        return (self.tag, subs[0])

    def unwitness(self, wit: tuple):
        return (wit[1],), None

    def lift(self, t, info, idx, h):
        return self.assemble(t, info, [h])


class _Conjugate(_Unary):
    kind = "conjugate"
    tag = "conjugate"

    def info(self, lab, kids):
        k = _single(self.kind, kids)
        c = _derive_conjugator(k.ring, k.degree, lab.seed)
        return self.node_info(kids, k.ring, k.degree, conj=c)

    def label_size(self, t):
        return 2

    def assemble(self, t, info, parts, k=None):
        return mat_mul(mat_mul(mat_inv(info.conj), parts[0]), info.conj)


class _RingExtend(_Unary):
    kind = "ring-extend"
    tag = "ring"

    def info(self, lab, kids):
        k = _single(self.kind, kids)
        find_embedding(k.ring, lab.target)  # raises NoSuchEmbedding
        return self.node_info(kids, lab.target, k.degree)

    def label_size(self, t):
        return max(1, t.label.target.order.bit_length())

    def assemble(self, t, info, parts, k=None):
        return ring_change(parts[0], ("extend-to", t.label.target))


class _RingRep(_Unary):
    kind = "ring-rep"
    tag = "ring"

    def info(self, lab, kids):
        k = _single(self.kind, kids)
        if len(k.ring.summands) != 1:
            raise TreeTypeError("ring-rep needs a single-summand ring")
        g = k.ring.summands[0]
        if g.r != lab.d or lab.d < 2:
            raise TreeTypeError("ring-rep block degree must equal the ring rank >= 2")
        dst = Zmod(g.q)
        return self.node_info(kids, dst, k.degree * lab.d)

    def label_size(self, t):
        return t.label.d * t.label.d

    def assemble(self, t, info, parts, k=None):
        return ring_change(parts[0], ("rep-to", t.label.d))


class _Product(_Op):
    def witness(self, subs, k=None) -> tuple:
        return (self.tag, tuple(subs))

    def unwitness(self, wit: tuple):
        return wit[1], None


class _Tensor(_Product):
    kind = "tensor"
    tag = "tensor"
    twisted = True

    def info(self, lab, kids):
        if len(kids) < 2:
            raise TreeTypeError("tensor needs at least two children")
        ring = kids[0].ring
        if any(k.ring != ring for k in kids):
            raise TreeTypeError("tensor children must share a ring")
        deg = 1
        for k in kids:
            deg *= k.degree
        return self.node_info(kids, ring, deg)

    def assemble(self, t, info, parts, k=None):
        return kron_all(parts)


class _DirectSameDegree(_Product):
    kind = "direct-same-degree"
    tag = "crt"
    min_children = 2
    # children that share one multi-summand ring are refused (see info)
    common_ring = True

    def info(self, lab, kids):
        if len(kids) < self.min_children:
            raise TreeTypeError(
                f"{self.kind} needs at least {self.min_children} children")
        deg = kids[0].degree
        if any(k.degree != deg for k in kids):
            raise TreeTypeError("same-degree product children must share a degree")
        same_ring = all(k.ring == kids[0].ring for k in kids)
        if self.common_ring and same_ring and len(kids[0].ring.summands) > 1:
            # every group acts on all summands of its ring, so no two
            # children can live on disjoint summands of a common ring
            raise TreeTypeError(
                "direct-same-degree factors must live on disjoint summands")
        # a fresh direct sum, one block of summands per child
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
        return self.node_info(kids, big, deg, positions=positions)

    def lift(self, t, info, idx, h):
        return _crt_lift(h, info.ring, info.positions[idx])

    def assemble(self, t, info, parts, k=None):
        return Matrix._of(info.degree, info.ring,
                          _place(info, [part.data for part in parts]))


class _CrtAssemble(_DirectSameDegree):
    kind = "crt-assemble"
    min_children = 1
    common_ring = False


class _Wreath(_Op):
    tag = "wreath"

    def info(self, lab, kids):
        k = _single("wreath", kids)
        if lab.m < 2:
            raise TreeTypeError("wreath arity must be >= 2")
        return self.node_info(kids, k.ring, self.degree(k.degree, lab.m))

    def label_size(self, t):
        return t.label.m

    def factors(self, t):
        return [t.children[0]] * t.label.m

    def witness(self, subs, k=None) -> tuple:
        return ("wreath", k, tuple(subs))

    def unwitness(self, wit: tuple):
        return wit[2], wit[1]

    def gens(self, t, info, kid_gens):
        # then the symmetric-group part: a transposition and an m-cycle

        m = t.label.m
        perms = [tuple([1, 0] + list(range(2, m)))]
        if m > 2:
            perms.append(tuple(list(range(1, m)) + [0]))
        n = _info(t.children[0]).degree
        return super().gens(t, info, kid_gens) + [
            self.perm_matrix(k, n, info.ring) for k in perms]

    def assemble(self, t, info, parts, k=None):
        return self.rep(parts, k)


class _WreathImprimitive(_Wreath):
    kind = "wreath-imprimitive"
    rep = staticmethod(imprimitive_rep)
    perm_matrix = staticmethod(block_perm_matrix)

    def degree(self, n: int, m: int) -> int:
        return n * m


class _WreathProduct(_Wreath):
    kind = "wreath-product"
    rep = staticmethod(product_rep)
    perm_matrix = staticmethod(tensor_perm_matrix)
    twisted = True

    def degree(self, n: int, m: int) -> int:
        return n ** m

    def lift(self, t, info, idx, h):
        """h (x) I (x) ... (x) I."""
        return kron_all([h] + [identity(h.n, h.ring)] * (t.label.m - 1))


_KINDS = {cls.kind: cls() for cls in (
    _Unipotent, _SpecialLinear, _GeneralLinear, _Diagonal,
    _Tensor, _DirectSameDegree, _CrtAssemble, _WreathImprimitive,
    _WreathProduct, _Conjugate, _RingExtend, _RingRep)}


def _kind_class(kind: str, base: type):
    impl = _KINDS.get(kind)
    if not isinstance(impl, base):
        what = "base group" if base is _LeafKind else "operation"
        raise TreeTypeError(f"unknown {what} kind {kind!r}")
    return impl


def _derive_conjugator(ring: RingSpec, n: int, seed: int) -> Matrix:
    try:
        return _random_invertible(ring, n, Rng(seed ^ 0x5EED_C0DE))
    except NonInvertible:
        raise TreeTypeError("could not derive an invertible conjugator") from None


def validate_tree(t: DerivationTree) -> None:
    """Raise TreeTypeError when the tree is ill-typed."""
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
    size = _kind_class(t.label.kind, _Op).label_size(t)
    return size + len(t.children) + sum(tree_size(c) for c in t.children)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class GroupInstance:
    n: int
    ring: RingSpec
    gens: tuple


def _eval(t: DerivationTree, leaf_gens, next_leaf: list[int]) -> list[Matrix]:
    """Generators of t; leaf_gens(leaf id, spec) gives each leaf's list."""
    if t.is_leaf():
        lid = next_leaf[0]
        next_leaf[0] += 1
        return leaf_gens(lid, t.base)
    info = _info(t)
    kid_gens = [_eval(c, leaf_gens, next_leaf) for c in t.children]
    return info.impl.gens(t, info, kid_gens)


def _replay(t: DerivationTree, wit: tuple, leaf_map=None, first: int = 0) -> Matrix:
    """The matrix a membership witness certifies, assembled bottom-up;
    leaf_map(leaf id, spec, h), when given, replaces each leaf part h."""
    if t.is_leaf():
        return wit[1] if leaf_map is None else leaf_map(first, t.base, wit[1])
    info = _info(t)
    subs, k = info.impl.unwitness(wit)
    parts = [_replay(c, w, leaf_map, off)
             for (c, off), w in zip(_factor_firsts(t, first), subs)]
    return info.impl.assemble(t, info, parts, k)


def tree_eval(t: DerivationTree) -> GroupInstance:
    """Public instance of the tree: degree, ring, generators."""
    inst = t.__dict__.get("_instance")
    if inst is None:
        info = _info(t)  # validates t
        inst = t.__dict__["_instance"] = GroupInstance(
            info.degree, info.ring, tuple(_eval(
                t, lambda lid, spec: list(leaf_generators(spec)), [0])))
    return inst


def leaf_embed(t: DerivationTree, leaf_id: int, h: Matrix) -> Matrix:
    """Lift a leaf element along the tree path into the composite group."""
    specs = tree_leaves(t)
    if not (0 <= leaf_id < len(specs)):
        raise NotInLeafGroup(f"no leaf {leaf_id}")
    if not leaf_contains(specs[leaf_id], h):
        raise NotInLeafGroup(f"element is not in leaf group {leaf_id}")
    tree_eval(t)  # validates t
    return _lift_leaf(t, leaf_id, h)


def _lift_leaf(t: DerivationTree, leaf_id: int, h: Matrix) -> Matrix:
    if t.is_leaf():
        return h
    for idx, (c, first) in enumerate(_child_firsts(t, 0)):
        if leaf_id < first + _info(c).leaves:
            info = _info(t)
            return info.impl.lift(t, info, idx, _lift_leaf(c, leaf_id - first, h))


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

    def leaf_images(lid, spec):
        return [leaf_hom_apply(spec, choices[lid], g) for g in leaf_generators(spec)]
    return HomSpec(t, choices, tuple(_eval(t, leaf_images, [0])))


def leaf_hom_apply(spec: BaseGroupSpec, ch: tuple, h: Matrix) -> Matrix:
    if ch[0] == "f0":
        return identity(h.n, h.ring)
    ring = h.ring
    aut = RingAutomorphism(ring, (ch[1],) * len(ring.summands))
    rows = tuple(tuple(frobenius_apply(aut, e) for e in row) for row in h.rows)
    return Matrix(h.n, ring, rows)


def _subtree_signature(t: DerivationTree, choices, first: int):
    """Effective scalar action of the composed map on t, whose leaves are
    first, first + 1, ...: 'one', ('frob', e) or 'mixed'."""
    sigs = {"one" if ch[0] == "f0" else ("frob", ch[1])
            for ch in choices[first:first + _info(t).leaves]}
    return sigs.pop() if len(sigs) == 1 else "mixed"


def _validate_hom_compat(t: DerivationTree, choices, first: int = 0) -> None:
    """Well-definedness on tensor / product-wreath nodes.

    Factor decompositions there are unique only up to scalar twists, so the
    child maps must agree on the shared scalar subgroups; a trivial overlap
    imposes nothing.  Per summand the overlap is cyclic of order
    gcd(d_i, d_j), so the maps are compared on its generator.
    """
    from . import trapdoor

    if t.is_leaf():
        return
    info = _info(t)
    if info.impl.twisted:
        factors = _factor_firsts(t, first)
        child_sigs = [_subtree_signature(c, choices, off) for c, off in factors]
        zs = [trapdoor.scalar_subgroup(c) for c, _ in factors]
        # over a multi-summand ring with three or more factors, scalar
        # relations can couple factors whose subgroups do not intersect;
        # demand one common signature as soon as any factor has scalars
        if (len(zs) >= 3 and len(info.ring.summands) > 1
                and sum(1 for z in zs if max(z) > 1) >= 2):
            if len(set(child_sigs)) != 1:
                raise InvalidAutomorphism(
                    "differing leaf maps over coupled factor scalars")
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                shared = [root_of_unity(info.ring, s, gcd(di, dj))
                          for s, (di, dj) in enumerate(zip(zs[i], zs[j]))
                          if gcd(di, dj) > 1]
                if not shared:
                    continue
                si, sj = child_sigs[i], child_sigs[j]
                if si == "mixed" or sj == "mixed":
                    raise InvalidAutomorphism(
                        "mixed leaf maps over factors with shared scalars")
                for u in shared:
                    if _scalar_image(si, u) != _scalar_image(sj, u):
                        raise InvalidAutomorphism(
                            "leaf maps disagree on shared factor scalars")
    for c, off in _child_firsts(t, first):
        _validate_hom_compat(c, choices, off)


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
    return _replay(h.tree, verdict.witness,
                   lambda lid, spec, m: leaf_hom_apply(spec, h.choices[lid], m))
