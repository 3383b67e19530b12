"""Brute-force oracles and attack experiments.

The enumeration oracle BFS-closes a generator set and answers membership,
conjugacy and transporter queries by exhaustive search, providing ground
truth for the tree-directed solvers.  The attacks implemented here are the
conjugacy linear-algebra attack over GL(n, F_q), the linear-solve attack on
group homomorphisms, and the small-group coset attack on the word
cryptosystem.  Every attack verifies its own output before reporting success.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

from .errors import (
    AttackFailure,
    DegenerateKey,
    InsecurityWarning,
    NoSolutionSpace,
    ShapeMismatch,
)
from .matrix import (
    Matrix,
    RingElement,
    _act,
    _eliminate,
    _entries,
    _random_data,
    _vector_data,
    identity,
    is_invertible,
    mat_add,
    mat_inv,
    mat_mul,
    mat_scale,
    regular_rep_block,
    word_eval,
)
from .ring import RingSpec
from .rng import Rng
from .words import FreeWord, _closure, _inv_letters, push_reduced


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

@dataclass
class EnumeratedGroup:
    elements: dict          # key -> Matrix
    words: dict             # key -> tuple of generator letters
    gens: tuple
    cap: int

    def __len__(self):
        return len(self.elements)

    def contains(self, g: Matrix) -> bool:
        """g is an element: its ring, degree and entries all match."""
        return self.elements.get(g.key()) == g

    def matrices(self):
        return self.elements.values()


def enumerate_group(gens, cap: int) -> EnumeratedGroup:
    """BFS closure of the generator set; CapExceeded past cap elements."""
    gens = list(gens)
    if not gens:
        raise ShapeMismatch("cannot enumerate an empty generator set")
    elements, words = _closure(identity(gens[0].n, gens[0].ring),
                               list(enumerate(gens, 1)), mat_mul, Matrix.key, cap)
    return EnumeratedGroup(elements, words, tuple(gens), cap)


def oracle_member(enum: EnumeratedGroup, g: Matrix):
    """Exhaustive membership: (True, the first word reaching g) or (False, None)."""
    gen = enum.gens[0]
    if g.ring != gen.ring or g.n != gen.n:
        raise ShapeMismatch("query shape does not match the instance")
    k = g.key()
    if k in enum.elements:
        return True, enum.words[k]
    return False, None


def oracle_conjugator(enum: EnumeratedGroup, f: Matrix, g: Matrix):
    """Exhaustive conjugacy: (True, the first h with h^-1 g h = f) or (False, None)."""
    # h invertible: h^-1 g h = f exactly when g h = h f
    for h in enum.matrices():
        if mat_mul(g, h) == mat_mul(h, f):
            return True, h
    return False, None


def oracle_transporter(enum: EnumeratedGroup, u, v):
    """Exhaustive transporter: (True, the first g with u^g = v) or (False, None)."""
    gen = enum.gens[0]
    if len(u) != gen.n or len(v) != gen.n:
        raise ShapeMismatch("vector length does not match the instance degree")
    x, y = _vector_data(u, gen.ring), _vector_data(v, gen.ring)
    for g in enum.matrices():
        if _act(x, g) == y:
            return True, g
    return False, None


# ---------------------------------------------------------------------------
# linear algebra over the ring (per summand, on the kernel of matrix.py)
# ---------------------------------------------------------------------------

def _local_rows(columns: list, s: int, g) -> list:
    """Rows over Z/q of summand s of the system with these flat columns.

    A rank-1 column is its stored summand data.  Through the regular
    representation an unknown of a rank r summand has r integer unknowns,
    its coefficients; column j becomes the r columns x^t * columns[j], and
    row i the r rows of its coefficients.
    """
    if g.r == 1:
        return [list(row) for row in zip(*(col[s] for col in columns))]
    cols = []
    for col in columns:
        blocks = [regular_rep_block(e, g) for e in col[s]]
        cols.extend([c for b in blocks for c in b[t]] for t in range(g.r))
    return [list(row) for row in zip(*cols)]


def solve_linear(ring: RingSpec, columns: list, target) -> list | None:
    """Solve sum_i c_i * columns[i] = target for ring scalars c_i, or None.

    columns and target are equal-length per-summand flat data, as
    ``Matrix.data`` stores them; the answer is one RingElement per column.
    Each CRT summand is eliminated over Z/p^m by ``matrix._eliminate`` (see
    ``_local_rows``) and solved by back substitution, free unknowns zero.
    Its least-valuation pivots make this exact: None means no solution.
    """
    if not columns:
        return None
    per_summand = []
    for s, g in enumerate(ring.summands):
        q, width = g.q, len(columns) * g.r
        rhs = target[s] if g.r == 1 else [c for cs in target[s] for c in cs]
        a = [row + [b] for row, b in zip(_local_rows(columns, s, g), rhs)]
        pivots = list(_eliminate(a, width, g.p, q))
        if any(row[width] for row in a[len(pivots):]):
            return None
        x = [0] * width
        for k in reversed(range(len(pivots))):
            # the scaled pivot p^v divides the rest of its row, so the row
            # is solvable exactly when p^v divides its right-hand side
            row, c = a[k], pivots[k][0]
            b = (row[width] - sum(row[d] * x[d] for d, _ in pivots[k + 1:])) % q
            if b % row[c]:
                return None
            x[c] = b // row[c]
        per_summand.append([tuple(x[j:j + g.r]) for j in range(0, width, g.r)])
    return [RingElement(ring, cs) for cs in zip(*per_summand)]


def span_basis(ring: RingSpec, gens: list[Matrix]):
    """A generating list for the matrix algebra module spanned by products
    of the generators (with the identity), grown until stable or for n^2
    rounds.

    Returns (basis, words): each basis element and the generator word it
    was built as, () for the identity.
    """
    n = gens[0].n
    basis: list[Matrix] = []
    words: list[tuple] = []

    def try_add(mat: Matrix, word: tuple) -> bool:
        if solve_linear(ring, [b.data for b in basis], mat.data) is not None:
            return False
        basis.append(mat)
        words.append(word)
        return True

    try_add(identity(n, ring), ())
    for i, g in enumerate(gens):
        try_add(g, (i + 1,))
    rounds = 0
    changed = True
    while changed and rounds < n * n:
        changed = False
        rounds += 1
        for b, w in list(zip(basis, words)):
            for i, g in enumerate(gens):
                if try_add(mat_mul(b, g), w + (i + 1,)):
                    changed = True
    return basis, words


def _combine(coeffs, mats: list[Matrix]) -> Matrix:
    """sum c_i M_i over a nonempty list."""
    return reduce(mat_add, map(mat_scale, mats, coeffs))


# ---------------------------------------------------------------------------
# conjugacy linear-algebra attack
# ---------------------------------------------------------------------------

SCSP_DRAWS = 64


@dataclass
class ScspReport:
    h: Matrix
    span_dim: int
    draws: int
    warned: bool
    seed: int


def scsp_linear_attack(n: int, q: int, gens_h2: list[Matrix], f: Matrix,
                       g: Matrix, seed: int) -> ScspReport:
    """Find h in <gens_h2> (up to algebra closure) with h^-1 g h = f.

    Solves h f = g h inside the algebra spanned by the subgroup and samples
    random solutions until one is invertible; the conjugation identity is
    verified before returning.  Warns when n >= q/2, where random solutions
    are no longer invertible with high probability.
    """
    ring = f.ring
    warned = False
    if 2 * n >= q:
        warned = True
        warnings.warn(InsecurityWarning(
            f"degree {n} is not below q/2 = {q/2}; the random-solution "
            "argument does not apply"))
    basis, _ = span_basis(ring, gens_h2)
    # h = sum c_t B_t with h f - g h = 0: columns are the data of B_t f - g B_t
    columns = [mat_add(mat_mul(b, f), mat_scale(mat_mul(g, b), -ring.one())).data
               for b in basis]
    null = _nullspace(ring, columns)
    if not null:
        raise NoSolutionSpace("the conjugation system has only the zero solution")
    rng = Rng(seed)
    for draw in range(1, SCSP_DRAWS + 1):
        # random element of the solution space, as basis coefficients
        combo = [ring.zero()] * len(basis)
        for r, vec in zip(_entries(ring, _random_data(ring, len(null), rng)), null):
            combo = [acc + r * c for acc, c in zip(combo, vec)]
        h = _combine(combo, basis)
        if not is_invertible(h):
            continue
        if mat_mul(mat_mul(mat_inv(h), g), h) == f:
            return ScspReport(h, len(basis), draw, warned, seed)
    raise AttackFailure(f"no invertible verified solution in {SCSP_DRAWS} draws")


def _nullspace(ring: RingSpec, columns: list) -> list:
    """A basis of {c : sum c_i columns_i = 0} over a single finite field.

    The reduced echelon form from ``matrix._eliminate`` (a field of rank
    r > 1 through the regular representation, as in ``solve_linear``) gives
    one vector per free column: a one there, and in each pivot column minus
    the free column's entry in that pivot's row.
    """
    g = ring.summands[0]
    if len(ring.summands) != 1 or g.m != 1:
        raise ShapeMismatch("nullspace solver expects a single finite field")
    r, q = g.r, g.q
    a = _local_rows(columns, 0, g)
    pivots = list(_eliminate(a, len(columns) * r, g.p, q))
    pivot_cols = {c for c, _ in pivots}
    out = []
    for fc in range(0, len(columns) * r, r):
        if fc in pivot_cols:
            continue
        coeffs = [[0] * r for _ in columns]
        coeffs[fc // r][0] = 1
        for row, (c, _) in zip(a, pivots):
            coeffs[c // r][c % r] = -row[fc] % q
        out.append(tuple(RingElement(ring, (tuple(cs),)) for cs in coeffs))
    return out


# ---------------------------------------------------------------------------
# linearity attack on homomorphisms
# ---------------------------------------------------------------------------

INCONCLUSIVE = "inconclusive"


@dataclass
class LinearityReport:
    prediction: Matrix | str
    span_dim: int
    consistent: bool  # the span solve reproduces images on sampled products


def linearity_attack(gens: list[Matrix], images: list[Matrix],
                     query: Matrix) -> LinearityReport:
    """Predict f(query) assuming f extends to a linear map on the span.

    Solves query = sum c_i b_i over the span of generator products and
    predicts sum c_i f(b_i), f(b_i) being b_i's generator word evaluated on
    the images.  The consistency flag reports whether the same prediction
    rule reproduces the multiplicative images on sampled generator products.
    """
    ring = query.ring
    basis, words = span_basis(ring, gens)
    columns = [b.data for b in basis]
    img_table = [word_eval(images, w) for w in words]
    coeffs = solve_linear(ring, columns, query.data)
    pred = INCONCLUSIVE if coeffs is None else _combine(coeffs, img_table)
    consistent = _consistency_check(ring, gens, images, columns, img_table)
    return LinearityReport(pred, len(basis), consistent)


def _consistency_check(ring, gens, images, columns, img_table) -> bool:
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            coeffs = solve_linear(ring, columns, mat_mul(g, h).data)
            if coeffs is None or \
                    _combine(coeffs, img_table) != mat_mul(images[i], images[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# small-group coset attack on the word cryptosystem
# ---------------------------------------------------------------------------

@dataclass
class CosetAttack:
    """The coset attack's tables for one public key and one model group.

    ``table`` maps each model element to its first Y-word in the closure
    over Y letters.  ``graph`` is the subgroup graph of <X> (Stallings,
    "Topology of finite graphs", 1983): the public x-words as loops at
    vertex 0, spelled in Y letters and folded by ``_fold`` until no vertex
    has two edges with one letter.  ``graph[v]`` maps a Y letter to (vertex,
    label), the reverse edge carrying the inverse label.  A label is a
    reduced word in which letter y stands for the x-word f^-1(y), and along
    any path the labels multiply to a product of x-words that spells the
    path.  So a reduced word q lies in <X> exactly when it reads a path from
    0 back to 0, and the labels then give an x-word expression of q, written
    through f in Y letters (``read``).  Reading costs one step per letter of
    q, whatever ``bound``.

    The x-words must be a free basis of <X>.  Then q's expression is
    unique, and every product of x-words and their inverses that spells q
    reduces to it, so q is a product of at most ``bound`` of them with f-image
    1 in the model exactly when the expression has at most ``bound`` letters
    and model image 1.  A relation among the x-words shows in the fold as one
    edge with two different labels, and ``coset_attack`` refuses such a key
    with DegenerateKey: on it a word's image in H depends on the product of
    x-words that spells it.  Two x-words, as over every preset, are a free
    basis unless they commute, and ``HomPublicKey`` refuses those.

    One read decides.  If a ciphertext c has the expression e, then c times
    a coset representative f^-1(w)^-1 has the expression e * w^-1, of model
    image 1 only at w = table[image(e)]; ``decrypt`` returns image(e) when
    that e * w^-1 has at most ``bound`` letters.  An honest c is the pullback
    of its padded message, so e is that message: with no bound, c decrypts.
    """
    table: dict          # model element key -> its Y-word (a letter tuple)
    graph: list          # vertex -> {Y letter: (vertex, label)}, None if merged
    bound: int
    model: object

    def read(self, q: tuple):
        """q's x-word expression as f-image letters, or None when q is
        outside <X>."""
        v, expr = 0, []
        for a in q:
            edge = self.graph[v].get(a)
            if edge is None:
                return None
            v, label = edge
            if label:
                push_reduced(expr, label)
        return tuple(expr) if v == 0 else None

    def decrypt(self, cipher: FreeWord):
        """Model image of the plaintext, or INCONCLUSIVE."""
        expr = self.read(cipher.letters)
        if expr is not None:
            key = self.model.eval_key(expr)
            if len(_mul(expr, _inv_letters(self.table[key]))) <= self.bound:
                return key
        return INCONCLUSIVE


def coset_attack(pk, model, length_bound: int) -> CosetAttack:
    """List the model group with one Y-word per element, and fold the public
    x-words into their subgroup graph (see ``CosetAttack``)."""
    # by BFS over Y letters; a first-reached word never ends in a letter
    # and its inverse, so it is reduced
    k = pk.presentation.k
    steps = [(sgn * y, model.gen_key(y, sgn))
             for y in range(1, k + 1) for sgn in (1, -1)]
    _, table = _closure(model.identity_key(), steps, model.mul_key,
                        lambda key: key, cap=4096)
    return CosetAttack(table, _fold(pk.pullback_images), length_bound, model)


def _fold(words: list[FreeWord]) -> list:
    """The folded graph of loops at vertex 0 spelling the words, word i
    labelled (i,) on its first edge (see ``CosetAttack``).

    Merged vertices go into ``alias`` with a potential: alias[w] = (u, d)
    puts d in front of the label of every edge that leaves w, and d^-1 after
    the label of every edge that enters it.  Two edges v -a-> u (label m)
    and v -a-> w (label l) fold by merging w into u with d = m^-1 l, which
    makes both labels m; vertex 0 is always kept.  Two such edges into one
    vertex with different labels give a closed path that reads a a^-1 in Y
    and a nontrivial product of the words: DegenerateKey.  Labels and
    potentials are reduced letter tuples.
    """
    graph, alias, todo = [{}], {}, []
    for i, word in enumerate(words, 1):
        letters = word.letters
        path = [0, *range(len(graph), len(graph) + len(letters) - 1), 0]
        graph.extend({} for _ in letters[1:])
        todo.extend((path[j], a, path[j + 1], (i,) if j == 0 else ())
                    for j, a in enumerate(letters))
    while todo:
        v, a, w, label = todo.pop()
        (v, pv), (w, pw) = _find(alias, v), _find(alias, w)
        label = _mul(pv, label, _inv_letters(pw))
        if a not in graph[v]:
            # fold at w instead, if w has an edge with letter a^-1
            v, a, w, label = w, -a, v, _inv_letters(label)
        edge = graph[v].get(a)
        if edge is None:
            graph[v][a], graph[w][-a] = (w, label), (v, _inv_letters(label))
            continue
        u, old = edge
        if u == w:
            if old != label:
                raise DegenerateKey("the public words satisfy a relation")
            continue
        if w == 0:
            u, w, old, label = w, u, label, old
        alias[w] = (u, _mul(_inv_letters(old), label))
        # w's edges join again from u; a loop at w is one edge, listed twice
        for b, (x, lab) in graph[w].items():
            if x != w:
                del graph[x][-b]
            if x != w or b > 0:
                todo.append((w, b, x, lab))
        graph[w] = None
    return graph


def _find(alias: dict, v: int):
    """(kept vertex, potential) of v: the potentials along its aliases,
    multiplied from the kept vertex down."""
    pot = ()
    while v in alias:
        v, d = alias[v]
        pot = _mul(d, pot)
    return v, pot


def _mul(*words) -> tuple:
    out: list = []
    for w in words:
        push_reduced(out, w)
    return tuple(out)
