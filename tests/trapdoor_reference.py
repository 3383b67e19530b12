"""Reference transporter scans for the differential tests.

These are the scans that the flat-integer scans of ``matcrypt.trapdoor``
replaced, kept unchanged apart from being free functions: each element acts
on u through ``vector_act`` and the whole image is compared with v.

``ref_ltp_pure`` is the eager search that the lazy twisted search of
``_TwistedSolver.ltp_pure`` replaced, kept unchanged apart from being free
functions: per (factor i, target factor j) it lists a transporter for every
unit w of the ring, in canonical unit order, and then searches the product
of the lists for twists that multiply to one, permutation by permutation.

``ref_vector_tensor_split`` is the per-entry vector split that the shared
Kronecker split kernel replaced, kept unchanged apart from its name.
"""

from matcrypt.analysis import enumerate_group
from matcrypt.errors import (
    CapExceeded,
    NotDecomposable,
    UnsupportedDecomposition,
)
from matcrypt.instance import _info, leaf_enumerate, tree_eval
from matcrypt.matrix import RingElement, _scale, _to_entry, vector_act
from matcrypt.ring import _pinv, _pmul, ring_inv
from matcrypt.trapdoor import (
    BRUTE_LTP_CAP,
    _first_unit,
    _iter_units,
    _ltp,
    _pure_tensor_factors,
)


def ref_leaf_ltp(t, pairs):
    """(first leaf element h with u^h = v for every pair, or None, True)."""
    for h in leaf_enumerate(t.base):
        if all(vector_act(u, h) == v for u, v in pairs):
            return h, True
    return None, True


def ref_ltp_twists(t, u, v):
    """[(w, g)] with u^g = v*w, one per unit w that has a transporter g, in
    canonical unit order; u and v are flat vectors."""
    ring = _info(t).ring
    out = []
    for w in _iter_units(ring):
        g = _ltp(t, [(u, _scale(ring, v, w))])
        if g is not None:
            out.append((w, g))
    return out


def ref_search_unit_product(twist_sets, target):
    """Pick one (u, witness) per set with product of units == target."""
    last = {u.coeffs: (u, wit) for u, wit in twist_sets[-1]}

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


def ref_ltp_pure(solver, t, info, pair):
    """``_TwistedSolver.ltp_pure`` as it was: the twist set of (i, j) is
    listed in full when a permutation first needs it, a permutation is
    dropped at its first empty set, and the product of the sets is then
    searched.  Takes the solver first, so it can stand in for the method."""
    factors = info.impl.factors(t)
    us, vs = _pure_tensor_factors(t, info, pair)
    sets = {}
    for k in solver.perms(t):
        chosen = []
        for i, j in enumerate(k):
            if (i, j) not in sets:
                sets[(i, j)] = ref_ltp_twists(factors[i], us[i], vs[j])
            if not sets[(i, j)]:
                break
            chosen.append(sets[(i, j)])
        else:
            hit = ref_search_unit_product(chosen, info.ring.one())
            if hit is not None:
                return info.impl.assemble(t, info, hit, k)
    return None


def ref_ltp_brute(t, pairs):
    """The exhaustive fallback over the closure of the node's generators."""
    inst = tree_eval(t)
    try:
        elems = enumerate_group(list(inst.gens), BRUTE_LTP_CAP).matrices()
    except CapExceeded:
        raise UnsupportedDecomposition(
            "node group too large for the exhaustive transporter fallback") from None
    for g in elems:
        if all(vector_act(u, g) == tuple(v) for u, v in pairs):
            return g, True
    return None, True


def ref_vector_tensor_split(vec, degrees, ring):
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
        winv = _pinv(ent[k], gs)
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
    return [a_vec] + ref_vector_tensor_split(b_vec, degrees[1:], ring)
