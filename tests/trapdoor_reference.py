"""Reference transporter scans for the differential tests.

These are the scans that the flat-integer scans of ``matcrypt.trapdoor``
replaced, kept unchanged apart from being free functions: each element acts
on u through ``vector_act`` and the whole image is compared with v, and the
twist set of a leaf runs one full scan per unit of the ring.
"""

from matcrypt.analysis import enumerate_group
from matcrypt.errors import CapExceeded, UnsupportedDecomposition
from matcrypt.instance import _info, leaf_enumerate, tree_eval
from matcrypt.matrix import vector_act
from matcrypt.trapdoor import BRUTE_LTP_CAP, _iter_units


def ref_leaf_ltp(t, pairs):
    """(first leaf element h with u^h = v for every pair, or None, True)."""
    for h in leaf_enumerate(t.base):
        if all(vector_act(u, h) == v for u, v in pairs):
            return h, True
    return None, True


def ref_leaf_ltp_twists(t, u, v):
    """{w.coeffs: (w, g)} with u^g = v*w over the units w; a certified flag."""
    ring = _info(t).ring
    out = {}
    certified = True
    for w in _iter_units(ring):
        vw = tuple(e * w for e in v)
        g, cert = ref_leaf_ltp(t, [(u, vw)])
        certified = certified and cert
        if g is not None:
            out[w.coeffs] = (w, g)
    return out, certified


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
