"""Golden digests of the tree-directed algorithms.

Each section hashes the canonical serialization of seeded outputs: instance
generators, membership witnesses, transporters, sampled vectors, scalar
subgroups, leaf embeddings and homomorphism images.  The pinned values were
computed before the node kinds were moved into per-kind classes, so any
refactor of ``instance`` or ``trapdoor`` that changes a result, a draw or an
error shows up here as a changed section.

The ``homcrypt`` section pins the free-group cryptosystem the same way: key
pairs, ciphertexts at several pad lengths, decryptions, the pull-back f^-1
and sampled relator products.  It was computed before the free-word kernels
were made linear-time, and re-pinned when encryption and key generation
moved to one generator per call (the relator samples did not move).

Run as a script, ``PYTHONPATH=src:tests python tests/test_golden_digest.py
OUTDIR`` writes each section's canonical JSON to ``OUTDIR/<section>.json``
(its sha256 is the section's digest), so two versions can be compared field
by field before a section is re-pinned.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from conftest import rand_matrix
from matcrypt.cli import _witness_obj, instance_to_obj, tree_to_obj
from matcrypt.errors import MatcryptError
from matcrypt.homcrypt import (
    dihedral4,
    f_inverse_word,
    hc_decrypt,
    hc_encrypt,
    hc_keygen,
    klein_four,
    sample_relator,
    sym3,
)
from matcrypt.instance import (
    base_diagonal,
    base_general_linear,
    base_special_linear,
    base_unipotent,
    conjugate,
    crt_assemble,
    direct_same_degree,
    hom_apply,
    hom_build,
    leaf,
    leaf_embed,
    leaf_random,
    ring_extend,
    ring_rep,
    tensor,
    tree_eval,
    tree_leaves,
    tree_random,
    wreath_imprimitive,
    wreath_product,
)
from matcrypt.matrix import vector_act, word_eval
from matcrypt.ring import field
from matcrypt.rng import Rng
from matcrypt.serialize import dumps, matrix_to_obj, vector_to_obj
from matcrypt.trapdoor import (
    NoSolution,
    ltp_solve,
    membership,
    sample_transportable_vector,
    scalar_subgroup,
)
from matcrypt.words import FreeWord, fw_mul

HAND_TREES = [
    leaf(base_unipotent(5)),
    leaf(base_special_linear(2, 4)),
    leaf(base_general_linear(2, 3)),
    leaf(base_diagonal(2, 7)),
    tensor(leaf(base_unipotent(3)), leaf(base_special_linear(2, 3))),
    tensor(leaf(base_general_linear(1, 5)), leaf(base_diagonal(2, 5)),
           leaf(base_unipotent(5))),
    direct_same_degree(leaf(base_unipotent(3)), leaf(base_unipotent(5))),
    direct_same_degree(leaf(base_general_linear(1, 3)), leaf(base_diagonal(1, 3))),
    crt_assemble(leaf(base_special_linear(2, 2)), leaf(base_unipotent(3)),
                 leaf(base_diagonal(2, 5))),
    wreath_imprimitive(leaf(base_diagonal(1, 7, gen=(2,))), 3),
    wreath_imprimitive(leaf(base_unipotent(3)), 2),
    wreath_product(leaf(base_diagonal(1, 5)), 2),
    wreath_product(leaf(base_unipotent(2)), 3),
    conjugate(wreath_product(leaf(base_diagonal(1, 5)), 2), 5),
    conjugate(tensor(leaf(base_unipotent(3)), leaf(base_unipotent(3))), 17),
    ring_extend(leaf(base_general_linear(1, 2)), field(4)),
    ring_extend(leaf(base_unipotent(3)), field(9)),
    ring_rep(leaf(base_general_linear(1, 4)), 2),
    ring_rep(leaf(base_diagonal(2, 9)), 2),
    conjugate(crt_assemble(ring_rep(leaf(base_diagonal(1, 4)), 2),
                           wreath_imprimitive(leaf(base_diagonal(1, 3)), 2)), 9),
    tensor(conjugate(leaf(base_general_linear(1, 4)), 3),
           ring_extend(leaf(base_general_linear(1, 2)), field(4))),
]


def _err(e: Exception) -> str:
    return f"error {type(e).__name__}"


def _try(fn):
    try:
        return fn()
    except MatcryptError as e:
        return _err(e)


def _word(rng, k, lo=1, hi=8):
    return [rng.choice([i, -i]) for i in
            (rng.randint(1, k) for _ in range(rng.randint(lo, hi)))]


def _member_obj(t, g):
    verdict = membership(t, g)
    return _witness_obj(verdict.witness) if verdict.accepted else "rejected"


def _ltp_obj(t, u, v):
    res = ltp_solve(t, u, v)
    if isinstance(res, NoSolution):
        return {"no-solution": res.certified}
    return matrix_to_obj(res)


def _scalar_orders(t):
    return list(scalar_subgroup(t))


def _tree_record(t, seed: int, ltp: bool) -> dict:
    """Every seeded output of one tree, as a JSON-ready value."""
    rng = Rng(seed)
    inst = tree_eval(t)
    gens = list(inst.gens)
    out = {"tree": tree_to_obj(t), "instance": instance_to_obj(inst)}
    out["member"] = [_member_obj(t, word_eval(gens, _word(rng, len(gens))))
                     for _ in range(3)]
    out["random"] = _member_obj(t, rand_matrix(inst.ring, inst.n, rng))
    out["scalars"] = _try(lambda: _scalar_orders(t))
    if ltp:
        def ltp_pair():
            u = sample_transportable_vector(t, rng)
            g = word_eval(gens, _word(rng, len(gens)))
            w = sample_transportable_vector(t, rng)
            return [vector_to_obj(inst.ring, u), vector_to_obj(inst.ring, w),
                    _ltp_obj(t, u, vector_act(u, g)), _ltp_obj(t, u, w)]
        out["ltp"] = _try(ltp_pair)
    out["embed"] = [
        matrix_to_obj(leaf_embed(t, lid, leaf_random(spec, rng)))
        for lid, spec in enumerate(tree_leaves(t))]
    return out


def _hom_record(t, seed: int) -> dict:
    rng = Rng(seed ^ 0x40)
    choices = []
    for spec in tree_leaves(t):
        r = tree_eval(leaf(spec)).ring.summands[0].r
        choices.append(("f0",) if rng.chance(0.3) else ("frob", rng.below(r)))
    try:
        h = hom_build(t, choices)
    except MatcryptError as e:
        return {"choices": choices, "build": _err(e)}
    gens = list(tree_eval(t).gens)
    images = []
    for _ in range(3):
        g = word_eval(gens, _word(rng, len(gens)))
        images.append(_try(lambda: matrix_to_obj(hom_apply(h, g))))
    return {"choices": choices,
            "gen_images": [matrix_to_obj(m) for m in h.gen_images],
            "images": images}


def _homcrypt_record(make, seed: int) -> dict:
    """Key pair, ciphertexts, decryptions, f^-1 images and relator samples of
    one preset at one seed."""
    pres = make()
    k = pres.k
    pk, sk = hc_keygen(pres, seed)
    rng = Rng(seed ^ 0x5C)
    msgs = [FreeWord(k, tuple(_word(rng, k, 1, 12))) for _ in range(2)]
    ciphers = {}
    for pad in (None, 0, 1, 3):
        ciphers[pad] = [hc_encrypt(pk, m, seed + j, pad_length=pad)
                        for j, m in enumerate(msgs)]
    return {
        "x_words": [list(w) for w in pk.x_words],
        "f_table": list(pk.f_table),
        "sigma": list(sk.sigma),
        "messages": [list(m.letters) for m in msgs],
        "ciphers": [[list(c.letters) for c in ciphers[pad]]
                    for pad in (None, 0, 1, 3)],
        "plains": [[list(hc_decrypt(sk, c).letters) for c in ciphers[pad]]
                   + [list(hc_decrypt(sk, fw_mul(*ciphers[pad])).letters)]
                   for pad in (None, 0, 1, 3)],
        "pullback": [list(f_inverse_word(pk, m).letters) for m in msgs],
        "relators": [list(sample_relator(pres, t, Rng(seed * 7 + t)).letters)
                     for t in (0, 1, 2, 4, 8)],
    }


def _sections() -> dict:
    return {
        "desk": [_tree_record(tree_random(45, i, max_degree=9, max_ring=4000),
                              i, True) for i in range(40)],
        "gen": [_tree_record(tree_random(60, i), i, False) for i in range(12)],
        "hand": [_tree_record(t, i, True) for i, t in enumerate(HAND_TREES)],
        "hom": [_hom_record(t, i) for i, t in enumerate(HAND_TREES)]
        + [_hom_record(tree_random(45, i, max_degree=9, max_ring=4000), i)
           for i in range(40)],
        "homcrypt": [_homcrypt_record(make, i)
                     for make in (klein_four, sym3, dihedral4)
                     for i in range(40)],
    }


PINNED = {
    "desk": "bafbcee0b3db43336be409f21e472bfc460f59d482adcb31f6572e89f0c764aa",
    "gen": "841c2e9bb2d915c4425f4a1294b713de93daa3bb27a2caa2bc09116f0772b546",
    "hand": "56b0a62017576fc67f195a527a606c2a44a2f40e537e8930c191df7b94903199",
    "hom": "71c4fc00bcecc69d12ab6d3b1522ab0a88d2f4813f794043ff202e9846d13130",
    "homcrypt": "627e09d3af7efcb1a05730e14186df629b60eec4e1bf2a407893fe2d06124810",
}


@pytest.mark.parametrize("section", sorted(PINNED))
def test_golden_digest(section):
    got = hashlib.sha256(dumps(_SECTIONS[section]).encode()).hexdigest()
    assert got == PINNED[section]


_SECTIONS: dict = {}


def setup_module(module):
    _SECTIONS.update(_sections())


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, value in _sections().items():
        (out / f"{name}.json").write_text(dumps(value))
