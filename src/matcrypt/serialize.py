"""Canonical JSON-compatible serialization.

All formats are plain JSON values with fields in a fixed order, rendered with
no insignificant whitespace and decimal integers, so equal values serialize
byte-identically.  Fingerprints are SHA-256 over the canonical bytes.
"""

from __future__ import annotations

import hashlib
import json

from .errors import BadInputFile, RingMismatch
from .matrix import Matrix
from .ring import (GaloisRingSpec, RingElement, RingSpec, _validate_summand,
                   direct_sum_specs)
from .words import FreeWord, IdentityWordPair


# One encoder for every call; canonical values are trees, so the
# circular-reference check would only cost time.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def dumps(obj) -> str:
    return _encode(obj)


def fingerprint(obj) -> str:
    """64 hex chars over the canonical bytes of a JSON-ready object."""
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


def _int(value, what: str) -> int:
    """value, when it is an int; a bool, float, str or any other value read
    where a file holds an integer is a BadInputFile naming what."""
    if type(value) is not int:
        raise BadInputFile(f"{what} {value!r} is not an int")
    return value


# --- rings ------------------------------------------------------------------

def ring_to_obj(ring: RingSpec) -> dict:
    return {"summands": [
        {"p": g.p, "m": g.m, "r": g.r, "modulus": list(g.modulus)}
        for g in ring.summands]}


def ring_from_obj(obj: dict) -> RingSpec:
    """The ring a file names, its summands in canonical order; NonPrimeP or
    ReducibleModulus when a summand is no Galois ring."""
    return _ring_positions(obj)[0]


def _ring_positions(obj: dict) -> tuple[RingSpec, list]:
    """``ring_from_obj`` and the canonical position of each summand the
    file lists, which its elements' coefficient lists follow."""
    return direct_sum_specs([
        _validate_summand(GaloisRingSpec(
            _int(s["p"], "p"), _int(s["m"], "m"), _int(s["r"], "r"),
            tuple([_int(c, "modulus coefficient") for c in s["modulus"]])))
        for s in obj["summands"]])


def elem_to_obj(a: RingElement) -> list:
    return [list(cs) for cs in a.coeffs]


def _elem(ring: RingSpec, positions, obj: list) -> RingElement:
    """The element whose coefficient list i is for summand positions[i]."""
    if len(obj) != len(ring.summands):
        raise RingMismatch("element has wrong summand count")
    coeffs = [None] * len(obj)
    for pos, cs in zip(positions, obj):
        coeffs[pos] = tuple([_int(c, "coefficient") for c in cs])
    return ring.element(coeffs)


# --- matrices and vectors ----------------------------------------------------

def matrix_to_obj(a: Matrix) -> dict:
    n = a.n
    per = [[[x] for x in d] if g.r == 1 else [list(cs) for cs in d]
           for g, d in zip(a.ring.summands, a.data)]
    entries = [list(e) for e in zip(*per)]
    return {"n": n, "ring": ring_to_obj(a.ring),
            "rows": [entries[i:i + n] for i in range(0, n * n, n)]}


def matrix_from_obj(obj: dict) -> Matrix:
    ring, positions = _ring_positions(obj["ring"])
    rows = tuple(tuple(_elem(ring, positions, e) for e in row)
                 for row in obj["rows"])
    return Matrix(obj["n"], ring, rows)


def vector_to_obj(ring: RingSpec, v: tuple) -> dict:
    return {"ring": ring_to_obj(ring), "coords": [elem_to_obj(e) for e in v]}


def vector_from_obj(obj: dict) -> tuple:
    ring, positions = _ring_positions(obj["ring"])
    return tuple(_elem(ring, positions, e) for e in obj["coords"])


# --- derivation trees and instances ------------------------------------------

def tree_to_obj(t) -> dict:
    """Secret-key file: a derivation tree, leaves and operation labels."""
    if t.is_leaf():
        return {"leaf": {"kind": t.base.kind,
                         "params": _params_obj(t.base.params)}}
    lab = t.label
    out = {"op": {"kind": lab.kind}}
    if lab.m:
        out["op"]["m"] = lab.m
    if lab.d:
        out["op"]["d"] = lab.d
    if lab.kind == "conjugate":
        out["op"]["seed"] = lab.seed
    if lab.target is not None:
        out["op"]["target"] = ring_to_obj(lab.target)
    out["children"] = [tree_to_obj(c) for c in t.children]
    return out


def _params_obj(params) -> list:
    return [list(p) if isinstance(p, tuple) else p for p in params]


def tree_from_obj(obj: dict):
    # instance is imported on use: it loads the group and solver layers,
    # which reading rings, matrices, vectors and words does not need
    from .instance import BaseGroupSpec, DerivationTree, OpLabel
    if "leaf" in obj:
        raw = obj["leaf"]
        params = tuple(tuple(p) if isinstance(p, list) else p
                       for p in raw["params"])
        return DerivationTree(base=BaseGroupSpec(raw["kind"], params))
    raw = obj["op"]
    label = OpLabel(raw["kind"], m=raw.get("m", 0), d=raw.get("d", 0),
                    seed=raw.get("seed", 0),
                    target=ring_from_obj(raw["target"]) if "target" in raw else None)
    children = tuple(tree_from_obj(c) for c in obj["children"])
    return DerivationTree(label=label, children=children)


def instance_to_obj(inst) -> dict:
    """Public-key file: the degree, the ring and the generators."""
    return {"n": inst.n, "ring": ring_to_obj(inst.ring),
            "gens": [matrix_to_obj(g) for g in inst.gens]}


# --- homomorphisms ----------------------------------------------------------

def homspec_to_obj(h) -> dict:
    """Secret-key file with a homomorphism: the tree, in the tree format,
    plus the per-leaf choices."""
    return {"tree": tree_to_obj(h.tree),
            "choices": [list(c) for c in h.choices]}


def homspec_from_obj(obj: dict):
    from .instance import hom_build
    return hom_build(tree_from_obj(obj["tree"]), [tuple(c) for c in obj["choices"]])


# --- words -------------------------------------------------------------------

def word_to_obj(w) -> list:
    letters = w.letters if hasattr(w, "letters") else w
    return list(letters)


def pair_to_obj(p: IdentityWordPair) -> dict:
    return {"wa": word_to_obj(p.wa), "wb": word_to_obj(p.wb),
            "schedule_a": list(p.schedule_a), "schedule_b": list(p.schedule_b)}


def pair_from_obj(obj: dict) -> IdentityWordPair:
    return IdentityWordPair(
        FreeWord(2, tuple(obj["wa"])), FreeWord(2, tuple(obj["wb"])),
        tuple(obj["schedule_a"]), tuple(obj["schedule_b"]))
