"""Differential tests: the incremental multi-party key schedule of
``matcrypt.protocol`` against the reference schedule in
``protocol_reference`` on seeded instances.  Transcript bytes and keys must
match, and no party may spend more group operations than it did before."""

import warnings

import pytest

from conftest import rand_invertible
from protocol_reference import ref_multiparty_run
from matcrypt.cli import _random_instance_config
from matcrypt.protocol import multiparty_run
from matcrypt.ring import Zmod, field
from matcrypt.rng import Rng
from matcrypt.serialize import dumps, matrix_from_obj, matrix_to_obj
from matcrypt.words import _random_word

PARTIES = range(2, 10)


def _instance_gens(seed):
    # the CLI's instance distribution; seed 4 gives non-commuting
    # generators, seed 0 commuting ones (identity keys)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _t, gens_a, gens_b, _rng = _random_instance_config(40, seed)
    return gens_a + gens_b


def _random_gens(ring, seed, n=3, count=3):
    rng = Rng(seed)
    return [rand_invertible(ring, n, rng) for _ in range(count)]


SOURCES = {
    "cli-4": lambda: _instance_gens(4),
    "cli-0": lambda: _instance_gens(0),
    "GF5": lambda: _random_gens(field(5), 1),
    "Z12": lambda: _random_gens(Zmod(12), 2),
}


def _copy(gens):
    """Equal values, distinct Matrix objects."""
    return [matrix_from_obj(matrix_to_obj(m)) for m in gens]


def _configs(case, gens, s, rng):
    if case == "shared":
        return [(gens, _random_word(rng, len(gens))) for _ in range(s)]
    if case == "per-party":
        # party i gets its own copy of the list, rotated by i
        lists = [_copy(gens[i % len(gens):] + gens[:i % len(gens)])
                 for i in range(s)]
        return [(g, _random_word(rng, len(g))) for g in lists]
    if case == "equal-valued":
        return [(_copy(gens), _random_word(rng, len(gens))) for _ in range(s)]
    if case == "empty-word":
        return [(gens, [] if i % 3 == 0 else _random_word(rng, len(gens)))
                for i in range(s)]
    if case == "one-letter":
        return [(gens, [rng.choice([-1, 1]) * rng.randint(1, len(gens))])
                for _ in range(s)]
    raise ValueError(case)


def _both(s, configs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = ref_multiparty_run(s, configs, 0)
        new = multiparty_run(s, configs, 0)
    return ref, new


@pytest.mark.parametrize("case", ["shared", "per-party", "equal-valued",
                                  "empty-word", "one-letter"])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_schedule_matches_reference(case, source):
    gens = SOURCES[source]()
    rng = Rng(len(case) * 101 + len(source))
    nontrivial = 0
    for s in PARTIES:
        configs = _configs(case, gens, s, rng)
        (ref_keys, ref_tr, ref_ops), (keys, tr, ops) = _both(s, configs)
        assert dumps(tr.to_obj()) == dumps(ref_tr.to_obj()), s
        assert keys == ref_keys, s
        assert all(k == keys[0] for k in keys)
        for i, (old, op) in enumerate(zip(ref_ops, ops)):
            assert op["compute"] <= old["compute"], (s, i)
            assert op["answer"] <= old["answer"], (s, i)
        nontrivial += not keys[0].is_identity()
    if source in ("GF5", "Z12") and case != "empty-word":
        assert nontrivial, "every key was the identity"


def test_shared_tables_are_answered_and_serialized_once():
    gens = SOURCES["GF5"]()
    rng = Rng(3)
    s = 8
    configs = [(gens, _random_word(rng, len(gens))) for _ in range(s)]
    (_, _, ref_ops), (_, tr, ops) = _both(s, configs)
    assert sum(o["answer"] for o in ops) < sum(o["answer"] for o in ref_ops)
    assert sum(o["compute"] for o in ops) < sum(o["compute"] for o in ref_ops)
    answer_records = [r for r in tr.records if r["type"] == "conjugation-answer"]
    answers = {id(r["payload"]) for r in answer_records}
    queries = {id(r["payload"]) for r in tr.records
               if r["type"] == "conjugation-query"}
    # a table held by several parties of one half is answered once, and all
    # their answer records carry that one payload
    assert len(answers) < len(answer_records)
    # and conjugated once: one key inversion per answering half (two per
    # merge, s - 1 merges) and two products per matrix of each answer
    assert sum(o["answer"] for o in ops) == \
        2 * (s - 1) + 2 * len(gens) * len(answers)
    # one payload for the shared initial table; every other query resends
    # the payload made for an earlier answer
    assert len(queries - answers) == 1
