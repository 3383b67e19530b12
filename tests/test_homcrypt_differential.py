"""Relator sampling on one stack of letter tuples, and generators seeded on
first draw, against the reference code they replaced
(``homcrypt_reference``): the same relators, keys and ciphertexts for every
seed, and the same number of draws from the caller's stream."""

import pytest

from matcrypt import homcrypt
from matcrypt.homcrypt import (
    dihedral4,
    hc_encrypt,
    hc_keygen,
    klein_four,
    presentation,
    sample_relator,
    sym3,
)
from matcrypt.rng import Rng
from matcrypt.words import FreeWord
from homcrypt_reference import EagerRng, ref_sample_relator

PRESETS = {"klein4": klein_four(), "s3": sym3(), "d4": dihedral4()}
PRESENTATIONS = {**PRESETS, "free": presentation(3, [])}
LENGTHS = (0, 1, 2, 4, 8, 13)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@pytest.mark.parametrize("length", LENGTHS)
def test_sample_relator_matches_reference(name, length):
    pres = PRESENTATIONS[name]
    for seed in range(200):
        rng, ref = Rng(seed), EagerRng(seed)
        got = sample_relator(pres, length, rng)
        want = ref_sample_relator(pres, length, ref)
        assert (got.k, got.letters) == (want.k, want.letters), seed
        # both drew as much: the streams go on alike
        assert rng.below(1 << 62) == ref.below(1 << 62), seed


def _round_trips(pres, pad_length):
    """(x_words, f_table, sigma, cipher letters) for seeds 0..29, each
    message drawn from its own stream."""
    out = []
    for seed in range(30):
        pk, sk = hc_keygen(pres, seed)
        draw = Rng(seed ^ 0x3C3C)
        msg = FreeWord(pres.k, tuple(
            draw.choice((1, -1)) * draw.randint(1, pres.k)
            for _ in range(draw.randint(0, 12))))
        cipher = hc_encrypt(pk, msg, 1000 + seed, pad_length)
        out.append((pk.x_words, pk.f_table, sk.sigma, cipher.letters))
    return out


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("pad_length", (None, 0, 1, 3))
def test_keys_and_ciphers_match_reference(monkeypatch, name, pad_length):
    pres = PRESETS[name]
    got = _round_trips(pres, pad_length)
    monkeypatch.setattr(homcrypt, "Rng", EagerRng)
    monkeypatch.setattr(homcrypt, "sample_relator", ref_sample_relator)
    want = _round_trips(pres, pad_length)
    assert got == want

