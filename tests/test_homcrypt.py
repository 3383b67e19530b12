"""Free-group homomorphic cryptosystem."""

import random
import types

import pytest

from matcrypt import rng as rng_module
from matcrypt.errors import (
    AlphabetMismatch,
    DegenerateKey,
    IndexOutOfRange,
    ShapeMismatch,
)
from matcrypt.homcrypt import (
    HomPublicKey,
    HomSecretKey,
    PermModel,
    Presentation,
    assemble_keypair,
    dihedral4,
    f_inverse_word,
    hc_decrypt,
    hc_encrypt,
    hc_keygen,
    klein_four,
    phi_apply,
    presentation,
    sample_relator,
    sym3,
)
from matcrypt.rng import Rng
from matcrypt.words import FreeWord, fw, fw_mul

KLEIN = klein_four()
FIXTURES = [klein_four(), sym3(), dihedral4()]


def random_message(rng: Rng, k: int, max_len: int = 20) -> FreeWord:
    letters = []
    for _ in range(rng.randint(1, max_len)):
        g = rng.randint(1, k)
        letters.append(g if rng.chance(0.5) else -g)
    return FreeWord(k, tuple(letters))


def test_fixture_models():
    assert KLEIN.model.order() == 4
    assert sym3().model.order() == 6
    assert dihedral4().model.order() == 8


def test_presentation_rejects_bad_model():
    with pytest.raises(ShapeMismatch):
        presentation(2, [(1, 1, 1)], PermModel([(1, 0), (0, 1)]))


def test_presentation_rejects_foreign_relations():
    # relators are multiplied letter by letter, so each must be over the alphabet
    with pytest.raises(AlphabetMismatch):
        Presentation(2, (FreeWord(3, (1, 1)),))


def test_sample_relator():
    # no relations: always the empty word, and nothing is drawn
    free = presentation(2, [])
    rng = Rng(3)
    for _ in range(10):
        assert sample_relator(free, 5, rng).is_empty()
    assert rng.below(1 << 30) == Rng(3).below(1 << 30)
    # normal-closure property: every sample evaluates to the model identity
    rng = Rng(4)
    for _ in range(40):
        w = sample_relator(KLEIN, 4, rng)
        assert KLEIN.model.eval_key(w) == KLEIN.model.identity_key()
        assert len(w) <= 16
    assert sample_relator(KLEIN, 4, Rng(9)) == sample_relator(KLEIN, 4, Rng(9))


class _CountingRandom(random.Random):
    seedings = 0

    def seed(self, *args, **kwargs):
        type(self).seedings += 1
        super().seed(*args, **kwargs)


@pytest.fixture
def seedings(monkeypatch):
    """The number of Mersenne Twisters that ``matcrypt.rng`` seeds."""
    _CountingRandom.seedings = 0
    monkeypatch.setattr(rng_module, "random",
                        types.SimpleNamespace(Random=_CountingRandom))
    return lambda: _CountingRandom.seedings


@pytest.mark.parametrize("length", (1, 20))
def test_encrypt_seeds_one_generator(seedings, length):
    # the paddings of every letter come from the call's own stream
    pk, sk = hc_keygen(dihedral4(), 2)
    msg = FreeWord(2, (1, 2) * (length // 2) + (1,) * (length % 2))
    before = seedings()
    cipher = hc_encrypt(pk, msg, 7)
    assert seedings() - before == 1
    assert dihedral4().model.eval_key(hc_decrypt(sk, cipher)) == \
        dihedral4().model.eval_key(msg)


def test_keygen_seeds_one_generator(seedings):
    for pres in FIXTURES:
        for seed in range(5):
            before = seedings()
            hc_keygen(pres, seed)
            assert seedings() - before == 1, (pres.k, seed)


def test_keygen_worked_example():
    # sigma = (y1 y2); r_y1 = y1^2, r'_y1 = empty; r_y2 = empty, r'_y2 = y2^2
    pk, sk = assemble_keypair(KLEIN, (1, 0), [((1, 1), ()), ((), (2, 2))])
    assert pk.x_words == ((2, 2, 2), (1, 1, 1))
    assert pk.f_table == (0, 1)  # f(y2^3) = y1, f(y1^3) = y2
    assert sk.sigma == (1, 0)


def test_keygen_trivial():
    # identity sigma and empty paddings: X = Y and f = identity
    pk, sk = assemble_keypair(KLEIN, (0, 1), [((), ()), ((), ())])
    assert pk.x_words == ((1,), (2,))
    msg = fw(2, [1, -2, 1])
    assert hc_encrypt(pk, msg, 0, pad_length=0) == msg
    assert hc_decrypt(sk, msg) == msg


def test_keygen_determinism_and_consistency():
    pk1, sk1 = hc_keygen(KLEIN, 42)
    pk2, sk2 = hc_keygen(KLEIN, 42)
    assert pk1.x_words == pk2.x_words and sk1.sigma == sk2.sigma
    # consistency invariant: phi_sigma(x_word) = r y r' with r, r' killed
    # by the model, so its image equals the image of y
    for idx, xw in enumerate(pk1.x_words):
        y = pk1.f_table[idx] + 1
        img = KLEIN.model.eval_key(phi_apply(sk1.sigma, FreeWord(2, xw)))
        assert img == KLEIN.model.eval_key(FreeWord(2, (y,)))


def test_keygen_degenerate():
    # r = y1^-1 collapses r * y1 * r' to the empty word
    with pytest.raises(DegenerateKey):
        assemble_keypair(KLEIN, (1, 0), [((-1,), ()), ((), ())])
    with pytest.raises(DegenerateKey):
        assemble_keypair(KLEIN, (0, 0), [((), ()), ((), ())])


def test_encrypt_worked_example():
    pk, sk = assemble_keypair(KLEIN, (1, 0), [((1, 1), ()), ((), (2, 2))])
    # one-letter message y1 padded with s = y1 y2 y1^-1 y2^-1, s' empty
    chunk = fw_mul(fw(2, [1, 2, -1, -2]), fw(2, [1]))
    cipher = f_inverse_word(pk, chunk)
    assert cipher.letters == (2, 2, 2, 1, 1, 1, -2, -2, -2, -1, -1, -1, 2, 2, 2)
    plain = hc_decrypt(sk, cipher)
    assert plain.letters == (1, 1, 1, 2, 2, 2, -1, -1, -1, -2, -2, -2, 1, 1, 1)
    assert KLEIN.model.eval_key(plain) == KLEIN.model.eval_key(fw(2, [1]))


def test_decrypt_letterwise():
    sk = HomSecretKey((1, 0))
    assert hc_decrypt(sk, fw(2, [1, 2])).letters == (2, 1)
    ident = HomSecretKey((0, 1))
    w = fw(2, [1, -2, 1])
    assert hc_decrypt(ident, w) == w


def test_encrypt_rejects_foreign_letters():
    pk, _ = hc_keygen(KLEIN, 1)
    with pytest.raises(IndexOutOfRange):
        hc_encrypt(pk, FreeWord(3, (3,)), 0)


@pytest.mark.parametrize("pres", FIXTURES,
                         ids=["klein4", "s3", "d4"])
def test_roundtrip(pres):
    pk, sk = hc_keygen(pres, 7)
    rng = Rng(123)
    for _ in range(60):
        msg = random_message(rng, pres.k)
        cipher = hc_encrypt(pk, msg, rng.below(1 << 30))
        plain = hc_decrypt(sk, cipher)
        assert pres.model.eval_key(plain) == pres.model.eval_key(msg)


@pytest.mark.parametrize("pres", FIXTURES, ids=["klein4", "s3", "d4"])
def test_homomorphic_property(pres):
    pk, sk = hc_keygen(pres, 9)
    rng = Rng(321)
    for _ in range(25):
        m1 = random_message(rng, pres.k, 8)
        m2 = random_message(rng, pres.k, 8)
        c1 = hc_encrypt(pk, m1, rng.below(1 << 30))
        c2 = hc_encrypt(pk, m2, rng.below(1 << 30))
        plain = hc_decrypt(sk, fw_mul(c1, c2))
        assert pres.model.eval_key(plain) == \
            pres.model.eval_key(fw_mul(m1, m2))


def test_ciphertext_length_linear():
    pk, _ = hc_keygen(KLEIN, 3)
    rng = Rng(55)
    k = KLEIN.k
    max_x = max(len(w) for w in pk.x_words)
    # |E(M)| <= |M| * (longest x-word) * (1 + two paddings of length <= 8k)
    bound_per_letter = max_x * (1 + 2 * 4 * 2 * k)
    for t in (1, 5, 10, 20):
        msg = random_message(rng, k, t)
        cipher = hc_encrypt(pk, msg, rng.below(1 << 30))
        assert len(cipher) <= bound_per_letter * len(msg)


def test_encrypt_determinism():
    pk, _ = hc_keygen(KLEIN, 5)
    msg = fw(2, [1, 2, -1])
    assert hc_encrypt(pk, msg, 77) == hc_encrypt(pk, msg, 77)


def test_keys_check_themselves():
    pk, _ = hc_keygen(KLEIN, 5)
    for sigma in ((0, 0), (1, 2), (0, "1"), (True, 0)):
        with pytest.raises(DegenerateKey):
            HomSecretKey(sigma)
    for table in ((0, 0), (0, 5), (0,), (0, 1, 2), (1.0, 0)):
        with pytest.raises(DegenerateKey):
            HomPublicKey(KLEIN, pk.x_words, table)
    with pytest.raises(DegenerateKey):
        HomPublicKey(KLEIN, pk.x_words[:1], (0,))
    # a permutation of another alphabet size is not a key for this cipher
    with pytest.raises(DegenerateKey):
        hc_decrypt(HomSecretKey((0, 1, 2)), fw(2, [1]))
    with pytest.raises(DegenerateKey):
        phi_apply((0, 0), fw(2, [1, 2]))


def test_pullback_checks_public_words():
    pk, _ = hc_keygen(KLEIN, 5)
    bad = HomPublicKey(KLEIN, (pk.x_words[0], (1, 3)), pk.f_table)
    with pytest.raises(IndexOutOfRange):
        f_inverse_word(bad, fw(2, [1, 2]))
    with pytest.raises(IndexOutOfRange):
        hc_encrypt(bad, fw(2, [1, 2]), 0)


@pytest.mark.parametrize("words", [((2,), (2, 2, 2)), ((1, 2), (-2, -1)),
                                   ((1, 2, 1), (1, 2, 1)), ((), (1,)),
                                   ((1, 2), (1, 2, 1, 2, 1, 2))])
def test_commuting_public_words_are_refused(words):
    # powers of one word, its inverse, itself and the empty word all commute
    pk = HomPublicKey(KLEIN, words, (0, 1))
    with pytest.raises(DegenerateKey):
        hc_encrypt(pk, fw(2, [1]), 0)
    assert HomPublicKey(KLEIN, ((2,), (1, 2, 2)), (0, 1)).pullback_images


def test_public_words_are_pulled_back_once_per_key(monkeypatch):
    pk, sk = hc_keygen(KLEIN, 5)
    made = []
    real = FreeWord.__post_init__
    monkeypatch.setattr(FreeWord, "__post_init__",
                        lambda self: made.append(self) or real(self))
    msg = FreeWord._of(2, (1, -2, 2, 2))
    ciphers = [hc_encrypt(pk, msg, s) for s in range(3)]
    assert len(made) == KLEIN.k       # the x-words, at the first encryption
    assert pk.pullback_images == tuple(
        FreeWord(2, pk.x_words[pk.f_table.index(y)]) for y in range(KLEIN.k))
    for c in ciphers:
        assert KLEIN.model.eval_key(hc_decrypt(sk, c)) == \
            KLEIN.model.eval_key(msg)


def test_encrypt_equals_chunkwise_pullback():
    # one substitution of the reduced padded message equals the product of
    # f^-1 of every padded letter (f^-1 is a homomorphism)
    pk, _ = hc_keygen(dihedral4(), 2)
    rng = Rng(8)
    for pad in (None, 0, 2):
        msg = random_message(rng, 2, 12)
        s = rng.below(1 << 30)
        chunks = Rng(s)
        want = FreeWord(2, ())
        for x in msg.letters:
            length = pad if pad is not None else chunks.randint(2, 4)
            r = sample_relator(pk.presentation, length, chunks)
            rp = sample_relator(pk.presentation, length, chunks)
            piece = fw_mul(fw_mul(r, fw(2, [x])), rp)
            want = fw_mul(want, f_inverse_word(pk, piece))
        assert hc_encrypt(pk, msg, s, pad_length=pad) == want


def _replay_keygen(pres, seed):
    """hc_keygen's draws spelled out: sigma, then each generator's pad length
    and two paddings (a degenerate set drawn again), then the published
    order, all from one stream.  Returns (x_words, f_table, sigma) and the
    retry count."""
    k = pres.k
    rng = Rng(seed)
    sigma = tuple(rng.shuffle(list(range(k))))
    retries = 0
    while True:
        paddings = []
        for _ in range(k):
            length = rng.randint(k, 2 * k)
            paddings.append((sample_relator(pres, length, rng).letters,
                             sample_relator(pres, length, rng).letters))
        try:
            pk, sk = assemble_keypair(pres, sigma, paddings)
        except DegenerateKey:
            retries += 1
            continue
        order = tuple(rng.shuffle(list(range(k))))
        return (tuple(pk.x_words[i] for i in order), order, sk.sigma), retries


def test_keygen_replays_one_stream():
    for pres in FIXTURES:
        for seed in range(20):
            pk, sk = hc_keygen(pres, seed)
            want, _ = _replay_keygen(pres, seed)
            assert (pk.x_words, pk.f_table, sk.sigma) == want, (pres.k, seed)
    # the relator (1,) can cancel y1 outright: seed 238 draws one empty
    # x-word, and the retry goes on with the same stream
    trivial = presentation(2, [(1,), (2, 2)])
    pk, sk = hc_keygen(trivial, 238)
    want, retries = _replay_keygen(trivial, 238)
    assert retries == 1
    assert (pk.x_words, pk.f_table, sk.sigma) == want


def test_encrypt_linear_time():
    # 2000 letters with no cancellation: rebuilding the ciphertext after
    # every letter took 46 s of CPU time, one substitution takes about 0.3 s
    import time
    pres = dihedral4()
    pk, sk = hc_keygen(pres, 0)
    rng = Rng(5)
    letters: list[int] = []
    while len(letters) < 2000:
        x = rng.choice([1, -1, 2, -2])
        if not letters or letters[-1] != -x:
            letters.append(x)
    msg = FreeWord(2, tuple(letters))
    t0 = time.process_time()
    cipher = hc_encrypt(pk, msg, 1)
    assert time.process_time() - t0 < 2.0
    assert pres.model.eval_key(hc_decrypt(sk, cipher)) == pres.model.eval_key(msg)
