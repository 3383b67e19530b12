"""Homomorphic public-key cryptosystem over a free group.

The plaintext space is a finitely presented group H = <Y; R>; ciphertexts
live in a hidden subgroup G of the free group on Y.  The secret key is a
permutation sigma of Y.  Each public generator is
x_y = phi_sigma^-1(r_y y r'_y) with r_y, r'_y random products of conjugated
relators, and the public bijection f maps x_y back to y.  Decryption applies
sigma letterwise; it is a group homomorphism onto H, so products of
ciphertexts decrypt to products of plaintexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import AlphabetMismatch, DegenerateKey, IndexOutOfRange, ShapeMismatch
from .matrix import perm_compose, perm_inverse
from .rng import Rng
from .words import (FreeWord, _closure, _inv_letters, check_letters, fw_mul,
                    fw_substitute, push_reduced, reduce_letters)

KEYGEN_RETRIES = 64


# ---------------------------------------------------------------------------
# concrete models of the plaintext group
# ---------------------------------------------------------------------------

class PermModel:
    """Generators realized as permutations (tuples mapping i -> images[i]),
    multiplied left factor first; ``_letters`` maps +-y to its permutation."""

    mul_key = staticmethod(perm_compose)

    def __init__(self, perms):
        self.perms = [tuple(p) for p in perms]
        self.deg = len(self.perms[0])
        if any(len(p) != self.deg for p in self.perms):
            raise ShapeMismatch("permutation degrees differ")
        self._letters = {}
        for y, p in enumerate(self.perms, 1):
            self._letters[y], self._letters[-y] = p, perm_inverse(p)
        self._order = None

    def identity_key(self):
        return tuple(range(self.deg))

    def gen_key(self, letter: int, sign: int):
        return self._letters[letter if sign > 0 else -letter]

    def eval_key(self, word) -> tuple:
        letters = word.letters if isinstance(word, FreeWord) else word
        out = self.identity_key()
        for x in letters:
            out = perm_compose(out, self._letters[x])
        return out

    def order(self) -> int:
        if self._order is None:
            elements, _ = _closure(self.identity_key(), list(enumerate(self.perms, 1)),
                                   perm_compose, lambda key: key)
            self._order = len(elements)
        return self._order


@dataclass(frozen=True)
class Presentation:
    k: int
    relations: tuple
    model: object = None

    def __post_init__(self):
        if self.k < 2:
            raise ShapeMismatch("alphabet size must be >= 2")
        if any(r.k != self.k for r in self.relations):
            raise AlphabetMismatch(
                f"a relation is not over the alphabet of size {self.k}")
        if self.model is not None:
            ident = self.model.identity_key()
            for r in self.relations:
                if self.model.eval_key(r) != ident:
                    raise ShapeMismatch(
                        "a relation does not hold in the supplied model")


def presentation(k: int, relations, model=None) -> Presentation:
    return Presentation(k, tuple(FreeWord(k, tuple(r)) for r in relations), model)


# --- fixtures ----------------------------------------------------------------

def klein_four() -> Presentation:
    return presentation(
        2, [(1, 1), (2, 2), (-1, -2, 1, 2)],
        PermModel([(1, 0, 3, 2), (2, 3, 0, 1)]))


def sym3() -> Presentation:
    # transposition and 3-cycle
    return presentation(
        2, [(1, 1), (2, 2, 2), (1, 2, 1, 2)],
        PermModel([(1, 0, 2), (1, 2, 0)]))


def dihedral4() -> Presentation:
    # rotation of order 4 and a reflection
    return presentation(
        2, [(1, 1, 1, 1), (2, 2), (1, 2, 1, 2)],
        PermModel([(1, 2, 3, 0), (3, 2, 1, 0)]))


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def _is_permutation(seq, k: int) -> bool:
    """seq lists each of 0..k-1 once, as ints."""
    return (len(seq) == k and all(type(i) is int for i in seq)
            and set(seq) == set(range(k)))


@dataclass
class HomPublicKey:
    presentation: Presentation
    x_words: tuple       # k letter-tuples over Y
    f_table: tuple       # index into x_words -> Y generator index (0-based)

    def __post_init__(self):
        k = self.presentation.k
        if len(self.x_words) != k:
            raise DegenerateKey(f"{len(self.x_words)} public words for {k} generators")
        if not _is_permutation(self.f_table, k):
            raise DegenerateKey(f"f_table is not a permutation of 0..{k - 1}")
        for w in self.x_words:
            check_letters(w)

    @cached_property
    def pullback_images(self) -> tuple[FreeWord, ...]:
        """f^-1 of each Y generator: its public x-word, reduced and checked.

        Built on first use, once per key, so a malformed x-word is reported
        by the first encryption or attack.  Two x-words that commute in the
        free group, such as (2) and (2, 2, 2), are refused with
        DegenerateKey: on such a key a word's image in H depends on the
        product of x-words that spells it (see ``analysis.CosetAttack``)."""
        k = self.presentation.k
        words = [FreeWord(k, tuple(x)) for x in self.x_words]
        for i, u in enumerate(words):
            for j in range(i + 1, k):
                if fw_mul(u, words[j]).letters == fw_mul(words[j], u).letters:
                    raise DegenerateKey(f"public words {i + 1} and {j + 1} commute")
        back = [None] * k
        for idx, y in enumerate(self.f_table):
            back[y] = words[idx]
        return tuple(back)


@dataclass
class HomSecretKey:
    sigma: tuple         # permutation of 0..k-1

    def __post_init__(self):
        if not _is_permutation(self.sigma, len(self.sigma)):
            raise DegenerateKey("sigma is not a permutation")


def phi_apply(sigma: tuple, w: FreeWord) -> FreeWord:
    """The free-group automorphism induced by the generator permutation.

    A permutation of the generators maps reduced words to reduced words."""
    if not _is_permutation(sigma, w.k):
        raise DegenerateKey(f"sigma is not a permutation of 0..{w.k - 1}")
    image = {}
    for i, j in enumerate(sigma, 1):
        image[i], image[-i] = j + 1, -j - 1
    return FreeWord._of(w.k, tuple(map(image.__getitem__, w.letters)))


def sample_relator(pres: Presentation, target_length: int, rng: Rng) -> FreeWord:
    """A freely reduced product of conjugated relators w^-1 r^+-1 w, drawn
    from the caller's generator.

    The reduced length never exceeds 4 * target_length; with no relations the
    result is always the empty word, and nothing is drawn.  Each piece is a
    letter tuple pushed onto one reduced letter stack: reduced forms are
    unique, so pushing w^-1, r and w in turn gives the same word as
    multiplying the pieces.
    """
    k = pres.k
    if not pres.relations or target_length <= 0:
        return FreeWord._of(k, ())
    bound = 4 * target_length
    out: list[int] = []
    for _ in range(rng.randint(1, 3)):
        r = rng.choice(pres.relations).letters
        if rng.chance(0.5):
            r = _inv_letters(r)
        conj = []
        for _ in range(rng.randint(0, target_length // 2)):
            g = rng.randint(1, k)
            conj.append(g if rng.chance(0.5) else -g)
        w = reduce_letters(conj)
        cand = push_reduced(out[:], _inv_letters(w))
        cand = push_reduced(push_reduced(cand, r), w)
        if len(cand) > bound:
            break
        out = cand
    return FreeWord._of(k, tuple(out))


def assemble_keypair(pres: Presentation, sigma: tuple, paddings):
    """Deterministic key assembly from explicit sigma and relator paddings.

    paddings[i] = (r letters, r' letters) for generator i; the public word
    for y_i is phi_sigma^-1(r * y_i * r').
    """
    k = pres.k
    sigma = tuple(sigma)
    if not _is_permutation(sigma, k):
        raise DegenerateKey("sigma is not a permutation")
    sigma_inv = perm_inverse(sigma)
    x_words = []
    for i in range(k):
        r, rp = paddings[i]
        w = fw_mul(fw_mul(FreeWord(k, tuple(r)), FreeWord(k, (i + 1,))),
                   FreeWord(k, tuple(rp)))
        x = phi_apply(sigma_inv, w)
        if x.is_empty():
            raise DegenerateKey(f"public word for generator {i + 1} is empty")
        x_words.append(x.letters)
    if len(set(x_words)) != k:
        raise DegenerateKey("public words collide")
    return (HomPublicKey(pres, tuple(x_words), tuple(range(k))),
            HomSecretKey(sigma))


def hc_keygen(pres: Presentation, seed: int):
    """Random keypair; resamples degenerate paddings a bounded number of times.

    sigma, every padding (retries included) and the published order are
    drawn in turn from one generator seeded with ``seed``."""
    rng = Rng(seed)
    sigma = tuple(rng.shuffle(list(range(pres.k))))
    for _ in range(KEYGEN_RETRIES):
        paddings = []
        for _i in range(pres.k):
            length = rng.randint(pres.k, 2 * pres.k)
            paddings.append((sample_relator(pres, length, rng).letters,
                             sample_relator(pres, length, rng).letters))
        try:
            pk, sk = assemble_keypair(pres, sigma, paddings)
        except DegenerateKey:
            continue
        # shuffle the published order of the x-words
        order = tuple(rng.shuffle(list(range(pres.k))))
        return HomPublicKey(pres, tuple(pk.x_words[i] for i in order), order), sk
    raise DegenerateKey(f"no usable paddings after {KEYGEN_RETRIES} attempts")


def f_inverse_word(pk: HomPublicKey, w: FreeWord) -> FreeWord:
    """Replace every Y letter by its public x-word (sign-respecting)."""
    return fw_substitute(w, pk.pullback_images)


def hc_encrypt(pk: HomPublicKey, message: FreeWord, seed: int,
               pad_length: int | None = None) -> FreeWord:
    """E(M): pad every letter with relator products, then pull back through f.

    pad_length overrides the default target length (drawn uniformly from
    [k, 2k]) of each sampled relator product; shorter paddings keep
    ciphertexts within reach of the bounded coset attack in tests.  The
    padded message s_1 x_1 s'_1 s_2 x_2 s'_2 ... is reduced as it is built
    and pulled back by one substitution: f^-1 is a homomorphism and reduced
    forms are unique, so this equals the product of the pulled-back chunks.
    Every draw comes from one generator seeded with ``seed``: for each letter
    the pad length (unless given), then s and then s'.
    """
    pres = pk.presentation
    k = pres.k
    if any(abs(x) > k for x in message.letters):
        raise IndexOutOfRange("message letter outside the alphabet")
    rng = Rng(seed)
    padded: list[int] = []
    for x in message.letters:
        length = pad_length if pad_length is not None else rng.randint(k, 2 * k)
        push_reduced(padded, sample_relator(pres, length, rng).letters)
        push_reduced(padded, (x,))
        push_reduced(padded, sample_relator(pres, length, rng).letters)
    return fw_substitute(FreeWord._of(k, tuple(padded)), pk.pullback_images)


def hc_decrypt(sk: HomSecretKey, cipher: FreeWord) -> FreeWord:
    """D(C): the letterwise sigma image (a homomorphism onto H)."""
    return phi_apply(sk.sigma, cipher)
