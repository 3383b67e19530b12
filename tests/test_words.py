"""Free words and identity word pairs."""

import warnings

import pytest

from matcrypt.errors import (
    AlphabetMismatch,
    DegeneratePair,
    InsecurityWarning,
    TerminalLetterViolation,
)
from matcrypt.matrix import matrix
from matcrypt.ring import Zmod
from matcrypt.rng import Rng
from matcrypt.words import (
    W1_STABLE_INNER,
    FreeWord,
    build_exponent_pair,
    build_solvable_pair,
    fw,
    fw_commutator,
    fw_inv,
    fw_mul,
    fw_pow,
    fw_substitute,
    satisfies_w1,
    schedule_words,
    validate_pair,
)

Z5 = Zmod(5)


def test_fw_mul_examples():
    assert fw_mul(fw(2, [1]), fw(2, [-1])).letters == ()
    assert fw_mul(fw(2, [1, 2]), fw(2, [-2, 1])).letters == (1, 1)
    assert fw_mul(fw(2, [1, 2]), fw(2, [2])).letters == (1, 2, 2)


def test_fw_inv_examples():
    assert fw_inv(fw(2, [1, 2])).letters == (-2, -1)
    assert fw_inv(fw(2, [])).letters == ()


def test_fw_mul_associative_inv_involution_sampled():
    rng = Rng(9)
    for _ in range(30):
        words = []
        for _ in range(3):
            letters = [rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
                       for _ in range(rng.randint(0, 64))]
            words.append(fw(4, letters))
        a, b, c = words
        assert fw_mul(fw_mul(a, b), c) == fw_mul(a, fw_mul(b, c))
        assert fw_inv(fw_inv(a)) == a
        assert fw_mul(a, fw_inv(a)).is_empty()


def _reduced_word(rng: Rng, k: int, n: int) -> FreeWord:
    letters: list[int] = []
    while len(letters) < n:
        x = rng.choice([g * s for g in range(1, k + 1) for s in (1, -1)])
        if not letters or letters[-1] != -x:
            letters.append(x)
    return FreeWord(k, tuple(letters))


def _kernel_cases(seed: int):
    """Seeded pairs (a, b) = (u v, v^-1 w): full cancellation when u or w is
    empty, partial otherwise, none when v is empty."""
    rng = Rng(seed)
    for _ in range(60):
        k = rng.randint(1, 4)
        u, v, w = (_reduced_word(rng, k, rng.choice([0, 0, 1, 3, 9]))
                   for _ in range(3))
        yield k, fw_mul(u, v), fw_mul(fw_inv(v), w)


def _unchanged(result: FreeWord) -> bool:
    """The public constructor leaves a kernel result as it is."""
    return FreeWord(result.k, result.letters) == result and \
        type(result.letters) is tuple


def test_kernels_return_reduced_words():
    from matcrypt.homcrypt import phi_apply
    for k, a, b in _kernel_cases(11):
        prod = fw_mul(a, b)
        assert _unchanged(prod)
        assert prod == FreeWord(k, a.letters + b.letters)
        assert _unchanged(fw_inv(a)) and fw_mul(a, fw_inv(a)).is_empty()
        for e in (-3, -1, 0, 1, 2, 5):
            p = fw_pow(prod, e)
            base = prod.letters if e >= 0 else fw_inv(prod).letters
            assert _unchanged(p) and p == FreeWord(k, base * abs(e))
        images = [fw_mul(a, FreeWord(k, (g,))) for g in range(1, k + 1)]
        sub = fw_substitute(prod, images)
        chunks = [images[x - 1].letters if x > 0 else fw_inv(images[-x - 1]).letters
                  for x in prod.letters]
        assert _unchanged(sub) and sub == FreeWord(k, sum(chunks, ()))
        sigma = tuple(range(1, k)) + (0,)
        phi = phi_apply(sigma, prod)
        assert _unchanged(phi) and phi_apply(sigma, fw_inv(prod)) == fw_inv(phi)


def test_kernels_cancel_fully_and_partly():
    # u v * v^-1 w = u w: the cases above include both kinds of cancellation
    full = partial = 0
    for _k, a, b in _kernel_cases(11):
        cancelled = (len(a) + len(b) - len(fw_mul(a, b))) // 2
        full += cancelled > 0 and cancelled == min(len(a), len(b))
        partial += 0 < cancelled < min(len(a), len(b))
    assert full > 0 and partial > 0


def test_kernels_reject_mixed_alphabets():
    with pytest.raises(AlphabetMismatch):
        fw_mul(fw(2, [1]), fw(3, [1]))
    with pytest.raises(AlphabetMismatch):
        fw_substitute(fw(2, [1, 2]), [fw(2, [1]), fw(3, [3])])
    with pytest.raises(AlphabetMismatch):
        fw_substitute(fw(3, [1, 3]), [fw(2, [1]), fw(2, [2])])
    # one alphabet for the images, another for the word, is a substitution
    assert fw_substitute(fw(2, [1, -2]), [fw(3, [3]), fw(3, [1, 2])]).letters \
        == (3, -2, -1)


def test_commutator_examples():
    assert fw_commutator(fw(2, [2]), fw(2, [1])).letters == (-2, -1, 2, 1)
    w = fw(2, [1, 2, -1])
    assert fw_commutator(w, w).is_empty()
    # expand [u_A^-1, u_B^-1] by hand: u_A u_B u_A^-1 u_B^-1
    assert fw_commutator(fw(2, [-1]), fw(2, [-2])).letters == (1, 2, -1, -2)


def test_solvable_pair_base():
    p = build_solvable_pair(1)
    assert p.wa.letters == (2, 1) and p.wb.letters == (1, 2)


def test_solvable_pair_level2():
    p = build_solvable_pair(2)
    # expand the recursion by hand and reduce freely
    sub_a = fw_commutator(fw(2, [2]), fw(2, [1]))
    sub_b = fw_commutator(fw(2, [-1]), fw(2, [-2]))
    assert fw_mul(sub_b, sub_a).letters == p.wa.letters
    assert p.wa.letters == (1, 2, -1, -2, -2, -1, 2, 1)
    assert len(p.wa) == 8 == len(p.wb)


@pytest.mark.parametrize("n", range(1, 7))
def test_letter_count_law(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsecurityWarning)
        p = build_solvable_pair(n)
    assert len(p.wa) == 2 * 4 ** (n - 1)
    assert len(p.wb) == 2 * 4 ** (n - 1)


def test_default_pair_terminal_drift():
    # the default inner words lose the strict terminal condition at n = 3, 6
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        p3 = build_solvable_pair(3)
    assert not satisfies_w1(p3)
    assert any(isinstance(w.message, InsecurityWarning) for w in log)
    for n in range(1, 7):
        q = build_solvable_pair(n, inner=W1_STABLE_INNER)
        assert satisfies_w1(q) and len(q.wa) == 2 * 4 ** (n - 1)


def test_custom_inner_strictness():
    # inner words that collapse the pair raise
    bad = (fw(2, [2]), fw(2, [1]), fw(2, [2]), fw(2, [1]))
    with pytest.raises((DegeneratePair, TerminalLetterViolation)):
        build_solvable_pair(2, inner=bad)


def test_schedules_regenerate():
    for n in (1, 2, 4):
        p = build_solvable_pair(n)
        assert schedule_words(p.schedule_a, 1) == p.wa
        assert schedule_words(p.schedule_b, 2) == p.wb
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsecurityWarning)
        p3 = build_solvable_pair(3)
    assert schedule_words(p3.schedule_b, 2) == p3.wb  # trailing zero form


def test_exponent_pair():
    p1 = build_exponent_pair(1)
    assert p1.wa.letters == (1,) and p1.wb.letters == (-2,)
    p3 = build_exponent_pair(3)
    assert p3.wa.letters == (1, 2, 1, 2, 1) and p3.wb.letters == (-2,)
    for m in range(1, 7):
        pm = build_exponent_pair(m)
        assert fw_mul(pm.wa, fw_inv(pm.wb)) == fw_pow(fw(2, [1, 2]), m)
        assert satisfies_w1(pm)


def test_exponent_pair_cyclic_evaluation():
    # in C_3 with g = h: W_A evaluates to g^5 = g^2 = g^-1 = W_B
    m = 3
    p = build_exponent_pair(m)
    exps_a = sum(1 for _ in p.wa.letters)
    assert exps_a == 5
    for g in range(1, 3):  # elements of C_3 as exponents
        val_a = (g * 5) % 3
        val_b = (-g) % 3
        assert val_a == val_b


def test_validate_pair_metabelian():
    gens = [matrix(Z5, [[2, 1], [0, 1]]), matrix(Z5, [[1, 1], [0, 3]])]
    rep = validate_pair(build_solvable_pair(2), gens, gens, 40, seed=7)
    assert rep.w1_ok and rep.w2_ok
    assert rep.distinct_keys >= 2


def test_validate_pair_nonabelian_counterexample():
    gens = [matrix(Z5, [[1, 1], [0, 1]]), matrix(Z5, [[1, 0], [1, 1]])]
    rep = validate_pair(build_solvable_pair(1), gens, gens, 40, seed=7)
    assert not rep.w2_ok
    assert rep.counterexample is not None


def test_validate_pair_trivial_warning():
    from matcrypt.matrix import identity
    gens = [identity(2, Z5)]
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        rep = validate_pair(build_solvable_pair(2), gens, gens, 10, seed=1)
    assert rep.distinct_keys < 2
    assert any(isinstance(w.message, InsecurityWarning) for w in log)


def test_metabelian_identity_property():
    # upper-triangular invertibles over Z_p are metabelian: the n=2 pair is
    # an identity there for every sampled substitution
    rng = Rng(13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsecurityWarning)
        pairs = [build_solvable_pair(n) for n in (2, 3)]
    from matcrypt.matrix import is_invertible, word_eval

    def rand_upper():
        while True:
            m = matrix(Z5, [[rng.below(5), rng.below(5)], [0, rng.below(5)]])
            if is_invertible(m):
                return m

    for pair in pairs:
        for _ in range(25):
            g, h = rand_upper(), rand_upper()
            va = word_eval([g, h], pair.wa.letters)
            vb = word_eval([g, h], pair.wb.letters)
            assert va == vb
