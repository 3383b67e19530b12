"""Free-group reduced words, identity word pairs, and the package's one
breadth-first closure, which lists a group from its generators.

Words are stored freely reduced over a signed alphabet: letter +i is
generator i (1-based), -i its inverse.  Identity word pairs (W_A, W_B) over
two generators u_A = 1, u_B = 2 agree on all substitutions from suitable
group classes and drive the generalized two-party key agreement protocol.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

from .errors import (
    AlphabetMismatch,
    CapExceeded,
    DegeneratePair,
    IndexOutOfRange,
    InsecurityWarning,
    TerminalLetterViolation,
)
from .matrix import Matrix, word_eval
from .rng import Rng

U_A, U_B = 1, 2


def check_letters(letters) -> None:
    """Raise TypeError at the first letter whose type is not int: a bool or
    a float read from a file compares equal to an int letter, and a string
    fails only later, inside a kernel."""
    for x in letters:
        if type(x) is not int:
            raise TypeError(f"word letter {x!r} is not an integer")


def reduce_letters(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise IndexOutOfRange("zero letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def push_reduced(stack: list, letters: tuple) -> list:
    """Append a reduced letter tuple to a reduced stack.  Both are reduced,
    so letters cancel only where they meet, and the stack stays reduced."""
    i, n = 0, min(len(stack), len(letters))
    while i < n and stack[-1 - i] == -letters[i]:
        i += 1
    del stack[len(stack) - i:]
    stack.extend(letters[i:])
    return stack


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word.  The public constructor reduces and checks the
    letters; the kernels below build their results with ``_of`` from reduced
    operands, so no word is reduced or checked twice."""
    k: int  # alphabet size
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        check_letters(self.letters)
        reduced = reduce_letters(self.letters)
        if reduced != tuple(self.letters):
            object.__setattr__(self, "letters", reduced)
        if any(abs(x) > self.k for x in self.letters):
            raise IndexOutOfRange(f"letter outside alphabet of size {self.k}")

    @classmethod
    def _of(cls, k: int, letters: tuple) -> "FreeWord":
        """Word from a reduced letter tuple inside the alphabet (no checks)."""
        w = object.__new__(cls)
        object.__setattr__(w, "k", k)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self):
        return len(self.letters)

    def is_empty(self) -> bool:
        return not self.letters


def fw(k: int, letters) -> FreeWord:
    return FreeWord(k, tuple(letters))


def fw_mul(a: FreeWord, b: FreeWord) -> FreeWord:
    if a.k != b.k:
        raise AlphabetMismatch(f"alphabet sizes {a.k} vs {b.k}")
    return FreeWord._of(a.k, tuple(push_reduced(list(a.letters), b.letters)))


def _inv_letters(letters: tuple) -> tuple:
    """The letters of the inverse word: negated, in reverse order."""
    return tuple(-x for x in reversed(letters))


def fw_inv(a: FreeWord) -> FreeWord:
    return FreeWord._of(a.k, _inv_letters(a.letters))


def fw_pow(a: FreeWord, e: int) -> FreeWord:
    """a = u c u^-1 with c cyclically reduced, so a^e = u c^e u^-1."""
    if e < 0:
        return fw_pow(fw_inv(a), -e)
    x = a.letters
    if e == 0 or not x:
        return FreeWord._of(a.k, ())
    t = 0
    while 2 * t + 1 < len(x) and x[t] == -x[-1 - t]:
        t += 1
    return FreeWord._of(a.k, x[:t] + x[t:len(x) - t] * e + x[len(x) - t:])


def fw_commutator(a: FreeWord, b: FreeWord) -> FreeWord:
    """[a, b] = a^-1 b^-1 a b."""
    return fw_mul(fw_mul(fw_inv(a), fw_inv(b)), fw_mul(a, b))


def fw_substitute(w: FreeWord, images: list[FreeWord]) -> FreeWord:
    """Replace generator i by images[i-1] (inverses map to inverse images).

    The images share one alphabet, which may differ from w's; there is one
    image per generator of w."""
    k = images[0].k
    if len(images) != w.k or any(img.k != k for img in images):
        raise AlphabetMismatch(
            f"{len(images)} images over alphabets "
            f"{sorted({img.k for img in images})} for a word over {w.k}")
    table = {}
    for i, img in enumerate(images, 1):
        table[i] = img.letters
        table[-i] = fw_inv(img).letters
    out: list[int] = []
    for x in w.letters:
        push_reduced(out, table[x])
    return FreeWord._of(k, tuple(out))


# ---------------------------------------------------------------------------
# breadth-first closure
# ---------------------------------------------------------------------------

def _closure(start, steps, mul, key, cap=None) -> tuple[dict, dict]:
    """Breadth-first closure of start under right multiplication by the
    elements of steps, (letter, element) pairs taken in order at each
    element reached.

    Returns (elements, words), both keyed by key(element) in discovery
    order; an element's word is the letters of the first product that
    reached it, a shortest one.
    CapExceeded when the closure passes cap elements (None: no cap).
    """
    k0 = key(start)
    elements, words = {k0: start}, {k0: ()}
    frontier = [(start, ())]
    while frontier:
        nxt = []
        for a, aw in frontier:
            for letter, g in steps:
                b = mul(a, g)
                k = key(b)
                if k not in elements:
                    if cap is not None and len(elements) >= cap:
                        raise CapExceeded(f"group closure exceeds cap {cap}")
                    elements[k] = b
                    w = words[k] = aw + (letter,)
                    nxt.append((b, w))
        frontier = nxt
    return elements, words


# ---------------------------------------------------------------------------
# identity word pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityWordPair:
    """Words W_A, W_B over {u_A, u_B} with the structural condition (W1).

    ``schedule_a`` lists the alternating exponents a_1, b_1, a_2, ..., a_m of
    W_A = u_A^{a_1} u_B^{b_1} ... u_A^{a_m} (a leading zero exponent is kept
    explicit); ``schedule_b`` likewise for W_B starting from u_B.
    """
    wa: FreeWord
    wb: FreeWord
    schedule_a: tuple[int, ...] = dc_field(default=())
    schedule_b: tuple[int, ...] = dc_field(default=())

    def __post_init__(self):
        if not self.schedule_a:
            object.__setattr__(self, "schedule_a",
                               extract_schedule(self.wa, U_A))
        if not self.schedule_b:
            object.__setattr__(self, "schedule_b",
                               extract_schedule(self.wb, U_B))


def extract_schedule(w: FreeWord, first_gen: int) -> tuple[int, ...]:
    """Run-length exponents alternating from first_gen.

    Runs of a reduced two-letter word alternate strictly between the
    generators, so the schedule is the run exponents with a leading zero when
    the word starts on the other generator, and a trailing zero when it ends
    on the other generator (the word then violates the terminal-letter
    condition (W1); ``satisfies_w1`` tells).
    """
    if w.is_empty():
        raise TerminalLetterViolation("empty word has no terminal letter")
    runs: list[tuple[int, int]] = []
    for x in w.letters:
        g = abs(x)
        s = 1 if x > 0 else -1
        if runs and runs[-1][0] == g:
            runs[-1] = (g, runs[-1][1] + s)
        else:
            runs.append((g, s))
    sched: list[int] = [] if runs[0][0] == first_gen else [0]
    sched.extend(e for _, e in runs)
    if runs[-1][0] != first_gen:
        sched.append(0)
    return tuple(sched)


def satisfies_w1(pair: IdentityWordPair) -> bool:
    """Strict terminal-letter condition: wa ends on u_A, wb ends on u_B."""
    return (not pair.wa.is_empty() and not pair.wb.is_empty()
            and abs(pair.wa.letters[-1]) == U_A
            and abs(pair.wb.letters[-1]) == U_B)


def schedule_words(schedule: tuple[int, ...], first_gen: int) -> FreeWord:
    """Regenerate the word from its exponent schedule."""
    other = {U_A: U_B, U_B: U_A}[first_gen]
    out = FreeWord(2, ())
    gen = first_gen
    for e in schedule:
        out = fw_mul(out, fw_pow(FreeWord(2, (gen,)), e))
        gen = other if gen == first_gen else first_gen
    return out


_DEFAULT_INNER = (
    FreeWord(2, (U_B,)),        # W_1
    FreeWord(2, (U_A,)),        # W_2
    FreeWord(2, (-U_A,)),       # W_3
    FreeWord(2, (-U_B,)),       # W_4
)

# Alternative inner words whose substitution blocks [W_1,W_2] = u_B u_A^-1 u_B^-1 u_A
# and [W_3,W_4] = u_A u_B^-1 u_A^-1 u_B keep both terminal letters stable at
# every level, so the strict (W1) condition holds for all n (the default inner
# words lose the u_B terminal of W_B whenever n = 0 mod 3).
W1_STABLE_INNER = (
    FreeWord(2, (-U_B,)),
    FreeWord(2, (U_A,)),
    FreeWord(2, (-U_A,)),
    FreeWord(2, (U_B,)),
)


def build_solvable_pair(n: int, inner=None) -> IdentityWordPair:
    """The commutator identity pair for solvable groups of derived length <= n.

    Level 1 is (u_B u_A, u_A u_B); each further level substitutes
    u_A -> [W_1, W_2] and u_B -> [W_3, W_4] (defaults [u_B,u_A], [u_A^-1,u_B^-1])
    into the previous pair.  The default pair has exactly 2*4^(n-1) letters.

    With the default inner words the W_B terminal letter drifts to u_A^-1 at
    n = 3, 6, ...; the pair is still a valid identity pair, but the strict
    schedule form breaks, so those levels warn instead of raising.  Pass
    ``inner=W1_STABLE_INNER`` for a default-length pair satisfying (W1) at
    every level.
    """
    if n < 1:
        raise DegeneratePair("derived length must be >= 1")
    custom = inner is not None
    w1, w2, w3, w4 = inner if custom else _DEFAULT_INNER
    sub_a = fw_commutator(w1, w2)
    sub_b = fw_commutator(w3, w4)
    wa = FreeWord(2, (U_B, U_A))
    wb = FreeWord(2, (U_A, U_B))
    for _ in range(n - 1):
        wa = fw_substitute(wa, [sub_a, sub_b])
        wb = fw_substitute(wb, [sub_a, sub_b])
    if wa.is_empty() or wb.is_empty():
        raise DegeneratePair("a pair word reduced to the empty word")
    terminal_ok = (abs(wa.letters[-1]) == U_A and abs(wb.letters[-1]) == U_B)
    if not terminal_ok:
        if custom:
            raise TerminalLetterViolation(
                "W_A must end in a power of u_A and W_B in a power of u_B")
        warnings.warn(InsecurityWarning(
            f"default pair at n={n} violates the terminal-letter condition; "
            "the protocol schedule needs a strict (W1) pair"))
    return IdentityWordPair(wa, wb)


def build_exponent_pair(m: int) -> IdentityWordPair:
    """Pair from the identity x^m = 1: the prefix of (u_A u_B)^m ending in u_A
    and the inverse of the remaining suffix."""
    if m < 1:
        raise DegeneratePair("exponent must be >= 1")
    full = ((U_A, U_B) * m)
    wa = FreeWord(2, full[:2 * m - 1])
    wb = fw_inv(FreeWord(2, full[2 * m - 1:]))
    return IdentityWordPair(wa, wb)


@dataclass
class PairReport:
    w1_ok: bool
    w2_ok: bool
    counterexample: tuple | None
    distinct_keys: int
    trials: int


def validate_pair(pair: IdentityWordPair, gens_a: list[Matrix],
                  gens_b: list[Matrix], trials: int, seed: int) -> PairReport:
    """Check (W1) structurally and (W2) by sampling substitutions."""
    w1_ok = satisfies_w1(pair)
    rng = Rng(seed)
    counterexample = None
    keys = set()
    for _ in range(trials):
        ga = word_eval(gens_a, _random_word(rng, len(gens_a)))
        gb = word_eval(gens_b, _random_word(rng, len(gens_b)))
        va = _eval_pair_word(pair.wa, ga, gb)
        vb = _eval_pair_word(pair.wb, ga, gb)
        if va != vb and counterexample is None:
            counterexample = (ga, gb, va, vb)
        keys.add(va.key())
    if len(keys) < 2:
        warnings.warn(InsecurityWarning(
            "fewer than two key values reachable from the sampled subgroups"))
    return PairReport(w1_ok, counterexample is None, counterexample,
                      len(keys), trials)


def _eval_pair_word(w: FreeWord, ga: Matrix, gb: Matrix) -> Matrix:
    return word_eval([ga, gb], w.letters)


def _random_word(rng: Rng, n_gens: int, max_len: int = 6) -> list[int]:
    length = rng.randint(1, max_len)
    out = []
    for _ in range(length):
        g = rng.randint(1, n_gens)
        out.append(g if rng.chance(0.5) else -g)
    return out
