"""Reference multi-party key schedule for the differential tests.

This is the schedule that the incremental one of ``matcrypt.protocol``
replaced: after every merge each party re-evaluates all of its accumulated
conjugation tables, and the answerer conjugates every queried table, shared
or not.  It is kept unchanged apart from ``identity_like`` importing
``identity`` at module level, and shares only ``Transcript``, the matrix
kernels and ``matrix_to_obj`` with the code under test.
"""

import warnings

from matcrypt.errors import BadPartyCount, IndexOutOfRange, InsecurityWarning
from matcrypt.matrix import Matrix, identity, mat_inv, mat_mul
from matcrypt.protocol import Transcript
from matcrypt.serialize import matrix_to_obj


def _matrix_list_obj(ms) -> list:
    return [matrix_to_obj(m) for m in ms]


class _Party:
    """One participant: its generators, secret word, and conjugate tables.

    ``tables`` holds, per accumulated conjugator B_j, the list
    [B_j^-1 g B_j for g in gens] together with the sign the secret carries at
    that slot; the party's current subgroup key is the ordered product of
    B_j^-1 a^(eps_j) B_j, each evaluated from its table.
    """

    def __init__(self, index: int, gens, secret_word):
        self.index = index
        self.gens = list(gens)
        self.secret_word = list(secret_word)
        for x in secret_word:
            if x == 0 or abs(x) > len(gens):
                raise IndexOutOfRange("secret word letter out of range")
        # ops counter: group multiplications/inversions while computing keys
        self.compute_ops = 0
        self.answer_ops = 0
        self.tables: list[tuple[int, list]] = [(1, list(gens))]
        self.key: Matrix | None = None

    def eval_table(self, table, sign: int) -> Matrix:
        """B^-1 a^sign B from the conjugated-generator table."""
        word = self.secret_word if sign > 0 else \
            [-x for x in reversed(self.secret_word)]
        out = None
        inv_cache: dict[int, Matrix] = {}
        for x in word:
            i = abs(x) - 1
            if x > 0:
                m = table[i]
            else:
                if i not in inv_cache:
                    inv_cache[i] = mat_inv(table[i])
                    self.compute_ops += 1
                m = inv_cache[i]
            if out is None:
                out = m
            else:
                out = mat_mul(out, m)
                self.compute_ops += 1
        return out if out is not None else identity_like(table[0])

    def recompute_key(self) -> Matrix:
        key = None
        for sign, table in self.tables:
            factor = self.eval_table(table, sign)
            if key is None:
                key = factor
            else:
                key = mat_mul(key, factor)
                self.compute_ops += 1
        self.key = key
        return key

    def answer_conjugation(self, elems: list) -> list:
        """Service a cross-half query: conjugate each element by this key."""
        kinv = mat_inv(self.key)
        self.answer_ops += 1
        out = []
        for e in elems:
            out.append(mat_mul(mat_mul(kinv, e), self.key))
            self.answer_ops += 2
        return out


def identity_like(m: Matrix) -> Matrix:
    return identity(m.n, m.ring)


def ref_multiparty_run(s: int, configs, seed: int = 0):
    if s < 2:
        raise BadPartyCount(f"need at least two parties, got {s}")
    if len(configs) != s:
        raise BadPartyCount(f"{s} parties but {len(configs)} configs")
    parties = [_Party(i, gens, word) for i, (gens, word) in enumerate(configs)]
    transcript = Transcript()
    rnd = [0]
    _agree(parties, list(range(s)), transcript, rnd)
    keys = [p.key for p in parties]
    if keys[0].is_identity():
        warnings.warn(InsecurityWarning("multi-party key is the identity"))
    op_counts = [{"compute": p.compute_ops, "answer": p.answer_ops}
                 for p in parties]
    return keys, transcript, op_counts


def _agree(parties, members: list[int], transcript: Transcript, rnd) -> None:
    """Recursively establish the common key of the member set."""
    if len(members) == 1:
        parties[members[0]].recompute_key()
        return
    half = (len(members) + 1) // 2
    s1, s2 = members[:half], members[half:]
    _agree(parties, s1, transcript, rnd)
    _agree(parties, s2, transcript, rnd)
    # each party sends its tables; the other half's lowest-index party answers
    for mine, theirs, first_half in ((s1, s2, True), (s2, s1, False)):
        answerer = parties[theirs[0]]
        for i in mine:
            p = parties[i]
            rnd[0] += 1
            conjugated = []
            for sign, table in p.tables:
                transcript.send(rnd[0], i, answerer.index,
                                "conjugation-query", _matrix_list_obj(table))
                answered = answerer.answer_conjugation(table)
                transcript.send(rnd[0], answerer.index, i,
                                "conjugation-answer", _matrix_list_obj(answered))
                conjugated.append((sign, answered))
            flipped_old = [(-sign, tb) for sign, tb in reversed(p.tables)]
            flipped_conj = [(-sign, tb) for sign, tb in reversed(conjugated)]
            if first_half:
                # [K1, K2] = K1^-1 (K2^-1 K1 K2)
                p.tables = flipped_old + conjugated
            else:
                # [K1, K2] = (K1^-1 K2 K1)^-1 K2
                p.tables = flipped_conj + p.tables
    for i in members:
        parties[i].recompute_key()
