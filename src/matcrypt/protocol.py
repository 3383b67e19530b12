"""Deterministic message-passing simulations of the key-agreement protocols.

Parties are single-threaded state machines exchanging values over an
in-process ordered channel; the transcript records exactly what crosses the
public channel (conjugated generator lists and evolving action points),
never a party's secret word.  The simulations draw nothing at random, so
identical configs yield identical transcripts; ``multiparty_run`` accepts a
``seed`` and never reads it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (
    BadPartyCount,
    IndexOutOfRange,
    InsecurityWarning,
    ScheduleMismatch,
)
from .matrix import Matrix, mat_inv, mat_mul, vector_act, word_eval
from .serialize import matrix_to_obj, vector_to_obj
from .words import IdentityWordPair, satisfies_w1


@dataclass
class Transcript:
    records: list = dc_field(default_factory=list)

    def send(self, rnd: int, sender, receiver, kind: str, payload) -> None:
        self.records.append(
            {"round": rnd, "sender": sender, "receiver": receiver,
             "type": kind, "payload": payload})

    def to_obj(self) -> list:
        return list(self.records)


def _matrix_list_obj(ms) -> list:
    return [matrix_to_obj(m) for m in ms]


# ---------------------------------------------------------------------------
# two-party commutator protocol
# ---------------------------------------------------------------------------

@dataclass
class AagConfig:
    gens_a: list          # public generators of A's subgroup
    gens_b: list          # public generators of B's subgroup
    secret_word_a: list   # A's secret as a word in gens_a
    secret_word_b: list   # B's secret as a word in gens_b


def aag_run(cfg: AagConfig):
    """Both parties derive the commutator key from conjugated generator lists.

    Returns (key_a, key_b, transcript); emits an insecurity warning when the
    shared key is the identity.
    """
    a = word_eval(cfg.gens_a, cfg.secret_word_a)
    b = word_eval(cfg.gens_b, cfg.secret_word_b)
    a_inv, b_inv = mat_inv(a), mat_inv(b)
    # A transmits X_B = {a^-1 b_j a}; B transmits X_A = {b^-1 a_i b}
    x_b = [mat_mul(mat_mul(a_inv, bj), a) for bj in cfg.gens_b]
    x_a = [mat_mul(mat_mul(b_inv, ai), b) for ai in cfg.gens_a]
    transcript = Transcript()
    transcript.send(1, "A", "B", "conjugated-generators", _matrix_list_obj(x_b))
    transcript.send(1, "B", "A", "conjugated-generators", _matrix_list_obj(x_a))
    # A evaluates its secret word over X_A to get b^-1 a b
    key_a = mat_mul(a_inv, word_eval(x_a, cfg.secret_word_a))
    # B evaluates its secret word over X_B to get a^-1 b a
    key_b = mat_mul(mat_inv(word_eval(x_b, cfg.secret_word_b)), b)
    if key_a.is_identity():
        warnings.warn(InsecurityWarning(
            "commutator key is the identity; the subgroups centralize"))
    return key_a, key_b, transcript


# ---------------------------------------------------------------------------
# multi-party extension
# ---------------------------------------------------------------------------

class _Table:
    """A generator list as it crosses the channel, serialized at most once.

    Parties holding the same table and every record that sends it share this
    object and its ``payload``; all of them only read it.
    """

    def __init__(self, mats: list):
        self.mats = mats

    @cached_property
    def payload(self) -> list:
        return _matrix_list_obj(self.mats)


def _ids(mats) -> tuple:
    """A table's matrices told apart by object, never by value."""
    return tuple(map(id, mats))


def _flipped(tables: list) -> list:
    return [(-sign, table) for sign, table in reversed(tables)]


class _Party:
    """One participant: its secret word, its conjugate tables and its key.

    ``tables`` holds, per accumulated conjugator B_j, the table
    [B_j^-1 g B_j for g in gens] together with the sign the secret carries at
    that slot; the party's subgroup key is the ordered product of
    B_j^-1 a^(eps_j) B_j.  The key is merged incrementally: a merge places
    the old tables, reversed and with their signs flipped, on one side of the
    newly answered tables, so the old tables multiply to the old key or its
    inverse and only the new tables are evaluated (``merge_key``).  Tables are
    shared with other parties and with the transcript, read-only.
    """

    def __init__(self, index: int, table: _Table, secret_word):
        self.index = index
        self.secret_word = list(secret_word)
        for x in secret_word:
            if x == 0 or abs(x) > len(table.mats):
                raise IndexOutOfRange("secret word letter out of range")
        # ops counter: group multiplications/inversions while computing keys
        self.compute_ops = 0
        self.answer_ops = 0
        self.tables: list[tuple[int, _Table]] = [(1, table)]
        self.key = self.eval_tables(self.tables)

    def _mul(self, a: Matrix, b: Matrix) -> Matrix:
        self.compute_ops += 1
        return mat_mul(a, b)

    def eval_table(self, table: _Table, sign: int) -> Matrix:
        """B^-1 a^sign B from the conjugated-generator table.  It costs one
        product per letter after the first and one inversion per distinct
        inverted generator."""
        word = self.secret_word if sign > 0 else \
            [-x for x in reversed(self.secret_word)]
        self.compute_ops += max(len(word) - 1, 0) + len({x for x in word if x < 0})
        return word_eval(table.mats, word)

    def eval_tables(self, tables: list) -> Matrix:
        """The ordered product of the (sign, table) factors."""
        out = None
        for sign, table in tables:
            factor = self.eval_table(table, sign)
            out = factor if out is None else self._mul(out, factor)
        return out

    def merge_key(self, conjugated: list, first_half: bool) -> None:
        """Take the tables answered in one merge into the tables and the key."""
        if first_half:
            # [K1, K2] = K1^-1 (K2^-1 K1 K2): the old tables, flipped, multiply
            # to K1^-1.  That is one inversion, or none while only the initial
            # table is held and the secret is empty or one inverted generator.
            old = _flipped(self.tables)
            w = self.secret_word
            if len(old) == 1 and len(w) <= 1 and all(x < 0 for x in w):
                old_inv = self.eval_tables(old)
            else:
                old_inv = mat_inv(self.key)
                self.compute_ops += 1
            self.tables = old + conjugated
            self.key = self._mul(old_inv, self.eval_tables(conjugated))
        else:
            # [K1, K2] = (K1^-1 K2 K1)^-1 K2: the answers, flipped, multiply
            # to (K1^-1 K2 K1)^-1, and the old tables to K2
            new = _flipped(conjugated)
            self.tables = new + self.tables
            self.key = self._mul(self.eval_tables(new), self.key)

    def answer_conjugation(self, tables) -> dict:
        """Service a cross-half query: conjugate each distinct table by this key.

        Returns the answers keyed by ``_ids``; the map lives for one merge,
        while the queried tables keep their matrices alive.
        """
        kinv = mat_inv(self.key)
        self.answer_ops += 1
        answers = {}
        for table in tables:
            ids = _ids(table.mats)
            if ids not in answers:
                answers[ids] = _Table([mat_mul(mat_mul(kinv, e), self.key)
                                       for e in table.mats])
                self.answer_ops += 2 * len(table.mats)
        return answers


def multiparty_run(s: int, configs, seed: int = 0):
    """Key agreement for s parties over a single public channel.

    configs: per party, (generators, secret word).  Returns (keys, transcript,
    op_counts) where op_counts[i] = {"compute": ..., "answer": ...} counts
    group operations.  All keys are bit-identical; a warning fires when the
    common key is the identity.  Records share their payloads read-only.
    ``seed`` is not read (the run draws nothing at random); callers pass it
    positionally, so it stays.
    """
    if s < 2:
        raise BadPartyCount(f"need at least two parties, got {s}")
    if len(configs) != s:
        raise BadPartyCount(f"{s} parties but {len(configs)} configs")
    initial: dict[tuple, _Table] = {}
    parties = []
    for i, (gens, word) in enumerate(configs):
        gens = list(gens)
        table = initial.setdefault(_ids(gens), _Table(gens))
        parties.append(_Party(i, table, word))
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
    """Recursively establish the common key of the member set.

    A leaf's key is its initial table, evaluated when the party was made.
    """
    if len(members) == 1:
        return
    half = (len(members) + 1) // 2
    s1, s2 = members[:half], members[half:]
    _agree(parties, s1, transcript, rnd)
    _agree(parties, s2, transcript, rnd)
    # each party sends its tables; the other half's lowest-index party answers
    # each distinct table once, and the records share the tables' payloads
    merges = []
    for mine, theirs, first_half in ((s1, s2, True), (s2, s1, False)):
        answerer = parties[theirs[0]]
        answers = answerer.answer_conjugation(
            [table for i in mine for _, table in parties[i].tables])
        for i in mine:
            p = parties[i]
            rnd[0] += 1
            conjugated = []
            for sign, table in p.tables:
                answered = answers[_ids(table.mats)]
                transcript.send(rnd[0], i, answerer.index,
                                "conjugation-query", table.payload)
                transcript.send(rnd[0], answerer.index, i,
                                "conjugation-answer", answered.payload)
                conjugated.append((sign, answered))
            merges.append((p, conjugated, first_half))
    # the answerers conjugate with their pre-merge keys, so the keys merge
    # only once both halves have been answered
    for p, conjugated, first_half in merges:
        p.merge_key(conjugated, first_half)


# ---------------------------------------------------------------------------
# identity-word protocol (generalized Diffie-Hellman)
# ---------------------------------------------------------------------------

class MatrixAction:
    """A matrix group acting on the standard free module (row vectors)."""

    def __init__(self, gens_a, gens_b, x0):
        self.gens_a = list(gens_a)
        self.gens_b = list(gens_b)
        self.x0 = tuple(x0)

    def secret(self, side: str, word) -> Matrix:
        gens = self.gens_a if side == "A" else self.gens_b
        return word_eval(gens, word)

    def power(self, g: Matrix, e: int) -> Matrix:
        return g.pow(e)

    def act(self, x, g: Matrix):
        return vector_act(x, g)

    def point_obj(self, x):
        return vector_to_obj(x[0].ring, x)

    def key_of(self, x):
        return tuple(e.coeffs for e in x)


class PowerAction:
    """X = Z_p^* acted on by Z_{p-1}^* through powering (classical DH)."""

    def __init__(self, p: int, x0: int):
        self.p = p
        self.x0 = x0 % p

    def secret(self, side: str, value: int) -> int:
        from math import gcd
        if gcd(value, self.p - 1) != 1:
            raise IndexOutOfRange(f"{value} is not a unit mod {self.p - 1}")
        return value % (self.p - 1)

    def power(self, g: int, e: int) -> int:
        if e >= 0:
            return pow(g, e, self.p - 1)
        return pow(pow(g, -1, self.p - 1), -e, self.p - 1)

    def act(self, x: int, g: int) -> int:
        return pow(x, g, self.p)

    def point_obj(self, x: int) -> int:
        return x

    def key_of(self, x: int) -> int:
        return x


@dataclass
class GdhConfig:
    action: object             # MatrixAction or PowerAction
    pair: IdentityWordPair
    secret_a: object           # word (matrix action) or unit (power action)
    secret_b: object


def gdh_run(cfg: GdhConfig):
    """Alternating-round simulation scripted by the pair's exponent schedules.

    A's key is x0 acted by W_A(g_A, g_B), B's by W_B(g_A, g_B); under the
    substitution identity (W2) for the chosen groups the two agree.
    """
    pair = cfg.pair
    if not satisfies_w1(pair):
        raise ScheduleMismatch(
            "the identity pair violates the terminal-letter condition (W1)")
    act = cfg.action
    g_a = act.secret("A", cfg.secret_a)
    g_b = act.secret("B", cfg.secret_b)
    transcript = Transcript()

    def run_side(schedule, own, other, own_name, other_name, rnd_base):
        # schedule alternates own/other exponents and ends on an own exponent
        if len(schedule) % 2 == 0:
            raise ScheduleMismatch("schedule must end on the word's own letter")
        k = act.x0
        rounds = (len(schedule) - 1) // 2
        for i in range(rounds):
            k = act.act(k, act.power(own, schedule[2 * i]))
            transcript.send(rnd_base + i, own_name, other_name,
                            "action-point", act.point_obj(k))
            k = act.act(k, act.power(other, schedule[2 * i + 1]))
            transcript.send(rnd_base + i, other_name, own_name,
                            "action-point", act.point_obj(k))
        return act.act(k, act.power(own, schedule[-1]))

    key_a = run_side(pair.schedule_a, g_a, g_b, "A", "B", 1)
    key_b = run_side(pair.schedule_b, g_b, g_a, "B", "A",
                     1 + (len(pair.schedule_a) - 1) // 2)
    if act.key_of(key_a) != act.key_of(key_b):
        warnings.warn(InsecurityWarning(
            "the parties derived different keys; the pair is not an identity "
            "for these groups"))
    return key_a, key_b, transcript
