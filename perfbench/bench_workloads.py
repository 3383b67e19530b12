"""The benchmark's four workloads and the closed loop that measures them.

One caller runs one operation at a time and issues the next only when the
previous one has returned (a closed loop, one process, one thread).  The
corpora (trees, protocol instances, key pairs) are the same for every seed,
so set-up is too; the workload seed draws the timed stream: every query,
secret word, message and CLI pipeline seed.  The program sees only the
generated inputs.  Each operation's answer is checked by the benchmark itself, never by
the program's ``assert`` statements, which ``python -O`` strips.

A check returns one of three verdicts:

* ``OK``: the answer was verified, or is a refusal the question allows
  (a random matrix rejected, a sampled vector with no transporter found, a
  bounded attack that is inconclusive, the documented ``oracle enum`` cap);
* ``MISSED``: the program declined to answer where an answer is known to
  exist (it rejected a member by construction, found no transporter for a
  constructed pair, its own internal check raised ``AssertionError``, or a
  command exited with the CLI's error code);
* ``WRONG``: the program gave an answer the check disproves.

An operation *fails* when its answer is ``WRONG`` or when it raises anything
other than the ``AssertionError`` of the program's own checks; a ``WRONG``
answer also makes the run incorrect.  Misses are the program's known
completeness defects (membership on some ``gen`` trees): they are counted
apart, by kind, and reported next to the failures, never dropped.

Program functions are always looked up on their module at call time
(``trapdoor.membership``, never a name imported from it), so the traced run's
wrappers and a test's planted faults reach every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import shutil
import signal
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from matcrypt import (cli, homcrypt, instance, matrix, protocol, serialize,
                      trapdoor, words)
from matcrypt.errors import CapExceeded, MatcryptError
from matcrypt.ring import RingElement
from matcrypt.rng import Rng
from matcrypt.words import FreeWord

OK, MISSED, WRONG = "ok", "missed", "wrong"
MULTIPARTY_COST_CONSTANT = 8   # compute-side group operations per party and letter
PARTY_CYCLE = (2, 4, 8)
# Protocol secrets have one length: with lengths drawn from 1-6, the cost of
# an operation moves sixfold with the draw, and the median of a window's few
# hundred operations moved by a sixth from seed to seed.
SECRET_LENGTH = 4
CLI_ENUM_CAP = 2500
CLI_COSET_BOUND = 7
# Under the CLI's default caps 0.6% of protocol instances have degree 32-64,
# where one 8-party run takes from 7 s to minutes, and 2% have degree 12-16,
# where it takes 0.6-3.5 s: those few instances would take half of a run's
# window, which would then hold about 300 operations, and its median latency
# moved by an eighth from seed to seed.  Up to degree 8 a window holds about
# 550, and one operation takes at most about 0.7 s.
PROTOCOL_MAX_DEGREE = 8

# corpus sizes; "tiny" is the self-test size
SIZES = {
    "full": {"desk": 500, "gen": 500, "instances": 300, "keys": 250,
             "secrets": 500},
    "tiny": {"desk": 3, "gen": 3, "instances": 3, "keys": 1, "secrets": 3},
}


def item_seed(seed: int, i: int) -> int:
    """Seed of the i-th CLI pipeline of a workload seed; seed 0 gives the
    seeds 0, 1, 2, ..."""
    return seed * 1_000_003 + i


def stream(seed: int) -> Rng:
    """The timed stream's inputs for a workload seed."""
    return Rng((seed << 8) | 2)


def setup_stream() -> Rng:
    """Inputs of the set-up queries, the same for every workload seed and
    apart from every timed stream."""
    return Rng(1)


def random_word(rng: Rng, n_gens: int, lo: int, hi: int) -> list:
    return [g if rng.chance(0.5) else -g
            for g in (rng.randint(1, n_gens) for _ in range(rng.randint(lo, hi)))]


def random_matrix(ring, n: int, rng: Rng):
    return matrix.matrix(ring, [[
        RingElement(ring, tuple(tuple(rng.below(g.q) for _ in range(g.r))
                                for g in ring.summands))
        for _ in range(n)] for _ in range(n)])


def random_message(rng: Rng, k: int, lo: int, hi: int) -> FreeWord:
    return FreeWord(k, tuple(random_word(rng, k, lo, hi)))


def desk_tree(i: int):
    """Tree i of the acceptance-06 distribution."""
    return instance.tree_random(45, i, max_degree=9, max_ring=4000)


def gen_tree(i: int):
    """Tree i of what ``matcrypt gen --size 60`` makes."""
    return instance.tree_random(60, i)


class Workload:
    """Set-up bookkeeping shared by the workloads."""

    op_limit_s: float          # latency limit of one operation (wall time)

    def __init__(self):
        self.setup_failures = 0    # corpus items the program failed to make
        self.quiet = contextlib.nullcontext   # pauses tracing, when traced

    def close(self) -> None:
        """Remove what set-up left on disk."""

    def part_latencies(self) -> dict:
        """CPU seconds of steps inside the timed operations, by step name."""
        return {}

    def detail(self) -> dict:
        """Set-up facts for the detail line."""
        return {"setup_failures": self.setup_failures}

    def made(self, make):
        """``make()``, or None counted as a set-up failure when the program
        raises (``tree_random`` can return an ill-typed tree)."""
        try:
            return make()
        except MatcryptError:
            self.setup_failures += 1
            return None


# ---------------------------------------------------------------------------
# trapdoor: a secret-key holder answering membership and transporter queries
# ---------------------------------------------------------------------------

class Trapdoor(Workload):
    """Queries over the ``desk`` corpus (acceptance-06 trees) and the ``gen``
    corpus (what ``matcrypt gen`` produces).

    ``ltp_solve`` runs on ``desk`` only: on ``gen`` trees where the wreath
    transporter gives up, the brute fallback rebuilds a closure of up to
    2^15 degree-16 matrices per query, which takes minutes.  Under the
    ``desk`` distribution the same fallback takes about 12 s on about 1% of
    trees, and on a few more a leaf group is above the program's
    enumeration cap, which the transporter refuses with ``CapExceeded``
    (none of ``desk`` trees 0-499 has either at present).  Set-up finds both
    kinds (a transporter query that reaches the latency limit, a leaf
    enumeration that is refused), and the timed stream asks those trees
    membership queries only.
    """

    name = "trapdoor"
    op_limit_s = 0.5

    def __init__(self, seed: int, size: dict):
        super().__init__()
        self.seed = seed
        self.n_desk, self.n_gen = size["desk"], size["gen"]
        self.desk: list = []      # (tree, instance, generators, ltp?)
        self.gen: list = []

    def setup(self) -> None:
        warm = setup_stream()
        for i in range(self.n_desk):
            t = self.made(lambda: desk_tree(i))
            if t is not None:
                self.desk.append(self._prepare(t, warm, ltp=True))
        for i in range(self.n_gen):
            t = self.made(lambda: gen_tree(i))
            if t is not None:
                self.gen.append(self._prepare(t, warm, ltp=False))

    def detail(self) -> dict:
        return {**super().detail(),
                "ltp_skipped_trees": sum(not e[3] for e in self.desk)}

    def _prepare(self, t, warm, ltp: bool):
        inst = instance.tree_eval(t)
        if ltp:
            # The transporter enumerates leaf groups once and caches them;
            # a first query that ran into the latency limit mid-enumeration
            # (GL(3,3) takes 2.5 s) would never finish it.
            for spec in instance.tree_leaves(t):
                try:
                    instance.leaf_enumerate(spec)
                except CapExceeded:
                    ltp = False
        entry = (t, inst, list(inst.gens), ltp)
        # queries whose answers are not checked, so the rest of the lazy
        # per-tree work lands in set-up: one membership query of each kind,
        # one transporter query
        for _kind, call, _check in (self._member_query(entry, warm),
                                    self._random_query(entry, warm)):
            self.probe(call)
        if ltp and not self.probe(self._ltp_query(entry, warm, True)[1]):
            entry = entry[:3] + (False,)
        return entry

    def probe(self, call) -> bool:
        """Run a set-up query, untraced; False when it reached the latency
        limit."""
        with self.quiet():
            try:
                with time_limit(self.op_limit_s):
                    call()
            except OverLimit:
                return False
            except Exception:   # the timed stream meets, counts and reports it
                pass
        return True

    def operations(self):
        rng = stream(self.seed)
        desk, gen = self.desk, self.gen
        while desk or gen:
            for i in range(max(len(desk), len(gen))):
                if i < len(desk):
                    d = desk[i]
                    yield self._member_query(d, rng)
                    yield self._random_query(d, rng)
                    if d[3]:
                        yield self._ltp_query(d, rng, True)
                        yield self._ltp_query(d, rng, False)
                if i < len(gen):
                    g = gen[i]
                    yield self._member_query(g, rng)
                    yield self._random_query(g, rng)

    @staticmethod
    def _member_query(entry, rng):
        t, _inst, gens, _ltp = entry
        g = matrix.word_eval(gens, random_word(rng, len(gens), 1, 12))

        def check(verdict):
            if not verdict.accepted:
                return MISSED
            return OK if trapdoor.replay_witness(t, verdict.witness) == g else WRONG
        return "membership", lambda: trapdoor.membership(t, g), check

    @staticmethod
    def _random_query(entry, rng):
        t, inst, _gens, _ltp = entry
        g = random_matrix(inst.ring, inst.n, rng)

        def check(verdict):
            if not verdict.accepted:
                return OK
            return OK if trapdoor.replay_witness(t, verdict.witness) == g else WRONG
        return "membership", lambda: trapdoor.membership(t, g), check

    @staticmethod
    def _ltp_query(entry, rng, constructed: bool):
        t, _inst, gens, _ltp = entry
        u = trapdoor.sample_transportable_vector(t, rng)
        if constructed:
            v = matrix.vector_act(u, matrix.word_eval(
                gens, random_word(rng, len(gens), 1, 12)))
        else:
            v = trapdoor.sample_transportable_vector(t, rng)

        def check(g):
            if isinstance(g, trapdoor.NoSolution):
                return MISSED if constructed else OK
            if matrix.vector_act(u, g) != tuple(v):
                return WRONG
            return OK if trapdoor.membership(t, g).accepted else WRONG
        return "ltp", lambda: trapdoor.ltp_solve(t, u, v), check


# ---------------------------------------------------------------------------
# protocol: two-party and multi-party key agreement
# ---------------------------------------------------------------------------

class Protocol(Workload):
    """Key agreement on instances of the CLI distribution,
    ``tree_random(40, i)`` with ``subgroup_sample``, capped at degree
    ``PROTOCOL_MAX_DEGREE``.

    One operation runs ``aag`` and then ``mparty`` (s cycling 2/4/8) on one
    instance and fingerprints both transcripts, as a publishing party would.
    Timed apart, the two would put the median exactly between the
    millisecond ``aag`` runs and the slower ``mparty`` runs, where a few
    samples move it far; each protocol's own time is kept in ``parts``.
    """

    name = "protocol"
    op_limit_s = 5.0

    def __init__(self, seed: int, size: dict):
        super().__init__()
        self.seed = seed
        self.n = size["instances"]
        self.pool: list = []      # (gens_a, gens_b)
        self.parts = {"aag": [], "mparty": []}   # CPU seconds per protocol run

    def setup(self) -> None:
        for i in range(self.n):
            gens = self.made(lambda: instance.subgroup_sample(instance.tree_random(
                40, i, max_degree=PROTOCOL_MAX_DEGREE), i))
            if gens is not None:
                self.pool.append(gens)

    def part_latencies(self) -> dict:
        return self.parts

    def operations(self):
        rng = stream(self.seed)
        rnd = 0
        while self.pool:
            for i, (gens_a, gens_b) in enumerate(self.pool):
                s = PARTY_CYCLE[(i + rnd) % len(PARTY_CYCLE)]
                yield self._agree(gens_a, gens_b, s, rng)
            rnd += 1

    def _agree(self, gens_a, gens_b, s, rng):
        n = SECRET_LENGTH
        cfg = protocol.AagConfig(gens_a, gens_b, random_word(rng, len(gens_a), n, n),
                                 random_word(rng, len(gens_b), n, n))
        gens = gens_a + gens_b
        configs = [(gens, random_word(rng, len(gens), n, n)) for _ in range(s)]
        run_seed = rng.below(1 << 31)
        parts = self.parts

        def call():
            t0 = process_time()
            key_a, key_b, transcript = protocol.aag_run(cfg)
            aag_fp = serialize.fingerprint(transcript.to_obj())
            t1 = process_time()
            keys, transcript, ops = protocol.multiparty_run(s, configs, run_seed)
            mparty_fp = serialize.fingerprint(transcript.to_obj())
            t2 = process_time()
            parts["aag"].append(t1 - t0)
            parts["mparty"].append(t2 - t1)
            return key_a, key_b, aag_fp, keys, ops, mparty_fp

        def check(res):
            key_a, key_b, aag_fp, keys, ops, mparty_fp = res
            if key_a != key_b or any(k != keys[0] for k in keys):
                return WRONG
            if not (_is_fingerprint(aag_fp) and _is_fingerprint(mparty_fp)):
                return WRONG
            within = all(op["compute"] <= MULTIPARTY_COST_CONSTANT * s * len(w)
                         for op, (_g, w) in zip(ops, configs))
            return OK if within else WRONG
        return "agree", call, check


# ---------------------------------------------------------------------------
# homcrypt: the free-group cryptosystem, no matrices and no rings
# ---------------------------------------------------------------------------

PRESETS = (("klein4", homcrypt.klein_four), ("s3", homcrypt.sym3),
           ("d4", homcrypt.dihedral4))


class Homcrypt(Workload):
    """One operation is a round trip under a key pair made in set-up:
    encrypt two random 1-20 letter messages, decrypt both, and decrypt the
    product of the ciphertexts, D(E(M1) E(M2)) = M1 M2.  Timed one by one,
    the millisecond encryptions and the sub-millisecond decryptions would put
    the median in the gap between them; each step's own time is kept in
    ``parts``."""

    name = "homcrypt"
    op_limit_s = 1.0

    def __init__(self, seed: int, size: dict):
        super().__init__()
        self.seed = seed
        self.per_preset = size["keys"]
        self.keys: list = []      # per preset, (presentation, pk, sk)
        self.parts = {"encrypt": [], "decrypt": [], "product": []}

    def setup(self) -> None:
        for p, (_name, make) in enumerate(PRESETS):
            pres = make()
            made = (self.made(lambda: homcrypt.hc_keygen(
                pres, p * self.per_preset + j)) for j in range(self.per_preset))
            self.keys.append([(pres, *keys) for keys in made if keys is not None])

    def part_latencies(self) -> dict:
        return self.parts

    def operations(self):
        rng = stream(self.seed)
        for j in itertools.count():
            # the key pairs of the three presets in turn
            keys = self.keys[j % len(self.keys)]
            pres, pk, sk = keys[j // len(self.keys) % len(keys)]
            msgs = [random_message(rng, pres.k, 1, 20) for _ in range(2)]
            seeds = [rng.below(1 << 31) for _ in range(2)]
            yield "roundtrip", self._round_trip(pk, sk, msgs, seeds), \
                _round_trip_ok(pres, msgs)

    def _round_trip(self, pk, sk, msgs, seeds):
        enc, dec, prod = (self.parts[k] for k in ("encrypt", "decrypt", "product"))

        def call():
            ciphers, plains = [], []
            for msg, s in zip(msgs, seeds):
                t0 = process_time()
                ciphers.append(homcrypt.hc_encrypt(pk, msg, s))
                enc.append(process_time() - t0)
            for c in ciphers:
                t0 = process_time()
                plains.append(homcrypt.hc_decrypt(sk, c))
                dec.append(process_time() - t0)
            t0 = process_time()
            plains.append(homcrypt.hc_decrypt(sk, words.fw_mul(*ciphers)))
            prod.append(process_time() - t0)
            return plains
        return call


def _round_trip_ok(pres, msgs):
    want = [pres.model.eval_key(m) for m in (*msgs, words.fw_mul(*msgs))]
    return lambda plains: OK if [pres.model.eval_key(p) for p in plains] == want \
        else WRONG


# ---------------------------------------------------------------------------
# cli: the experimenter's pipeline, in-process, with files in a temp dir
# ---------------------------------------------------------------------------

class Cli(Workload):
    """``gen`` -> ``member`` -> ``oracle enum`` -> ``attack scsp`` ->
    ``attack linearity`` -> ``hom keygen/encrypt/decrypt`` -> ``attack coset``.

    Pipeline j generates tree j of the ``gen`` corpus (``gen --seed j``, the
    same at every workload seed) and takes the seeds of its other commands
    from the workload seed; every pipeline has its own trees, so per-tree
    caches start cold.  Set-up makes one ``desk`` secret per pipeline, straight from
    ``tree_random`` (evaluating it would warm the caches ``oracle enum``
    should meet cold); a window that runs more pipelines than there are
    secrets starts over at the first secret.  Each is written to its file
    just before its pipeline: written in set-up, the 500 files took half of
    the set-up time, and the file system's share of it doubled from one
    minute to the next."""

    name = "cli"
    op_limit_s = 5.0

    def __init__(self, seed: int, size: dict, workdir: Path):
        super().__init__()
        self.seed = seed
        self.n = size["secrets"]
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.secrets: list = []   # serialized desk trees

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup(self) -> None:
        for i in range(self.n):
            t = self.made(lambda: desk_tree(i))
            if t is not None:
                self.secrets.append(serialize.dumps(cli.tree_to_obj(t)))

    def operations(self):
        rng = stream(self.seed)
        f = {name: str(self.dir / f"{name}.json") for name in (
            "pub", "sec", "elem", "wit", "hpub", "hsec", "cipher", "plain",
            "desk")}
        for j in itertools.count():
            ps = item_seed(self.seed, j)
            gen_seed = j % len(self.secrets)
            preset, make = PRESETS[j % len(PRESETS)]
            pres = make()
            msg = random_message(rng, pres.k, 1, 1)
            Path(f["desk"]).write_text(self.secrets[gen_seed])
            yield _command(["gen", "--size", "60", "--seed", gen_seed, "--pub", f["pub"],
                            "--sec", f["sec"], "--sample", f["elem"]],
                           _files_match(f, ("pub", "public"), ("sec", "secret"),
                                        ("elem", None)))
            yield _command(["member", "--sec", f["sec"], "--elem", f["elem"],
                            "--witness", f["wit"]], _member_yes(f))
            yield _command(["oracle", "enum", "--sec", f["desk"], "--cap", CLI_ENUM_CAP],
                           _enum_order, refusal="CapExceeded")
            yield _command(["attack", "scsp", "--q", "17", "--seed", ps], _scsp_ok)
            yield _command(["attack", "linearity", "--seed", ps], _linearity_ok)
            yield _command(["hom", "keygen", "--preset", preset, "--seed", ps,
                            "--pub", f["hpub"], "--sec", f["hsec"]],
                           _files_match(f, ("hpub", "public"), ("hsec", "secret")))
            yield _command(["hom", "encrypt", "--pub", f["hpub"], "--message",
                            ",".join(str(x) for x in msg.letters), "--seed", ps,
                            "--pad-length", "1", "--out", f["cipher"]],
                           _files_match(f, ("cipher", "ciphertext")))
            yield _command(["hom", "decrypt", "--sec", f["hsec"], "--cipher",
                            f["cipher"], "--out", f["plain"]],
                           _plain_matches(f, pres, msg))
            yield _command(["attack", "coset", "--pub", f["hpub"], "--cipher",
                            f["cipher"], "--bound", CLI_COSET_BOUND],
                           _coset_matches(pres, msg))


def _command(argv, check, refusal: str | None = None):
    argv = [str(a) for a in argv]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def checked(res):
        code, out, err = res
        if code != 0:
            if refusal is not None and code == 1 and refusal in err:
                return OK
            return MISSED if code == 1 and err.startswith("error: ") else WRONG
        return check(out)
    return "cli", call, checked


def _reparsed(path: str):
    """The file's JSON value; WRONG unless it re-serializes to the same bytes."""
    text = Path(path).read_text()
    obj = json.loads(text)
    return obj if serialize.dumps(obj) == text else None


def _files_match(f, *files):
    def check(out):
        for name, label in files:
            obj = _reparsed(f[name])
            if obj is None:
                return WRONG
            if label is not None and \
                    f"{label} fingerprint {serialize.fingerprint(obj)}" not in out:
                return WRONG
        return OK
    return check


def _member_yes(f):
    def check(out):
        if out.split("\n", 1)[0] != "yes":
            return MISSED
        return OK if _reparsed(f["wit"]) is not None else WRONG
    return check


def _enum_order(out):
    m = re.fullmatch(r"order (\d+)\n", out)
    return OK if m and 1 <= int(m.group(1)) <= CLI_ENUM_CAP else WRONG


def _scsp_ok(out):
    ok = re.fullmatch(r"conjugator fingerprint [0-9a-f]{64}\n"
                      r"span dimension \d+, draws [1-9]\d*\n", out)
    return OK if ok else WRONG


def _linearity_ok(out):
    if out.startswith("prediction verified;"):
        return OK
    return MISSED if out.startswith("prediction inconclusive;") else WRONG


def _plain_matches(f, pres, msg):
    want = pres.model.eval_key(msg)

    def check(out):
        letters = _reparsed(f["plain"])
        if letters is None or pres.model.eval_key(tuple(letters)) != want:
            return WRONG
        shown = ",".join(str(x) for x in letters) or "empty"
        return OK if out == f"plaintext word {shown}\n" else WRONG
    return check


def _coset_matches(pres, msg):
    want = list(pres.model.eval_key(msg))

    def check(out):
        first = out.split("\n", 1)[0]
        if first == "inconclusive":
            return OK
        prefix = "plaintext model element "
        if not first.startswith(prefix):
            return WRONG
        return OK if json.loads(first[len(prefix):]) == want else WRONG
    return check


def _is_fingerprint(fp) -> bool:
    return isinstance(fp, str) and re.fullmatch(r"[0-9a-f]{64}", fp) is not None


WORKLOADS = {"trapdoor": Trapdoor, "protocol": Protocol,
             "homcrypt": Homcrypt, "cli": Cli}


# ---------------------------------------------------------------------------
# the measurement
# ---------------------------------------------------------------------------

class OverLimit(BaseException):
    """Raised inside a call that outlives its time limit.

    A BaseException, so that no ``except Exception`` in the program or in the
    benchmark mistakes it for the call failing on its own.
    """


def _over_limit(_signum, _frame):
    raise OverLimit


@contextlib.contextmanager
def time_limit(seconds: float):
    """Interrupt the body with OverLimit after ``seconds`` of wall time."""
    previous = signal.signal(signal.SIGALRM, _over_limit)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Measurement:
    setup_s: float = 0.0
    latencies: dict = field(default_factory=dict)   # kind -> CPU seconds per op
    missed_by_kind: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    missed: int = 0
    over_limit: int = 0
    window_s: float = 0.0
    cut_at_deadline: int = 0

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.window_s


def execute(call, check, limit: float):
    """Run one operation under a wall-time limit and check its answer.

    Returns (verdict, CPU seconds); the verdict is None when the call
    reached the limit, ``"raised"`` when it raised anything but the
    program's own ``AssertionError``.
    """
    t0 = process_time()
    try:
        with time_limit(limit):
            try:
                result = call()
            except AssertionError:
                return MISSED, process_time() - t0
            except Exception:
                return "raised", process_time() - t0
            t1 = process_time()
    except OverLimit:
        return None, process_time() - t0
    try:
        verdict = check(result)
    except Exception:
        # a check that cannot even read the answer (a witness that does not
        # replay, a file that does not parse) disproves it
        verdict = WRONG
    return verdict, t1 - t0


def measure(workload, seconds: float, tracer=None, max_ops=None) -> Measurement:
    """Set the workload up, then run its operations for ``seconds``, or for
    its first ``max_ops`` operations when that comes first.

    An operation still running when the window closes is abandoned and not
    counted; one that reaches the workload's latency limit (wall time) is
    interrupted, counted as attempted and as over the limit.

    Latencies and set-up times are CPU seconds of this single-threaded
    process: on a shared host the wall time of the same work swings by a
    fifth from minute to minute with other tenants' load, its CPU time by
    about half as much.  The window itself is wall time.
    """
    res = Measurement()
    quiet = tracer.pause if tracer is not None else contextlib.nullcontext
    workload.quiet = quiet
    limit = workload.op_limit_s
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = process_time()
        workload.setup()
        res.setup_s = process_time() - t0
        ops = workload.operations()
        start = perf_counter()
        deadline = start + seconds
        for op_id in itertools.count():
            if op_id == max_ops:
                break
            with quiet():
                kind, call, check = next(ops)
            remaining = deadline - perf_counter()
            if remaining <= 0:
                break
            if tracer is not None:
                tracer.op_id = op_id
            verdict, cpu_s = execute(call, lambda r: _quiet_check(quiet, check, r),
                                     min(limit, remaining))
            if verdict is None:
                if remaining < limit:
                    res.cut_at_deadline = 1
                    break
                res.over_limit += 1
            res.latencies.setdefault(kind, []).append(cpu_s)
            res.attempted += 1
            if verdict == MISSED:
                res.missed += 1
                res.missed_by_kind[kind] = res.missed_by_kind.get(kind, 0) + 1
            elif verdict in (WRONG, "raised"):
                res.failed += 1
                res.wrong += verdict == WRONG
        res.window_s = perf_counter() - start
    return res


def _quiet_check(quiet, check, result):
    with quiet():
        return check(result)
