"""Command-line front end.

One binary, subcommand style; every randomized operation takes an explicit
--seed (absence means seed 0), so identical invocations produce byte-identical
artifacts.  Exit codes: 0 success, 1 domain failure (the message names the
failing error) or an input file that cannot be opened, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from . import __version__
from .errors import BadInputFile, KeyMismatch, MatcryptError
from .matrix import _random_invertible, mat_inv, mat_mul, matrix, vector
from .ring import Zmod, is_prime
from .rng import Rng
from .serialize import (dumps, fingerprint, instance_to_obj, matrix_from_obj,
                        matrix_to_obj, tree_from_obj, tree_to_obj,
                        vector_from_obj, vector_to_obj)
from .words import FreeWord, _random_word, build_solvable_pair


class UsageError(Exception):
    """Arguments that parse but that the command cannot run with; main
    reports it as argparse reports its own errors, with exit code 2."""


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def _read(path: str, kind: str, parse):
    """The JSON value in path, read through parse.  A file that is not JSON,
    or lacks what parse reads from it, is a BadInputFile naming the file;
    parse's own domain errors pass through."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise BadInputFile(
                f"{path} is not a {kind} file ({type(e).__name__}: {e})") from e


# --- subcommands --------------------------------------------------------------

def cmd_version(args) -> int:
    print(__version__)
    return 0


def cmd_gen(args) -> int:
    from .instance import (leaf_embed, leaf_random, tree_eval, tree_leaves,
                           tree_random)
    t = tree_random(args.size, args.seed)
    inst = tree_eval(t)
    sec_obj = tree_to_obj(t)
    pub_obj = instance_to_obj(inst)
    _write(args.sec, sec_obj)
    _write(args.pub, pub_obj)
    print(f"secret fingerprint {fingerprint(sec_obj)}")
    print(f"public fingerprint {fingerprint(pub_obj)}")
    if args.sample:
        rng = Rng(args.seed ^ 0xA5A5)
        specs = tree_leaves(t)
        lid = rng.below(len(specs))
        elem = leaf_embed(t, lid, leaf_random(specs[lid], rng))
        _write(args.sample, matrix_to_obj(elem))
        print(f"sample element written to {args.sample}")
    return 0


def cmd_member(args) -> int:
    from .trapdoor import membership
    t = _read(args.sec, "secret tree", tree_from_obj)
    g = _read(args.elem, "matrix", matrix_from_obj)
    verdict = membership(t, g)
    print("yes" if verdict.accepted else "no")
    if verdict.accepted and args.witness:
        _write(args.witness, _witness_obj(verdict.witness))
        print(f"witness written to {args.witness}")
    return 0


def _witness_obj(wit):
    kind = wit[0]
    if kind == "leaf":
        return {"leaf": matrix_to_obj(wit[1])}
    if kind in ("conjugate", "ring"):
        return {kind: _witness_obj(wit[1])}
    if kind in ("crt", "tensor"):
        return {kind: [_witness_obj(w) for w in wit[1]]}
    if kind == "wreath":
        return {"wreath": {"k": list(wit[1]),
                           "parts": [_witness_obj(w) for w in wit[2]]}}
    raise MatcryptError(f"unknown witness kind {kind!r}")


def cmd_ltp(args) -> int:
    from .trapdoor import NoSolution, ltp_solve
    t = _read(args.sec, "secret tree", tree_from_obj)
    u = _read(args.u, "vector", vector_from_obj)
    v = _read(args.v, "vector", vector_from_obj)
    res = ltp_solve(t, u, v)
    if isinstance(res, NoSolution):
        print("no-solution (certified)")
        return 0
    obj = matrix_to_obj(res)
    if args.out:
        _write(args.out, obj)
    print(f"transporter fingerprint {fingerprint(obj)}")
    return 0


def _random_instance_config(size: int, seed: int):
    from .instance import subgroup_sample, tree_eval, tree_random
    rng = Rng(seed)
    t = tree_random(size, rng.fork(1).seed)
    gens_a, gens_b = subgroup_sample(t, rng.fork(2).seed)
    return t, gens_a, gens_b, rng


def cmd_aag(args) -> int:
    from .protocol import AagConfig, aag_run
    t, gens_a, gens_b, rng = _random_instance_config(args.size, args.seed)
    cfg = AagConfig(gens_a, gens_b,
                    _random_word(rng, len(gens_a)), _random_word(rng, len(gens_b)))
    key_a, key_b, transcript = aag_run(cfg)
    if key_a != key_b:
        raise KeyMismatch("the two parties derived different keys")
    print(f"key fingerprint {fingerprint(matrix_to_obj(key_a))}")
    if args.transcript:
        _write(args.transcript, transcript.to_obj())
    return 0


def cmd_mparty(args) -> int:
    from .protocol import multiparty_run
    t, gens_a, gens_b, rng = _random_instance_config(args.size, args.seed)
    gens = gens_a + gens_b
    configs = [(gens, _random_word(rng, len(gens))) for _ in range(args.parties)]
    keys, transcript, ops = multiparty_run(args.parties, configs, args.seed)
    if any(k != keys[0] for k in keys):
        raise KeyMismatch("the parties derived different keys")
    print(f"key fingerprint {fingerprint(matrix_to_obj(keys[0]))}")
    print(f"op counts {json.dumps(ops, separators=(',', ':'))}")
    if args.transcript:
        _write(args.transcript, transcript.to_obj())
    return 0


def cmd_gdh(args) -> int:
    from .protocol import GdhConfig, MatrixAction, PowerAction, gdh_run
    rng = Rng(args.seed)
    if args.mode == "dh":
        p = args.p
        if p < 5 or not is_prime(p):
            raise UsageError(f"--mode dh needs a prime --p of at least 5, got {p}")
        pair = build_solvable_pair(1)
        act = PowerAction(p, 2 + rng.below(p - 3))
        sa = _random_unit(rng, p - 1)
        sb = _random_unit(rng, p - 1)
        key_a, key_b, transcript = gdh_run(GdhConfig(act, pair, sa, sb))
        print(f"key {key_a}")
    else:
        p = args.p
        # the generators have determinants 2 and 3
        if p <= 1 or gcd(p, 6) > 1:
            raise UsageError("--mode matrix needs a --p above 1 and prime to 6, "
                             f"got {p}")
        zp = Zmod(p)
        gens = [matrix(zp, [[2, 1], [0, 1]]), matrix(zp, [[1, 1], [0, 3]])]
        act = MatrixAction(gens, gens, vector(zp, [1, 2]))
        pair = build_solvable_pair(2)
        cfg = GdhConfig(act, pair, _random_word(rng, len(gens)),
                        _random_word(rng, len(gens)))
        key_a, key_b, transcript = gdh_run(cfg)
        print(f"key fingerprint {fingerprint(vector_to_obj(zp, key_a))}")
    if args.transcript:
        _write(args.transcript, transcript.to_obj())
    return 0


def _random_unit(rng: Rng, n: int) -> int:
    while True:
        x = 1 + rng.below(n - 1)
        if gcd(x, n) == 1:
            return x


def _hom_preset(name: str):
    from .homcrypt import dihedral4, klein_four, sym3
    return {"klein4": klein_four, "s3": sym3, "d4": dihedral4}[name]()


def _hom_public_key(raw: dict):
    from .homcrypt import HomPublicKey
    return HomPublicKey(_hom_preset(raw["preset"]),
                        tuple(tuple(w) for w in raw["x_words"]),
                        tuple(raw["f_table"]))


def _read_cipher(path: str, k: int):
    return _read(path, "ciphertext", lambda raw: FreeWord(k, tuple(raw)))


def cmd_hom(args) -> int:
    from .homcrypt import HomSecretKey, hc_decrypt, hc_encrypt, hc_keygen

    if args.hom_cmd == "keygen":
        pres = _hom_preset(args.preset)
        pk, sk = hc_keygen(pres, args.seed)
        pub = {"preset": args.preset, "k": pres.k,
               "relations": [list(r.letters) for r in pres.relations],
               "x_words": [list(w) for w in pk.x_words],
               "f_table": list(pk.f_table)}
        sec = {"preset": args.preset, "sigma": list(sk.sigma)}
        _write(args.pub, pub)
        _write(args.sec, sec)
        print(f"public fingerprint {fingerprint(pub)}")
        print(f"secret fingerprint {fingerprint(sec)}")
        return 0
    if args.hom_cmd == "encrypt":
        pk = _read(args.pub, "hom public key", _hom_public_key)
        msg = FreeWord(pk.presentation.k, args.message)
        cipher = hc_encrypt(pk, msg, args.seed, pad_length=args.pad_length)
        _write(args.out, list(cipher.letters))
        print(f"ciphertext fingerprint {fingerprint(list(cipher.letters))}")
        return 0
    if args.hom_cmd == "decrypt":
        pres, sk = _read(args.sec, "hom secret key", lambda raw: (
            _hom_preset(raw["preset"]), HomSecretKey(tuple(raw["sigma"]))))
        plain = hc_decrypt(sk, _read_cipher(args.cipher, pres.k))
        if args.out:
            _write(args.out, list(plain.letters))
        print(f"plaintext word {','.join(str(x) for x in plain.letters) or 'empty'}")
        return 0
    raise MatcryptError(f"unknown hom subcommand {args.hom_cmd!r}")


def cmd_attack(args) -> int:
    if args.attack_cmd == "scsp":
        from .analysis import scsp_linear_attack
        from .instance import base_general_linear, leaf_generators
        rng = Rng(args.seed)
        gens = leaf_generators(base_general_linear(args.n, args.q))
        g = _random_invertible(gens[0].ring, args.n, rng)
        h = _random_invertible(gens[0].ring, args.n, rng)
        f = mat_mul(mat_mul(mat_inv(h), g), h)
        report = scsp_linear_attack(args.n, args.q, gens, f, g, args.seed)
        print(f"conjugator fingerprint {fingerprint(matrix_to_obj(report.h))}")
        print(f"span dimension {report.span_dim}, draws {report.draws}")
        return 0
    if args.attack_cmd == "linearity":
        from .analysis import INCONCLUSIVE, linearity_attack
        from .instance import base_general_linear, leaf_generators
        rng = Rng(args.seed)
        gens = leaf_generators(base_general_linear(2, args.q))
        c = _random_invertible(gens[0].ring, 2, rng)
        cinv = mat_inv(c)
        images = [mat_mul(mat_mul(cinv, g), c) for g in gens]
        q = _random_invertible(gens[0].ring, 2, rng)
        report = linearity_attack(gens, images, q)
        truth = mat_mul(mat_mul(cinv, q), c)
        verdict = "inconclusive" if report.prediction == INCONCLUSIVE else \
            ("verified" if report.prediction == truth else "wrong")
        print(f"prediction {verdict}; span dimension {report.span_dim}; "
              f"consistent {report.consistent}")
        return 0
    if args.attack_cmd == "coset":
        from .analysis import INCONCLUSIVE, coset_attack
        pk = _read(args.pub, "hom public key", _hom_public_key)
        pres = pk.presentation
        attack = coset_attack(pk, pres.model, args.bound)
        got = attack.decrypt(_read_cipher(args.cipher, pres.k))
        if got == INCONCLUSIVE:
            print("inconclusive")
        else:
            print(f"plaintext model element {json.dumps(list(got))}")
        print(f"table size {len(attack.table)}")
        return 0
    raise MatcryptError(f"unknown attack {args.attack_cmd!r}")


# the files each oracle problem reads, beside --sec
_PROBLEM_FILES = {"membership": ("elem",), "ltp": ("u", "v"), "conjugacy": ("f", "g")}


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "solve":
        missing = [f"--{name}" for name in _PROBLEM_FILES[args.problem]
                   if getattr(args, name) is None]
        if missing:
            raise UsageError(f"--problem {args.problem} requires {', '.join(missing)}")
    from .analysis import (enumerate_group, oracle_conjugator, oracle_member,
                           oracle_transporter)
    from .instance import tree_eval
    t = _read(args.sec, "secret tree", tree_from_obj)
    inst = tree_eval(t)
    enum = enumerate_group(list(inst.gens), args.cap)
    if args.oracle_cmd == "enum":
        print(f"order {len(enum)}")
        return 0
    if args.oracle_cmd == "solve":
        if args.problem == "membership":
            g = _read(args.elem, "matrix", matrix_from_obj)
            ok, wit = oracle_member(enum, g)
            print("yes" if ok else "no")
        elif args.problem == "ltp":
            u = _read(args.u, "vector", vector_from_obj)
            v = _read(args.v, "vector", vector_from_obj)
            ok, wit = oracle_transporter(enum, u, v)
            print("solvable" if ok else "no-solution (certified)")
        elif args.problem == "conjugacy":
            f = _read(args.f, "matrix", matrix_from_obj)
            g = _read(args.g, "matrix", matrix_from_obj)
            ok, wit = oracle_conjugator(enum, f, g)
            print("conjugate" if ok else "not-conjugate")
        return 0
    raise MatcryptError(f"unknown oracle subcommand {args.oracle_cmd!r}")


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than minimum."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n
    return parse


def _letters(text: str) -> tuple:
    """An argparse type: comma-separated signed letters such as 1,-2,1."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not comma-separated integers: {text!r}") from None


_SEED = {"type": int, "default": 0}
_REQUIRED = {"required": True}
_OPTIONAL = {"default": None}
_CAP = {"type": int, "default": 100000}

# {name: (help, options)} or {name: (help, {subcommand: (help, options)})};
# options map each flag to its add_argument keywords.  A command without help
# is added without the keyword, so it gets no line of its own in -h.
COMMANDS = {
    "version": (None, {}),
    "gen": ("generate a trapdoored instance", {
        "--size": {"type": int, "default": 60},
        "--seed": _SEED,
        "--pub": _REQUIRED,
        "--sec": _REQUIRED,
        "--sample": {"default": None,
                     "help": "optionally write a sampled in-group element"},
    }),
    "member": ("trapdoor membership test", {
        "--sec": _REQUIRED, "--elem": _REQUIRED, "--witness": _OPTIONAL}),
    "ltp": ("trapdoor linear transporter", {
        "--sec": _REQUIRED, "--u": _REQUIRED, "--v": _REQUIRED,
        "--out": _OPTIONAL}),
    "aag": ("two-party commutator key agreement", {
        "--size": {"type": int, "default": 40},
        "--seed": _SEED,
        "--transcript": _OPTIONAL,
    }),
    "mparty": ("multi-party key agreement", {
        "--parties": {"type": int, "default": 4},
        "--size": {"type": int, "default": 40},
        "--seed": _SEED,
        "--transcript": _OPTIONAL,
    }),
    "gdh": ("identity-word key agreement", {
        "--mode": {"choices": ("dh", "matrix"), "default": "matrix"},
        "--p": {"type": int, "default": 101},
        "--seed": _SEED,
        "--transcript": _OPTIONAL,
    }),
    "hom": ("homomorphic cryptosystem", {
        "keygen": (None, {
            "--preset": {"choices": ("klein4", "s3", "d4"), "default": "klein4"},
            "--seed": _SEED,
            "--pub": _REQUIRED,
            "--sec": _REQUIRED,
        }),
        "encrypt": (None, {
            "--pub": _REQUIRED,
            "--message": {"required": True, "type": _letters,
                          "help": "comma-separated signed letters, e.g. 1,-2,1"},
            "--seed": _SEED,
            "--pad-length": {"type": _int_at_least(0), "default": None},
            "--out": _REQUIRED,
        }),
        "decrypt": (None, {
            "--sec": _REQUIRED, "--cipher": _REQUIRED, "--out": _OPTIONAL}),
    }),
    "attack": ("attack experiments", {
        "scsp": (None, {
            "--q": {"type": int, "default": 17},
            "--n": {"type": _int_at_least(1), "default": 2},
            "--seed": _SEED,
        }),
        "linearity": (None, {
            "--q": {"type": int, "default": 5},
            "--seed": _SEED,
        }),
        "coset": (None, {
            "--pub": _REQUIRED,
            "--cipher": _REQUIRED,
            "--bound": {"type": _int_at_least(0), "default": 11},
        }),
    }),
    "oracle": ("brute-force oracles", {
        "enum": (None, {"--sec": _REQUIRED, "--cap": _CAP}),
        "solve": (None, {
            "--problem": {"choices": ("membership", "ltp", "conjugacy"),
                          "required": True},
            "--sec": _REQUIRED,
            "--cap": _CAP,
            "--elem": _OPTIONAL, "--u": _OPTIONAL, "--v": _OPTIONAL,
            "--f": _OPTIONAL, "--g": _OPTIONAL,
        }),
    }),
}


def build_parser(argv=()) -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The parser for argv, and the deepest subcommand parser on argv's
    command path (the root when argv names no command).

    Only the subcommands argv names are built: at each level, when argv's
    next word is a command name of that level only its parser is added,
    otherwise (no word, -h, a typo) every parser of the level and below is,
    so help and choice errors list them all.  A level built in part names
    all its commands in its metavar, so usage lines read as with the full
    tree; a full level keeps argparse's own metavar, which the error for a
    missing command reads."""
    ap = argparse.ArgumentParser(prog="matcrypt")
    return ap, _add_commands(ap, COMMANDS, "cmd", list(argv))


def _add_commands(parser, table: dict, dest: str, argv: list):
    """Add table's commands to parser as build_parser describes; return the
    deepest parser on argv's command path."""
    partial = bool(argv) and argv[0] in table
    sub = parser.add_subparsers(
        dest=dest, required=True,
        metavar="{" + ",".join(table) + "}" if partial else None)
    for name in [argv[0]] if partial else table:
        help_, body = table[name]
        p = sub.add_parser(name, **({} if help_ is None else {"help": help_}))
        # an option table's keys are flags, a subcommand table's are names
        if body and not next(iter(body)).startswith("-"):
            leaf = _add_commands(p, body, f"{name}_cmd", argv[1:])
        else:
            leaf = p
            for flag, kwargs in body.items():
                p.add_argument(flag, **kwargs)
    return leaf if partial else parser


_COMMANDS = {
    "version": cmd_version,
    "gen": cmd_gen,
    "member": cmd_member,
    "ltp": cmd_ltp,
    "aag": cmd_aag,
    "mparty": cmd_mparty,
    "gdh": cmd_gdh,
    "hom": cmd_hom,
    "attack": cmd_attack,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value such as the message -2,1, which starts
    # with "-" but is not one number, for an option; attach it instead
    for i, a in enumerate(argv[:-1]):
        if a == "--message" and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit():
            argv[i:i + 2] = [f"--message={argv[i + 1]}"]
            break
    ap, leaf = build_parser(argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.cmd](args)
    except UsageError as e:
        leaf.print_usage(sys.stderr)
        print(f"{leaf.prog}: error: {e}", file=sys.stderr)
        return 2
    except MatcryptError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
