"""The command-line parser as it was built before the declarative command
table: every subcommand and option on every call.  The CLI tests parse the
same arguments with it and with ``matcrypt.cli.build_parser`` and require the
same namespace, or the same exit code and the same output."""

import argparse

from matcrypt.cli import _int_at_least, _letters


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="matcrypt")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("version")

    p = sub.add_parser("gen", help="generate a trapdoored instance")
    p.add_argument("--size", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pub", required=True)
    p.add_argument("--sec", required=True)
    p.add_argument("--sample", default=None,
                   help="optionally write a sampled in-group element")

    p = sub.add_parser("member", help="trapdoor membership test")
    p.add_argument("--sec", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--witness", default=None)

    p = sub.add_parser("ltp", help="trapdoor linear transporter")
    p.add_argument("--sec", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("aag", help="two-party commutator key agreement")
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", default=None)

    p = sub.add_parser("mparty", help="multi-party key agreement")
    p.add_argument("--parties", type=int, default=4)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", default=None)

    p = sub.add_parser("gdh", help="identity-word key agreement")
    p.add_argument("--mode", choices=("dh", "matrix"), default="matrix")
    p.add_argument("--p", type=int, default=101)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", default=None)

    p = sub.add_parser("hom", help="homomorphic cryptosystem")
    hsub = p.add_subparsers(dest="hom_cmd", required=True)
    hk = hsub.add_parser("keygen")
    hk.add_argument("--preset", choices=("klein4", "s3", "d4"), default="klein4")
    hk.add_argument("--seed", type=int, default=0)
    hk.add_argument("--pub", required=True)
    hk.add_argument("--sec", required=True)
    he = hsub.add_parser("encrypt")
    he.add_argument("--pub", required=True)
    he.add_argument("--message", required=True, type=_letters,
                    help="comma-separated signed letters, e.g. 1,-2,1")
    he.add_argument("--seed", type=int, default=0)
    he.add_argument("--pad-length", type=_int_at_least(0), default=None,
                    dest="pad_length")
    he.add_argument("--out", required=True)
    hd = hsub.add_parser("decrypt")
    hd.add_argument("--sec", required=True)
    hd.add_argument("--cipher", required=True)
    hd.add_argument("--out", default=None)

    p = sub.add_parser("attack", help="attack experiments")
    asub = p.add_subparsers(dest="attack_cmd", required=True)
    a1 = asub.add_parser("scsp")
    a1.add_argument("--q", type=int, default=17)
    a1.add_argument("--n", type=_int_at_least(1), default=2)
    a1.add_argument("--seed", type=int, default=0)
    a2 = asub.add_parser("linearity")
    a2.add_argument("--q", type=int, default=5)
    a2.add_argument("--seed", type=int, default=0)
    a3 = asub.add_parser("coset")
    a3.add_argument("--pub", required=True)
    a3.add_argument("--cipher", required=True)
    a3.add_argument("--bound", type=_int_at_least(0), default=11)

    p = sub.add_parser("oracle", help="brute-force oracles")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    o1 = osub.add_parser("enum")
    o1.add_argument("--sec", required=True)
    o1.add_argument("--cap", type=int, default=100000)
    o2 = osub.add_parser("solve")
    o2.add_argument("--problem", choices=("membership", "ltp", "conjugacy"),
                    required=True)
    o2.add_argument("--sec", required=True)
    o2.add_argument("--cap", type=int, default=100000)
    o2.add_argument("--elem")
    o2.add_argument("--u")
    o2.add_argument("--v")
    o2.add_argument("--f")
    o2.add_argument("--g")
    return ap
