"""CLI: subcommands, exit codes, file round trips, determinism."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from matcrypt.cli import COMMANDS, build_parser, main, tree_from_obj, tree_to_obj

warnings.simplefilter("ignore")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    code, out, _ = run(capsys, "version")
    assert code == 0
    from matcrypt import __version__
    assert out.strip() == __version__


def test_usage_error(capsys):
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_gen_member_pipeline(tmp_path, capsys):
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    elem = tmp_path / "elem.json"
    wit = tmp_path / "wit.json"
    code, out, _ = run(capsys, "gen", "--size", "40", "--seed", "7",
                       "--pub", str(pub), "--sec", str(sec),
                       "--sample", str(elem))
    assert code == 0
    assert "secret fingerprint" in out and "public fingerprint" in out
    code, out, _ = run(capsys, "member", "--sec", str(sec),
                       "--elem", str(elem), "--witness", str(wit))
    assert code == 0
    assert out.startswith("yes")
    assert wit.exists()


def test_gen_determinism(tmp_path, capsys):
    files = []
    for tag in ("a", "b"):
        pub = tmp_path / f"pub{tag}.json"
        sec = tmp_path / f"sec{tag}.json"
        code, _, _ = run(capsys, "gen", "--size", "50", "--seed", "9",
                         "--pub", str(pub), "--sec", str(sec))
        assert code == 0
        files.append((pub.read_bytes(), sec.read_bytes()))
    assert files[0] == files[1]


def test_secret_file_roundtrip(tmp_path, capsys):
    sec = tmp_path / "sec.json"
    pub = tmp_path / "pub.json"
    run(capsys, "gen", "--size", "45", "--seed", "3",
        "--pub", str(pub), "--sec", str(sec))
    obj = json.loads(sec.read_text())
    t = tree_from_obj(obj)
    assert tree_to_obj(t) == obj


def test_ltp_pipeline(tmp_path, capsys):
    from matcrypt.instance import tree_eval
    from matcrypt.serialize import dumps, vector_to_obj
    from matcrypt.trapdoor import sample_transportable_vector
    from matcrypt.matrix import vector_act
    from matcrypt.rng import Rng
    sec = tmp_path / "sec.json"
    pub = tmp_path / "pub.json"
    run(capsys, "gen", "--size", "40", "--seed", "12",
        "--pub", str(pub), "--sec", str(sec))
    t = tree_from_obj(json.loads(sec.read_text()))
    inst = tree_eval(t)
    rng = Rng(5)
    u = sample_transportable_vector(t, rng)
    v = vector_act(u, inst.gens[0])
    (tmp_path / "u.json").write_text(dumps(vector_to_obj(inst.ring, u)))
    (tmp_path / "v.json").write_text(dumps(vector_to_obj(inst.ring, v)))
    code, out, _ = run(capsys, "ltp", "--sec", str(sec),
                       "--u", str(tmp_path / "u.json"),
                       "--v", str(tmp_path / "v.json"),
                       "--out", str(tmp_path / "g.json"))
    assert code == 0
    assert "transporter fingerprint" in out or "no-solution" in out


def test_protocol_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "aag", "--seed", "3", "--size", "30",
                       "--transcript", str(tmp_path / "tr.json"))
    assert code == 0 and "key fingerprint" in out
    assert (tmp_path / "tr.json").exists()
    code, out, _ = run(capsys, "mparty", "--parties", "4", "--seed", "3",
                       "--size", "30")
    assert code == 0 and "op counts" in out
    code, out, _ = run(capsys, "gdh", "--mode", "dh", "--p", "101",
                       "--seed", "5")
    assert code == 0 and out.startswith("key ")
    code, out, _ = run(capsys, "gdh", "--mode", "matrix", "--p", "5",
                       "--seed", "5")
    assert code == 0 and "key fingerprint" in out


def test_hom_pipeline(tmp_path, capsys):
    pub, sec = tmp_path / "hp.json", tmp_path / "hs.json"
    cipher = tmp_path / "c.json"
    code, out, _ = run(capsys, "hom", "keygen", "--preset", "klein4",
                       "--seed", "3", "--pub", str(pub), "--sec", str(sec))
    assert code == 0
    code, out, _ = run(capsys, "hom", "encrypt", "--pub", str(pub),
                       "--message", "1,2", "--seed", "1", "--out", str(cipher))
    assert code == 0
    code, out, _ = run(capsys, "hom", "decrypt", "--sec", str(sec),
                       "--cipher", str(cipher))
    assert code == 0 and out.startswith("plaintext word")
    # decryption agrees with the library
    from matcrypt.homcrypt import HomSecretKey, hc_decrypt, klein_four
    from matcrypt.words import FreeWord
    pres = klein_four()
    sk = HomSecretKey(tuple(json.loads(sec.read_text())["sigma"]))
    c = FreeWord(2, tuple(json.loads(cipher.read_text())))
    want = pres.model.eval_key(hc_decrypt(sk, c))
    assert want == pres.model.eval_key(FreeWord(2, (1, 2)))


def test_hom_message_starting_with_an_inverse_letter(tmp_path, capsys):
    # argparse used to read -2,1 as an option and exit 2
    pub, sec = tmp_path / "hp.json", tmp_path / "hs.json"
    cipher = tmp_path / "c.json"
    run(capsys, "hom", "keygen", "--preset", "klein4", "--seed", "3",
        "--pub", str(pub), "--sec", str(sec))
    code, out, err = run(capsys, "hom", "encrypt", "--pub", str(pub),
                         "--message", "-2,1", "--seed", "1", "--out", str(cipher))
    assert code == 0, err
    code, out, _ = run(capsys, "hom", "decrypt", "--sec", str(sec),
                       "--cipher", str(cipher))
    assert code == 0
    from matcrypt.homcrypt import HomSecretKey, hc_decrypt, klein_four
    from matcrypt.words import FreeWord
    pres = klein_four()
    sk = HomSecretKey(tuple(json.loads(sec.read_text())["sigma"]))
    c = FreeWord(2, tuple(json.loads(cipher.read_text())))
    assert pres.model.eval_key(hc_decrypt(sk, c)) == \
        pres.model.eval_key(FreeWord(2, (-2, 1)))


def test_hom_cipher_deterministic(tmp_path, capsys):
    pub, sec = tmp_path / "hp.json", tmp_path / "hs.json"
    run(capsys, "hom", "keygen", "--preset", "s3", "--seed", "4",
        "--pub", str(pub), "--sec", str(sec))
    blobs = []
    for tag in ("x", "y"):
        out = tmp_path / f"c{tag}.json"
        run(capsys, "hom", "encrypt", "--pub", str(pub), "--message", "1,-2",
            "--seed", "9", "--out", str(out))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_bad_hom_keys_exit_one(tmp_path, capsys):
    # sigma [0, 0] used to decrypt to a wrong plaintext with exit 0; the two
    # f_table files used to escape as AttributeError and IndexError
    pub, sec = tmp_path / "hp.json", tmp_path / "hs.json"
    cipher = tmp_path / "c.json"
    run(capsys, "hom", "keygen", "--preset", "klein4", "--seed", "3",
        "--pub", str(pub), "--sec", str(sec))
    run(capsys, "hom", "encrypt", "--pub", str(pub), "--message", "1,2",
        "--seed", "1", "--out", str(cipher))
    raw_sec = json.loads(sec.read_text())
    sec.write_text(json.dumps(dict(raw_sec, sigma=[0, 0])))
    code, out, err = run(capsys, "hom", "decrypt", "--sec", str(sec),
                         "--cipher", str(cipher))
    assert code == 1 and out == "" and err.startswith("error: DegenerateKey")
    raw_pub = json.loads(pub.read_text())
    for table in ([0, 0], [0, 5]):
        pub.write_text(json.dumps(dict(raw_pub, f_table=table)))
        code, out, err = run(capsys, "hom", "encrypt", "--pub", str(pub),
                             "--message", "1,2", "--seed", "1",
                             "--out", str(cipher))
        assert code == 1 and out == "", table
        assert err.startswith("error: DegenerateKey"), table


def test_hom_key_with_commuting_x_words_exits_one(tmp_path, capsys):
    # x-words (2) and (2,2,2) commute, so a word's image depends on the
    # product of x-words that spells it; a coset verdict on such a key would
    # depend on how the search reaches a word (bound 2, ciphertext -2)
    pub, sec = tmp_path / "hp.json", tmp_path / "hs.json"
    cipher = tmp_path / "c.json"
    run(capsys, "hom", "keygen", "--preset", "klein4", "--seed", "3",
        "--pub", str(pub), "--sec", str(sec))
    raw = json.loads(pub.read_text())
    pub.write_text(json.dumps(dict(raw, x_words=[[2], [2, 2, 2]],
                                   f_table=[0, 1])))
    cipher.write_text("[-2]")
    for argv in (("hom", "encrypt", "--pub", str(pub), "--message", "1",
                  "--seed", "1", "--out", str(tmp_path / "out.json")),
                 ("attack", "coset", "--pub", str(pub), "--cipher", str(cipher),
                  "--bound", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: DegenerateKey"), argv


def test_attack_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "attack", "scsp", "--q", "17", "--seed", "2")
    assert code == 0 and "conjugator fingerprint" in out
    code, out, _ = run(capsys, "attack", "linearity", "--seed", "2")
    assert code == 0 and "verified" in out
    pub, sec = tmp_path / "hp.json", tmp_path / "hs.json"
    cipher = tmp_path / "c.json"
    run(capsys, "hom", "keygen", "--preset", "klein4", "--seed", "3",
        "--pub", str(pub), "--sec", str(sec))
    run(capsys, "hom", "encrypt", "--pub", str(pub), "--message", "1",
        "--seed", "1", "--pad-length", "1", "--out", str(cipher))
    code, out, _ = run(capsys, "attack", "coset", "--pub", str(pub),
                       "--cipher", str(cipher), "--bound", "11")
    assert code == 0 and "plaintext model element" in out


ATTACK_PINS = {
    0: "9b671ac8ebb4fae9cf2148f5339b9357b1678b2ed799aacd84c3eb0289c05efc",
    1: "6b60475218e3ad752c5e746acd30ef752d2f6445c7f06f747059060cf3cc312a",
    2: "dcc7f2138ff7bcbdafce8482311ce6835b1d0e2eca0c5fa593a81f2988e578d1",
    3: "5f19dac9b0ef228456983882323667ce2d13a71d99af1b185290f34e8bb8a627",
    4: "ecd84dbcd1b7a605ba4c65f04e6d0d787474bf7f922b99982e2b147861fb3270",
}


def test_attack_outputs_pinned(capsys):
    # over prime fields the elimination's pivot choices fix every line
    for seed, fingerprint in ATTACK_PINS.items():
        code, out, _ = run(capsys, "attack", "scsp", "--q", "17",
                           "--seed", str(seed))
        assert code == 0
        assert out == (f"conjugator fingerprint {fingerprint}\n"
                       "span dimension 4, draws 1\n"), seed
        code, out, _ = run(capsys, "attack", "linearity", "--seed", str(seed))
        assert code == 0
        assert out == ("prediction verified; span dimension 4; "
                       "consistent True\n"), seed


# preset -> (first stdout line at bound 7, at bound 11) for seeds 0-2; the
# key and the ciphertext of a one-letter message take the same seed, the
# letters are 1, -2, 2; every run prints the table size |H| after the line
COSET_PINS = {
    "klein4": [("[1, 0, 3, 2]", "[1, 0, 3, 2]"), ("[2, 3, 0, 1]", "[2, 3, 0, 1]"),
               ("[2, 3, 0, 1]", "[2, 3, 0, 1]")],
    "s3": [("[1, 0, 2]", "[1, 0, 2]"), ("[2, 0, 1]", "[2, 0, 1]"),
           ("[1, 2, 0]", "[1, 2, 0]")],
    "d4": [("[1, 2, 3, 0]", "[1, 2, 3, 0]"), (None, "[3, 2, 1, 0]"),
           ("[3, 2, 1, 0]", "[3, 2, 1, 0]")],
}
COSET_ORDERS = {"klein4": 4, "s3": 6, "d4": 8}


def test_coset_attack_outputs_pinned(tmp_path, capsys):
    pub, sec, cipher = (str(tmp_path / f"{n}.json") for n in ("hp", "hs", "c"))
    for preset, pins in COSET_PINS.items():
        for seed, (message, bounds) in enumerate(zip(("1", "-2", "2"), pins)):
            run(capsys, "hom", "keygen", "--preset", preset, "--seed", str(seed),
                "--pub", pub, "--sec", sec)
            run(capsys, "hom", "encrypt", "--pub", pub, "--message", message,
                "--seed", str(seed), "--pad-length", "1", "--out", cipher)
            for bound, element in zip(("7", "11"), bounds):
                code, out, _ = run(capsys, "attack", "coset", "--pub", pub,
                                   "--cipher", cipher, "--bound", bound)
                first = "inconclusive" if element is None else \
                    f"plaintext model element {element}"
                assert code == 0
                assert out == f"{first}\ntable size {COSET_ORDERS[preset]}\n", \
                    (preset, seed, bound)


def test_attacks_over_gf9(capsys):
    # q = 9 is not a prime: the secret and the query are drawn over GF(9),
    # the ring of the generators, not over Z/9
    for seed in range(3):
        code, out, err = run(capsys, "attack", "scsp", "--q", "9",
                             "--seed", str(seed))
        assert code == 0 and out.startswith("conjugator fingerprint "), err
        code, out, err = run(capsys, "attack", "linearity", "--q", "9",
                             "--seed", str(seed))
        assert code == 0 and out.startswith("prediction verified"), err


def test_oracle_commands(tmp_path, capsys):
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    elem = tmp_path / "elem.json"
    run(capsys, "gen", "--size", "40", "--seed", "7", "--pub", str(pub),
        "--sec", str(sec), "--sample", str(elem))
    code, out, _ = run(capsys, "oracle", "enum", "--sec", str(sec),
                       "--cap", "100000")
    assert code == 0 and out.startswith("order ")
    code, out, _ = run(capsys, "oracle", "solve", "--problem", "membership",
                       "--sec", str(sec), "--elem", str(elem),
                       "--cap", "100000")
    assert code == 0 and out.strip() == "yes"


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


GL23 = {"leaf": {"kind": "general-linear", "params": [2, 3]}}



def test_member_refuses_a_non_integer_degree(tmp_path, capsys):
    # "n": 2.0 used to answer yes and "n": true to load as a degree-1 matrix
    from matcrypt.instance import base_general_linear, leaf, tree_eval
    from matcrypt.serialize import matrix_to_obj
    sec = _write_json(tmp_path / "sec.json", GL23)
    obj = matrix_to_obj(tree_eval(leaf(base_general_linear(2, 3))).gens[0])
    one = dict(obj, rows=[obj["rows"][0][:1]])
    for n, mat in ((2.0, obj), (True, one)):
        elem = _write_json(tmp_path / "elem.json", dict(mat, n=n))
        code, out, err = run(capsys, "member", "--sec", sec, "--elem", elem)
        assert code == 1 and out == "", n
        assert err.startswith("error: ShapeMismatch"), n


# (the field changed, its new value) in a matrix file over GF(4); each
# float used to escape from member as AttributeError or TypeError, and each
# true to load as 1 and exit 0
TYPED_FIELDS = {
    "m-float": ("m", 1.0), "m-true": ("m", True), "p-true": ("p", True),
    "r-string": ("r", "2"), "modulus-float": ("modulus", 1.0),
    "entry-float": ("entry", 1.0), "entry-fraction": ("entry", 2.5),
    "entry-true": ("entry", True),
}


@pytest.mark.parametrize("case", sorted(TYPED_FIELDS))
def test_member_refuses_a_non_integer_field(case, tmp_path, capsys):
    pub, sec, elem = (tmp_path / f"{n}.json" for n in ("pub", "sec", "elem"))
    run(capsys, "gen", "--seed", "46", "--pub", str(pub), "--sec", str(sec),
        "--sample", str(elem))
    obj = json.loads(elem.read_text())
    summand = obj["ring"]["summands"][0]
    assert summand["r"] == 2
    field, value = TYPED_FIELDS[case]
    if field == "entry":
        obj["rows"][0][0][0][0] = value
    elif field == "modulus":
        summand["modulus"][0] = value
    else:
        summand[field] = value
    elem.write_text(json.dumps(obj))
    code, out, err = run(capsys, "member", "--sec", str(sec), "--elem", str(elem))
    assert code == 1 and out == ""
    assert err.startswith(f"error: BadInputFile: {elem} is not a matrix file "
                          "(BadInputFile: "), err
    assert f"{value!r} is not an int" in err


def test_oracle_membership_refuses_a_query_over_another_ring(tmp_path, capsys):
    # [[1, 1], [0, 1]] over Z/9 stores the same integers as over Z/3
    from matcrypt.matrix import matrix
    from matcrypt.ring import Zmod
    from matcrypt.serialize import matrix_to_obj
    sec = _write_json(tmp_path / "sec.json", GL23)
    for ring, n in ((Zmod(9), 2), (Zmod(3), 3)):
        rows = [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                for i in range(n)]
        elem = _write_json(tmp_path / "elem.json", matrix_to_obj(matrix(ring, rows)))
        for argv in (("oracle", "solve", "--problem", "membership"), ("member",)):
            code, out, err = run(capsys, *argv, "--sec", sec, "--elem", elem)
            assert code == 1 and out == "", argv
            assert err.startswith("error: ShapeMismatch"), argv
    elem = _write_json(tmp_path / "elem.json",
                       matrix_to_obj(matrix(Zmod(3), [[1, 1], [0, 1]])))
    code, out, _ = run(capsys, "oracle", "solve", "--problem", "membership",
                       "--sec", sec, "--elem", elem)
    assert code == 0 and out == "yes\n"


def test_member_reads_a_matrix_listing_summands_out_of_order(tmp_path, capsys):
    # the same generator of a Z/15 instance, its ring's summands listed 3, 5
    # as written and 5, 3 by hand
    from matcrypt.instance import base_general_linear, crt_assemble, leaf, tree_eval
    from matcrypt.serialize import matrix_to_obj
    t = crt_assemble(leaf(base_general_linear(2, 3)), leaf(base_general_linear(2, 5)))
    sec = _write_json(tmp_path / "sec.json", tree_to_obj(t))
    obj = matrix_to_obj(tree_eval(t).gens[0])
    files = [_write_json(tmp_path / "elem.json", obj)]
    obj["ring"]["summands"].reverse()
    for row in obj["rows"]:
        for e in row:
            e.reverse()
    files.append(_write_json(tmp_path / "reversed.json", obj))
    for elem in files:
        code, out, err = run(capsys, "member", "--sec", sec, "--elem", elem)
        assert (code, out, err) == (0, "yes\n", ""), elem


def test_rings_read_from_files_are_validated(tmp_path, capsys):
    # x^2 is reducible mod 2, and 4 is no prime
    reducible = {"summands": [{"p": 2, "m": 1, "r": 2, "modulus": [0, 0, 1]}]}
    tree = {"op": {"kind": "ring-extend", "target": reducible},
            "children": [{"leaf": {"kind": "general-linear", "params": [1, 2]}}]}
    sec = _write_json(tmp_path / "sec.json", tree)
    elem = _write_json(tmp_path / "elem.json",
                       {"n": 1, "ring": reducible, "rows": [[[[0, 1]]]]})
    for argv in (("member", "--sec", sec, "--elem", elem),
                 ("oracle", "enum", "--sec", sec)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ReducibleModulus"), argv
    sec = _write_json(tmp_path / "sec.json", GL23)
    elem = _write_json(tmp_path / "elem.json", {
        "n": 1, "ring": {"summands": [{"p": 4, "m": 1, "r": 1, "modulus": [0, 1]}]},
        "rows": [[[[1]]]]})
    code, out, err = run(capsys, "member", "--sec", sec, "--elem", elem)
    assert code == 1 and out == ""
    assert err.startswith("error: NonPrimeP")


def test_transporter_and_oracle_verdicts(tmp_path, capsys):
    # both verdicts of `ltp` and of `oracle solve --problem ltp|conjugacy`
    from matcrypt.instance import base_diagonal, leaf, tree_eval, wreath_imprimitive
    from matcrypt.matrix import identity, mat_inv, mat_mul
    from matcrypt.serialize import dumps, matrix_to_obj, vector_to_obj
    t = wreath_imprimitive(leaf(base_diagonal(1, 7, gen=(2,))), 2)
    inst = tree_eval(t)
    ring = inst.ring

    def write(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(obj))
        return str(path)

    def vec(name, xs):
        return write(name, vector_to_obj(ring, tuple(ring.from_int(x) for x in xs)))
    sec = write("sec", tree_to_obj(t))
    u, v, zero = vec("u", [1, 3]), vec("v", [6, 2]), vec("zero", [0, 0])
    f, h = inst.gens[0], inst.gens[-1]
    assert f != identity(2, ring)
    f_file = write("f", matrix_to_obj(f))
    g_file = write("g", matrix_to_obj(mat_mul(mat_mul(mat_inv(h), f), h)))
    one_file = write("one", matrix_to_obj(identity(2, ring)))
    code, out, _ = run(capsys, "ltp", "--sec", sec, "--u", u, "--v", zero)
    assert (code, out) == (0, "no-solution (certified)\n")
    code, out, _ = run(capsys, "ltp", "--sec", sec, "--u", u, "--v", v)
    assert code == 0 and out.startswith("transporter fingerprint ")
    for problem, files, want in (
            ("ltp", ("--u", u, "--v", v), "solvable"),
            ("ltp", ("--u", u, "--v", zero), "no-solution (certified)"),
            ("conjugacy", ("--f", f_file, "--g", g_file), "conjugate"),
            ("conjugacy", ("--f", f_file, "--g", one_file), "not-conjugate")):
        code, out, _ = run(capsys, "oracle", "solve", "--problem", problem,
                           "--sec", sec, "--cap", "1000", *files)
        assert (code, out) == (0, want + "\n"), (problem, files)


def test_oracle_ltp_refuses_malformed_vectors(tmp_path, capsys):
    # a v over GF(7) against GL(2, 5), or of length 3, is an input error
    from matcrypt.ring import field
    from matcrypt.serialize import vector_to_obj
    sec = _write_json(tmp_path / "sec.json",
                      {"leaf": {"kind": "general-linear", "params": [2, 5]}})

    def vec(name, q, xs):
        ring = field(q)
        return _write_json(tmp_path / f"{name}.json", vector_to_obj(
            ring, tuple(ring.from_int(x) for x in xs)))
    u = vec("u", 5, [1, 0])
    for v, error in ((vec("v7", 7, [1, 0]), "RingMismatch"),
                     (vec("v3", 5, [1, 0, 0]), "ShapeMismatch")):
        code, out, err = run(capsys, "oracle", "solve", "--problem", "ltp",
                             "--sec", sec, "--u", u, "--v", v)
        assert (code, out) == (1, ""), v
        assert err.startswith(f"error: {error}"), err
    code, out, _ = run(capsys, "oracle", "solve", "--problem", "ltp",
                       "--sec", sec, "--u", u, "--v", vec("v", 5, [0, 1]))
    assert (code, out) == (0, "solvable\n")


def test_domain_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "member", "--sec", str(tmp_path / "no.json"),
                       "--elem", str(tmp_path / "no2.json"))
    assert code == 1


@pytest.fixture
def hom_files(tmp_path, capsys):
    """A klein4 key pair, a ciphertext under it and a truncated copy of the
    public key."""
    f = {n: str(tmp_path / f"{n}.json") for n in ("hpub", "hsec", "cipher", "trunc")}
    run(capsys, "hom", "keygen", "--preset", "klein4", "--seed", "3",
        "--pub", f["hpub"], "--sec", f["hsec"])
    run(capsys, "hom", "encrypt", "--pub", f["hpub"], "--message", "1",
        "--seed", "1", "--pad-length", "1", "--out", f["cipher"])
    with open(f["hpub"]) as src, open(f["trunc"], "w") as dst:
        dst.write(src.read()[:20])
    f["out"] = str(tmp_path / "out.json")
    return f


# each used to escape as a traceback (ValueError, IndexError) or to exit 0
BAD_ARGUMENTS = {
    "message-not-letters": ("hom", "encrypt", "--pub", "{hpub}", "--message", "1,x",
                            "--out", "{out}"),
    "negative-pad-length": ("hom", "encrypt", "--pub", "{hpub}", "--message", "1",
                            "--pad-length", "-1", "--out", "{out}"),
    "scsp-degree-zero": ("attack", "scsp", "--n", "0"),
    "negative-coset-bound": ("attack", "coset", "--pub", "{hpub}", "--cipher",
                             "{cipher}", "--bound", "-2"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_are_usage_errors(case, hom_files, capsys):
    argv = [a.format(**hom_files) for a in BAD_ARGUMENTS[case]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: argument --" in err


# (argv, the file named, the failure it reports); each used to escape as
# KeyError or JSONDecodeError
WRONG_FILES = {
    "member-sec-is-hom-public-key": (("member", "--sec", "{hpub}", "--elem", "{cipher}"),
                                     "hpub", "KeyError: 'op'"),
    "hom-decrypt-sec-is-hom-public-key": (("hom", "decrypt", "--sec", "{hpub}",
                                           "--cipher", "{cipher}"),
                                          "hpub", "KeyError: 'sigma'"),
    "coset-pub-is-hom-secret-key": (("attack", "coset", "--pub", "{hsec}",
                                     "--cipher", "{cipher}"),
                                    "hsec", "KeyError: 'x_words'"),
    "coset-cipher-is-hom-public-key": (("attack", "coset", "--pub", "{hpub}",
                                        "--cipher", "{hpub}"),
                                       "hpub", "TypeError"),
    "truncated-json": (("hom", "encrypt", "--pub", "{trunc}", "--message", "1",
                        "--out", "{out}"),
                       "trunc", "JSONDecodeError"),
}


@pytest.mark.parametrize("case", sorted(WRONG_FILES))
def test_wrong_input_files_exit_one(case, hom_files, capsys):
    argv, name, failure = WRONG_FILES[case]
    code, out, err = run(capsys, *[a.format(**hom_files) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith(f"error: BadInputFile: {hom_files[name]} is not a "), err
    assert failure in err


@pytest.mark.parametrize("letter", ["a", True, 1.0], ids=["string", "true", "float"])
def test_hom_key_with_a_non_integer_letter_exits_one(letter, hom_files, capsys):
    # a string letter used to escape from hom encrypt as a raw TypeError, and
    # true or 1.0, equal to the letter 1, used to encrypt and exit 0
    raw = json.loads(Path(hom_files["hpub"]).read_text())
    raw["x_words"][0][0] = letter
    Path(hom_files["hpub"]).write_text(json.dumps(raw))
    for argv in (("hom", "encrypt", "--pub", "{hpub}", "--message", "1",
                  "--seed", "1", "--out", "{out}"),
                 ("attack", "coset", "--pub", "{hpub}", "--cipher", "{cipher}")):
        code, out, err = run(capsys, *[a.format(**hom_files) for a in argv])
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: BadInputFile: {hom_files['hpub']} is not a "
                              "hom public key file (TypeError: "), err


def test_ciphertext_with_a_true_letter_exits_one(hom_files, capsys):
    cipher = json.loads(Path(hom_files["cipher"]).read_text())
    cipher[0] = True
    Path(hom_files["cipher"]).write_text(json.dumps(cipher))
    for argv in (("hom", "decrypt", "--sec", "{hsec}", "--cipher", "{cipher}"),
                 ("attack", "coset", "--pub", "{hpub}", "--cipher", "{cipher}")):
        code, out, err = run(capsys, *[a.format(**hom_files) for a in argv])
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: BadInputFile: {hom_files['cipher']} is not a "
                              "ciphertext file (TypeError: "), err


def test_every_written_file_reparses_canonically(tmp_path, capsys):
    from matcrypt.serialize import dumps
    files = {
        "pub": tmp_path / "pub.json", "sec": tmp_path / "sec.json",
        "elem": tmp_path / "elem.json", "wit": tmp_path / "wit.json",
        "tr": tmp_path / "tr.json", "hpub": tmp_path / "hp.json",
        "hsec": tmp_path / "hs.json", "cipher": tmp_path / "c.json",
    }
    run(capsys, "gen", "--size", "45", "--seed", "5", "--pub",
        str(files["pub"]), "--sec", str(files["sec"]),
        "--sample", str(files["elem"]))
    run(capsys, "member", "--sec", str(files["sec"]),
        "--elem", str(files["elem"]), "--witness", str(files["wit"]))
    run(capsys, "aag", "--seed", "2", "--size", "30",
        "--transcript", str(files["tr"]))
    run(capsys, "hom", "keygen", "--preset", "d4", "--seed", "2",
        "--pub", str(files["hpub"]), "--sec", str(files["hsec"]))
    run(capsys, "hom", "encrypt", "--pub", str(files["hpub"]),
        "--message", "2,-1", "--seed", "3", "--out", str(files["cipher"]))
    for name, path in files.items():
        raw = path.read_text()
        assert dumps(json.loads(raw)) == raw, name


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_protocol_transcripts_pinned(tmp_path, capsys):
    # mparty seed 4 is an instance with non-commuting generators
    tr = tmp_path / "mp.json"
    code, out, _ = run(capsys, "mparty", "--seed", "4", "--parties", "5",
                       "--size", "40", "--transcript", str(tr))
    assert code == 0
    assert out.splitlines()[0] == ("key fingerprint 1f447497229ed765966388a9d9"
                                   "a72ec9aa038a2efac9a97f2c1946181e67f5d2")
    assert _sha256(tr) == ("b3ef398476d14405a5b0c49282eccb0b2f47cdfb1113e606"
                           "9f18bc5f2a9fa2e7")
    tr = tmp_path / "aag.json"
    code, out, _ = run(capsys, "aag", "--seed", "4", "--size", "30",
                       "--transcript", str(tr))
    assert code == 0
    assert out.strip() == ("key fingerprint cc32bcc2da5e9df40377eed38c129b44"
                           "d6955c8bcf2cf2b86e8ba2e00492a098")
    assert _sha256(tr) == ("03f58726cffc2d27dbb51758eadd37cf234aab89a3340ec6"
                           "0b80414183ef8959")


def test_mparty_op_counts_pinned(capsys):
    # the exact per-party operation counts of the incremental key schedule
    code, out, _ = run(capsys, "mparty", "--seed", "4", "--parties", "5",
                       "--size", "40")
    assert code == 0
    assert out.splitlines()[1] == (
        'op counts [{"compute":45,"answer":53},{"compute":57,"answer":11},'
        '{"compute":12,"answer":31},{"compute":31,"answer":82},'
        '{"compute":5,"answer":11}]')


def test_protocol_key_mismatch_exits_one(capsys, monkeypatch):
    from matcrypt import protocol
    from matcrypt.matrix import identity, matrix
    from matcrypt.ring import Zmod
    z5 = Zmod(5)
    one, other = identity(2, z5), matrix(z5, [[1, 1], [0, 1]])
    monkeypatch.setattr(protocol, "aag_run",
                        lambda cfg: (one, other, protocol.Transcript()))
    monkeypatch.setattr(protocol, "multiparty_run",
                        lambda s, configs, seed: ([one] * (s - 1) + [other],
                                                  protocol.Transcript(), []))
    for argv in (("aag", "--seed", "4", "--size", "30"),
                 ("mparty", "--seed", "4", "--parties", "3", "--size", "30")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: KeyMismatch"), argv


def test_bad_leaf_parameters_exit_one(tmp_path, capsys):
    # unipotent-cyclic over GF(4) would accept [[1, x], [0, 1]], which is not
    # in the order-2 group its generator makes; "trivial" was an internal kind
    from matcrypt.matrix import Matrix
    from matcrypt.ring import field
    from matcrypt.serialize import matrix_to_obj
    gf4 = field(4)
    one, zero, x = gf4.one(), gf4.zero(), gf4.element([(0, 1)])
    elem, sec = tmp_path / "elem.json", tmp_path / "sec.json"
    elem.write_text(json.dumps(matrix_to_obj(Matrix(2, gf4, ((one, x), (zero, one))))))
    for raw in ({"kind": "unipotent-cyclic", "params": [4]},
                {"kind": "general-linear", "params": ["a", 3]},
                {"kind": "general-linear", "params": [2]},
                {"kind": "diagonal-cyclic", "params": [1, 4, [1]]},
                {"kind": "trivial", "params": [2, 4]}):
        sec.write_text(json.dumps({"leaf": raw}))
        code, out, err = run(capsys, "member", "--sec", str(sec), "--elem", str(elem))
        assert code == 1, raw
        assert out == "" and err.startswith("error: TreeTypeError"), raw


def test_bad_operation_labels_exit_one(tmp_path, capsys):
    # a string wreath arity used to escape as TypeError from the comparison
    pub, sec, elem = (tmp_path / f"{n}.json" for n in ("pub", "sec", "elem"))
    run(capsys, "gen", "--size", "60", "--seed", "5", "--pub", str(pub),
        "--sec", str(sec), "--sample", str(elem))
    tree = json.loads(sec.read_text())
    assert tree["op"] == {"kind": "wreath-imprimitive", "m": 2}
    gl = {"leaf": {"kind": "general-linear", "params": [1, 4]}}
    bad = [dict(tree, op={"kind": "wreath-imprimitive", "m": "2"}),
           dict(tree, op={"kind": "wreath-imprimitive", "m": True}),
           {"op": {"kind": "ring-rep", "d": "2"}, "children": [gl]},
           {"op": {"kind": "ring-rep", "d": 2.0}, "children": [gl]},
           {"op": {"kind": "conjugate", "seed": "5"}, "children": [gl]},
           {"op": {"kind": "conjugate", "seed": False}, "children": [gl]},
           {"leaf": {"kind": "general-linear", "params": [2.0, 3]}}]
    # the well-typed trees these equal are evaluated first: a bad label or
    # parameter must not be answered from their cache entries
    for raw in ({"op": {"kind": "ring-rep", "d": 2}, "children": [gl]},
                {"op": {"kind": "conjugate", "seed": 0}, "children": [gl]},
                {"leaf": {"kind": "general-linear", "params": [2, 3]}}):
        sec.write_text(json.dumps(raw))
        _code, _out, err = run(capsys, "member", "--sec", str(sec), "--elem", str(elem))
        assert "TreeTypeError" not in err, raw
    for raw in bad:
        sec.write_text(json.dumps(raw))
        code, out, err = run(capsys, "member", "--sec", str(sec), "--elem", str(elem))
        assert code == 1, raw
        assert out == "" and err.startswith("error: TreeTypeError"), raw


@pytest.mark.parametrize("problem, given, missing", [
    ("membership", (), "--elem"),
    ("ltp", (), "--u, --v"),
    ("ltp", ("--u",), "--v"),
    ("conjugacy", (), "--f, --g"),
])
def test_oracle_solve_reports_missing_files_as_usage_errors(problem, given, missing,
                                                            tmp_path, capsys):
    # each used to escape as TypeError from open(None)
    sec = tmp_path / "sec.json"
    run(capsys, "gen", "--size", "40", "--seed", "7", "--pub", str(tmp_path / "pub.json"),
        "--sec", str(sec))
    argv = ["oracle", "solve", "--problem", problem, "--sec", str(sec)]
    for option in given:
        argv += [option, str(sec)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: matcrypt oracle solve "), err
    assert err.endswith(f"matcrypt oracle solve: error: --problem {problem} "
                        f"requires {missing}\n"), err


@pytest.mark.parametrize("argv", [
    ("member", "--sec", "{dir}", "--elem", "{dir}"),
    ("oracle", "solve", "--problem", "membership", "--sec", "{dir}", "--elem", "{dir}"),
    ("hom", "encrypt", "--pub", "{dir}", "--message", "1", "--out", "{dir}"),
], ids=lambda argv: " ".join(argv[:2]))
def test_unreadable_input_files_exit_one(argv, tmp_path, capsys):
    # a directory given as an input file used to escape as IsADirectoryError
    code, out, err = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err, err


def test_gdh_dh_mode_needs_a_prime_of_at_least_five(capsys):
    # p = 3 used to escape as ValueError, p = 4 printed a key from Z_4^*
    for p in ("1", "3", "4", "9", "-7"):
        code, out, err = run(capsys, "gdh", "--mode", "dh", "--p", p)
        assert code == 2 and out == "", p
        assert err.endswith("matcrypt gdh: error: --mode dh needs a prime --p of "
                            f"at least 5, got {p}\n"), err
    code, out, _ = run(capsys, "gdh", "--mode", "dh", "--p", "5")
    assert code == 0 and out.startswith("key ")
    # matrix mode takes Z/p for any p whose generators stay invertible
    code, out, _ = run(capsys, "gdh", "--mode", "matrix", "--p", "25")
    assert code == 0 and out.startswith("key fingerprint ")


def test_gdh_matrix_mode_needs_p_prime_to_six(capsys):
    # the generators' determinants 2 and 3 were not units: p = 4 and 9 exited
    # 1 with NonInvertible, p = 1 with NonPrimeP
    for p in ("1", "0", "-5", "2", "3", "4", "9", "12"):
        code, out, err = run(capsys, "gdh", "--mode", "matrix", "--p", p)
        assert code == 2 and out == "", p
        assert err.endswith("matcrypt gdh: error: --mode matrix needs a --p "
                            f"above 1 and prime to 6, got {p}\n"), err


# --- the parser against the full tree it replaced ---------------------------

ROOT = Path(__file__).resolve().parent.parent


def _readme_examples():
    text = (ROOT / "README.md").read_text()
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("matcrypt ")]


def _parser_cases():
    examples = _readme_examples()
    names = {"hpub": "hp.json", "cipher": "c.json", "out": "o.json"}
    cases = examples + [argv + [extra] for argv in examples for extra in ("zzz", "--zzz")]
    cases += [[a.format(**names) for a in argv] for argv in BAD_ARGUMENTS.values()]
    cases += [[], ["-h"], ["--help"], ["nonsense"], ["ge"], ["--zzz", "gen"],
              ["hom", "nope"], ["attack", "sc"], ["oracle", "x"], ["gen", "gen"],
              ["gen"], ["hom", "encrypt"], ["gdh", "--mode", "x"],
              ["hom", "keygen", "--preset", "x", "--pub", "a", "--sec", "b"],
              ["hom", "-h", "keygen"], ["attack", "coset", "-h", "zzz"],
              ["hom", "encrypt", "--pub", "a", "--message", "-2,1", "--out", "b"]]
    for name, (_, body) in COMMANDS.items():
        cases += [[name, "-h"], [name, "--zzz"]]
        if body and not next(iter(body)).startswith("-"):
            cases += [[name], [name, "zzz"]] + [[name, sub, "-h"] for sub in body]
    return cases


def _parse(build, argv, capsys):
    """vars() of the namespace, or the exit code, with what was printed."""
    try:
        result = vars(build(argv).parse_args(argv))
    except SystemExit as e:
        result = e.code
    out = capsys.readouterr()
    return result, out.out, out.err


def test_readme_examples_are_found():
    assert len(_readme_examples()) >= 14


@pytest.mark.parametrize("argv", _parser_cases(), ids=" ".join)
def test_parser_matches_the_full_tree(argv, capsys):
    from cli_reference import build_parser as reference
    want = _parse(lambda argv: reference(), argv, capsys)
    got = _parse(lambda argv: build_parser(argv)[0], argv, capsys)
    assert got == want


@pytest.mark.parametrize("argv, most", [
    (("member", "--sec", "no.json", "--elem", "no.json"), 2),
    (("version",), 2),
    (("hom", "decrypt", "--sec", "no.json", "--cipher", "no.json"), 3),
    (("attack", "coset", "--pub", "no.json", "--cipher", "no.json"), 3),
    (("oracle", "enum", "--sec", "no.json"), 3),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, tuple) else str(v))
def test_a_command_builds_only_its_own_parsers(argv, most, tmp_path, capsys,
                                                monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) in (0, 1)
    capsys.readouterr()
    assert 0 < len(made) <= most, made


def test_module_entry_point():
    from matcrypt import __version__
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-m", "matcrypt.cli", "version"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout == f"{__version__}\n", res.stderr
    res = subprocess.run([sys.executable, "-O", "-m", "matcrypt.cli"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2 and res.stdout == ""
    assert "error: the following arguments are required: cmd" in res.stderr
