"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance and count is pinned here; a criterion either
passes at its stated threshold or the suite is red.
"""

import json
import warnings

from conftest import rand_invertible, rand_matrix
from matcrypt.analysis import (
    INCONCLUSIVE,
    enumerate_group,
    linearity_attack,
    scsp_linear_attack,
)
from matcrypt.errors import (
    AttackFailure,
    CapExceeded,
    InsecurityWarning,
    NoSolutionSpace,
)
from matcrypt.homcrypt import (
    dihedral4,
    hc_decrypt,
    hc_encrypt,
    hc_keygen,
    klein_four,
    sym3,
)
from matcrypt.instance import (
    base_diagonal,
    base_general_linear,
    base_unipotent,
    direct_same_degree,
    leaf,
    subgroup_sample,
    tree_eval,
    tree_random,
    wreath_imprimitive,
)
from matcrypt.matrix import (
    imprimitive_rep,
    int_rows,
    is_invertible,
    mat_inv,
    mat_mul,
    matrix,
    product_rep,
    vector,
    vector_act,
)
from matcrypt.protocol import (
    AagConfig,
    GdhConfig,
    MatrixAction,
    PowerAction,
    aag_run,
    gdh_run,
    multiparty_run,
)
from matcrypt.ring import (
    RingAutomorphism,
    Zmod,
    all_automorphisms,
    field,
    frobenius_apply,
    galois_ring,
    teichmuller_decompose,
    teichmuller_recompose,
)
from matcrypt.rng import Rng
from matcrypt.trapdoor import (
    NoSolution,
    ltp_solve,
    membership,
    product_split_candidates,
    sample_transportable_vector,
    wreath_split,
)
from matcrypt.words import FreeWord, build_solvable_pair, fw_mul

MULTIPARTY_COST_CONSTANT = 8  # compute-side group operations per party


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: PASS - {text}")


def rand_word(rng: Rng, n_gens: int, lo: int = 1, hi: int = 6) -> list:
    return [(g if rng.chance(0.5) else -g)
            for g in (rng.randint(1, n_gens) for _ in range(rng.randint(lo, hi)))]


def test_criterion_01_word_length_law():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsecurityWarning)
        for n in range(1, 7):
            pair = build_solvable_pair(n)
            assert len(pair.wa) == 2 * 4 ** (n - 1), n
            assert len(pair.wb) == 2 * 4 ** (n - 1), n
    report(1, "letter counts equal 2*4^(n-1) exactly for n = 1..6")


def test_criterion_02_protocol_agreement():
    degenerate = 0
    # 200 random AAG instances
    for seed in range(200):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            t = tree_random(40, seed, max_degree=8, max_ring=3000)
            gens_a, gens_b = subgroup_sample(t, seed * 3 + 1)
            rng = Rng(seed * 7 + 5)
            cfg = AagConfig(gens_a, gens_b, rand_word(rng, len(gens_a)),
                            rand_word(rng, len(gens_b)))
            key_a, key_b, _ = aag_run(cfg)
        assert key_a == key_b, f"aag seed {seed}"
        if key_a.is_identity():
            degenerate += 1
            assert any(isinstance(w.message, InsecurityWarning) for w in log)
    assert degenerate > 0  # the warning path was exercised
    # 50 multi-party runs each for s in {2, 4, 8}, over random instances
    z7 = Zmod(7)
    fixed_gens = [matrix(z7, [[1, 1], [0, 1]]), matrix(z7, [[1, 0], [1, 1]]),
                  matrix(z7, [[3, 0], [0, 1]])]
    mp_ops = []
    for s in (2, 4, 8):
        for run in range(50):
            rng = Rng(s * 1000 + run)
            if run % 2 == 0:
                gens = fixed_gens
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    t = tree_random(35, s * 100 + run, max_degree=8,
                                    max_ring=3000)
                    ga, gb = subgroup_sample(t, run)
                gens = ga + gb
            configs = [(gens, rand_word(rng, len(gens))) for _ in range(s)]
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                keys, _, ops = multiparty_run(s, configs, seed=run)
            assert all(k == keys[0] for k in keys), f"mparty s={s} run {run}"
            if keys[0].is_identity():
                assert any(isinstance(w.message, InsecurityWarning)
                           for w in log)
            mp_ops.append((s, configs, ops))
    test_criterion_02_protocol_agreement.mp_ops = mp_ops
    # 100 gdh runs on metabelian (upper-triangular) instances over varied primes
    pair = build_solvable_pair(2)
    for run in range(100):
        rng = Rng(run + 999)
        zp = Zmod((5, 7, 11)[run % 3])
        p = (5, 7, 11)[run % 3]
        mgens = []
        while len(mgens) < 2:
            cand = matrix(zp, [[1 + rng.below(p - 1), rng.below(p)],
                               [0, 1 + rng.below(p - 1)]])
            if is_invertible(cand):
                mgens.append(cand)
        act = MatrixAction(mgens, mgens, vector(zp, [1, 2]))
        cfg = GdhConfig(act, pair, rand_word(rng, 2), rand_word(rng, 2))
        key_a, key_b, _ = gdh_run(cfg)
        assert act.key_of(key_a) == act.key_of(key_b), f"gdh run {run}"
    report(2, "200 aag + 150 multi-party + 100 gdh runs all bit-identical; "
              f"{degenerate} degenerate runs warned")


def test_criterion_03_multiparty_cost():
    mp_ops = getattr(test_criterion_02_protocol_agreement, "mp_ops", None)
    if mp_ops is None:
        test_criterion_02_protocol_agreement()
        mp_ops = test_criterion_02_protocol_agreement.mp_ops
    worst = 0.0
    for s, configs, ops in mp_ops:
        for (gens, word), op in zip(configs, ops):
            ratio = op["compute"] / (s * len(word))
            worst = max(worst, ratio)
            assert op["compute"] <= MULTIPARTY_COST_CONSTANT * s * len(word)
    report(3, f"compute ops <= {MULTIPARTY_COST_CONSTANT}*s*|a_i| on every "
              f"run (worst ratio {worst:.2f})")


def test_criterion_04_dh_embedding():
    p = 101
    pair = build_solvable_pair(1)
    rng = Rng(404)
    from math import gcd
    for run in range(50):
        x0 = 2 + rng.below(p - 3)
        while True:
            a = 1 + rng.below(p - 2)
            if gcd(a, p - 1) == 1:
                break
        while True:
            b = 1 + rng.below(p - 2)
            if gcd(b, p - 1) == 1:
                break
        act = PowerAction(p, x0)
        key_a, key_b, _ = gdh_run(GdhConfig(act, pair, a, b))
        # independent modular-exponentiation oracle
        assert key_a == key_b == pow(x0, (a * b) % (p - 1), p), f"run {run}"
    report(4, "gdh over Z_101^* reproduces Diffie-Hellman keys on 50 runs")


def test_criterion_05_homomorphic_correctness():
    fixtures = [("klein4", klein_four()), ("s3", sym3()), ("d4", dihedral4())]
    for name, pres in fixtures:
        pk, sk = hc_keygen(pres, 2024)
        rng = Rng(hash(name) & 0xFFFF)
        for run in range(500):
            letters = [(g if rng.chance(0.5) else -g)
                       for g in (rng.randint(1, pres.k)
                                 for _ in range(rng.randint(1, 20)))]
            msg = FreeWord(pres.k, tuple(letters))
            cipher = hc_encrypt(pk, msg, rng.below(1 << 31))
            plain = hc_decrypt(sk, cipher)
            assert pres.model.eval_key(plain) == pres.model.eval_key(msg), \
                (name, run)
        for run in range(100):
            m1 = FreeWord(pres.k, tuple(rand_word(rng, pres.k, 1, 8)))
            m2 = FreeWord(pres.k, tuple(rand_word(rng, pres.k, 1, 8)))
            c1 = hc_encrypt(pk, m1, rng.below(1 << 31))
            c2 = hc_encrypt(pk, m2, rng.below(1 << 31))
            assert pres.model.eval_key(hc_decrypt(sk, fw_mul(c1, c2))) == \
                pres.model.eval_key(fw_mul(m1, m2)), (name, run)
    report(5, "D(E(M)) = M (3 x 500 messages) and D(E(M1)E(M2)) = M1M2 "
              "(3 x 100 pairs), zero failures")


def test_criterion_06_trapdoor_vs_oracle():
    rng = Rng(606)
    trees = 0
    seed = 0
    membership_queries = 0
    ltp_queries = 0
    while trees < 100:
        seed += 1
        t = tree_random(45, seed, max_degree=9, max_ring=4000)
        inst = tree_eval(t)
        try:
            enum = enumerate_group(list(inst.gens), 2500)
        except CapExceeded:
            continue
        assert len(enum) <= 100000
        trees += 1
        elems = list(enum.matrices())
        # 100 membership queries: half members, half random matrices
        for qi in range(100):
            if qi % 2 == 0:
                g = elems[rng.below(len(elems))]
            else:
                g = rand_matrix(inst.ring, inst.n, rng)
            assert membership(t, g).accepted == enum.contains(g), \
                f"membership seed {seed} query {qi}"
            membership_queries += 1
        # 100 ltp queries over 10 base points: half transported, half random
        for _ in range(10):
            u = sample_transportable_vector(t, rng)
            orbit = {vector_act(u, g) for g in elems}
            for qi in range(10):
                if qi % 2 == 0:
                    v = vector_act(u, elems[rng.below(len(elems))])
                else:
                    v = sample_transportable_vector(t, rng)
                want = v in orbit
                got = ltp_solve(t, u, v)
                if isinstance(got, NoSolution):
                    assert not want, f"ltp false negative seed {seed}"
                else:
                    assert want, f"ltp false positive seed {seed}"
                    assert vector_act(u, got) == tuple(v)
                    assert membership(t, got).accepted
                ltp_queries += 1
    report(6, f"100 trees: {membership_queries} membership and {ltp_queries} "
              "transporter queries agree with exhaustive oracles")


def test_criterion_07_wreath_inversion():
    rng = Rng(707)
    z5 = Zmod(5)
    from matcrypt.ring import ring_inv
    checked = 0
    for sample in range(1000):
        m = 2 if sample % 2 == 0 else 3
        n = 2
        hs = [rand_invertible(z5, n, rng) for _ in range(m)]
        k = tuple(rng.shuffle(list(range(m))))
        # imprimitive: exact round trip
        w = imprimitive_rep(hs, k)
        hs2, k2 = wreath_split(w, n, m)
        assert list(hs2) == hs and k2 == k, f"imprimitive sample {sample}"
        # product: round trip on the unit-normalized coordinate tuple
        hs_n = list(hs)
        for i in range(1, m):
            u = next(e for row in hs_n[i].rows for e in row if e.is_unit())
            uinv = ring_inv(u)
            hs_n[i] = matrix(z5, [[e * uinv for e in row]
                                  for row in hs_n[i].rows])
            hs_n[0] = matrix(z5, [[e * u for e in row]
                                  for row in hs_n[0].rows])
        wp = product_rep(hs_n, k)
        hs3, k3 = next(product_split_candidates(wp, n, m))
        assert product_rep(hs3, k3) == wp
        assert list(hs3) == hs_n and k3 == k, f"product sample {sample}"
        checked += 1
    assert checked == 1000
    # the worked transporter example over Z_7
    t = wreath_imprimitive(leaf(base_diagonal(1, 7, gen=(2,))), 2)
    z7 = Zmod(7)
    u, v = vector(z7, [1, 3]), vector(z7, [6, 2])
    g = ltp_solve(t, u, v)
    assert int_rows(g) == [[0, 2], [2, 0]]
    assert vector_act(u, g) == v and membership(t, g).accepted
    report(7, "1000 wreath split/rebuild round trips in both modes; "
              "the Z_7 transporter example verifies")


def test_criterion_08_galois_ring_algebra():
    rings = [Zmod(4), Zmod(9), galois_ring(2, 2, 2, (1, 1, 1)),
             galois_ring(2, 3, 2), field(8)]
    for ring in rings:
        elems = list(ring.enumerate())
        for a in elems:
            digits = teichmuller_decompose(a)
            for g, ds in zip(ring.summands, digits):
                sub = galois_ring(g.p, g.m, g.r, g.modulus)
                for t_ in ds:
                    el = sub.element([t_])
                    assert el.pow(g.p ** g.r) == el  # digit in T u {0}
            assert teichmuller_recompose(ring, digits) == a
        for aut in all_automorphisms(ring):
            images = set()
            for a in elems:
                images.add(frobenius_apply(aut, a).coeffs)
            assert len(images) == len(elems)
            for a in elems:
                for b in elems:
                    assert frobenius_apply(aut, a * b) == \
                        frobenius_apply(aut, a) * frobenius_apply(aut, b)
                    assert frobenius_apply(aut, a + b) == \
                        frobenius_apply(aut, a) + frobenius_apply(aut, b)
            g = ring.summands[0]
            comp = aut
            for _ in range(g.r - 1):
                comp = comp.compose(aut)
            # r-fold composition per summand is the identity
            rfold = RingAutomorphism(ring, tuple(
                (e * gs.r) % gs.r for e, gs in
                zip(aut.exponents, ring.summands)))
            assert rfold.is_identity()
    report(8, "Teichmuller and Frobenius laws exhaustive on Z_4, Z_9, "
              "GR(4,2), GR(8,2), GF(8)")


def test_criterion_09_scsp_attack():
    total, success = 0, 0
    for q in (17, 31):
        ring = Zmod(q)
        gens = [matrix(ring, [[1, 1], [0, 1]]), matrix(ring, [[1, 0], [1, 1]]),
                matrix(ring, [[3, 0], [0, 1]])]  # generates GL(2, q)
        rng = Rng(q * 13)
        for run in range(50):
            g = rand_invertible(ring, 2, rng)
            h = rand_invertible(ring, 2, rng)
            f = mat_mul(mat_mul(mat_inv(h), g), h)
            total += 1
            try:
                rep = scsp_linear_attack(2, q, gens, f, g, seed=run)
            except (AttackFailure, NoSolutionSpace):
                continue
            assert mat_mul(mat_mul(mat_inv(rep.h), g), rep.h) == f
            success += 1
    assert total == 100
    assert success >= 90, f"success {success}/100"
    # the n < q/2 warning gates small-q runs
    z3 = Zmod(3)
    gens3 = [matrix(z3, [[1, 1], [0, 1]]), matrix(z3, [[1, 0], [1, 1]])]
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            scsp_linear_attack(2, 3, gens3, matrix(z3, [[1, 1], [0, 1]]),
                               matrix(z3, [[1, 2], [0, 1]]), seed=1)
        except AttackFailure:
            pass
    assert any(isinstance(w.message, InsecurityWarning) for w in log)
    report(9, f"verified conjugators on {success}/100 GL(2,q) instances "
              "(threshold 90); small-q warning gates")


def test_criterion_10_factoring_instance():
    t = direct_same_degree(leaf(base_unipotent(3)), leaf(base_unipotent(5)))
    inst = tree_eval(t)
    assert [int_rows(g) for g in inst.gens] == \
        [[[1, 10], [0, 1]], [[1, 6], [0, 1]]]
    enum = enumerate_group(list(inst.gens), 100)
    assert len(enum) == 15
    one, zero = inst.ring.one(), inst.ring.zero()
    for m in enum.matrices():
        assert m.rows[0][0] == one and m.rows[1][1] == one \
            and m.rows[1][0] == zero
    report(10, "the two-leaf Z_15 tree gives exactly 15 unipotent elements "
               "with generators [[1,10],[0,1]] and [[1,6],[0,1]]")


def test_criterion_11_linearity_attack():
    from matcrypt.instance import hom_apply, hom_build
    z5 = Zmod(5)
    gens = [matrix(z5, [[1, 1], [0, 1]]), matrix(z5, [[1, 0], [1, 1]]),
            matrix(z5, [[2, 0], [0, 1]])]
    rng = Rng(111)
    c = rand_invertible(z5, 2, rng)
    cinv = mat_inv(c)
    images = [mat_mul(mat_mul(cinv, g), c) for g in gens]
    for run in range(100):
        q = rand_invertible(z5, 2, rng)
        rep = linearity_attack(gens, images, q)
        assert rep.prediction != INCONCLUSIVE
        assert rep.prediction == mat_mul(mat_mul(cinv, q), c), f"run {run}"
    # Frobenius-twisted homomorphism over GF(4): a verified counterexample
    tgl = leaf(base_general_linear(1, 4))
    hom = hom_build(tgl, [("frob", 1)])
    inst = tree_eval(tgl)
    gf4 = field(4)
    found = False
    for a in gf4.enumerate():
        if a.is_zero():
            continue
        q = matrix(gf4, [[a]])
        rep = linearity_attack(list(inst.gens), list(hom.gen_images), q)
        truth = hom_apply(hom, q)
        if rep.prediction == INCONCLUSIVE or rep.prediction != truth:
            found = True
            break
    assert found
    report(11, "conjugation predictions exact on 100 queries; Frobenius "
               "counterexample found and verified")


def test_criterion_12_determinism_and_formats(tmp_path):
    from matcrypt.cli import main
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        blobs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            files = {
                "pub": d / "pub.json", "sec": d / "sec.json",
                "elem": d / "elem.json", "hpub": d / "hp.json",
                "hsec": d / "hs.json", "cipher": d / "c.json",
                "tr": d / "tr.json",
            }
            assert main(["gen", "--size", "45", "--seed", "11",
                         "--pub", str(files["pub"]), "--sec", str(files["sec"]),
                         "--sample", str(files["elem"])]) == 0
            assert main(["hom", "keygen", "--preset", "s3", "--seed", "5",
                         "--pub", str(files["hpub"]),
                         "--sec", str(files["hsec"])]) == 0
            assert main(["hom", "encrypt", "--pub", str(files["hpub"]),
                         "--message", "1,-2,1", "--seed", "7",
                         "--out", str(files["cipher"])]) == 0
            assert main(["aag", "--seed", "4", "--size", "30",
                         "--transcript", str(files["tr"])]) == 0
            blobs.append({k: p.read_bytes() for k, p in files.items()})
        assert blobs[0] == blobs[1]
    # serialization round trips are byte-exact
    from matcrypt.cli import instance_to_obj, tree_from_obj, tree_to_obj
    from matcrypt.serialize import (dumps, matrix_from_obj, matrix_to_obj,
                                    pair_from_obj, pair_to_obj, ring_from_obj,
                                    ring_to_obj)
    for seed in range(10):
        t = tree_random(50, seed)
        blob = dumps(tree_to_obj(t))
        assert dumps(tree_to_obj(tree_from_obj(json.loads(blob)))) == blob
        inst = tree_eval(t)
        iblob = dumps(instance_to_obj(inst))
        assert dumps(instance_to_obj(tree_eval(tree_from_obj(
            json.loads(blob))))) == iblob
        rblob = dumps(ring_to_obj(inst.ring))
        assert dumps(ring_to_obj(ring_from_obj(json.loads(rblob)))) == rblob
        mblob = dumps(matrix_to_obj(inst.gens[0]))
        assert dumps(matrix_to_obj(matrix_from_obj(json.loads(mblob)))) == mblob
    pair = build_solvable_pair(2)
    pblob = dumps(pair_to_obj(pair))
    assert dumps(pair_to_obj(pair_from_obj(json.loads(pblob)))) == pblob
    report(12, "CLI pipelines byte-identical under fixed seeds; all "
               "serialization round trips byte-exact")
