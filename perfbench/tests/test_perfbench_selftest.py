"""Self-test of the benchmark at a tiny corpus size.

Each workload must finish and print every metric it owns with its unit,
planted wrong answers must be counted as failed, the ``gen`` corpus must keep
the trees on which membership is known to fail and count the misses there,
and a traced run's counts must repeat exactly at a seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from matcrypt import homcrypt, trapdoor  # noqa: E402
from matcrypt.cli import tree_to_obj  # noqa: E402
from matcrypt.matrix import Matrix  # noqa: E402
from matcrypt.words import FreeWord  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def assert_metrics(stdout, spec):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_its_end_to_end_metrics(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert_metrics(proc.stdout, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = assert_metrics(proc.stdout, SPEC["per_layer"])
    assert isinstance(result["metrics"]["trace.overhead_share"]["value"], float)


def test_per_layer_spec_matches_the_tracer():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names[:-1] == [name for name, _unit, _fn in bench_trace.PER_LAYER]
    assert names[-1] == "trace.overhead_share"


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("homcrypt", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def tiny(cls):
    return cls(3, bw.SIZES["tiny"])


def test_altered_transporter_counts_as_failed(monkeypatch):
    solve = trapdoor.ltp_solve

    def altered(t, u, v):
        g = solve(t, u, v)
        if isinstance(g, trapdoor.NoSolution):
            return g
        row0 = (g.rows[0][0] + g.ring.one(),) + g.rows[0][1:]
        return Matrix(g.n, g.ring, (row0,) + g.rows[1:])

    monkeypatch.setattr(trapdoor, "ltp_solve", altered)
    m = bw.measure(tiny(bw.Trapdoor), 1.0)
    assert m.wrong >= 1 and m.failed >= m.wrong


def test_decryption_with_a_flipped_letter_counts_as_failed(monkeypatch):
    decrypt = homcrypt.hc_decrypt

    def flipped(sk, cipher):
        plain = decrypt(sk, cipher)
        if not plain.letters:
            return plain
        x, rest = plain.letters[0], plain.letters[1:]
        other = abs(x) % plain.k + 1
        return FreeWord(plain.k, (other if x > 0 else -other,) + rest)

    monkeypatch.setattr(homcrypt, "hc_decrypt", flipped)
    m = bw.measure(tiny(bw.Homcrypt), 1.0)
    assert m.wrong >= 1 and m.failed >= m.wrong


class DefaultGenTrees(bw.Trapdoor):
    """The trapdoor workload at the default seed, cut down to ``gen`` trees
    46 and 101, where membership rejects members by construction."""

    def setup(self):
        warm = bw.setup_stream()
        self.gen = [self._prepare(bw.gen_tree(i), warm, ltp=False)
                    for i in (46, 101)]


def test_default_gen_corpus_keeps_the_membership_failure_trees():
    assert bw.SIZES["full"]["gen"] > 101
    t46 = tree_to_obj(bw.gen_tree(46))
    assert t46["op"] == {"kind": "wreath-product", "m": 2}
    tensor = t46["children"][0]
    assert tensor["op"]["kind"] == "tensor"
    assert [c.get("op", c.get("leaf"))["kind"] for c in tensor["children"]] == \
        ["ring-extend", "general-linear"]
    t101 = tree_to_obj(bw.gen_tree(101))
    assert t101["op"]["kind"] == "tensor"
    assert t101["children"][1]["leaf"] == {"kind": "general-linear",
                                           "params": [2, 4]}


def test_membership_misses_on_the_default_gen_trees_are_counted():
    m = bw.measure(DefaultGenTrees(0, bw.SIZES["full"]), 30.0, max_ops=40)
    assert m.attempted == 40
    assert m.missed_by_kind.get("membership", 0) >= 1
    assert m.failed == 0 and m.wrong == 0


def test_traced_counts_repeat_exactly_at_a_seed():
    runs = []
    for _ in range(2):
        proc = run_bench("protocol", trace=1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["matrix.mat_mul.calls"] > 0
