"""Self-test of the mutation probe on a tiny module with one planted
survivor: a constant that no test reads."""

import io

from mutants import main, probe

TINY = '''def area(w, h):
    return w * h


def is_square(w, h):
    return w == h


def margin():
    return 2
'''

TESTS = '''from tiny import area, is_square


def test_area():
    assert area(2, 3) == 6


def test_square():
    assert is_square(2, 2) and not is_square(2, 3)
'''


def test_probe_reports_the_planted_survivor(tmp_path, monkeypatch):
    (tmp_path / "tiny.py").write_text(TINY)
    (tmp_path / "test_tiny.py").write_text(TESTS)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert probe("tiny.py", ["test_tiny.py"], 10, 0, out=out) == \
        ["line 10: constant 2 -> 3"]
    assert out.getvalue().splitlines() == [
        "SURVIVED line 10: constant 2 -> 3    return 2",
        "killed 2 of 3 mutants (3 sites)"]
    # restricted to one function, only its site is tried
    assert probe("tiny.py", ["test_tiny.py"], 10, 0, "area", out=out) == []
    assert out.getvalue().splitlines()[-1] == "killed 1 of 1 mutants (1 sites)"
    # the checkout is never edited
    assert (tmp_path / "tiny.py").read_text() == TINY
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test_tiny.py", "tiny.py"]


def test_usage_error():
    assert main(["only-one-argument"]) == 2
