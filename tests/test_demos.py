"""The demos run to completion and print what they printed when pinned.

Each demo runs in its own interpreter with ``src`` on the path; the pin is
the sha256 of its stdout.  Demo 05 prints one wall-clock figure ("in N ms"),
which is masked before hashing.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_PINS = {
    "01_ring_arithmetic.py":
        "cba462c900809e0f5a590142d37f228e6c2007adf00b964078e1610c65f5ef02",
    "02_identity_words.py":
        "77daeb4e6603e35692f05946ebc0b4cbd7f77cf94380f12efd6db3e1721829e5",
    "03_key_agreement.py":
        "a52368cdf66dd33fd2624a02bc0415a530d4a9350ac954bb22f8ddeef79b09ac",
    "04_instance_generation.py":
        "f9189f1919041f3ca5a9a0bc260596b53a77f2d0f8de768c4194c7483d82e202",
    "05_trapdoor_solvers.py":
        "e5372433956ae127fcedc878c493871e81d26243c5020b0105fd09c535ae92df",
    "06_homomorphic_encryption.py":
        "7ffb3259ae7021ac7b8e05e82ceaf334b32917178e86af4c888717f3de445892",
    "07_attacks.py":
        "640998ca50aca875ee536edb870196051af9ae2ea44f598187fa2b2aeb69d134",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_PINS)


@pytest.mark.parametrize("name", sorted(DEMO_PINS))
def test_demo_output_pinned(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = re.sub(r"in \d+ ms", "in N ms", res.stdout)
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_PINS[name], out
