#!/usr/bin/env python3
"""Tree-directed trapdoor solvers versus brute force.

With the derivation tree, membership testing and the linear transporter
problem decompose node by node: wreath elements split into coordinates and a
permutation, tensor factors separate, CRT blocks project.  Without the tree
one is left with exhaustive search.
"""

import time
import warnings

from matcrypt.analysis import enumerate_group
from matcrypt.instance import (
    base_diagonal,
    base_unipotent,
    leaf,
    tensor,
    tree_eval,
    wreath_imprimitive,
)
from matcrypt.matrix import int_rows, matrix, vector, vector_act
from matcrypt.ring import Zmod
from matcrypt.rng import Rng
from matcrypt.trapdoor import (
    NoSolution,
    affine_bridge,
    affine_embed,
    ltp_solve,
    membership,
    replay_witness,
    sample_transportable_vector,
    tensor_split,
    wreath_split,
)

warnings.simplefilter("ignore")

print("=== wreath splitting ===")
z7 = Zmod(7)
t = wreath_imprimitive(leaf(base_diagonal(1, 7, gen=(2,))), 2)
inst = tree_eval(t)
g = matrix(z7, [[0, 2], [2, 0]])
hs, k = wreath_split(g, 1, 2)
print("[[0,2],[2,0]] splits into coordinates",
      [int_rows(h) for h in hs], "and permutation", k)

print("\n=== the transporter problem, solved by bipartite matching ===")
u, v = vector(z7, [1, 3]), vector(z7, [6, 2])
sol = ltp_solve(t, u, v)
print("transporter from (1,3) to (6,2):", int_rows(sol))
print("certified no-solution to (0,0):",
      isinstance(ltp_solve(t, u, vector(z7, [0, 0])), NoSolution))

print("\n=== membership with replayable witnesses ===")
big = tensor(leaf(base_unipotent(3)), leaf(base_unipotent(3)))
binst = tree_eval(big)
enum = enumerate_group(list(binst.gens), 10000)
elem = list(enum.matrices())[5]
verdict = membership(big, elem)
print("membership:", verdict.accepted,
      "- witness replays to the query:", replay_witness(big, verdict.witness) == elem)

print("\n=== the tree is the trapdoor ===")
from matcrypt.errors import CapExceeded
from matcrypt.matrix import mat_mul, word_eval

big_t = wreath_imprimitive(leaf(base_diagonal(1, 127, gen=(3,))), 3)
big_inst = tree_eval(big_t)
try:
    enumerate_group(list(big_inst.gens), 200000)
    print("group enumerable (unexpected at this size)")
except CapExceeded:
    print("closure exceeds 200000 elements: exhaustive search is out")
rng = Rng(3)
uu = sample_transportable_vector(big_t, rng)
gg = word_eval(big_inst.gens, [1, 2, 1, 3, 2])
vv = vector_act(uu, gg)
t0 = time.perf_counter()
sol = ltp_solve(big_t, uu, vv)
ms = (time.perf_counter() - t0) * 1000
ok = vector_act(uu, sol) == vv
print(f"tree-directed transporter: solved and verified in {ms:.0f} ms: {ok}")

print("\n=== the translation bridge: transporter as conjugacy ===")
z5 = Zmod(5)
u5, v5 = vector(z5, [1, 0]), vector(z5, [2, 0])
tu, tv = affine_bridge(u5, v5)
g5 = matrix(z5, [[2, 0], [0, 1]])
from matcrypt.matrix import mat_inv, mat_mul
emb = affine_embed(g5)
print("T_v == g^-1 T_u g exactly when u^g = v:",
      mat_mul(mat_mul(mat_inv(emb), tu), emb) == tv)
