"""One sha256 digest over exact outputs, so that a change meant to leave every
result as it was shows that it does.

The digest covers the repr of, on the eight classify-stress cases of the
benchmark (``stress:8:{20,15}:0..3``): the label, the Jordan basis P, det P,
P⁻¹, the kernel basis of P and det_and_adj_trace(P, P′).  On 72 seeded
conjugates x = Ad g(D_{σ,j}) + level·c, n = 2…7, it covers the label of x,
det x and the kernel basis of x, and det g and g⁻¹ (x is nilpotent, so it
has no inverse).

A change to the choice of the Jordan basis P (the chain tops) may change
this digest on purpose.  Such a change gives the mathematical reason in
CHANGES.md and records the new digest here.  To see which output moved,
diff the lines of :func:`_golden_lines` of the two trees.  The labels are
invariants, whatever P is chosen, so a second digest covers the label
lines alone and must not move with P.
"""

from __future__ import annotations

import hashlib
import json
import random

from affnil import AffineElement, GroupElement, MatK, adjoint_act, classify, cli, gr
from affnil.matk import det_and_adj_trace
from affnil.normalform import jordan_chains
from affnil.selfcheck import random_orbit_case, random_shear

from conftest import stress_case

GOLDEN_SHA256 = "074ab3d9cb7f94c18c8254ea63c11537fadc967d318cab9d9976bec3c9aa60e3"
LABELS_SHA256 = "803a3bdf70c10ab94b877b8b5a60924822ffed5f2ab4443bbc63661dee4e0082"


def _golden_lines():
    for shears in (20, 15):
        for j in range(4):
            moved = stress_case(8, shears, j)[3]
            p = jordan_chains(moved.mat).p_mat
            yield f"stress:8:{shears}:{j}"
            for value in (classify(moved), p, p.det(), p.inv(), p.kernel_basis(),
                          det_and_adj_trace(p, p.d_dt())):
                yield repr(value)
    rng = random.Random("golden")
    for n in range(2, 8):
        for i in range(12):
            _, _, _, elem, g = random_orbit_case(rng, n)
            moved = adjoint_act(g, elem)
            yield f"conjugate:{n}:{i}"
            for value in (classify(moved), moved.mat.det(), moved.mat.kernel_basis(),
                          g.g.det(), g.g.inv()):
                yield repr(value)


def test_exact_outputs_match_the_golden_digest():
    digest = hashlib.sha256("\n".join(_golden_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_labels_match_the_golden_label_digest():
    # the case names and the classify lines of _golden_lines only
    labels = [line for line in _golden_lines()
              if line.startswith(("stress:", "conjugate:", "OrbitLabel("))]
    assert len(labels) == 2 * (8 + 72)
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == LABELS_SHA256


# The printed results of adjoint_act on cases shaped like the act-wide
# benchmark: n = 8, 10, 12, one to five shears, loop rotations z = 1, 2, 1+i,
# every fourth group with one entry cut 32 above its last exponent, and a
# derivation part on every fifth exact group.  Changes to the exact kernels
# behind adjoint_act (construction, products, elimination, formatting) must
# leave it as it is.
ACT_SHA256 = "7b6bb16f4191d1c1c67b87dea1c9edaaf43c8f31b71b3cee2d6f04cd95656aa6"


def _act_lines():
    rng = random.Random("golden-act")
    for idx in range(48):
        n = (8, 10, 12)[idx % 3]
        z = (gr(1), gr(2), gr(1, 1))[idx // 3 % 3]
        _, _, _, elem, _ = random_orbit_case(rng, n)
        g = random_shear(rng, n)
        for _ in range(idx % 5):
            g = g.compose(random_shear(rng, n))
        g = GroupElement.loop_rotation(n, z).compose(g)
        if idx % 4 == 3:
            rows = [list(r) for r in g.g.rows]
            i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if rows[i][j].coeffs])
            rows[i][j] = rows[i][j].truncated(max(rows[i][j].coeffs) + 32)
            g = GroupElement(g.z, MatK(rows), g.det_mode)
        elif idx % 5 == 4:
            elem = AffineElement(elem.mat, elem.c_coef, gr(1))
        yield json.dumps(cli.element_doc(adjoint_act(g, elem, 64)), sort_keys=True)


def test_act_outputs_match_the_golden_digest():
    digest = hashlib.sha256("\n".join(_act_lines()).encode()).hexdigest()
    assert digest == ACT_SHA256
