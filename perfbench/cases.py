"""Seeded input documents for the benchmark workloads, and their output checks.

Every document is built with the generators of `affnil.selfcheck` and written
as JSON with Laurent literals; the timed code reads only those documents.

* classify-stress: conjugated canonical representatives at n = 8 with up to 15
  or 20 shears, from the fixed case seeds `stress:<n>:<shears>:<j>`.  These
  families are heavy-tailed (most cases take milliseconds, a few take tens of
  seconds), so the matrices come from that fixed list, in a fixed order (the
  timings of the short cases were seen to depend on which cases ran before
  them), and the run seed only draws each generating level.
* act-wide: canonical representatives and random groups at n = 8, 10, 12 with
  1 to 5 shears, drawn from the run seed within fixed strata.  Every fourth group document
  carries one truncated entry, which sends the inverse down the division path.
* selfcheck: no documents; the run seed draws the `--seed` of each invocation.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import List, Optional

from affnil import cli, orbits
from affnil.errors import AffnilError
from affnil.affine import AffineElement, GroupElement, adjoint_act
from affnil.gaussian import GR_ONE, GR_ZERO, gr
from affnil.matk import MatK
from affnil.normalform import OrbitLabel
from affnil.selfcheck import random_group, random_orbit_case, random_shear

PREC = 64
LEVELS = (GR_ZERO, GR_ONE, gr(Fraction(-3, 2)))

STRESS_FAMILIES = ((8, 20), (8, 15))
STRESS_SEEDS_PER_FAMILY = 4

ACT_SIZES = (8, 10, 12)
ACT_MAX_SHEARS = 5
ACT_Z = (GR_ONE, gr(2), gr(1, 1))  # the loop rotations random_group draws from
ACT_CASES = 180
ACT_TRUNCATED_EVERY = 4
ACT_TRUNCATION_MARGIN = 32

SELFCHECK_PREC = 128
SELFCHECK_CASES = 12


def _write(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _label(sigma, k, level) -> dict:
    return {"partition": list(sigma), "k": k, "level": cli.format_scalar(level)}


def stress_cases(seed: int, workdir: str) -> List[dict]:
    rng = random.Random(f"classify-stress:{seed}")
    cases = []
    for n, shears in STRESS_FAMILIES:
        for j in range(STRESS_SEEDS_PER_FAMILY):
            case_rng = random.Random(f"stress:{n}:{shears}:{j}")
            sigma, k, _, elem, _ = random_orbit_case(case_rng, n)
            g = random_group(case_rng, n, shears)
            level = rng.choice(LEVELS)
            moved = adjoint_act(g, AffineElement(elem.mat, level), PREC)
            cid = f"stress:{n}:{shears}:{j}"
            path = os.path.join(workdir, f"{cid.replace(':', '-')}.elem.json")
            _write(path, cli.element_doc(moved))
            cases.append({"id": cid, "kind": "classify", "elem": path,
                          "expect": _label(sigma, k, level)})
    return cases


def _truncate_one_entry(rng: random.Random, g: GroupElement) -> GroupElement:
    """The same group element with one nonzero entry cut to `+ O(t^N)`.

    N lies ACT_TRUNCATION_MARGIN above the entry's last exponent, so no known
    coefficient is lost, the determinant stays 1 up to the truncation, and
    enough precision survives for the residue in the level correction."""
    n = g.n
    spots = [(i, j) for i in range(n) for j in range(n) if g.g.rows[i][j].coeffs]
    i, j = rng.choice(spots)
    rows = [list(r) for r in g.g.rows]
    entry = rows[i][j]
    rows[i][j] = entry.truncated(max(entry.coeffs) + ACT_TRUNCATION_MARGIN)
    return GroupElement(g.z, MatK(rows), g.det_mode)


def act_cases(seed: int, workdir: str) -> List[dict]:
    """Cases cycle through fixed strata of n, shear count and loop rotation z,
    which set most of the cost; the seed draws everything else."""
    cases = []
    for idx in range(ACT_CASES):
        n = ACT_SIZES[idx % len(ACT_SIZES)]
        shears = 1 + (idx // len(ACT_SIZES)) % ACT_MAX_SHEARS
        z = ACT_Z[(idx // (len(ACT_SIZES) * ACT_MAX_SHEARS)) % len(ACT_Z)]
        rng = random.Random(f"act-wide:{seed}:{idx}")
        sigma, k, level, elem, _ = random_orbit_case(rng, n)
        g = random_shear(rng, n)
        for _ in range(shears - 1):
            g = g.compose(random_shear(rng, n))
        g = GroupElement.loop_rotation(n, z).compose(g)
        truncated = idx % ACT_TRUNCATED_EVERY == ACT_TRUNCATED_EVERY - 1
        if truncated:
            g = _truncate_one_entry(rng, g)
        cid = f"act:{idx}:n{n}:s{shears}{':trunc' if truncated else ''}"
        base = os.path.join(workdir, f"act-{idx:03d}")
        _write(base + ".group.json", cli.group_doc(g))
        _write(base + ".elem.json", cli.element_doc(elem))
        cases.append({"id": cid, "kind": "act", "group": base + ".group.json",
                      "elem": base + ".elem.json", "truncated": truncated,
                      "expect": _label(sigma, k, level)})
    return cases


def selfcheck_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(f"selfcheck:{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


# -- output checks ----------------------------------------------------------------


def check_label(label: dict, expect: dict) -> Optional[str]:
    """Problem with a label dict against the generating one, or None.

    k is compared only when the smallest part divides every part; otherwise
    representatives whose k differ by gcd(sigma) are conjugate, so only its
    range is checked."""
    sigma = expect["partition"]
    if label["partition"] != sigma:
        return f"partition {label['partition']} != {sigma}"
    if label["level"] != expect["level"]:
        return f"level {label['level']} != {expect['level']}"
    if all(p % sigma[-1] == 0 for p in sigma):
        if label["k"] != expect["k"]:
            return f"k {label['k']} != {expect['k']}"
    elif not 0 <= label["k"] < sigma[-1]:
        return f"k {label['k']} outside [0, {sigma[-1]})"
    return None


def label_dict(label: OrbitLabel) -> dict:
    return _label(label.partition, label.k, label.level)


def check_act_output(case: dict, doc: dict, path: str) -> Optional[str]:
    """Check an `act` output document, written to path, against its case.

    Exact outputs are classified again and compared with the generating
    label; truncated ones must be trace-free and not provably non-nilpotent."""
    _write(path, doc)
    try:
        elem = cli.load_element(path)
    except cli.DocumentError as exc:
        return f"output does not load: {exc}"
    if not case["truncated"]:
        if not elem.mat.all_exact():
            return "exact input gave a truncated output"
        try:
            label = orbits.classify(elem, PREC)
        except AffnilError as exc:
            return f"output does not classify: {type(exc).__name__}: {exc}"
        return check_label(label_dict(label), case["expect"])
    if elem.mat.trace().is_zero_3v() is False:
        return "output is not trace-free"
    if (elem.mat ** elem.n).is_zero_3v() is False:
        return "x^n is provably nonzero"
    return None


def check_selfcheck_output(code: int, stdout: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    if "selfcheck: all suites passed" not in stdout.splitlines():
        return "no 'all suites passed' line"
    return None
