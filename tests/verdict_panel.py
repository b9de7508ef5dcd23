"""The verdict panel: fixed tuples decided at several tolerances, compared with golden rows.

Every tuple is drawn from fixed seeds, so the panel is the same on every run.
Each case is decided by divisibility_test at every tolerance of SING_TOLS,
and two genericity studies and one search join them.  An output keeps, per
degree, (n, N_n, verdict, sigma_min_rel, fired, residual bound <= 1e-8 or
None), with its singular degrees and ``verification.passed``.  A change is
checked against tests/data/verdict_panel.json by ``compare``:

- verdicts, singular-degree lists and pass flags must match exactly;
- a ratio below its sing_tol at a fired degree may be an upper bound (the
  Gram step's witness), so it need only stay below that sing_tol;
- every other ratio, those of degrees that fired on a dead operator
  (sigma_min < sing_tol r) included, must agree within RATIO_RTOL relative.

    python tests/verdict_panel.py --check   # the whole panel; prints a diff, exit 1 on any
    python tests/verdict_panel.py --write   # regenerate the golden file

Regenerating the golden file, or editing any row of it, changes what every
route is checked against: record it with its cause.  tests/test_verdict_panel.py
runs SUBSET in the tier-1 suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run from a checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spherediv import (  # noqa: E402
    GenericityStudy,
    Rotation,
    RotationTuple,
    SearchSettings,
    divisibility_test,
    haar_sample,
    odd_d4_tuple,
    planar_division,
    planar_rotation,
    run_genericity,
    search_divisible,
)

GOLDEN = Path(__file__).parent / "data" / "verdict_panel.json"
SING_TOLS = (1e-10, 1e-3, 0.3, 0.99)
RATIO_RTOL = 1e-12
RESIDUAL_TOL = 1e-8
# Haar tuples: the degree each dimension is decided up to, and the tuple sizes drawn there; a
# pair assembles no operator, so it is decided PAIR_EXTRA degrees further
HAAR_N_MAX = {3: 6, 4: 5, 5: 4, 6: 4, 7: 3, 8: 3, 9: 2, 10: 2, 11: 2, 12: 2}
HAAR_SIZES = range(2, 9)
PAIR_EXTRA = 2


def _haar(d, seed, count):
    rng = np.random.default_rng(seed)
    return [haar_sample(d, rng) for _ in range(count)]


def _half_turn(d):
    return planar_rotation(d, 1, 2, math.pi).matrix


def _conjugated_half_turn_pair(d, seed, haar_first):
    """(g, g c H c^T) for the half-turn H in the (1, 2) plane, g = I or Haar: singular at every degree."""
    first, c = (g.matrix for g in _haar(d, seed, 2))
    first = first if haar_first else np.eye(d)
    return RotationTuple((Rotation(first), Rotation(first @ c @ _half_turn(d) @ c.T)))


def _d3_family(n0):
    """(g, g c R_12(pi / n0) c^T) with g, c Haar draws from seeds 40 and 41: singular at the odd multiples of n0."""
    g, c = haar_sample(3, 40).matrix, haar_sample(3, 41).matrix
    turn = planar_rotation(3, 1, 2, math.pi / n0).matrix
    return RotationTuple((Rotation(g), Rotation(g @ c @ turn @ c.T)))


def _cancelling(d, seed):
    """(I, -I, g, -g): its translates cancel exactly at every odd degree."""
    g = haar_sample(d, seed).matrix
    return RotationTuple(tuple(Rotation(m) for m in (np.eye(d), -np.eye(d), g, -g)))


def _two_half_turn_pairs():
    """{a, a H_1, b, b H_2} in SO(8), H_1, H_2 the half-turns in the (1, 2) and (3, 4) planes: singular from n = 2."""
    a, b = haar_sample(8, 1).matrix, haar_sample(8, 2).matrix
    h1, h2 = _half_turn(8), planar_rotation(8, 3, 4, math.pi).matrix
    return RotationTuple(tuple(Rotation(m) for m in (a, a @ h1, b, b @ h2)))


def _circle(*angles):
    return RotationTuple(tuple(planar_rotation(2, 1, 2, a) for a in angles))


def cases():
    """(name, builder of (tuple, n_max)) of every tuple in the panel, in a fixed order."""
    out = []
    for d, n_max in HAAR_N_MAX.items():
        for r in HAAR_SIZES:
            n = n_max + PAIR_EXTRA if r == 2 else n_max
            out.append((f"haar d={d} r={r}", lambda d=d, r=r, n=n: (RotationTuple(tuple(_haar(d, 100 * d + r, r))), n)))
    for d, r, n_max in ((2, 2, 6), (2, 3, 6), (3, 2, 5), (3, 3, 5), (4, 4, 4), (5, 3, 3), (8, 2, 4), (8, 3, 3)):
        out.append((f"planar d={d} r={r}", lambda d=d, r=r, n=n_max: (planar_division(d, r).rotations, n)))
    for d, n_max in ((3, 4), (5, 3), (7, 2)):
        out.append((f"odd-d four-tuple d={d}", lambda d=d, n=n_max: (odd_d4_tuple(d, haar_sample(d, 300 + d))[0], n)))
    for d, n_max in ((3, 5), (4, 4), (5, 4), (6, 3), (8, 3)):
        for haar_first in (False, True):
            name = f"half-turn pair d={d} first={'haar' if haar_first else 'I'}"
            out.append((name, lambda d=d, h=haar_first, n=n_max: (_conjugated_half_turn_pair(d, 400 + d, h), n)))
    for n0, n_max in ((2, 4), (3, 6), (5, 6)):
        out.append((f"d=3 family n0={n0}", lambda n0=n0, n=n_max: (_d3_family(n0), n)))
    for d, n_max in ((2, 5), (4, 3), (6, 3)):
        out.append((f"I and -I d={d}", lambda d=d, n=n_max: (RotationTuple((Rotation(np.eye(d)), Rotation(-np.eye(d)))), n)))
    for angles in ((0.0, math.pi), (1.2, 1.2 + math.pi / 3), (0.3, 1.1), (0.0, 2.0 * math.pi / 3, 4.0 * math.pi / 3)):
        name = "circle " + ", ".join(f"{a:.4f}" for a in angles)
        out.append((name, lambda a=angles: (_circle(*a), 8)))
    for d, n_max in ((2, 5), (4, 3)):
        out.append((f"cancelling four-tuple d={d}", lambda d=d, n=n_max: (_cancelling(d, 500 + d), n)))
    out.append(("two half-turn pairs d=8", lambda: (_two_half_turn_pairs(), 3)))
    return out


# the tier-1 subset: every route (circle, pair and Gram, fired and not, certified and refused) in a few seconds
SUBSET = (
    "haar d=3 r=2",
    "haar d=4 r=3",
    "haar d=6 r=5",
    "planar d=3 r=3",
    "planar d=8 r=2",
    "odd-d four-tuple d=3",
    "half-turn pair d=5 first=haar",
    "d=3 family n0=3",
    "I and -I d=2",
    "circle 0.0000, 3.1416",
    "circle 0.3000, 1.1000",
    "cancelling four-tuple d=2",
)


def report_output(name, report):
    rows = [
        [
            rec.n,
            rec.dim,
            rec.verdict,
            rec.sigma_min_rel,
            rec.residual_bound is not None,
            None if rec.residual_bound is None else rec.residual_bound <= RESIDUAL_TOL,
        ]
        for rec in report.degrees
    ]
    passed = None if report.verification is None else report.verification.passed
    return {"name": name, "sing_tol": report.sing_tol, "rows": rows, "singular": report.singular_degrees(), "passed": passed}


def case_outputs(name, builder):
    tup, n_max = builder()
    return [report_output(name, divisibility_test(tup, n_max, tol, rng=7)) for tol in SING_TOLS]


def study_output(name, study):
    result = run_genericity(study)
    rows = [
        [rec.trial, n, verdict, ratio, ratio < study.sing_tol, None]
        for rec in result.records
        for n, ratio, verdict in rec.degrees
    ]
    singular = [rec.trial for rec in result.records if rec.singular]
    return {"name": name, "sing_tol": study.sing_tol, "rows": rows, "singular": singular, "passed": None}


def search_output():
    run = search_divisible(3, 3, 2, SearchSettings(), rng=1)
    # the search's path depends on the last bits of every assembly, so only the outcome is kept
    passed = run.certified and run.residual_max is not None and run.residual_max <= RESIDUAL_TOL
    row = [0, 2, "singular" if run.certified else "invertible", run.best_ratio, True, passed]
    return {"name": "search d=3 r=3 n=2", "sing_tol": 1e-10, "rows": [row], "singular": [2] if run.certified else [], "passed": passed}


def extra_outputs():
    suffix3 = tuple(_haar(3, 600, 2))
    suffix4 = tuple(_haar(4, 601, 1))
    return [
        study_output("study d=3 r=3", GenericityStudy(d=3, r=3, suffix=suffix3, trials=60, n_max=4, seed=602, ell=1)),
        study_output("study d=4 r=2", GenericityStudy(d=4, r=2, suffix=suffix4, trials=60, n_max=4, seed=603, ell=1)),
        search_output(),
    ]


def outputs(names=None):
    """Every output of the panel, or of the cases ``names`` alone (no studies and no search)."""
    out = []
    for name, builder in cases():
        if names is None or name in names:
            out.extend(case_outputs(name, builder))
    if names is None:
        out.extend(extra_outputs())
    return out


def _key(output):
    return output["name"], output["sing_tol"]


def _row_diff(tol, old, new):
    """Why the row ``new`` breaks the rules against ``old``, or None."""
    if old[:3] != new[:3] or old[4:] != new[4:]:
        return f"row {old} became {new}"
    if old[4] and old[3] < tol:  # fired on its ratio, which may be an upper bound and need only stay below
        if not new[3] < tol:
            return f"fired ratio {new[3]!r} of row {old[:3]} is not below sing_tol"
    elif not abs(new[3] - old[3]) <= RATIO_RTOL * abs(old[3]):
        return f"ratio of row {old[:3]} moved {old[3]!r} -> {new[3]!r}"
    return None


def compare(golden, current):
    """One line per difference between the outputs ``golden`` and ``current`` under the panel's rules."""
    found = {_key(out): out for out in current}
    diff = []
    for old in golden:
        key = _key(old)
        new = found.pop(key, None)
        if new is None:
            diff.append(f"{key}: missing")
            continue
        for field in ("singular", "passed"):
            if old[field] != new[field]:
                diff.append(f"{key}: {field} {old[field]} became {new[field]}")
        if len(old["rows"]) != len(new["rows"]):
            diff.append(f"{key}: {len(old['rows'])} rows became {len(new['rows'])}")
        for a, b in zip(old["rows"], new["rows"]):
            why = _row_diff(old["sing_tol"], a, b)
            if why:
                diff.append(f"{key}: {why}")
    diff.extend(f"{key}: not in the golden file" for key in found)
    return diff


def moved(golden, current):
    """(rows whose ratio changed, largest relative change) over the rows the two have in common."""
    found = {_key(out): out for out in current}
    count, worst = 0, 0.0
    for old in golden:
        for a, b in zip(old["rows"], found.get(_key(old), {"rows": []})["rows"]):
            if a[3] != b[3]:
                count += 1
                worst = max(worst, abs(b[3] - a[3]) / abs(a[3]) if a[3] else math.inf)
    return count, worst


def load_golden():
    return json.loads(GOLDEN.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare the whole panel with the golden file")
    action.add_argument("--write", action="store_true", help="regenerate the golden file")
    args = parser.parse_args(argv)
    current = outputs()
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("[\n" + ",\n".join(json.dumps(out) for out in current) + "\n]\n")
        print(f"wrote {len(current)} outputs to {GOLDEN}")
        return 0
    golden = load_golden()
    diff = compare(golden, current)
    for line in diff:
        print(line)
    count, worst = moved(golden, current)
    rows = sum(len(out["rows"]) for out in golden)
    print(f"{len(golden)} outputs, {rows} rows: {len(diff)} differences; {count} ratios changed, "
          f"by at most {worst:.2e} relative")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
