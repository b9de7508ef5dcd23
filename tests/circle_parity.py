"""Circle-route parity records: fixed tuples that rotate one plane, decided at two tolerances, against stored reports.

Every tuple is built from fixed seeds and takes the circle route.  A record
keeps, per degree, (n, verdict, sigma_min_rel, residual_bound), the singular
degrees, and the JSON of the kept witness, divisor and certificate.  A change
is checked against tests/data/circle_parity.json by ``compare``:

- verdicts, singular degrees and every sigma_min_rel must match bit for bit;
- every residual_bound must match within RESIDUAL_RTOL relative;
- the kept witness, divisor and certificate must have byte-identical JSON.

    python tests/circle_parity.py --check   # every record; prints a diff, exit 1 on any
    python tests/circle_parity.py --write   # regenerate the stored records

Regenerating the records changes what the circle route is checked against:
record it with its cause.  tests/test_circle_parity.py runs every record.
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
    Rotation,
    RotationTuple,
    divisibility_test,
    haar_sample,
    planar_division,
    planar_rotation,
)

RECORDS = Path(__file__).parent / "data" / "circle_parity.json"
SING_TOLS = (1e-10, 0.3)
RESIDUAL_RTOL = 1e-14


def conjugated(d, angles, seed, shift=0.0):
    """(gamma_1, gamma_1 h_2, ...) with h_s = c R_12(theta_s) c^T, gamma_1 and c Haar draws from ``seed``.

    ``shift`` moves every h_s (s >= 2) off the plane by a turn of that angle in the (x_1, x_3)
    plane, conjugated by c: a shift of 1e-13 stays within ``circle.DEFECT_ULPS`` of the plane.
    """
    rng = np.random.default_rng(seed)
    first, c = haar_sample(d, rng).matrix, haar_sample(d, rng).matrix
    off = planar_rotation(d, 1, 3, shift).matrix if shift else np.eye(d)
    turns = [np.eye(d)] + [c @ planar_rotation(d, 1, 2, t).matrix @ off @ c.T for t in angles[1:]]
    return RotationTuple(tuple(Rotation(first @ h) for h in turns))


def half_turn_pair(d, seed, haar_first):
    """(g, g c H c^T) for the half-turn H in the (1, 2) plane, c Haar and g = I or Haar: singular at every degree."""
    rng = np.random.default_rng(seed)
    first, c = haar_sample(d, rng).matrix, haar_sample(d, rng).matrix
    first = first if haar_first else np.eye(d)
    return RotationTuple((Rotation(first), Rotation(first @ c @ planar_rotation(d, 1, 2, math.pi).matrix @ c.T)))


def cancelling(d, seed):
    """(I, -I, g, -g): its translates cancel exactly at every odd degree."""
    g = haar_sample(d, seed).matrix
    return RotationTuple(tuple(Rotation(m) for m in (np.eye(d), -np.eye(d), g, -g)))


def angles(seed, r):
    """theta_1 = 0 and r - 1 angles drawn uniformly in [0, 2 pi) from ``seed``."""
    return [0.0] + list(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, r - 1))


def planted(seed, r, j):
    """r angles, theta_1 = 0, whose weight sum lambda_j = sum_s e^(i j theta_s) is zero up to round-off."""
    rng = np.random.default_rng(seed)
    while True:
        out = [0.0] + list(rng.uniform(0.0, 2.0 * math.pi, r - 3))
        rest = -sum(complex(math.cos(j * t), math.sin(j * t)) for t in out)
        if abs(rest) <= 2.0:
            spread, phase = math.acos(abs(rest) / 2.0), math.atan2(rest.imag, rest.real)
            return out + [(phase + spread) / j, (phase - spread) / j]


def cases():
    """(name, builder of (tuple, n_max)) of every record's tuple, in a fixed order: 40 tuples."""
    out = []
    for d, r, n_max in ((2, 2, 300), (2, 3, 300), (2, 5, 200), (4, 3, 120), (5, 4, 80), (6, 2, 60), (7, 6, 40),
                        (8, 3, 60), (8, 5, 30)):
        out.append((f"planar d={d} r={r}", lambda d=d, r=r, n=n_max: (planar_division(d, r).rotations, n)))
    out.append(("I and -I d=2", lambda: (RotationTuple((Rotation(np.eye(2)), Rotation(-np.eye(2)))), 300)))
    out.append(("cancelling four-tuple d=2", lambda: (cancelling(2, 600), 200)))
    for d in (4, 5, 6, 7, 8):
        for haar_first in (False, True):
            name = f"half-turn pair d={d} first={'haar' if haar_first else 'I'}"
            out.append((name, lambda d=d, h=haar_first: (half_turn_pair(d, 700 + d, h), 40 if d < 7 else 20)))
    for d, r in ((4, 3), (6, 3), (8, 3), (5, 4), (7, 2)):
        sector = [2.0 * math.pi * m / r for m in range(r)]
        out.append((f"rebuilt sector d={d} r={r}", lambda d=d, a=sector: (conjugated(d, a, 800 + d, shift=1e-13), 30)))
    for r in (2, 3, 4, 5, 6):
        out.append((f"generic d=2 r={r}", lambda r=r: (conjugated(2, angles(900 + r, r), 910 + r), 300)))
    out.append(("planted d=2 r=4 j=7", lambda: (conjugated(2, planted(920, 4, 7), 921), 150)))
    for d, r, j in ((4, 3, 5), (5, 5, 3), (6, 4, 9), (8, 6, 2)):
        name = f"planted d={d} r={r} j={j}"
        out.append((name, lambda d=d, r=r, j=j: (conjugated(d, planted(930 + d, r, j), 940 + d), 3 * j)))
    for d, r in ((4, 2), (6, 3), (8, 5), (5, 6)):
        out.append((f"generic d={d} r={r}", lambda d=d, r=r: (conjugated(d, angles(950 + d, r), 960 + d), 25)))
    return out


def record(name, report):
    def kept(obj):
        return None if obj is None else json.loads(json.dumps(obj))

    divisor = None if report.divisor is None else {"r": report.divisor.r, "scale": report.divisor.scale}
    return {
        "name": name,
        "sing_tol": report.sing_tol,
        "degrees": [[rec.n, rec.verdict, rec.sigma_min_rel, rec.residual_bound] for rec in report.degrees],
        "singular": report.singular_degrees(),
        "witness": kept(None if report.witness is None else report.witness.to_json_obj()),
        "divisor": divisor,
        "verification": kept(None if report.verification is None else report.verification.to_json_obj()),
    }


def records(names=None):
    """Every record, or those of the tuples ``names``, each tuple decided at every tolerance of SING_TOLS."""
    return [
        record(name, divisibility_test(tup, n_max, tol, rng=3))
        for name, builder in cases()
        if names is None or name in names
        for tup, n_max in [builder()]
        for tol in SING_TOLS
    ]


def compare(stored, current):
    """The differences of ``current`` from ``stored`` under the rules of the module docstring, one line each."""
    diff = []
    current = {(out["name"], out["sing_tol"]): out for out in current}
    for old in stored:
        key = (old["name"], old["sing_tol"])
        new = current.get(key)
        if new is None:
            diff.append(f"{key}: missing")
            continue
        if len(new["degrees"]) != len(old["degrees"]):
            diff.append(f"{key}: {len(new['degrees'])} degrees, stored {len(old['degrees'])}")
        for a, b in zip(old["degrees"], new["degrees"]):
            same_ratio = float(a[2]).hex() == float(b[2]).hex()
            if a[:2] != b[:2] or not same_ratio:
                diff.append(f"{key} n={a[0]}: {b[:3]}, stored {a[:3]}")
            if (a[3] is None) != (b[3] is None) or a[3] is not None and not math.isclose(a[3], b[3], rel_tol=RESIDUAL_RTOL):
                diff.append(f"{key} n={a[0]}: residual bound {b[3]!r}, stored {a[3]!r}")
        if new["singular"] != old["singular"]:
            diff.append(f"{key}: singular {new['singular']}, stored {old['singular']}")
        for field in ("witness", "divisor", "verification"):
            if json.dumps(new[field]) != json.dumps(old[field]):
                diff.append(f"{key}: kept {field} differs")
    return diff


def load_records():
    return json.loads(RECORDS.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare every record with the stored ones")
    action.add_argument("--write", action="store_true", help="regenerate the stored records")
    args = parser.parse_args(argv)
    current = records()
    if args.write:
        RECORDS.parent.mkdir(exist_ok=True)
        RECORDS.write_text("[\n" + ",\n".join(json.dumps(out) for out in current) + "\n]\n")
        print(f"wrote {len(current)} records to {RECORDS}")
        return 0
    diff = compare(load_records(), current)
    for line in diff:
        print(line)
    print(f"{len(current)} records: {len(diff)} differences")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
