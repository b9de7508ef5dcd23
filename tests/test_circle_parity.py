"""The circle route's one array pass against stored reports (tests/circle_parity.py), and what it builds per report."""

import numpy as np
import pytest

import circle_parity
from verdict_panel import _conjugated_half_turn_pair, _d3_family, _two_half_turn_pairs
from spherediv import divisibility, divisibility_test, planar_division
from spherediv import circle

NAMES = [name for name, _ in circle_parity.cases()]


def test_forty_tuples_on_the_circle_route():
    assert len(NAMES) == len(set(NAMES)) == 40
    for _, builder in circle_parity.cases():
        tup, n_max = builder()
        assert 2 <= tup.r <= 6 and n_max <= 300
        assert circle.detect(np.array([g.matrix for g in tup])) is not None


@pytest.mark.parametrize("name", NAMES)
def test_records_match_the_stored_reports(name):
    stored = [out for out in circle_parity.load_records() if out["name"] == name]
    assert len(stored) == len(circle_parity.SING_TOLS)
    assert circle_parity.compare(stored, circle_parity.records([name])) == []


def test_compare_applies_the_rules():
    row = [1, "singular", 0.0, 1e-15]
    stored = [{"name": "t", "sing_tol": 0.3, "degrees": [row], "singular": [1],
               "witness": {"weight": 1.0}, "divisor": {"r": 2, "scale": 0.25}, "verification": {"passed": True}}]

    def changed(**fields):
        return circle_parity.compare(stored, [dict(stored[0], **fields)])

    assert changed() == []
    assert changed(degrees=[row[:3] + [1e-15 * (1 + 5e-15)]]) == []
    assert changed(degrees=[row[:3] + [1e-15 * (1 + 1e-13)]])
    assert changed(degrees=[row[:2] + [-0.0, row[3]]])  # bit for bit: -0.0 is not 0.0
    assert changed(degrees=[[1, "borderline", 0.0, 1e-15]])
    assert changed(degrees=[row[:3] + [None]])
    assert changed(singular=[])
    assert changed(witness={"weight": 1.0 + 2.0**-52})
    assert changed(verification=None)
    assert circle_parity.compare(stored, [])


def test_one_certificate_built_per_report(monkeypatch):
    # every degree of planar_division(8, 3) fires and passes, yet the report builds the witness,
    # divisor and certificate of the degree it keeps alone, and reads the trigger once, for every
    # degree at the same time
    made = {}

    def counted(name, make):
        def count(*args, **kwargs):
            made[name] = made.get(name, 0) + 1
            return make(*args, **kwargs)

        monkeypatch.setattr(divisibility, name, count)

    for name in ("HarmonicFunction", "DivisorFunction", "VerificationResult", "_near_singular"):
        counted(name, getattr(divisibility, name))
    report = divisibility_test(planar_division(8, 3).rotations, 50, rng=1)
    assert report.singular_degrees() == list(range(1, 51))
    assert all(rec.residual_bound <= divisibility.RESIDUAL_TOL for rec in report.degrees)
    assert made == {"HarmonicFunction": 1, "DivisorFunction": 1, "VerificationResult": 1, "_near_singular": 1}
    # a report whose fired degrees all fail builds none of them
    made.clear()
    report = divisibility_test(circle_parity.conjugated(2, circle_parity.angles(903, 3), 913), 300, 0.3, rng=1)
    assert any(rec.residual_bound is not None for rec in report.degrees) and not report.divisible
    assert made == {"_near_singular": 1}
    # a pair's and a Gram tuple's fired degrees each read their witness's numbers, and only the kept
    # degree builds its divisor and certificate from them
    for tup, n_max, singular in [
        (_conjugated_half_turn_pair(3, 5, False), 5, [1, 2, 3, 4, 5]),
        (_d3_family(5), 7, [5, 6, 7]),
        (_two_half_turn_pairs(), 3, [2, 3]),
    ]:
        made.clear()
        report = divisibility_test(tup, n_max, rng=1)
        assert report.singular_degrees() == singular
        assert made["DivisorFunction"] == made["VerificationResult"] == 1
