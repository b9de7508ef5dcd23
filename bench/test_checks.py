"""The benchmark's output checks accept right outputs and reject wrong ones.

    python3 -m pytest bench/test_checks.py -q

Each wrong output is a right one with a single defect put in: a degree-2
ratio off by 1e-6 relative, a divisor whose constant is 1/r + 1e-6, a search
tuple moved off the singular set until its objective reads 1e-4, a
genericity result with one singular trial.  The tracer's fallback for a
public name that no longer exists is tested too.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import spherediv  # noqa: E402
import tracer  # noqa: E402


def haar_mats(d, r, seed):
    gen = np.random.default_rng(seed)
    return [spherediv.haar_sample(d, gen) for _ in range(r)]


@pytest.fixture(scope="module")
def decided():
    rots = spherediv.RotationTuple(tuple(haar_mats(4, 3, 11)))
    return [g.matrix for g in rots], spherediv.divisibility_test(rots, 3, rng=12)


@pytest.fixture(scope="module")
def certified():
    d = 4
    h = haar_mats(d, 1, 13)[0].matrix
    half_turn = spherediv.planar_rotation(d, 1, 2, math.pi).matrix
    rots = spherediv.RotationTuple(
        (spherediv.Rotation(np.eye(d)), spherediv.Rotation(h @ half_turn @ h.T))
    )
    return [g.matrix for g in rots], spherediv.divisibility_test(rots, 3, rng=14)


@pytest.fixture(scope="module")
def searched():
    return spherediv.search_divisible(3, 3, 2, rng=15)


@pytest.fixture(scope="module")
def studied():
    suffix = tuple(haar_mats(3, 2, 16))
    study = spherediv.GenericityStudy(d=3, r=3, suffix=suffix, trials=20, n_max=5, seed=17, ell=1)
    return spherediv.run_genericity(study)


def test_half_turn_oracle_finds_every_degree():
    assert checks.half_turn_singular_degrees(6) == [1, 2, 3, 4, 5, 6]


def test_reference_ratios_of_identity_tuple():
    refs = checks.reference_ratios([np.eye(5), np.eye(5)])
    assert refs[1] == pytest.approx(1.0) and refs[2] == pytest.approx(1.0)


def test_decide_accepts_program_output(decided):
    mats, report = decided
    assert checks.check_decide(mats, report, 3) == []


def test_decide_rejects_degree2_ratio_off_by_1e6(decided):
    mats, report = decided
    degrees = list(report.degrees)
    degrees[1] = dataclasses.replace(degrees[1], sigma_min_rel=degrees[1].sigma_min_rel * (1 + 1e-6))
    wrong = dataclasses.replace(report, degrees=tuple(degrees))
    problems = checks.check_decide(mats, wrong, 3)
    assert len(problems) == 1 and problems[0].startswith("degree 2 sigma_min_rel")


def test_certify_accepts_program_output(certified):
    mats, report = certified
    assert checks.check_certify(mats, report, 3, [1, 2, 3], np.random.default_rng(1)) == []


def test_certify_rejects_divisor_with_shifted_constant(certified):
    mats, report = certified
    divisor = report.divisor
    wrong = dataclasses.replace(report, divisor=lambda x: divisor(x) + 1e-6)
    problems = checks.check_certify(mats, wrong, 3, [1, 2, 3], np.random.default_rng(1))
    assert len(problems) == 1 and "translates miss 1" in problems[0]


def test_search_accepts_program_output(searched):
    assert checks.check_search(searched, np.random.default_rng(2)) == []


def test_search_rejects_tuple_moved_off_singular_set(searched):
    # near this tuple the degree-2 sigma_min grows only ~5e-4 per radian of
    # rotation, so the move is sized by the search objective sigma_min / r,
    # not by the angle: one rotation turns until the objective reads 1e-4
    axis = np.random.default_rng(3).standard_normal(3)
    axis /= np.linalg.norm(axis)
    skew = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rots = list(searched.best_tuple)
    angle = 1e-4
    while True:
        step = np.eye(3) + math.sin(angle) * skew + (1 - math.cos(angle)) * skew @ skew
        moved = [rots[0].matrix @ step] + [g.matrix for g in rots[1:]]
        objective = np.linalg.svd(checks.degree2_operator(moved), compute_uv=False)[-1] / 3
        if objective >= 1e-4:
            break
        angle *= 1.5
    rots[0] = spherediv.Rotation(moved[0])
    wrong = dataclasses.replace(searched, best_tuple=spherediv.RotationTuple(tuple(rots)))
    problems = checks.check_search(wrong, np.random.default_rng(2))
    assert len(problems) == 1 and "translates miss 1" in problems[0]


def test_genericity_accepts_program_output(studied):
    assert checks.check_genericity(studied, 20, 5) == []


def test_genericity_rejects_one_singular_trial(studied):
    records = list(studied.records)
    records[3] = dataclasses.replace(records[3], singular=True)
    wrong = dataclasses.replace(studied, records=tuple(records), n_singular=1)
    problems = checks.check_genericity(wrong, 20, 5)
    assert problems and "n_singular=1" in problems[0]


def test_tracer_reports_missing_name_absent(monkeypatch):
    monkeypatch.delattr(spherediv.divisibility, "operator_matrix")
    original = spherediv.divisibility.operator_gram
    t = tracer.Tracer()
    t.install()
    try:
        assert spherediv.divisibility.operator_gram is not original
        values, absent = tracer.layer_metrics(t, 1)
    finally:
        t.uninstall()
    assert spherediv.divisibility.operator_gram is original
    assert absent == ["divisibility.solve_s"]
    assert "divisibility.assembly_s" in values
