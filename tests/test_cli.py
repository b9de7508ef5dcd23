import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spherediv import Rotation, RotationTuple, SearchSettings, cli, haar_sample, planar_rotation
from spherediv.cli import main
from spherediv.divisibility import DEFAULT_SING_TOL


def traced_main(argv):
    """Exit code of ``main(argv)`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_tuple(path, rotations):
    path.write_text(json.dumps(RotationTuple(tuple(rotations)).to_json_obj()))
    return str(path)


REPORT_KEYS = {"d", "r", "n_max", "sing_tol", "seed", "degrees", "overall", "version"}
DEGREE_KEYS = {"n", "N_n", "sigma_min_rel", "verdict", "residual_bound"}


def check_report_schema(obj):
    assert REPORT_KEYS <= set(obj)
    for rec in obj["degrees"]:
        assert DEGREE_KEYS <= set(rec)
        assert rec["verdict"] in {"invertible", "singular", "borderline"}
    if "witness" in obj:
        assert {"format", "d", "n", "exponents", "coeffs"} <= set(obj["witness"])
        assert obj["witness"]["format"] == "monomial-v1"
        assert "residual_max" in obj
        assert {"max_residual", "residual_bound", "n_samples", "passed"} <= set(obj["verification"])


class TestCmdTest:
    def test_identity_tuple_no_witness(self, tmp_path, capsys):
        inp = write_tuple(tmp_path / "tuple.json", [Rotation(np.eye(3))] * 2)
        out = tmp_path / "report.json"
        code = main(["test", "--input", inp, "--n-max", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        check_report_schema(obj)
        assert obj["overall"].startswith("no divisibility witness")
        assert "witness" not in obj
        assert "seed: 5" in capsys.readouterr().out

    def test_opposite_rotations_divisible(self, tmp_path):
        inp = write_tuple(
            tmp_path / "tuple.json",
            [planar_rotation(2, 1, 2, 0.0), planar_rotation(2, 1, 2, math.pi)],
        )
        out = tmp_path / "report.json"
        code = main(["test", "--input", inp, "--n-max", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        check_report_schema(obj)
        assert obj["overall"].startswith("fractionally divisible")
        assert obj["witness"]["n"] == 1
        assert obj["residual_max"] <= 1e-8

    def test_reflection_rejected_with_message(self, tmp_path, capsys):
        bad = {"d": 2, "rows": [[1.0, 0.0], [0.0, -1.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad, bad]))
        code = main(["test", "--input", str(path), "--seed", "1"])
        assert code == 2
        assert "determinant" in capsys.readouterr().err

    def test_non_finite_entry_rejected(self, tmp_path, capsys):
        # json reads a bare NaN; the rotation refuses it before any spectral step can fail on it
        rows = np.eye(3).tolist()
        rows[2][0] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps([Rotation(np.eye(3)).to_json_obj(), {"d": 3, "rows": rows}]))
        assert "NaN" in path.read_text()
        assert main(["test", "--input", str(path), "--seed", "1"]) == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_oversized_run_refused_fast(self, tmp_path, capsys):
        inp = write_tuple(tmp_path / "tuple.json", [haar_sample(8, 19), haar_sample(8, 23)])
        start = time.perf_counter()
        code = main(["test", "--input", inp, "--n-max", "10", "--seed", "1"])
        assert code == 2 and time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err

    def test_nan_tolerance_rejected(self, tmp_path, capsys):
        inp = write_tuple(tmp_path / "tuple.json", [haar_sample(3, k) for k in (1, 2, 3)])
        assert main(["test", "--input", inp, "--n-max", "2", "--sing-tol", "nan", "--seed", "1"]) == 2
        assert "sing_tol must be a finite number in (0, 1)" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["test", "--input", "/nonexistent/tuple.json", "--seed", "1"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('[{"d": 2, "rows": [[1, 0], [0, 1]]},]')
        assert main(["test", "--input", str(path), "--seed", "1"]) == 2
        assert "line" in capsys.readouterr().err

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps([{"d": 3, "rows": [[1, 0, 0]]}]))
        assert main(["test", "--input", str(path), "--seed", "1"]) == 2

    def test_csv_format(self, tmp_path):
        inp = write_tuple(tmp_path / "tuple.json", [Rotation(np.eye(2))] * 2)
        out = tmp_path / "report.csv"
        code = main(
            ["test", "--input", inp, "--n-max", "2", "--seed", "3", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,N_n,sigma_min_rel,verdict"
        assert len(lines) == 3


class TestCmdConstruct:
    def test_planar(self, tmp_path):
        out = tmp_path / "planar.json"
        code = main(
            ["construct", "planar", "--d", "3", "--r", "3", "--seed", "11",
             "--samples", "20000", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["verification"]["max_residual"] == 0.0
        assert len(obj["tuple"]) == 3
        assert math.isclose(obj["indicator"]["width"], 2 * math.pi / 3, rel_tol=1e-12)

    def test_odd_d4_random_gamma(self, tmp_path):
        out = tmp_path / "odd.json"
        code = main(
            ["construct", "odd-d4", "--d", "5", "--seed", "13", "--samples", "20000", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert len(obj["tuple"]) == 4
        assert obj["verification"]["max_residual"] <= 1e-10
        assert obj["witness"]["n"] == 1

    def test_odd_d4_gamma_from_file(self, tmp_path):
        g1 = haar_sample(3, 17)
        gpath = tmp_path / "g1.json"
        gpath.write_text(json.dumps(g1.to_json_obj()))
        out = tmp_path / "odd.json"
        code = main(
            ["construct", "odd-d4", "--d", "3", "--gamma1", str(gpath), "--seed", "19",
             "--samples", "5000", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert np.allclose(obj["tuple"][0]["rows"], g1.matrix)

    def test_odd_d4_even_dimension_rejected(self, capsys):
        assert main(["construct", "odd-d4", "--d", "4", "--seed", "1"]) == 2
        assert "odd" in capsys.readouterr().err

    def test_d2_analyze(self, tmp_path):
        out = tmp_path / "analysis.json"
        code = main(
            ["construct", "d2-analyze", "--n", "1", "--angles", str(math.pi), "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["bad_angles"] == [0.0]

    def test_d2_analyze_requires_angles(self):
        assert main(["construct", "d2-analyze", "--n", "1"]) == 2

    def test_d2_analyze_nan_angle_rejected(self, tmp_path, capsys):
        # a NaN angle used to be written into the output, which is then not valid JSON
        out = tmp_path / "analysis.json"
        assert main(["construct", "d2-analyze", "--n", "2", "--angles", "nan,1.0", "--out", str(out)]) == 2
        assert not out.exists()
        assert "fixed angles must be finite" in capsys.readouterr().err

    def test_d2_analyze_infinite_angle_rejected(self, capsys):
        # an infinite angle used to fail in math.cos with a traceback and exit 1
        assert main(["construct", "d2-analyze", "--n", "2", "--angles", "inf"]) == 2
        assert "fixed angles must be finite" in capsys.readouterr().err

    def test_nonpositive_samples_rejected(self, capsys):
        for kind, dims in [("planar", ["--d", "3", "--r", "2"]), ("odd-d4", ["--d", "3"])]:
            for samples in ("0", "-5"):
                assert main(["construct", kind, *dims, "--samples", samples, "--seed", "1"]) == 2
                assert "samples must be >= 1" in capsys.readouterr().err

    def test_oversized_samples_refused_without_allocating(self, capsys):
        # 10^10 points in d = 3 would take about 373 GiB
        for kind, dims in [("planar", ["--d", "3", "--r", "3"]), ("odd-d4", ["--d", "3"])]:
            code, peak = traced_main(["construct", kind, *dims, "--samples", "10000000000", "--seed", "1"])
            assert code == 2 and peak < 1 << 20
            assert "samples=10000000000 in d=3" in capsys.readouterr().err

    def test_budget_counts_both_copies_of_the_points(self, capsys):
        # 2 * 10^7 points in d = 3: 0.75 GiB by 8 samples (d + 2), 1.2 GiB by 8 samples (2d + 2)
        code, peak = traced_main(["construct", "planar", "--d", "3", "--r", "2", "--samples", "20000000", "--seed", "1"])
        assert code == 2 and peak < 1 << 20
        assert "samples=20000000 in d=3" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["construct", "planar", "--d", "3", "--r", "2", "--samples", "100", "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_planar_requires_dimensions(self):
        assert main(["construct", "planar", "--d", "3"]) == 2

    # each oversized construction is refused before it allocates: exit 2 within a second
    def test_planar_huge_d_refused(self, capsys):
        # 10^5 x 10^5 matrices: ArrayMemoryError (74.5 GiB) before the guard
        code, peak = traced_main(["construct", "planar", "--d", "100000", "--r", "2", "--seed", "1"])
        assert code == 2 and peak < 1 << 20
        assert "planar_division(d=100000, r=2)" in capsys.readouterr().err

    def test_odd_d4_huge_d_refused(self, capsys):
        code, peak = traced_main(["construct", "odd-d4", "--d", "100001", "--seed", "1"])
        assert code == 2 and peak < 1 << 20
        assert "four-tuple in d=100001" in capsys.readouterr().err

    def test_planar_huge_r_refused(self, capsys):
        # 10^8 rotations were built one by one, past a 60 s timeout
        start = time.perf_counter()
        code, peak = traced_main(["construct", "planar", "--d", "3", "--r", "100000000", "--seed", "1"])
        assert code == 2 and peak < 1 << 20 and time.perf_counter() - start < 1.0
        assert "planar_division(d=3, r=100000000)" in capsys.readouterr().err

    def test_d2_analyze_huge_n_refused(self, capsys):
        # 10^7 bad angles peaked at 1.57 GB of RSS
        code, peak = traced_main(["construct", "d2-analyze", "--n", "10000000", "--angles", "1.0"])
        assert code == 2 and peak < 1 << 20
        assert "10000000 bad angles" in capsys.readouterr().err

    def test_d2_analyze_single_angle_prints_n_angles(self, capsys):
        # one fixed angle psi leaves the n bad angles psi + (pi + 2 pi j) / n; with the report on
        # stdout, the summary line goes to stderr
        code = main(["construct", "d2-analyze", "--n", "4", "--angles", "1.1765425947969412"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["kind"] == "d2-analyze"
        last = captured.err.splitlines()[-1]
        assert last.startswith("bad angles: ")
        assert len(json.loads(last[len("bad angles: "):])) == 4


class TestCmdExperiment:
    def test_genericity_outputs(self, tmp_path, capsys):
        config = {
            "kind": "genericity", "d": 3, "r": 3, "ell": 1,
            "trials": 4, "n_max": 2, "seed": 23,
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "study"
        code = main(["experiment", "--config", str(cpath), "--out", str(out)])
        assert code == 0
        assert "seed: 23" in capsys.readouterr().out
        summary = json.loads((tmp_path / "study.json").read_text())
        assert summary["n_singular"] == 0
        csv_text = (tmp_path / "study.csv").read_text()
        assert csv_text.splitlines()[0] == "trial,n,sigma_min_rel,verdict"
        assert len(csv_text.splitlines()) == 1 + 4 * 2

    def test_genericity_reproducible_csv(self, tmp_path):
        config = {"kind": "genericity", "d": 2, "r": 2, "trials": 3, "n_max": 2, "seed": 29}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        main(["experiment", "--config", str(cpath), "--out", str(tmp_path / "a")])
        main(["experiment", "--config", str(cpath), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_genericity_all_free_default(self, tmp_path):
        # d = 2, r = 1 frees the only rotation by default: the frozen suffix is empty
        config = {"kind": "genericity", "d": 2, "r": 1, "trials": 3, "n_max": 3, "seed": 41}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        code = main(["experiment", "--config", str(cpath), "--out", str(tmp_path / "study")])
        assert code == 0
        summary = json.loads((tmp_path / "study.json").read_text())
        assert summary["n_singular"] == 0
        assert len((tmp_path / "study.csv").read_text().splitlines()) == 1 + 3 * 3

    def test_search_finds_circle_pair(self, tmp_path):
        base = RotationTuple(
            (planar_rotation(2, 1, 2, 0.2), planar_rotation(2, 1, 2, math.pi - 0.1))
        )
        config = {
            "kind": "search", "d": 2, "r": 2, "n": 1,
            "restarts": 2, "max_iter": 400, "seed": 31,
            "base_tuple": base.to_json_obj(),
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "search"
        code = main(["experiment", "--config", str(cpath), "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "search.json").read_text())
        assert summary["certified"] is True
        assert summary["residual_max"] <= 1e-8

    def test_search_defaults_are_the_settings_defaults(self, tmp_path, monkeypatch):
        captured = []

        class Stop(Exception):
            pass

        def capture(d, r, n, settings, rng=None):
            captured.append(settings)
            raise Stop

        monkeypatch.setattr(cli, "search_divisible", capture)
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({"kind": "search", "d": 3, "r": 3, "n": 1}))
        with pytest.raises(Stop):
            main(["experiment", "--config", str(cpath), "--seed", "1", "--out", str(tmp_path / "search")])
        assert captured == [SearchSettings(target_ratio=DEFAULT_SING_TOL)]

    def test_nan_simplex_scale_rejected(self, tmp_path, capsys):
        config = {"kind": "search", "d": 3, "r": 3, "n": 1, "simplex_scale": "nan", "seed": 43}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "search"
        assert main(["experiment", "--config", str(cpath), "--out", str(out)]) == 2
        assert "simplex_scale must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "search.json").exists()

    def test_zero_trials_rejected(self, tmp_path, capsys):
        # --trials 0 is a request for zero trials, not for the default 100
        config = {"kind": "genericity", "d": 3, "r": 3, "n_max": 1, "seed": 37}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "study"
        code = main(["experiment", "--config", str(cpath), "--trials", "0", "--out", str(out)])
        assert code == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "study.csv").exists()

    def test_tolerance_outside_unit_interval_rejected(self, tmp_path, capsys):
        for config, name in [
            ({"kind": "genericity", "d": 3, "r": 3, "n_max": 1, "seed": 37}, "sing_tol"),
            ({"kind": "search", "d": 2, "r": 2, "n": 1, "seed": 37}, "target_ratio"),
        ]:
            cpath = tmp_path / "config.json"
            cpath.write_text(json.dumps(config))
            code = main(["experiment", "--config", str(cpath), "--sing-tol", "2", "--out", str(tmp_path / "x")])
            assert code == 2
            assert f"{name} must be a finite number in (0, 1)" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({"kind": "nonsense", "seed": 1}))
        assert main(["experiment", "--config", str(cpath)]) == 2

    def test_missing_key(self, tmp_path, capsys):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({"kind": "genericity", "d": 3, "seed": 1}))
        assert main(["experiment", "--config", str(cpath)]) == 2
        assert "missing config key" in capsys.readouterr().err

    def test_oversized_study_refused_without_allocating(self, tmp_path, capsys):
        config = {"kind": "genericity", "d": 3, "r": 3, "n_max": 5, "seed": 37, "trials": 10**9}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        code, peak = traced_main(["experiment", "--config", str(cpath), "--out", str(tmp_path / "study")])
        assert code == 2 and peak < 1 << 20
        assert "trials=1000000000" in capsys.readouterr().err
        assert not (tmp_path / "study.csv").exists()

    def test_truncating_int_value_rejected(self, tmp_path, capsys):
        base = {"kind": "genericity", "d": 3, "r": 3, "n_max": 1, "trials": 2}
        for key, value in [("trials", 2.5), ("n_max", 1.9), ("d", 3.9), ("r", True), ("seed", 1.5)]:
            cpath = tmp_path / "config.json"
            cpath.write_text(json.dumps({**base, key: value}))
            assert main(["experiment", "--config", str(cpath), "--seed", "1", "--out", str(tmp_path / "x")]) == 2
            assert f"config key {key!r} must be int, got {value!r}" in capsys.readouterr().err

    def test_negative_config_seed_rejected(self, tmp_path, capsys):
        config = {"kind": "genericity", "d": 3, "r": 3, "n_max": 1, "trials": 2, "seed": -5}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cpath), "--out", str(tmp_path / "study")]) == 2
        assert "seed must be a non-negative integer, got -5" in capsys.readouterr().err
        assert not (tmp_path / "study.csv").exists()

    def test_boolean_float_value_rejected(self, tmp_path, capsys):
        config = {"kind": "search", "d": 2, "r": 2, "n": 1, "simplex_scale": True, "seed": 43}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cpath), "--out", str(tmp_path / "search")]) == 2
        assert "config key 'simplex_scale' must be float, got True" in capsys.readouterr().err
        assert not (tmp_path / "search.json").exists()

    def test_integral_float_reads_as_int(self, tmp_path):
        config = {"kind": "genericity", "d": 3.0, "r": 3, "n_max": 1e0, "trials": 1e1, "seed": 37}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cpath), "--out", str(tmp_path / "study")]) == 0
        summary = json.loads((tmp_path / "study.json").read_text())
        assert summary["trials"] == 10 and summary["study"]["n_max"] == 1

    def test_uncoercible_value_rejected(self, tmp_path, capsys):
        for config, key in [
            ({"kind": "genericity", "d": "x", "r": 3}, "d"),
            ({"kind": "genericity", "d": 3, "r": 3, "n_max": 1, "sing_tol": [1e-10]}, "sing_tol"),
            ({"kind": "search", "d": 2, "r": 2, "n": 1, "restarts": "many"}, "restarts"),
            ({"kind": "search", "d": 2, "r": 2, "n": 1, "seed": "abc"}, "seed"),
        ]:
            cpath = tmp_path / "config.json"
            cpath.write_text(json.dumps(config))
            assert main(["experiment", "--config", str(cpath), "--seed", "1", "--out", str(tmp_path / "x")]) == 2
            assert f"config key {key!r}" in capsys.readouterr().err

    def test_genericity_in_d300_runs(self, tmp_path):
        # the monomial tables lost rows from d = 62 on; d = 300 at n_max = 1 failed with IndexError
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "genericity", "d": 300, "r": 3, "n_max": 1, "trials": 2, "seed": 1}))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run")]) == 0


class TestOutputStreams:
    def test_stdout_holds_the_document_alone(self, capsys):
        # with no --out the JSON goes to stdout, and the seed and summary lines to stderr
        assert main(["construct", "planar", "--d", "8", "--r", "2", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["kind"] == "planar"
        assert "seed: 1" in captured.err.splitlines()

    @pytest.mark.parametrize("first", [10, 0])
    def test_closed_stdout_exits_quietly(self, first):
        # a reader that takes a few bytes, or none, and closes the pipe ends the run with exit
        # code 0 and no traceback; the d = 300 tuple's JSON is far larger than a pipe's buffer
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["construct", "planar", "--d", "300", "--r", "2", "--samples", "10", "--seed", "1"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "spherediv.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        try:
            assert proc.stdout.read(first) == b'{\n  "kind"'[:first]
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.stderr.close()
        assert "Traceback" not in err and "Error" not in err
        assert err.startswith("seed: 1")

    @pytest.mark.parametrize("command", ["test", "construct", "experiment"])
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing" / "out.json")
        if command == "test":
            inp = write_tuple(tmp_path / "tuple.json", [Rotation(np.eye(3))] * 2)
            argv = ["test", "--input", inp, "--n-max", "3", "--seed", "1", "--out", missing]
        elif command == "construct":
            argv = ["construct", "planar", "--d", "3", "--r", "2", "--samples", "100", "--seed", "1", "--out", missing]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"kind": "search", "d": 2, "r": 2, "n": 1, "restarts": 1, "max_iter": 40}))
            argv = ["experiment", "--config", str(config), "--seed", "1", "--out", missing]
        assert main(argv) == 2
        assert f"input error: cannot write {missing}" in capsys.readouterr().err
