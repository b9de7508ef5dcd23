"""Command-line interface.

Subcommands:

* ``test``       - run the divisibility test on a rotation-tuple JSON file
                   and write a report (JSON, or CSV degree table).
* ``construct``  - emit one of the explicit constructions: ``planar``,
                   ``odd-d4``, or the ``d2-analyze`` bad-angle analysis.
* ``experiment`` - run a genericity study or a singularity search from a
                   JSON config file; writes a JSON summary and a CSV log.

Exit codes: 0 = ran, 2 = invalid input, an unwritable ``--out`` included.
A reader that closes stdout early (``| head``) ends the run quietly with
exit code 0.  Where the document goes to stdout, the seed line and the
closing summary line go to stderr, so stdout holds the document alone.
Every report carries the resolved seed, the tolerances used, and the
library version, so any certificate can be reproduced.  Each subcommand
imports what it needs when it runs: ``test`` loads neither ``experiments``
nor ``constructions``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .divisibility import (
    DEFAULT_SING_TOL,
    divisibility_test,
    make_divisor,
    verify_divisor,
)
from .errors import InputDomainError
from .rotations import Rotation, RotationTuple, haar_sample
from .sampling import derive_rng, fresh_seed

EXIT_OK = 0
EXIT_INPUT = 2


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputDomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDomainError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def _load_tuple(path) -> RotationTuple:
    obj = _load_json(path)
    try:
        return RotationTuple.from_json_obj(obj)
    except InputDomainError as exc:
        raise InputDomainError(f"{path}: {exc}") from exc


def _to_stdout(path) -> bool:
    return path is None or path == "-"


def _notes(path):
    """The stream of a run's notes (its seed and summary lines): stderr where the document itself goes to stdout."""
    return sys.stderr if _to_stdout(path) else sys.stdout


def _write_text(path, text) -> None:
    """Write ``text`` to stdout for ``path`` None or "-", else to the file ``path``; an unwritable path is an input error."""
    if _to_stdout(path):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputDomainError(f"cannot write {path}: {exc}") from exc


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _resolve_seed_arg(seed, out) -> int:
    """The run's seed: ``seed`` itself, or fresh entropy for None; a negative seed is refused.

    The seed line goes where the notes of a run writing to ``out`` go (``_notes``).
    """
    if seed is None:
        seed = fresh_seed()
        print(f"seed: {seed} (derived; pass --seed to reproduce)", file=_notes(out))
    elif seed < 0:
        raise InputDomainError(f"seed must be a non-negative integer, got {seed}")
    else:
        print(f"seed: {seed}", file=_notes(out))
    return int(seed)


def _stamp(obj: dict, seed: int, sing_tol=None) -> dict:
    obj["seed"] = seed
    obj["version"] = __version__
    if sing_tol is not None:
        obj["sing_tol"] = sing_tol
    return obj


def cmd_test(args) -> int:
    rotations = _load_tuple(args.input)
    seed = _resolve_seed_arg(args.seed, args.out)
    report = divisibility_test(rotations, args.n_max, args.sing_tol, rng=seed)
    obj = report.to_json_obj()
    obj["version"] = __version__
    if args.format == "csv":
        rows = [["n", "N_n", "sigma_min_rel", "verdict"]] + [
            [rec.n, rec.dim, f"{rec.sigma_min_rel:.17g}", rec.verdict]
            for rec in report.degrees
        ]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        _write_text(args.out, buf.getvalue())
    else:
        _write_json(args.out, obj)
    print(f"overall: {report.overall}", file=_notes(args.out))
    return EXIT_OK


def cmd_construct(args) -> int:
    from .constructions import analyze_circle, odd_d4_suffix, odd_d4_tuple, planar_division

    if args.kind == "planar":
        if args.d is None or args.r is None:
            raise InputDomainError("construct planar requires --d and --r")
        division = planar_division(args.d, args.r)
        seed = _resolve_seed_arg(args.seed, args.out)
        ver = verify_divisor(
            division.rotations,
            division.indicator,
            args.samples,
            derive_rng(seed, 7),
            skip=division.near_boundary,
        )
        obj = _stamp(
            {
                "kind": "planar",
                "d": args.d,
                "r": args.r,
                "tuple": division.rotations.to_json_obj(),
                "indicator": {
                    "type": "angular-sector",
                    "axes": [1, 2],
                    "width": division.sector_width,
                    "offset": 0.0,
                },
                "verification": ver.to_json_obj(),
            },
            seed,
        )
        _write_json(args.out, obj)
        print(f"max residual: {ver.max_residual:.3e} over {ver.n_samples} samples "
              f"({ver.n_skipped} boundary-skipped)", file=_notes(args.out))
        return EXIT_OK

    if args.kind == "odd-d4":
        if args.d is None:
            raise InputDomainError("construct odd-d4 requires --d")
        odd_d4_suffix(args.d)  # refuses an even or oversized d before gamma1 is drawn
        seed = _resolve_seed_arg(args.seed, args.out)
        if args.gamma1 is not None:
            gamma1 = Rotation.from_json_obj(_load_json(args.gamma1))
        else:
            gamma1 = haar_sample(args.d, derive_rng(seed, 8))
        rotations, witness = odd_d4_tuple(args.d, gamma1)
        divisor = make_divisor(witness, rotations.r)
        ver = verify_divisor(rotations, divisor, args.samples, derive_rng(seed, 9))
        obj = _stamp(
            {
                "kind": "odd-d4",
                "d": args.d,
                "tuple": rotations.to_json_obj(),
                "witness": witness.to_json_obj(),
                "divisor": {"r": rotations.r, "scale": divisor.scale},
                "verification": ver.to_json_obj(),
            },
            seed,
        )
        _write_json(args.out, obj)
        print(f"max residual: {ver.max_residual:.3e} over {ver.n_samples} samples", file=_notes(args.out))
        return EXIT_OK

    if args.kind == "d2-analyze":
        if args.n is None or not args.angles:
            raise InputDomainError("construct d2-analyze requires --n and --angles")
        analysis = analyze_circle(args.n, args.angles)
        obj = {"kind": "d2-analyze", "version": __version__, **analysis.to_json_obj()}
        _write_json(args.out, obj)
        print(f"bad angles: {[round(a, 12) for a in analysis.bad_angles.tolist()]}", file=_notes(args.out))
        return EXIT_OK

    raise InputDomainError(f"unknown construction kind {args.kind!r}")


def _suffix_from_config(config, d, count, seed):
    if "suffix" in config:
        if not isinstance(config["suffix"], list):
            raise InputDomainError(
                f'config key "suffix" must be an array of rotation objects, got {json.dumps(config["suffix"])}'
            )
        rotations = [Rotation.from_json_obj(item) for item in config["suffix"]]
        if len(rotations) != count:
            raise InputDomainError(
                f"config suffix has {len(rotations)} rotations, expected {count}"
            )
        return tuple(rotations)
    rng = derive_rng(seed, 0)
    return tuple(haar_sample(d, rng) for _ in range(count))


def _number(key, value, kind):
    """The config value ``value`` of ``key`` read as ``kind`` (int or float).

    A value that does not convert is an InputDomainError that names the key,
    and so is a bool for either kind and a fractional float for an int key;
    1e3 reads as 1000.
    """
    try:
        if isinstance(value, bool):
            raise ValueError("a JSON boolean is not a number")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("int() would truncate it")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InputDomainError(f"config key {key!r} must be {kind.__name__}, got {value!r}") from exc


def cmd_experiment(args) -> int:
    from .experiments import (
        GenericityStudy,
        SearchSettings,
        default_free_count,
        run_genericity,
        search_csv_text,
        search_divisible,
        trial_csv_text,
    )

    config = _load_json(args.config)
    if not isinstance(config, dict) or "kind" not in config:
        raise InputDomainError(f'{args.config}: config must be an object with a "kind" key')
    kind = config["kind"]
    seed = config.get("seed", args.seed)
    out = args.out or f"experiment-{kind}"
    seed = _resolve_seed_arg(None if seed is None else _number("seed", seed, int), out)
    json_path = out if out.endswith(".json") else out + ".json"
    csv_path = (out[:-5] if out.endswith(".json") else out) + ".csv"

    try:
        if kind == "genericity":
            d, r = _number("d", config["d"], int), _number("r", config["r"], int)
            ell = config.get("ell")
            ell = None if ell is None else _number("ell", ell, int)
            n_max = _number("n_max", config.get("n_max", 8), int)
            trials = _number("trials", config.get("trials", args.trials if args.trials is not None else 100), int)
            sing_tol = _number("sing_tol", config.get("sing_tol", args.sing_tol), float)
            count = r - (ell if ell is not None else default_free_count(d, r))
            study = GenericityStudy(
                d=d,
                r=r,
                suffix=_suffix_from_config(config, d, count, seed),
                trials=trials,
                n_max=n_max,
                seed=seed,
                ell=ell,
                sing_tol=sing_tol,
            )
            result = run_genericity(study)
            summary = _stamp(result.to_json_obj(), seed, sing_tol)
            _write_json(json_path, summary)
            _write_text(csv_path, trial_csv_text(result))
            print(
                f"trials: {study.trials}, singular: {result.n_singular}, "
                f"failed: {result.n_failed}, min ratio: {result.ratio_quartiles[0]:.3e}"
            )
            return EXIT_OK

        if kind == "search":
            d, r, n = (_number(key, config[key], int) for key in ("d", "r", "n"))
            # keys the config leaves out keep SearchSettings' defaults, but the target is --sing-tol's
            kinds = {"restarts": int, "max_iter": int, "target_ratio": float}
            given = {key: _number(key, config[key], kind) for key, kind in kinds.items() if key in config}
            given.setdefault("target_ratio", args.sing_tol)
            settings = SearchSettings(
                **given,
                base_tuple=(
                    RotationTuple.from_json_obj(config["base_tuple"])
                    if "base_tuple" in config
                    else None
                ),
            )
            run = search_divisible(d, r, n, settings, rng=seed)
            summary = _stamp(run.to_json_obj(), seed, settings.target_ratio)
            _write_json(json_path, summary)
            _write_text(csv_path, search_csv_text(run))
            print(
                f"best ratio: {run.best_ratio:.3e}, certified: {run.certified}"
            )
            return EXIT_OK
    except KeyError as exc:
        raise InputDomainError(f"{args.config}: missing config key {exc}") from exc

    raise InputDomainError(f'{args.config}: unknown experiment kind {kind!r}')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherediv",
        description="Decide, certify, and construct fractional divisions of spheres by rotations.",
    )
    parser.add_argument("--version", action="version", version=f"spherediv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="divisibility test for a rotation-tuple JSON file")
    p_test.add_argument("--input", required=True, help="rotation tuple JSON file")
    p_test.add_argument("--n-max", type=int, default=8, dest="n_max")
    p_test.add_argument("--sing-tol", type=float, default=DEFAULT_SING_TOL, dest="sing_tol")
    p_test.add_argument("--seed", type=int, default=None)
    p_test.add_argument("--out", default=None, help="report path (default: stdout)")
    p_test.add_argument("--format", choices=["json", "csv"], default="json")
    p_test.set_defaults(func=cmd_test)

    p_con = sub.add_parser("construct", help="emit an explicit construction")
    p_con.add_argument("kind", choices=["planar", "odd-d4", "d2-analyze"])
    p_con.add_argument("--d", type=int, default=None)
    p_con.add_argument("--r", type=int, default=None)
    p_con.add_argument("--n", type=int, default=None, help="degree for d2-analyze")
    p_con.add_argument(
        "--angles",
        type=lambda s: [float(tok) for tok in s.split(",") if tok.strip()],
        default=None,
        help="comma-separated fixed angles (radians) for d2-analyze",
    )
    p_con.add_argument("--gamma1", default=None, help="JSON file with the free rotation (odd-d4)")
    p_con.add_argument("--samples", type=int, default=100_000)
    p_con.add_argument("--seed", type=int, default=None)
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_construct)

    p_exp = sub.add_parser("experiment", help="run a genericity study or a search")
    p_exp.add_argument("--config", required=True, help="experiment config JSON file")
    p_exp.add_argument("--seed", type=int, default=None, help="seed if absent from config")
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--sing-tol", type=float, default=DEFAULT_SING_TOL, dest="sing_tol")
    p_exp.add_argument("--out", default=None, help="output basename or .json path")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = EXIT_OK
    try:
        try:
            code = args.func(args)
        except InputDomainError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            code = EXIT_INPUT
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and send what is still buffered to
        # the null device, so that the flush at exit cannot raise again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
