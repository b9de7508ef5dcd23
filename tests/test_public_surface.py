"""Every name the package exports is used outside the test suite, and every name a module imports is used in it.

Public API that only tests call is a cost, not a feature.  A name counts as
used when a ``spherediv`` module other than ``__init__`` refers to it other
than by its definition (an import, a call, an annotation), or when it appears
in the demos, the benchmark, the README or the acceptance criteria.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spherediv
from spherediv import constructions, divisibility, errors, experiments, harmonics, rotations, sampling

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spherediv"


def exported_names():
    return list(spherediv.__all__)


def used_names():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        # definitions and __all__ strings are not Name, Attribute or alias nodes
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    outside = [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    for path in outside:
        used.update(re.findall(r"\w+", path.read_text()))
    return used


def test_every_export_is_used_outside_tests():
    used = used_names()
    assert [name for name in exported_names() if name not in used] == []


def test_every_import_is_used():
    # ``__init__`` imports only to re-export; elsewhere an import no line reads is left over from a deletion
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read - {"annotations"})]
    assert unused == []


ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

# the module that defines each exported name
DEFINED_IN = {
    constructions: ["CircleAnalysis", "PlanarDivision", "analyze_circle", "circle_bad_angles", "circle_sum_matrix",
                    "odd_d4_suffix", "odd_d4_tuple", "planar_division"],
    divisibility: ["DegreeRecord", "DivisibilityReport", "DivisorFunction", "HarmonicFunction", "VerificationResult",
                   "ZonalBasis", "build_zonal_basis", "divisibility_test", "kernel_witness", "make_divisor",
                   "operator_gram", "operator_matrix", "verify_divisor", "weighted_singular_values"],
    errors: ["BasisConstructionError", "InputDomainError", "NoFixedPointError", "NotSingularError"],
    experiments: ["GenericityResult", "GenericityStudy", "SearchRun", "SearchSettings", "cayley_rotation",
                  "default_free_count", "run_genericity", "search_divisible"],
    harmonics: ["GegenbauerTable", "dim_harmonic", "sphere_area", "zonal_inner_product"],
    rotations: ["Rotation", "RotationTuple", "fixed_point", "haar_sample", "planar_rotation"],
    sampling: ["as_rng", "derive_rng", "uniform_sphere"],
}


def test_import_loads_no_openssl():
    # ``secrets`` loads hmac and OpenSSL's _hashlib: 3.7 MB of RSS in every process
    code = "import sys, spherediv; loaded = {'_hashlib', 'ssl'} & set(sys.modules); assert not loaded, loaded"
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV)


def test_every_name_is_its_modules_object():
    names = [name for listed in DEFINED_IN.values() for name in listed]
    assert len(names) == len(set(names)) == 46
    assert sorted(spherediv.__all__) == sorted(names)
    assert set(names) <= set(dir(spherediv))
    for module, listed in DEFINED_IN.items():
        for name in listed:
            assert getattr(spherediv, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from spherediv import *", namespace)
    assert all(namespace[name] is getattr(spherediv, name) for name in spherediv.__all__)


def test_unknown_attribute_is_refused():
    with pytest.raises(AttributeError, match="spherediv"):
        spherediv.nope  # noqa: B018
    assert not hasattr(spherediv, "nope")


def test_each_name_loads_on_first_use():
    # in a fresh process a lazy module loads at its first name, from either import form, and no sooner
    code = """
import sys
import spherediv
assert "spherediv.experiments" not in sys.modules and "spherediv.constructions" not in sys.modules
from spherediv import planar_division
assert "spherediv.constructions" in sys.modules and "spherediv.experiments" not in sys.modules
assert planar_division is sys.modules["spherediv.constructions"].planar_division
assert spherediv.search_divisible is sys.modules["spherediv.experiments"].search_divisible
"""
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV, timeout=60)


def test_deciding_loads_only_the_decision_core():
    # one tuple per route (Gram, pair, circle), then a study: none of them needs experiments,
    # constructions, the CLI, csv or numpy.ma (which np.percentile imports through np.unique)
    code = """
import json, sys
from spherediv import RotationTuple, divisibility_test, haar_sample
planar = RotationTuple.from_json_obj(json.loads(sys.stdin.read()))
triple = RotationTuple(tuple(haar_sample(4, seed) for seed in (1, 2, 3)))
pair = RotationTuple(tuple(haar_sample(4, seed) for seed in (4, 5)))
assert not divisibility_test(triple, 3, rng=0).divisible
assert not divisibility_test(pair, 3, rng=0).divisible
assert divisibility_test(planar, 3, rng=0).divisible
unloaded = ["spherediv.experiments", "spherediv.constructions", "spherediv.cli", "csv", "numpy.ma"]
loaded = [name for name in unloaded if name in sys.modules]
assert not loaded, loaded
from spherediv import GenericityStudy, run_genericity
study = GenericityStudy(d=3, r=3, suffix=(haar_sample(3, 6), haar_sample(3, 7)), trials=20, n_max=2, seed=8, ell=1)
run_genericity(study)
assert "numpy.ma" not in sys.modules
"""
    planar = json.dumps(constructions.planar_division(4, 3).rotations.to_json_obj())
    subprocess.run([sys.executable, "-c", code], input=planar, text=True, check=True, env=ENV, timeout=60)
