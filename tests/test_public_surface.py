"""Every name the package exports is used outside the test suite, and every name a module imports is used in it.

Public API that only tests call is a cost, not a feature.  A name counts as
used when a ``spherediv`` module other than ``__init__`` refers to it other
than by its definition (an import, a call, an annotation), or when it appears
in the demos, the benchmark, the README or the acceptance criteria.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spherediv"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


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


def test_import_loads_no_openssl():
    # ``secrets`` loads hmac and OpenSSL's _hashlib: 3.7 MB of RSS in every process
    code = "import sys, spherediv; loaded = {'_hashlib', 'ssl'} & set(sys.modules); assert not loaded, loaded"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
