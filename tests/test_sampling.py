import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherediv import GenericityStudy, InputDomainError, derive_rng, haar_sample, uniform_sphere
from spherediv.experiments import _draw_trials
from spherediv.sampling import _spawn_states, derive_rngs

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}

# one- and two-word seeds, and 2^64 + 5 and 2^200 + 7, whose entropy passes the pool's four words
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**200 + 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_state_rows_are_numpys(seed):
    ks = [0, 1, 999, 2**16, 70_000]
    rows = _spawn_states(seed, (1,), np.array(ks, dtype=np.uint32))
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(1, k)).generate_state(4, np.uint64) for k in ks]
    assert rows.dtype == np.uint64
    assert np.array_equal(rows, np.array(want))


@pytest.mark.parametrize("keys", [(), (1,), (2, 5, 3), (2**40,)])
def test_state_rows_under_any_key_prefix(keys):
    rows = _spawn_states(2**64 + 5, keys, np.arange(3, dtype=np.uint32))
    for k, row in enumerate(rows):
        want = np.random.SeedSequence(entropy=2**64 + 5, spawn_key=keys + (k,)).generate_state(4, np.uint64)
        assert np.array_equal(row, want)


def test_drawn_trials_are_derive_rngs():
    # a study's Gaussians, rotations and trial seeds equal those of derive_rng(seed, 1, k) per trial
    seed, d, ell, trials = 2**64 + 5, 4, 2, 2000
    study = GenericityStudy(d=d, r=ell, suffix=(), trials=trials, n_max=1, seed=seed, ell=ell)
    free, seeds = _draw_trials(study)
    gauss = np.array([rng.standard_normal((ell, d, d)) for rng in derive_rngs(seed, 1, count=trials)])
    want_gauss, want_free, want_seeds = [], [], []
    for k in range(trials):
        want_gauss.append(derive_rng(seed, 1, k).standard_normal((ell, d, d)))
        rng = derive_rng(seed, 1, k)
        want_free.append([haar_sample(d, rng).matrix for _ in range(ell)])
        want_seeds.append(int(rng.integers(0, 2**63)))
    assert np.array_equal(gauss, np.array(want_gauss))
    assert np.array_equal(free, np.array(want_free))
    assert seeds == want_seeds


@pytest.mark.parametrize(
    "seed, keys, count",
    [(-1, (1,), 3), (1.5, (1,), 3), (True, (1,), 3), (1, (-1,), 3), (1, (2.0,), 3), (1, (1,), 0), (1, (1,), 2.5), (1, (1,), 2**32 + 1)],
)
def test_derive_rngs_refuses_at_the_call(seed, keys, count):
    with pytest.raises(InputDomainError):
        derive_rngs(seed, *keys, count=count)


def test_import_leaves_numpy_random_unloaded():
    code = "import sys, spherediv; assert 'numpy.random' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV, timeout=60)


@pytest.mark.parametrize("d", range(1, 9))
def test_uniform_sphere_normalizes_its_gaussian_draw(d):
    # the points are z / |z| of the seed's Gaussian draw z, bit for bit, with |z| from the documented einsum
    z = np.random.default_rng(577 + d).standard_normal((2_000, d))
    want = z / np.sqrt(np.einsum("ij,ij->i", z, z))[:, None]
    assert uniform_sphere(d, 2_000, 577 + d).tobytes() == want.tobytes()


def test_uniform_sphere_refuses_bad_counts():
    # in a child process with a timeout: at d = 0 every norm is 0 and a resample loop would never end
    code = """
from spherediv import InputDomainError, uniform_sphere
for d, size in [(0, 5), (-1, 5), (3, -1), (2.5, 5), (3, 2.5), (True, 5), (3, True)]:
    try:
        uniform_sphere(d, size, 1)
    except InputDomainError:
        continue
    raise AssertionError(f"uniform_sphere({d!r}, {size!r}) was not refused")
assert uniform_sphere(1, 4, 1).shape == (4, 1) and uniform_sphere(3, 0, 1).shape == (0, 3)
"""
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV, timeout=60)
