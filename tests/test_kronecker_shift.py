"""The sampler's seeded shift: an exact port of numpy's SeedSequence and PCG64.

The shift must equal default_rng(seed)'s first words, so every sample and
report keeps its bytes, and no sampled run may import numpy.random.
"""

import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from heispde import _pcg64, checker

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _numpy_words(seed, k):
    return np.random.default_rng(seed).integers(0, 2**64, size=k, dtype=np.uint64)


# Every k the sampler asks for: 2d + 3 on H^1..H^16 (5..35), 1 + 2 ceil(n / 2) on R^2..R^9 (3..11).
SAMPLER_KS = range(3, 36, 2)
# Each 32-bit word boundary up to five words (past the pool's four), and 10^40.
BOUNDARY_SEEDS = sorted(
    {0, 1, 10**40} | {(1 << bits) + delta for bits in (32, 64, 96, 128, 160) for delta in (-1, 0, 1)} | {(1 << 128) + 11}
)
_rng = random.Random(20201029)
RANDOM_SEEDS = [_rng.getrandbits(_rng.randint(1, 200)) for _ in range(300)]


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_port_matches_default_rng_at_word_boundaries(seed):
    for k in range(1, 36):
        assert np.array_equal(checker._kronecker_shift(k, seed), _numpy_words(seed, k)), k


def test_port_matches_default_rng_on_random_seeds():
    for seed in RANDOM_SEEDS:
        for k in SAMPLER_KS:
            assert list(_pcg64.words(seed, k)) == _numpy_words(seed, k).tolist(), (seed, k)


def test_shift_is_a_uint64_word_per_coordinate():
    shift = checker._kronecker_shift(35, (1 << 64) - 1)
    assert shift.dtype == np.uint64 and shift.shape == (35,)


def test_src_names_no_numpy_random():
    pattern = re.compile(r"\bnp\.random\b|import numpy\.random|from numpy\.random|from numpy import random")
    hits = []
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    hits += [(name, m.group()) for m in pattern.finditer(fh.read())]
    assert hits == []


# Runs in a fresh interpreter: pytest plugins may import numpy.random themselves.
_FOOTPRINT = """
import contextlib, dataclasses, io, json, os, sys, tempfile
import numpy
if "numpy.random" in sys.modules:
    print(json.dumps("preloaded"))
    sys.exit(0)
from heispde import cli
from heispde.checker import OperatorSpec, Region, check_inequality, check_lyapunov, lyapunov_fixture
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

dims, e = HeisDims(2), Ellipticity(1.0, 1.5)
field = field_from_profile(make_profile("u4", e, dims), dims)
region = Region(0.1, 5.0, n_samples=2048, seed=3, char_eps=0.02)
spec = OperatorSpec("pucci_max", ell=e)
cond, data, _ = lyapunov_fixture("hou", dims)
steps = {
    "spectral": lambda: check_inequality(field, spec, region).paths["chart"],
    "dense": lambda: check_inequality(dataclasses.replace(field, name="wrapped"), spec, region).paths["placed"],
    "lyapunov": lambda: check_lyapunov(cond, data, e, Region(4.0, 16.0, n_samples=2048, seed=1, char_eps=0.05), dims).n_evaluated,
}
with tempfile.TemporaryDirectory() as tmp:
    for name in ("verify-u4", "lyapunov-hou"):
        steps[name] = lambda name=name: cli.run_fixture(name, os.path.join(tmp, "report.json")) == 0
    loaded, done = [], {}
    for name, step in steps.items():
        with contextlib.redirect_stdout(io.StringIO()):
            done[name] = bool(step())
        if "numpy.random" in sys.modules:
            loaded.append(name)
print(json.dumps({"done": done, "loaded": loaded}))
"""


def test_sampled_runs_do_not_import_numpy_random():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if result == "preloaded":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert result["done"] == dict.fromkeys(["spectral", "dense", "lyapunov", "verify-u4", "lyapunov-hou"], True)
    assert result["loaded"] == []
