import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracadi
from fracadi import GridFn, Mesh


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_mesh():
    return Mesh(L1=1.0, L2=1.5, M1=8, M2=10, T=1.0, N=4)


def random_field(mesh: Mesh, rng: np.random.Generator) -> GridFn:
    return GridFn(mesh, rng.standard_normal(mesh.shape))


def run_fresh(code):
    """What ``code`` prints when run in a fresh interpreter on this
    package, stripped."""
    src = str(Path(fracadi.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return run.stdout.strip()


# the largest mesh side a test may sample problem data on
_WIDE_CELLS = 1000


@pytest.fixture
def no_wide_samples(monkeypatch):
    """Make every problem-data sample on a mesh wider than ``_WIDE_CELLS``
    cells raise, so a test of an oversized run fails without allocating
    the run's fields even where the size rule does not hold."""
    from fracadi import adisolver, cli, problems, studies, verify

    def guarded(sample):
        def wrapper(func, mesh, *args, **kwargs):
            if max(mesh.M1, mesh.M2) > _WIDE_CELLS:
                raise RuntimeError(
                    f"sampled on a {mesh.M1}x{mesh.M2} mesh in a test")
            return sample(func, mesh, *args, **kwargs)
        return wrapper

    for module in (problems, adisolver, cli, studies, verify):
        for name in ("sample_xy", "sample_xyt"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    guarded(getattr(module, name)))
