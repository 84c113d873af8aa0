import numpy as np
import pytest

from fracadi import GridFn, Mesh


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_mesh():
    return Mesh(L1=1.0, L2=1.5, M1=8, M2=10, T=1.0, N=4)


def random_field(mesh: Mesh, rng: np.random.Generator) -> GridFn:
    return GridFn(mesh, rng.standard_normal(mesh.shape))
