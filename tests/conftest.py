import numpy as np
import pytest

from qdverify import dv, povm
from qdverify.linalg import DensityOperator, random_density_matrix, tensor
from qdverify.phasespace import FockOperator


@pytest.fixture(scope="session")
def sic():
    return povm.sic_qubit()


@pytest.fixture(scope="session")
def sic_duals(sic):
    return povm.dual_frame(sic)


@pytest.fixture(scope="session")
def bell():
    return dv.generate_maximally_entangled(2)


def random_product_state(seed: int, dim_a: int = 2, dim_b: int = 2) -> DensityOperator:
    rng = np.random.default_rng(seed)
    m = tensor(random_density_matrix(dim_a, rng), random_density_matrix(dim_b, rng))
    return DensityOperator(m, bipartition=(dim_a, dim_b))


def random_bipartite_state(seed: int, dim_a: int = 2, dim_b: int = 2) -> DensityOperator:
    rng = np.random.default_rng(seed)
    return DensityOperator(random_density_matrix(dim_a * dim_b, rng),
                           bipartition=(dim_a, dim_b))


def random_diagonal_fock(cutoff: int, seed: int) -> FockOperator:
    """Diagonal Fock density on levels 0..cutoff-2; any two commute."""
    rng = np.random.default_rng(seed)
    w = np.zeros(cutoff + 1)
    w[:cutoff - 1] = rng.random(cutoff - 1)
    return FockOperator(cutoff, np.diag(w / w.sum()))
