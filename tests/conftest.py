import json

import numpy as np
import pytest

from qdverify import dv, gaussian, povm, statefile
from qdverify.errors import DimMismatch
from qdverify.linalg import DensityOperator, dag, random_density_matrix, tensor
from qdverify.phasespace import WignerGrid, square_geometry


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


def reconstruct_joint(e: dv.ConditionalEnsemble, duals: np.ndarray) -> DensityOperator:
    """Rebuild the joint state as sum_k p_k N_k x rho_{B|k}, from the dual
    frame N of the POVM measured on A."""
    if len(duals) != len(e.probabilities):
        raise DimMismatch("dual frame does not match the ensemble's POVM")
    da, db = duals.shape[-1], e.states.shape[-1]
    p = e.present
    out = np.einsum("k,kac,kbd->abcd", e.probabilities[p], duals[p],
                    e.states[p]).reshape(da * db, da * db)
    out = (out + dag(out)) / 2.0
    return DensityOperator(out, bipartition=(da, db))


def random_diagonal_fock(cutoff: int, seed: int) -> np.ndarray:
    """Diagonal Fock density on levels 0..cutoff-2; any two commute."""
    rng = np.random.default_rng(seed)
    w = np.zeros(cutoff + 1)
    w[:cutoff - 1] = rng.random(cutoff - 1)
    return np.diag(w / w.sum()).astype(complex)


def _with(doc: dict, key: str, value) -> dict:
    tree = json.loads(statefile.render(doc))
    tree[key] = value
    return tree


_VACUUM = gaussian.vacuum()
# Files whose real matrix or mean is a string, or a list of strings, in place
# of rows of numbers
STRING_ROW_DOCUMENTS = {
    "grid_values": _with(statefile.wigner_grid_doc(
        WignerGrid(square_geometry(1.0, 2), np.zeros((2, 2)))), "values", ["12", "34"]),
    "gaussian_cov": _with(statefile.gaussian_doc(_VACUUM), "cov",
                          ["1000", "0100", "0010", "0001"]),
    "gaussian_mean": _with(statefile.gaussian_doc(_VACUUM), "mean", "0000"),
}
