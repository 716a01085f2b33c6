import json

import numpy as np
import pytest

from qdverify import dv, gaussian, povm, statefile
from qdverify.errors import DimMismatch
from qdverify.linalg import DensityOperator, dag, frobenius_norm, random_density_matrix, tensor
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


def kron_joint_probabilities(rho: DensityOperator, povm_a: povm.Povm,
                             povm_b: povm.Povm) -> np.ndarray:
    """p(k, m) = Tr[(M_k x M_m) rho], one Kronecker product per pair of effects."""
    return np.array([[np.trace(np.kron(ma, mb) @ rho.matrix).real for mb in povm_b.effects]
                     for ma in povm_a.effects])


def assert_close_to_kron_oracle(probs: np.ndarray, rho: DensityOperator,
                                povm_a: povm.Povm, povm_b: povm.Povm) -> None:
    """probs equals kron_joint_probabilities up to the rounding of either route.

    Both sum the D^2 = (d_A d_B)^2 products M_k[a, c] M_m[b, d] rho[cd, ab],
    whose magnitudes add up to at most ||M_k||_F ||M_m||_F ||rho||_F <=
    ||M_k||_F ||M_m||_F (Cauchy-Schwarz; ||rho||_F <= Tr rho = 1). A sum of
    n complex products lies within sqrt(2) (n + 2) u of the exact value, in
    units of that sum of magnitudes and to first order in the unit roundoff
    u, so the two routes differ by at most 2 sqrt(2) (D^2 + 2) u ||M_k||_F ||M_m||_F.
    """
    u = np.finfo(float).eps / 2
    norms = np.outer(frobenius_norm(povm_a.effects), frobenius_norm(povm_b.effects))
    tol = 2.0 * np.sqrt(2.0) * (rho.dim ** 2 + 2) * u * norms
    diff = np.abs(probs - kron_joint_probabilities(rho, povm_a, povm_b))
    assert np.all(diff <= tol), (diff.max(), tol.min())


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
