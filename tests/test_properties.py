"""Property-based tests: the eigensolver and the soundness of the DV test."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdverify import dv, povm
from qdverify.linalg import dag, frobenius_norm, hermitian_eig, random_unitary

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def hermitian_matrices(draw):
    """Random Hermitian matrices of size 1-9; half have repeated eigenvalues."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # few distinct values over n slots forces multiplicities
        levels = rng.normal(size=draw(st.integers(1, 3)))
        w = rng.choice(levels, size=n)
        u = random_unitary(n, rng)
        h = (u * w) @ dag(u)
    else:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = g + dag(g)
    return (h + dag(h)) / 2.0


@PROPERTY_SETTINGS
@given(hermitian_matrices())
def test_hermitian_eig_residual_orthonormal_descending(h):
    e = hermitian_eig(h)
    v, w = e.eigenvectors, e.eigenvalues
    assert frobenius_norm(h @ v - v * w) <= 1e-10 * frobenius_norm(h)
    assert frobenius_norm(dag(v) @ v - np.eye(len(w))) <= 1e-10
    assert np.all(np.diff(w) <= 0.0)


@PROPERTY_SETTINGS
@given(dim_a=st.integers(2, 4), dim_b=st.integers(2, 4),
       state_seed=st.integers(0, 2 ** 31 - 1), povm_seed=st.integers(0, 2 ** 31 - 1))
def test_classical_quantum_states_never_flagged(dim_a, dim_b, state_seed, povm_seed):
    # Dakic, Vedral and Brukner, PRL 105, 190502 (2010): a state classical
    # on B leaves B's conditionals diagonal in one basis, so they commute
    rho = dv.generate_zero_discord(dim_a, dim_b, state_seed)
    ens = dv.condition_on_povm(rho, povm.random_ic_povm(dim_a, povm_seed))
    assert dv.verify_commutativity(ens).verdict == dv.CONSISTENT_WITH_ZERO
