"""Two-mode Gaussian states: a covariance checked physical on construction,
its standard form, and the heterodyne peak test for discord.

Quadrature conventions: the mode operators are a = x1 + i p1 and
b = x2 + i p2, the quadrature vector is (x1, p1, x2, p2), and the vacuum
variance is 1/4. Physicality is the matrix constraint
sigma + (i/4) Omega >= 0, which GaussianState checks on construction.

A heterodyne outcome alpha = (x1', p1') on the first mode has covariance
A + I/4, so conditioning on it is a Schur complement: the second mode keeps
mean m_B + G (alpha - m_A) and covariance B - G C, with gain
G = C^T (A + I/4)^{-1} and m the state's mean. The covariance does not
depend on alpha, and G is solved once per state. G exists for every
physical A and vanishes exactly when C does, so two outcomes that differ in
both quadratures decide the discord question for Gaussian states.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateOutcomes, DomainError, Unphysical, check_threshold
from .dv import CONSISTENT_WITH_ZERO, NONZERO_DISCORD, Verdict
from .linalg import hermitian_defect, hermitian_eig

VACUUM_VARIANCE = 0.25

PHYSICALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
DEFAULT_DECISION_TOL = 1e-9     # peak shift per outcome shift; cross-block entry

# random_physical_state draw ranges: thermal occupation, squeeze magnitude
MAX_THERMAL = 1.5
MAX_SQUEEZE = 0.6

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])


@dataclass
class GaussianState:
    """Quadrature means and 4x4 covariance matrix of a two-mode state.

    Construction checks the shape and finiteness (DomainError), symmetry
    within SYMMETRY_TOL (DomainError) and the uncertainty constraint
    sigma + (i/4) Omega >= 0 within PHYSICALITY_TOL (Unphysical)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(4)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (4, 4):
            raise DomainError(f"covariance must be 4x4, got {self.cov.shape}")
        if not np.all(np.isfinite(self.cov)) or not np.all(np.isfinite(self.mean)):
            raise DomainError("non-finite covariance or mean")
        if hermitian_defect(self.cov) > SYMMETRY_TOL:
            raise DomainError("covariance matrix is not symmetric")
        if hermitian_eig(self.cov + 0.25j * OMEGA).eigenvalues[-1] < -PHYSICALITY_TOL:
            raise Unphysical("covariance violates the uncertainty constraint")


@dataclass
class StandardForm:
    """A = aI, B = bI, C = diag(c, d), reached from the input covariance
    cov by the local symplectic `local`: local @ cov @ local.T ~ as_cov()."""

    a: float
    b: float
    c: float
    d: float
    local: np.ndarray

    def as_cov(self) -> np.ndarray:
        return np.diag([self.a, self.a, self.b, self.b]) + np.block([
            [np.zeros((2, 2)), np.diag([self.c, self.d])],
            [np.diag([self.c, self.d]), np.zeros((2, 2))]])


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _squeeze(r: float) -> np.ndarray:
    return np.diag([np.exp(r), np.exp(-r)])


def _local(mode_a: np.ndarray, mode_b: np.ndarray) -> np.ndarray:
    """4x4 local operation: mode_a on the first mode, mode_b on the second."""
    out = np.zeros((4, 4))
    out[:2, :2] = mode_a
    out[2:, 2:] = mode_b
    return out


def _diagonalizing_angle(m: np.ndarray) -> float:
    """Rotation angle theta with rot(theta) m rot(theta)^T diagonal."""
    if abs(m[0, 1]) <= 1e-14 * max(1.0, abs(m[0, 0]), abs(m[1, 1])):
        return 0.0
    return 0.5 * np.arctan2(2.0 * m[0, 1], m[0, 0] - m[1, 1])


def standard_form(g: GaussianState) -> StandardForm:
    """Reduce the covariance to A = aI, B = bI, C = diag(c, d).

    Three stages of local (per-mode) symplectics: rotations diagonalize the
    A and B blocks, single-mode squeezers balance their diagonals, and a
    final pair of rotations diagonalizes the cross block. Rotations are
    special orthogonal, so diagonalizing C may leave d negative; the result
    is canonicalized to c >= 0 with the sign of d free. Local symplectic
    invariants (det of each block and of the full matrix) are preserved.
    """
    cov = g.cov.copy()

    theta_a1 = _diagonalizing_angle(cov[:2, :2])
    theta_b1 = _diagonalizing_angle(cov[2:, 2:])
    s1 = _local(_rot(theta_a1), _rot(theta_b1))
    cov = s1 @ cov @ s1.T

    a1, a2 = cov[0, 0], cov[1, 1]
    b1, b2 = cov[2, 2], cov[3, 3]
    r_a = 0.0 if abs(a1 - a2) <= SYMMETRY_TOL else 0.25 * np.log(a2 / a1)
    r_b = 0.0 if abs(b1 - b2) <= SYMMETRY_TOL else 0.25 * np.log(b2 / b1)
    s2 = _local(_squeeze(r_a), _squeeze(r_b))
    cov = s2 @ cov @ s2.T

    theta_a2, theta_b2 = _c_diagonalizing_rotations(cov[:2, 2:])
    s3 = _local(_rot(theta_a2), _rot(theta_b2))
    cov = s3 @ cov @ s3.T

    a = 0.5 * (cov[0, 0] + cov[1, 1])
    b = 0.5 * (cov[2, 2] + cov[3, 3])
    return StandardForm(float(a), float(b), float(cov[0, 2]), float(cov[1, 3]),
                        s3 @ s2 @ s1)


def _c_diagonalizing_rotations(c: np.ndarray) -> Tuple[float, float]:
    """Rotation angles (mode 1, mode 2) making rot(ta) c rot(tb)^T diagonal.

    Closed-form two-sided rotation SVD of the 2x2 block. Splitting c into
    its rotation-like part (which commutes with rotations) and its
    reflection-like part (which conjugates) gives diag(q + r, q - r) with
    q, r >= 0, so the first diagonal entry is nonnegative by construction
    and only the second may pick up the sign a reflection would otherwise
    absorb.
    """
    e = 0.5 * (c[0, 0] + c[1, 1])
    f = 0.5 * (c[0, 0] - c[1, 1])
    gg = 0.5 * (c[0, 1] + c[1, 0])
    h = 0.5 * (c[0, 1] - c[1, 0])
    if abs(gg) + abs(h) <= 1e-15 * max(1.0, np.max(np.abs(c))) and e >= 0 and f >= 0:
        return 0.0, 0.0
    psi = np.arctan2(h, e)
    chi = np.arctan2(gg, f)
    return 0.5 * (chi - psi), 0.5 * (chi + psi)


def heterodyne_condition(sf: StandardForm) -> Tuple[np.ndarray, np.ndarray]:
    """Gain G = C^T (A + I/4)^{-1} and conditional covariance B - G C of
    mode 2 after a heterodyne on mode 1.

    An outcome alpha = (x1', p1') moves the conditional mean of the
    zero-mean state to G alpha, the peak of its Wigner function; the
    covariance does not depend on alpha.
    """
    cov = sf.as_cov()
    gain = np.linalg.solve(cov[:2, :2] + VACUUM_VARIANCE * np.eye(2), cov[:2, 2:]).T
    return gain, cov[2:, 2:] - gain @ cov[:2, 2:]


def peak_coincidence_test(state: GaussianState, out1: complex, out2: complex,
                          tol: float) -> Verdict:
    """Compare B's conditional peaks for two heterodyne outcomes on A.

    The state is brought to its standard form, whose frame the outcomes and
    the peaks are in; the peaks are those of the state itself, its mean
    included. The outcomes must differ in both quadratures; otherwise the
    test is blind to one of the two cross couplings and DegenerateOutcomes
    is raised. The verdict is decided per quadrature, on the peak shift per
    unit outcome shift against tol, so it depends neither on how far apart
    the outcomes are nor on the mean, which moves both peaks alike;
    separation reports the raw peak distance. Outcomes, their differences
    and the peaks must be finite (DomainError): an infinite outcome shift
    would read as a zero peak shift per unit. The witnesses carry the cross
    block's own decision, max |C| of the input against tol, beside the peaks.
    """
    sf = standard_form(state)
    check_threshold("tol", tol)
    if not np.isfinite([out1, out2, out1 - out2]).all():
        raise DomainError("outcomes and their differences must be finite")
    if out1.real == out2.real or out1.imag == out2.imag:
        raise DegenerateOutcomes(
            "outcomes must differ in both quadratures to probe both c and d")
    with np.errstate(over="ignore", invalid="ignore"):    # refused just below
        gain, _ = heterodyne_condition(sf)
        m = sf.local @ state.mean       # the mean in the standard-form frame
        p1, p2, p_m = (complex(*(gain @ [z.real, z.imag]))
                       for z in (out1, out2, complex(m[0], m[1])))
        shift = complex(m[2], m[3]) - p_m
    if not np.isfinite([p1, p2, p1 - p2, p1 + shift, p2 + shift]).all():
        raise DomainError("conditional peaks overflow for these outcomes")
    gain_x = abs(p1.real - p2.real) / abs(out1.real - out2.real)
    gain_p = abs(p1.imag - p2.imag) / abs(out1.imag - out2.imag)
    cross = abs(state.cov[:2, 2:]).max()
    return Verdict(NONZERO_DISCORD if max(gain_x, gain_p) > tol else CONSISTENT_WITH_ZERO, {
        "standard_form": {k: getattr(sf, k) for k in "abcd"},
        "peak_1": p1 + shift, "peak_2": p2 + shift, "separation": abs(p1 - p2),
        "outcome_1": out1, "outcome_2": out2,
        "cov_block_decision": {"pipeline": "gaussian_cov", "zero_discord": bool(cross <= tol),
                               "max_abs_cross_block": cross},
    }, {"peak_shift_per_outcome_shift": tol})


# Constructors for common states and random physical covariances.

def vacuum() -> GaussianState:
    return GaussianState(np.zeros(4), VACUUM_VARIANCE * np.eye(4))


def thermal_product(nbar1: float, nbar2: float) -> GaussianState:
    v1 = VACUUM_VARIANCE * (2.0 * nbar1 + 1.0)
    v2 = VACUUM_VARIANCE * (2.0 * nbar2 + 1.0)
    return GaussianState(np.zeros(4), np.diag([v1, v1, v2, v2]))


def two_mode_squeezed_vacuum(r: float) -> GaussianState:
    """TMSV with a = b = cosh(2r)/4 and c = -d = sinh(2r)/4."""
    ch = np.cosh(2.0 * r) * VACUUM_VARIANCE
    sh = np.sinh(2.0 * r) * VACUUM_VARIANCE
    cov = np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ])
    return GaussianState(np.zeros(4), cov)


def beamsplitter(theta: float) -> np.ndarray:
    """Symplectic of a beamsplitter mixing the two modes."""
    c, s = np.cos(theta), np.sin(theta)
    return np.block([[c * np.eye(2), s * np.eye(2)],
                     [-s * np.eye(2), c * np.eye(2)]])


def random_physical_state(rng: np.random.Generator,
                          product: bool = False) -> GaussianState:
    """Random physical two-mode covariance via a symplectic on thermal noise.

    Thermal occupations (up to MAX_THERMAL) and local rotation and squeeze
    parameters (up to MAX_SQUEEZE in magnitude) are drawn uniformly; unless
    product is set, a beamsplitter and a two-mode squeeze entangle the modes.
    """
    nu1 = 1.0 + 2.0 * rng.uniform(0.0, MAX_THERMAL)
    nu2 = 1.0 + 2.0 * rng.uniform(0.0, MAX_THERMAL)
    cov = VACUUM_VARIANCE * np.diag([nu1, nu1, nu2, nu2])
    s = _local(
        _rot(rng.uniform(0, 2 * np.pi)) @ _squeeze(rng.uniform(-MAX_SQUEEZE, MAX_SQUEEZE)),
        _rot(rng.uniform(0, 2 * np.pi)) @ _squeeze(rng.uniform(-MAX_SQUEEZE, MAX_SQUEEZE)))
    cov = s @ cov @ s.T
    if not product:
        r = rng.uniform(0.1, MAX_SQUEEZE)
        tm = np.block([
            [np.cosh(r) * np.eye(2), np.sinh(r) * np.diag([1.0, -1.0])],
            [np.sinh(r) * np.diag([1.0, -1.0]), np.cosh(r) * np.eye(2)],
        ])
        cov = tm @ cov @ tm.T
        bs = beamsplitter(rng.uniform(0, 2 * np.pi))
        cov = bs @ cov @ bs.T
    cov = (cov + cov.T) / 2.0
    return GaussianState(np.zeros(4), cov)
