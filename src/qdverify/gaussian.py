"""Two-mode Gaussian states: covariance validation, standard form, and the
heterodyne peak test for discord.

Quadrature conventions: the mode operators are a = x1 + i p1 and
b = x2 + i p2, the quadrature vector is (x1, p1, x2, p2), and the vacuum
variance is 1/4. Physicality is the matrix constraint
sigma + (i/4) Omega >= 0.

After reduction to the standard form A = diag(a, a), B = diag(b, b),
C = diag(c, d), conditioning on a heterodyne outcome x1' + i p1' measured
on the first mode leaves the second mode Gaussian with inverse variances
f(a,b,c) and f(a,b,d) and mean

    gamma = g(a,b,c)/f(a,b,c) * x1'  +  i * g(a,b,d)/f(a,b,d) * p1',

so the peak location depends on the outcome unless c = d = 0. Two
heterodyne outcomes that differ in both quadratures therefore decide the
discord question for Gaussian states.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (DegenerateOutcomes, DomainError, SingularConditioning,
                     Unphysical)
from .dv import CONSISTENT_WITH_ZERO, NONZERO_DISCORD
from .linalg import hermitian_eig
from .phasespace import CONVENTION_TAG  # noqa: F401  (re-exported: Gaussian files carry it)

VACUUM_VARIANCE = 0.25

PHYSICALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
SINGULAR_TOL = 1e-12

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])


@dataclass
class GaussianState:
    """Quadrature means and 4x4 covariance matrix of a two-mode state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(4)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (4, 4):
            raise DomainError(f"covariance must be 4x4, got {self.cov.shape}")
        if not np.all(np.isfinite(self.cov)) or not np.all(np.isfinite(self.mean)):
            raise DomainError("non-finite covariance or mean")
        if np.max(np.abs(self.cov - self.cov.T)) > SYMMETRY_TOL:
            raise DomainError("covariance matrix is not symmetric")

    @property
    def block_a(self) -> np.ndarray:
        return self.cov[:2, :2]

    @property
    def block_b(self) -> np.ndarray:
        return self.cov[2:, 2:]

    @property
    def block_c(self) -> np.ndarray:
        return self.cov[:2, 2:]


@dataclass
class LocalOps:
    """Per-mode symplectics of the standard-form reduction.

    Each mode undergoes rotation(theta1), then squeeze(r), then
    rotation(theta2); the reduction maps cov to L cov L^T with
    L = blockdiag(L_A, L_B).
    """

    theta_a1: float
    theta_b1: float
    r_a: float
    r_b: float
    theta_a2: float
    theta_b2: float

    def mode_a(self) -> np.ndarray:
        return _rot(self.theta_a2) @ _squeeze(self.r_a) @ _rot(self.theta_a1)

    def mode_b(self) -> np.ndarray:
        return _rot(self.theta_b2) @ _squeeze(self.r_b) @ _rot(self.theta_b1)

    def matrix(self) -> np.ndarray:
        out = np.zeros((4, 4))
        out[:2, :2] = self.mode_a()
        out[2:, 2:] = self.mode_b()
        return out


@dataclass
class StandardForm:
    a: float
    b: float
    c: float
    d: float
    local_ops: LocalOps

    def as_cov(self) -> np.ndarray:
        return np.diag([self.a, self.a, self.b, self.b]) + np.block([
            [np.zeros((2, 2)), np.diag([self.c, self.d])],
            [np.diag([self.c, self.d]), np.zeros((2, 2))]])

    def reconstruct_input(self) -> np.ndarray:
        """Undo the local operations, recovering the original covariance."""
        ops = self.local_ops
        inv = np.zeros((4, 4))
        inv[:2, :2] = _rot(-ops.theta_a1) @ _squeeze(-ops.r_a) @ _rot(-ops.theta_a2)
        inv[2:, 2:] = _rot(-ops.theta_b1) @ _squeeze(-ops.r_b) @ _rot(-ops.theta_b2)
        return inv @ self.as_cov() @ inv.T


@dataclass
class PeakTestResult:
    outcome_1: complex
    outcome_2: complex
    peak_1: complex
    peak_2: complex
    separation: float
    verdict: str
    tol: float


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _squeeze(r: float) -> np.ndarray:
    return np.diag([np.exp(r), np.exp(-r)])


def validate_physical(g: GaussianState, tol: float = PHYSICALITY_TOL) -> bool:
    """True iff cov + (i/4) Omega is PSD within tolerance."""
    m = g.cov.astype(complex) + 0.25j * OMEGA
    w = hermitian_eig(m).eigenvalues
    return bool(w[-1] >= -tol)


def _diagonalizing_angle(m: np.ndarray) -> float:
    """Rotation angle theta with rot(theta) m rot(theta)^T diagonal."""
    if abs(m[0, 1]) <= 1e-14 * max(1.0, abs(m[0, 0]), abs(m[1, 1])):
        return 0.0
    return 0.5 * np.arctan2(2.0 * m[0, 1], m[0, 0] - m[1, 1])


def standard_form(g: GaussianState, tol: float = PHYSICALITY_TOL) -> StandardForm:
    """Reduce a physical covariance to A = aI, B = bI, C = diag(c, d).

    Three stages of local (per-mode) symplectics: rotations diagonalize the
    A and B blocks, single-mode squeezers balance their diagonals, and a
    final pair of rotations diagonalizes the cross block. Rotations are
    special orthogonal, so diagonalizing C may leave d negative; the result
    is canonicalized to c >= 0 with the sign of d free. Local symplectic
    invariants (det of each block and of the full matrix) are preserved.
    """
    if not validate_physical(g, tol):
        raise Unphysical("covariance violates the uncertainty constraint")
    cov = g.cov.copy()

    theta_a1 = _diagonalizing_angle(cov[:2, :2])
    theta_b1 = _diagonalizing_angle(cov[2:, 2:])
    s1 = np.zeros((4, 4))
    s1[:2, :2] = _rot(theta_a1)
    s1[2:, 2:] = _rot(theta_b1)
    cov = s1 @ cov @ s1.T

    a1, a2 = cov[0, 0], cov[1, 1]
    b1, b2 = cov[2, 2], cov[3, 3]
    r_a = 0.0 if abs(a1 - a2) <= SYMMETRY_TOL else 0.25 * np.log(a2 / a1)
    r_b = 0.0 if abs(b1 - b2) <= SYMMETRY_TOL else 0.25 * np.log(b2 / b1)
    s2 = np.zeros((4, 4))
    s2[:2, :2] = _squeeze(r_a)
    s2[2:, 2:] = _squeeze(r_b)
    cov = s2 @ cov @ s2.T

    theta_a2, theta_b2 = _c_diagonalizing_rotations(cov[:2, 2:])
    s3 = np.zeros((4, 4))
    s3[:2, :2] = _rot(theta_a2)
    s3[2:, 2:] = _rot(theta_b2)
    cov = s3 @ cov @ s3.T

    ops = LocalOps(theta_a1, theta_b1, r_a, r_b, theta_a2, theta_b2)
    a = 0.5 * (cov[0, 0] + cov[1, 1])
    b = 0.5 * (cov[2, 2] + cov[3, 3])
    return StandardForm(float(a), float(b), float(cov[0, 2]), float(cov[1, 3]), ops)


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


def _inv_variance(a: float, b: float, z: float) -> float:
    det = a * b - z * z
    return (1.0 / det) * (a - z * z / (b + 4.0 * det))


def _mean_coupling(a: float, b: float, z: float) -> float:
    det = a * b - z * z
    return 4.0 * z / (b + 4.0 * det)


def heterodyne_condition(sf: StandardForm,
                         outcome: complex) -> Tuple[np.ndarray, np.ndarray]:
    """Conditional Gaussian of mode 2 after heterodyne outcome on mode 1.

    Returns (mean, cov) of the conditional state. The covariance depends
    only on the standard form, never on the outcome; the outcome enters
    the mean linearly.
    """
    a, b, c, d = sf.a, sf.b, sf.c, sf.d
    if a * b - c * c <= SINGULAR_TOL or a * b - d * d <= SINGULAR_TOL:
        raise SingularConditioning("ab - c^2 or ab - d^2 is at the boundary")
    fx = _inv_variance(a, b, c)
    fp = _inv_variance(a, b, d)
    gx = _mean_coupling(a, b, c)
    gp = _mean_coupling(a, b, d)
    mean = np.array([gx / fx * outcome.real, gp / fp * outcome.imag])
    cov = np.diag([1.0 / fx, 1.0 / fp])
    return mean, cov


def peak(sf: StandardForm, outcome: complex) -> complex:
    """Location of the conditional Wigner maximum for a heterodyne outcome."""
    mean, _ = heterodyne_condition(sf, outcome)
    return complex(mean[0], mean[1])


def peak_coincidence_test(sf: StandardForm, out1: complex, out2: complex,
                          tol: float) -> PeakTestResult:
    """Compare the conditional peaks for two heterodyne outcomes.

    The outcomes must differ in both quadratures; otherwise the test is
    blind to one of the two cross couplings and DegenerateOutcomes is
    raised. The verdict is decided per quadrature, on the peak shift per
    unit outcome shift against tol, so it does not depend on how far apart
    the outcomes are; separation reports the raw peak distance.
    """
    if out1.real == out2.real or out1.imag == out2.imag:
        raise DegenerateOutcomes(
            "outcomes must differ in both quadratures to probe both c and d")
    p1 = peak(sf, out1)
    p2 = peak(sf, out2)
    gain_x = abs(p1.real - p2.real) / abs(out1.real - out2.real)
    gain_p = abs(p1.imag - p2.imag) / abs(out1.imag - out2.imag)
    verdict = NONZERO_DISCORD if max(gain_x, gain_p) > tol else CONSISTENT_WITH_ZERO
    sep = abs(p1 - p2)
    return PeakTestResult(out1, out2, p1, p2, sep, verdict, tol)


def zero_discord_decision(g: GaussianState, tol: float = 1e-9) -> bool:
    """True iff the cross block vanishes, i.e. the state is a product state.

    Decided on the original-frame C block; the standard-form route
    max(|c|, |d|) <= tol gives the same answer away from the tolerance
    boundary and is exercised by the cross-route tests.
    """
    if not validate_physical(g):
        raise Unphysical("covariance violates the uncertainty constraint")
    return bool(np.max(np.abs(g.block_c)) <= tol)


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


def random_physical_state(rng: np.random.Generator, product: bool = False,
                          max_thermal: float = 1.5,
                          max_squeeze: float = 0.6) -> GaussianState:
    """Random physical two-mode covariance via a symplectic on thermal noise.

    Thermal occupations and local rotation and squeeze parameters are drawn
    uniformly; unless product is set, a beamsplitter and a two-mode squeeze
    entangle the modes.
    """
    nu1 = 1.0 + 2.0 * rng.uniform(0.0, max_thermal)
    nu2 = 1.0 + 2.0 * rng.uniform(0.0, max_thermal)
    cov = VACUUM_VARIANCE * np.diag([nu1, nu1, nu2, nu2])
    s = np.zeros((4, 4))
    s[:2, :2] = _rot(rng.uniform(0, 2 * np.pi)) @ _squeeze(rng.uniform(-max_squeeze, max_squeeze))
    s[2:, 2:] = _rot(rng.uniform(0, 2 * np.pi)) @ _squeeze(rng.uniform(-max_squeeze, max_squeeze))
    cov = s @ cov @ s.T
    if not product:
        r = rng.uniform(0.1, max_squeeze)
        tm = np.block([
            [np.cosh(r) * np.eye(2), np.sinh(r) * np.diag([1.0, -1.0])],
            [np.sinh(r) * np.diag([1.0, -1.0]), np.cosh(r) * np.eye(2)],
        ])
        cov = tm @ cov @ tm.T
        bs = beamsplitter(rng.uniform(0, 2 * np.pi))
        cov = bs @ cov @ bs.T
    cov = (cov + cov.T) / 2.0
    return GaussianState(np.zeros(4), cov)
