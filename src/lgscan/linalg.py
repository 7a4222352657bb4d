"""Closed-form linear algebra for 2x2 complex operators in the Pauli basis.

Every operator used by the measurement pipeline (states, POVM effects,
unitaries) is a 2x2 complex matrix, so everything here is exact arithmetic
on Pauli coefficients rather than general-purpose numerics.

Conventions (load-bearing; all trig identities downstream assume them):

* sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]], sigma_z = [[1,0],[0,-1]].
* A Hermitian A decomposes as A = a0*I + a.sigma with real a0 and real
  3-vector a; its eigenvalues are a0 +/- |a| with eigen-axis a/|a|.
* qubit_unitary(n, phase) = cos(phase)*I - i*sin(phase)*(n.sigma).
  Conjugating sigma_z as U^dag sigma_z U with n = x_hat sends the Pauli
  vector (0,0,1) to (0, sin(2*phase), cos(2*phase)); equivalently the
  Schroedinger rotation U rho U^dag rotates Bloch vectors by +2*phase
  about n (right-handed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadAxis, NotHermitian, NotPSD

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-12
AXIS_TOL = 1e-12
_DEGENERATE_AXIS_TOL = 1e-14

X_HAT = np.array([1.0, 0.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def _lock(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable 2x2 complex matrix with the small algebra the pipeline needs."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"Operator needs shape (2, 2), got {m.shape}")
        object.__setattr__(self, "mat", _lock(m.copy()))

    # --- algebra -----------------------------------------------------------
    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.mat - other.mat)

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.mat @ other.mat)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.mat * scalar)

    __rmul__ = __mul__

    def adjoint(self) -> "Operator":
        return Operator(self.mat.conj().T)

    def trace(self) -> complex:
        return complex(self.mat[0, 0] + self.mat[1, 1])

    # --- predicates --------------------------------------------------------
    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= tol)

    def is_psd(self, tol: float = PSD_TOL) -> bool:
        if not self.is_hermitian(max(tol, HERMITIAN_TOL)):
            return False
        lam_plus, lam_minus, _ = eig_hermitian(self)
        return lam_minus >= -tol and lam_plus >= -tol

    def isclose(self, other: "Operator", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.mat - other.mat)) <= tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operator({self.mat.tolist()!r})"


IDENTITY = Operator(np.eye(2))
SIGMA_X = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = Operator(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = Operator(np.array([[1, 0], [0, -1]], dtype=complex))


@dataclass(frozen=True, eq=False)
class PauliCoeffs:
    """Real coefficients of I and (sigma_x, sigma_y, sigma_z) for a Hermitian operator."""

    a0: float
    vec: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vec, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"Pauli vector needs shape (3,), got {v.shape}")
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "vec", _lock(v.copy()))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


def to_pauli(op: Operator, tol: float = HERMITIAN_TOL) -> PauliCoeffs:
    """Decompose a Hermitian operator as a0*I + vec.sigma.

    a0 = tr(A)/2 and vec_k = tr(A sigma_k)/2.  Raises NotHermitian when the
    anti-Hermitian part exceeds `tol`, or is NaN.
    """
    m = op.mat
    if not np.max(np.abs(m - m.conj().T)) <= tol:  # nan fails
        raise NotHermitian(f"anti-Hermitian part exceeds {tol:g}")
    a0 = 0.5 * (m[0, 0] + m[1, 1]).real
    ax = (m[0, 1] + m[1, 0]).real * 0.5
    ay = (m[1, 0] - m[0, 1]).imag * 0.5
    az = 0.5 * (m[0, 0] - m[1, 1]).real
    return PauliCoeffs(a0, np.array([ax, ay, az]))


def from_pauli(a0: float, vec: np.ndarray) -> Operator:
    """Assemble a0*I + vec.sigma."""
    ax, ay, az = (float(c) for c in np.asarray(vec, dtype=float))
    return Operator(np.array([[a0 + az, ax - 1j * ay], [ax + 1j * ay, a0 - az]]))


def eig_hermitian(op: Operator) -> tuple[float, float, np.ndarray]:
    """Eigenvalues a0 +/- |a| of a Hermitian operator, plus the eigen-axis.

    Returns (lam_plus, lam_minus, n_hat) with lam_plus >= lam_minus and
    op == from_pauli(a0, |a|*n_hat).  A degenerate operator (|a| ~ 0) gets
    the fixed axis (0,0,1) so results are deterministic.
    """
    coeffs = to_pauli(op)
    r = coeffs.norm
    if r < _DEGENERATE_AXIS_TOL:
        n_hat = Z_HAT.copy()
    else:
        n_hat = coeffs.vec / r
    return coeffs.a0 + r, coeffs.a0 - r, n_hat


def sqrt_psd(op: Operator) -> Operator:
    """Hermitian PSD square root, in closed form.

    With eigenvalues lam+- on axis n, the root is
    ((sqrt(lam+) + sqrt(lam-))/2) I + ((sqrt(lam+) - sqrt(lam-))/2) n.sigma.
    Eigenvalues in [-PSD_TOL, 0) are clamped to 0 (effects on the validity
    boundary |x| + |m| = 1 have a zero eigenvalue up to rounding); anything
    below -PSD_TOL, or NaN, raises NotPSD.
    """
    lam_plus, lam_minus, n_hat = eig_hermitian(op)
    if not lam_minus >= -PSD_TOL:  # nan fails
        raise NotPSD(f"eigenvalue {lam_minus:g} below -{PSD_TOL:g}")
    sp = np.sqrt(max(lam_plus, 0.0))
    sm = np.sqrt(max(lam_minus, 0.0))
    return from_pauli(0.5 * (sp + sm), 0.5 * (sp - sm) * n_hat)


def qubit_unitary(axis: np.ndarray, phase: float) -> Operator:
    """exp(-i * phase * axis.sigma) = cos(phase) I - i sin(phase) (axis.sigma).

    `phase` is dimensionless: for evolution generated by omega * (axis.sigma)
    over time t it stands for the product omega*t.  Raises BadAxis unless
    |axis| = 1 within AXIS_TOL.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not abs(np.linalg.norm(axis) - 1.0) <= AXIS_TOL:  # nan fails
        raise BadAxis("axis must be a unit 3-vector")
    ax, ay, az = axis
    c = np.cos(phase)
    s = np.sin(phase)
    return Operator(
        np.array(
            [
                [c - 1j * s * az, -1j * s * (ax - 1j * ay)],
                [-1j * s * (ax + 1j * ay), c + 1j * s * az],
            ]
        )
    )
