"""Core matrix utilities shared across the package.

A "matrix" is a dense square complex numpy array.  Every matrix splits as
A = H + iK with H, K Hermitian; most of the geometry downstream is phrased
in terms of the pencil x*H + y*K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np


class DimensionError(ValueError):
    """Input has the wrong shape for the requested operation."""


class StructureError(ValueError):
    """Input violates a structural precondition (hermiticity, sparsity pattern)."""


class NonInvertibleMapError(ValueError):
    """Planar affine map is singular."""


def as_square_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise StructureError("matrix entries must be finite")
    return m


def matrix_scale(a) -> float:
    """Spectral norm ||A||_2, the unit of every tolerance of a stage called on
    A: it is exact at 1e-200 and 1e200, and 0 only for the zero matrix."""
    return float(np.linalg.norm(a, 2))


def safe_norm(v) -> float:
    """2-norm of a vector, Frobenius norm of a matrix: summed over v divided
    by its largest entry, so it neither overflows at 1e200 nor underflows at
    1e-200."""
    top = float(np.abs(v).max(initial=0.0))
    return top * float(np.linalg.norm(v / top)) if top else 0.0


# A matrix whose traceless part has Frobenius norm at most SCALAR_GUARD * n *
# eps times its own is scalar up to rounding: U* (c I) U leaves at most
# 4 eps ||c I||_F (random unitaries U, n = 2 to 64).
SCALAR_GUARD = 16


class Normalisation(NamedTuple):
    """A = shift I + scale m, m traceless with ||m||_F = 1, or m = 0 and
    scale = 0 for A scalar up to rounding."""

    m: np.ndarray
    shift: complex
    scale: float

    def to_dict(self) -> dict:
        return {"shift": self.shift, "scale": self.scale}

    def level(self, h: float, theta: float) -> float:
        """A support level h of m in direction theta, in the coordinates of A."""
        return math.cos(theta) * self.shift.real + math.sin(theta) * self.shift.imag + self.scale * float(h)


def normalise(a) -> Normalisation:
    """The one normalisation of the entries: m = (A - (tr A / n) I) / s with
    s = ||A - (tr A / n) I||_F (``safe_norm``)."""
    a = as_square_matrix(a)
    n = a.shape[0]
    shift = complex(np.trace(a) / n)
    a0 = a - shift * np.eye(n)
    s = safe_norm(a0)
    if s <= SCALAR_GUARD * n * np.finfo(float).eps * math.hypot(s, math.sqrt(n) * abs(shift)):
        return Normalisation(np.zeros((n, n), dtype=complex), shift, 0.0)
    return Normalisation(a0 / s, shift, s)


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds used throughout: ``eq_tol`` is the one setting, the other
    four are fixed class constants.  Every one is relative, multiplied at the
    point of use by a scale of the stage's own input and by nothing else, so
    a stage gives the same answer for cA as for A (c > 0).

    One unit per call: the entries (``classify_any``, ``verify`` and
    ``max_orthonormal_boundary_set`` on a matrix) run on ``normalise``'s m,
    so every tolerance is relative to ||A - (tr A / n) I||; an exported stage
    function called on its own measures against ||input||_2
    (``matrix_scale``).  eq_tol decides the theorem routes' equalities
    (normality, the dichotomy, balanced pairs, the canonical forms).
    cluster_tol links eigenvalues to the top one in ``support`` and
    ``boundary_generating_curve`` and ties the balanced route's entries;
    gram_tol bounds a family's max |X*X - I| and is the edge slack of the
    orthogonality graphs; boundary_tol times the diameter of W is the one
    bound of "on the boundary" (``numrange.boundary_bound``); split_tol, much
    tighter, decides that a top eigenvalue is *exactly* multiple.
    """

    eq_tol: float = 1e-8
    cluster_tol: ClassVar[float] = 1e-7
    gram_tol: ClassVar[float] = 1e-6
    boundary_tol: ClassVar[float] = 1e-8
    split_tol: ClassVar[float] = 1e-12

    def __post_init__(self):
        if not 0 < self.eq_tol < math.inf:
            raise ValueError("eq_tol must be positive and finite")

    def to_dict(self) -> dict:
        """All five thresholds by name, the setting first."""
        return {name: getattr(self, name) for name in ("eq_tol", "cluster_tol", "gram_tol", "boundary_tol", "split_tol")}


DEFAULT_TOL = ToleranceConfig()


def _is_normal(b, tol: ToleranceConfig) -> bool:
    """||B B* - B* B||_F <= 10 * eq_tol * ||B||^2 * n, on B / ||B|| so that no
    product over- or underflows."""
    b = as_square_matrix(b)
    b = b / (matrix_scale(b) or 1.0)
    return np.linalg.norm(b @ b.conj().T - b.conj().T @ b) <= tol.eq_tol * b.shape[0] * 10


def reducing_eigenvectors(a, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """All joint eigenvectors of A and A* as (eigenvalue, vector) pairs.

    For each eigenvalue lambda of A the intersection ker(A - lambda) with
    ker(A* - conj(lambda)) is computed from the stacked matrix's nullspace;
    a basis of every nontrivial intersection is returned.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    s = matrix_scale(m)
    vals = np.linalg.eigvals(m)
    reps = []
    for lam in vals:
        if not any(abs(lam - r) <= 100 * tol.eq_tol * s for r in reps):
            reps.append(lam)
    out = []
    for lam in reps:
        stacked = np.vstack([m - lam * np.eye(n), m.conj().T - np.conj(lam) * np.eye(n)])
        u, sv, vh = np.linalg.svd(stacked)
        null = int(np.sum(sv <= 1e-8 * sv[0]))
        for idx in range(n - null, n):
            vec = vh.conj().T[:, idx]
            out.append((complex(lam), vec))
    return out


class HermitianPair(NamedTuple):
    h: np.ndarray
    k: np.ndarray


def hermitian_parts(a) -> HermitianPair:
    """Split A = H + iK into its Hermitian and skew parts (both Hermitian)."""
    m = as_square_matrix(a)
    h = (m + m.conj().T) / 2
    k = (m - m.conj().T) / 2j
    return HermitianPair(h, k)


def _pencil_at(h, k, theta):
    """cos(theta) H + sin(theta) K = Re(e^{-i theta} A) for A = H + iK, stacked
    on axis 0 for a 1-d array of theta; (K, -H) gives Im(e^{-i theta} A).
    H and K may themselves be stacks of matrices.

    The scalar path has no shape dispatch: every scalar support value and
    eigenspace in the classifiers runs it.
    """
    if isinstance(theta, np.ndarray) and theta.ndim:
        return np.multiply.outer(np.cos(theta), h) + np.multiply.outer(np.sin(theta), k)
    return math.cos(theta) * h + math.sin(theta) * k


def herm_part_at(a, theta: float) -> np.ndarray:
    """Hermitian part of the rotated matrix e^{-i theta} A."""
    return _pencil_at(*hermitian_parts(a), theta)


def rotate(a, theta: float) -> np.ndarray:
    """Scalar rotation e^{i theta} A of the matrix (rotates W(A) by theta)."""
    return np.exp(1j * theta) * as_square_matrix(a)


@dataclass(frozen=True)
class AffineMap:
    """Planar affine map z = x + iy  ->  a x + i b y + c, acting on matrices
    as A = H + iK  ->  a H + i b K + c I.

    Invertible iff a*b != 0 and b/a is not purely imaginary: the cosine
    Re(a conj(b)) / |a||b|, which no scale moves, exceeds split_tol.
    """

    a: complex
    b: complex
    c: complex = 0j

    def validate(self):
        if self.a == 0 or self.b == 0:
            raise NonInvertibleMapError("affine map needs a*b != 0")
        if abs((self.a / abs(self.a) * np.conj(self.b / abs(self.b))).real) <= DEFAULT_TOL.split_tol:
            raise NonInvertibleMapError("b/a must not be purely imaginary")

    def planar(self):
        """Real 2x2 matrix and shift of the induced map on (x, y)."""
        m = np.array(
            [
                [np.real(self.a), -np.imag(self.b)],
                [np.imag(self.a), np.real(self.b)],
            ]
        )
        v = np.array([np.real(self.c), np.imag(self.c)])
        return m, v

    def apply_point(self, z):
        z = np.asarray(z, dtype=complex)
        return self.a * z.real + 1j * self.b * z.imag + self.c


def affine_from_planar(m, v=(0.0, 0.0)) -> AffineMap:
    """Inverse of AffineMap.planar()."""
    m = np.asarray(m, dtype=float)
    return AffineMap(
        a=m[0, 0] + 1j * m[1, 0],
        b=m[1, 1] - 1j * m[0, 1],
        c=complex(v[0], v[1]),
    )


def affine_apply(a_mat, tau: AffineMap) -> np.ndarray:
    tau.validate()
    h, k = hermitian_parts(a_mat)
    n = h.shape[0]
    return tau.a * h + 1j * tau.b * k + tau.c * np.eye(n)

