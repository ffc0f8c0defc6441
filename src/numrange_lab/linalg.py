"""Core matrix utilities shared across the package.

A "matrix" is a dense square complex numpy array.  Every matrix splits as
A = H + iK with H, K Hermitian; most of the geometry downstream is phrased
in terms of the pencil x*H + y*K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ABS_FLOOR = 1e-12


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
    """Spectral norm, floored away from zero so tolerances stay meaningful."""
    return max(float(np.linalg.norm(a, 2)), ABS_FLOOR)


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds used throughout; relative ones are scaled at the point of use.

    cluster_tol is relative to the spectral norm of the matrix being
    clustered, boundary_tol is relative to the diameter of the numerical
    range, split_tol is the (much tighter) relative threshold used when a
    decision hinges on an eigenvalue being *exactly* multiple.
    """

    eq_tol: float = 1e-8
    cluster_tol: float = 1e-7
    gram_tol: float = 1e-6
    boundary_tol: float = 1e-8
    split_tol: float = 1e-12

    def __post_init__(self):
        for name in ("eq_tol", "cluster_tol", "gram_tol", "boundary_tol", "split_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    def eq_abs(self, scale: float) -> float:
        return self.eq_tol * max(scale, ABS_FLOOR)

    def cluster_abs(self, scale: float) -> float:
        return self.cluster_tol * max(scale, ABS_FLOOR)

    def boundary_abs(self, diameter: float) -> float:
        return self.boundary_tol * max(diameter, ABS_FLOOR)

    def split_abs(self, scale: float) -> float:
        return self.split_tol * max(scale, ABS_FLOOR)


DEFAULT_TOL = ToleranceConfig()


def _is_normal(b, tol: ToleranceConfig) -> bool:
    """||B B* - B* B||_F <= 10 * eq_tol * ||B||^2 * n."""
    b = as_square_matrix(b)
    s = matrix_scale(b)
    return np.linalg.norm(b @ b.conj().T - b.conj().T @ b) <= tol.eq_abs(s * s) * b.shape[0] * 10


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

    The scalar path has no shape dispatch: every golden-section and
    refinement step runs it.
    """
    if isinstance(theta, np.ndarray) and theta.ndim:
        return np.cos(theta)[:, None, None] * h + np.sin(theta)[:, None, None] * k
    return math.cos(theta) * h + math.sin(theta) * k


def herm_part_at(a, theta: float) -> np.ndarray:
    """Hermitian part of the rotated matrix e^{-i theta} A."""
    return _pencil_at(*hermitian_parts(a), theta)


@dataclass
class EigenSystem:
    """Ascending eigenvalues with orthonormal vectors and a cluster partition."""

    values: np.ndarray
    vectors: np.ndarray
    clusters: list

    @property
    def n(self) -> int:
        return len(self.values)

    def multiplicities(self) -> list:
        return [len(c) for c in self.clusters]


def eig_hermitian_clustered(h, tol: ToleranceConfig = DEFAULT_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with single-linkage clustering.

    Clusters group eigenvalues whose consecutive gaps are below
    cluster_tol * ||H||; the partition is what multiplicity counting in the
    classification routines consumes.
    """
    m = as_square_matrix(h)
    scale = matrix_scale(m)
    if np.linalg.norm(m - m.conj().T) > tol.eq_abs(scale) * m.shape[0]:
        raise StructureError("matrix is not Hermitian to tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    link = tol.cluster_abs(scale)
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > link:
            clusters.append(np.arange(start, i))
            start = i
    return EigenSystem(values=w, vectors=v, clusters=clusters)


def rotate(a, theta: float) -> np.ndarray:
    """Scalar rotation e^{i theta} A of the matrix (rotates W(A) by theta)."""
    return np.exp(1j * theta) * as_square_matrix(a)


@dataclass(frozen=True)
class AffineMap:
    """Planar affine map z = x + iy  ->  a x + i b y + c, acting on matrices
    as A = H + iK  ->  a H + i b K + c I.

    Invertible iff a*b != 0 and b/a is not purely imaginary.
    """

    a: complex
    b: complex
    c: complex = 0j

    def validate(self):
        mag = abs(self.a) * abs(self.b)
        if mag <= ABS_FLOOR:
            raise NonInvertibleMapError("affine map needs a*b != 0")
        if abs((self.a * np.conj(self.b)).real) <= ABS_FLOOR * mag:
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


def affine_apply(a_mat, tau: AffineMap, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    tau.validate()
    h, k = hermitian_parts(a_mat)
    n = h.shape[0]
    return tau.a * h + 1j * tau.b * k + tau.c * np.eye(n)


def affine_invert(tau: AffineMap) -> AffineMap:
    tau.validate()
    m, v = tau.planar()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    minv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    return affine_from_planar(minv, -minv @ v)
