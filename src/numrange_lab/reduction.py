"""Unitary reducibility: commutant dimension, block splitting, reducing
eigenvectors, and Gau-Wu values of direct sums.

A matrix is unitarily irreducible exactly when the only Hermitian matrices
commuting with both Re A and Im A are multiples of the identity; the
commutant is computed as the real nullspace of a stacked commutator system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ABS_FLOOR, DEFAULT_TOL, ToleranceConfig, _is_normal, as_square_matrix, hermitian_parts, matrix_scale
from .numrange import SupportFunction, kprime_relative, point_boundary_defect
from .results import METHOD_DIRECT_SUM, GauWuResult

RANK_CUTOFF = 1e-8


def _hermitian_basis(n: int):
    """Real basis of the n^2-dimensional space of Hermitian matrices."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j / np.sqrt(2)
            e[j, i] = -1j / np.sqrt(2)
            basis.append(e)
    return basis


def _commutant_nullspace(a, tol: ToleranceConfig):
    m = as_square_matrix(a)
    n = m.shape[0]
    h, k = hermitian_parts(m)
    s = max(matrix_scale(h), matrix_scale(k), ABS_FLOOR)
    basis = _hermitian_basis(n)
    rows = []
    for e in basis:
        ch = (h @ e - e @ h).ravel() / s
        ck = (k @ e - e @ k).ravel() / s
        rows.append(np.concatenate([ch.real, ch.imag, ck.real, ck.imag]))
    mat = np.array(rows).T  # (4n^2) x (n^2)
    u, sv, vh = np.linalg.svd(mat)
    cutoff = RANK_CUTOFF * max(sv[0], ABS_FLOOR)
    null_dim = int(np.sum(sv <= cutoff))
    elements = []
    for idx in range(len(sv) - null_dim, len(sv)):
        coeffs = vh[idx]
        x = sum(c * e for c, e in zip(coeffs, basis))
        elements.append((x + x.conj().T) / 2)
    return null_dim, elements


def commutant_dimension(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Real dimension of { X Hermitian : XH = HX, XK = KX }; 1 iff unitarily
    irreducible, n^2 for scalar matrices."""
    dim, _ = _commutant_nullspace(a, tol)
    return dim


@dataclass
class BlockDecomposition:
    unitary: np.ndarray
    blocks: list
    normal_flags: list

    @property
    def n(self) -> int:
        return self.unitary.shape[0]

    def assembled(self) -> np.ndarray:
        n = self.n
        out = np.zeros((n, n), dtype=complex)
        pos = 0
        for b in self.blocks:
            m = b.shape[0]
            out[pos : pos + m, pos : pos + m] = b
            pos += m
        return out

    def reassemble(self) -> np.ndarray:
        return self.unitary @ self.assembled() @ self.unitary.conj().T


def _split(m, tol: ToleranceConfig):
    n = m.shape[0]
    if n == 1:
        return np.eye(1, dtype=complex), [m]
    dim, elements = _commutant_nullspace(m, tol)
    if dim <= 1:
        return np.eye(n, dtype=complex), [m]
    x = None
    for e in elements:
        dev = e - (np.trace(e) / n) * np.eye(n)
        if np.linalg.norm(dev) > 1e-6 * max(np.linalg.norm(e), ABS_FLOOR):
            x = e
            break
    if x is None:
        return np.eye(n, dtype=complex), [m]
    w, v = np.linalg.eigh(x)
    gaps = np.diff(w)
    s = int(np.argmax(gaps)) + 1
    v1, v2 = v[:, :s], v[:, s:]
    a11 = v1.conj().T @ m @ v1
    a22 = v2.conj().T @ m @ v2
    u1, b1 = _split(a11, tol)
    u2, b2 = _split(a22, tol)
    u = np.zeros((n, n), dtype=complex)
    u[:, :s] = v1 @ u1
    u[:, s:] = v2 @ u2
    return u, b1 + b2


def decompose(a, tol: ToleranceConfig = DEFAULT_TOL) -> BlockDecomposition:
    """Split into unitarily irreducible diagonal blocks.

    Recursively separates along the eigenspaces of a non-scalar commutant
    element (split at the largest eigenvalue gap), so the result is
    deterministic for a given input.
    """
    m = as_square_matrix(a)
    u, blocks = _split(m, tol)
    flags = [_is_normal(b, tol) for b in blocks]
    return BlockDecomposition(unitary=u, blocks=blocks, normal_flags=flags)


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
        if not any(abs(lam - r) <= 100 * tol.eq_abs(s) for r in reps):
            reps.append(lam)
    out = []
    for lam in reps:
        stacked = np.vstack([m - lam * np.eye(n), m.conj().T - np.conj(lam) * np.eye(n)])
        u, sv, vh = np.linalg.svd(stacked)
        null = int(np.sum(sv <= 1e-8 * max(sv[0], ABS_FLOOR)))
        for idx in range(n - null, n):
            vec = vh.conj().T[:, idx]
            out.append((complex(lam), vec))
    return out


def block_kprime(block, ambient: SupportFunction, tol: ToleranceConfig = DEFAULT_TOL):
    """Boundary share of one irreducible block relative to the ambient range."""
    b = as_square_matrix(block)
    n = b.shape[0]
    if n == 1:
        defect = point_boundary_defect(ambient, complex(b[0, 0]))
        return (1 if defect < tol.boundary_abs(ambient.diameter()) else 0), "point-contact"
    if _is_normal(b, tol):
        return kprime_relative(b, ambient, tol), "normal-spectrum-contact"
    if n == 2:
        return kprime_relative(b, ambient, tol), "antipodal-contact"
    from .oracle import restricted_max_set

    k, _, _ = restricted_max_set(b, ambient, tol=tol)
    return k, "restricted-search"


def dirsum_gauwu(dec: BlockDecomposition, tol: ToleranceConfig = DEFAULT_TOL) -> GauWuResult:
    """Gau-Wu number of a direct sum as the sum of per-block boundary shares.

    Vectors from different blocks are automatically orthogonal, and tied
    supporting lines contribute their merged eigenspace dimension, so the
    per-block counts add up.
    """
    if len(dec.blocks) < 2:
        raise ValueError("need at least two blocks")
    ambient_m = dec.assembled()
    ambient = SupportFunction(ambient_m, grid_size=1024)
    contributions = []
    total = 0
    for idx, b in enumerate(dec.blocks):
        kp, how = block_kprime(b, ambient, tol)
        contributions.append({"block": idx, "size": b.shape[0], "kprime": int(kp), "method": how})
        total += kp
    n = dec.n
    total = max(2, min(total, n))
    cert = {"blocks": contributions, "block_sizes": [b.shape[0] for b in dec.blocks]}
    return GauWuResult(k=int(total), n=n, method=METHOD_DIRECT_SUM, certificate=cert)
