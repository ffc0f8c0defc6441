"""Unitary reducibility: commutant dimension, block splitting, reducing
eigenvectors, and Gau-Wu values of direct sums.

A matrix is unitarily irreducible exactly when the only Hermitian matrices
commuting with both H = Re A and K = Im A are multiples of the identity.
When a real member M = H + cK of the pencil has well-separated eigenvalues,
every such X is diagonal in the eigenbasis V of M, and X commutes with K
(hence with H = M - cK) exactly when it is constant on each connected
component of the graph {(i, j) : |(V*KV)_ij| > RANK_CUTOFF * scale}.  The
components are the irreducible blocks and their number is the commutant
dimension, at the cost of one batched n x n eigendecomposition (the
block-diagonalisation of Murota, Kanno, Kojima & Kojima, JJIAM 2010).

When no tried member separates its eigenvalues, as for a direct sum of two
unitarily equivalent blocks or a scalar matrix, the commutant is computed as
the real nullspace of the stacked commutator system instead (an SVD of a
4n^2 x n^2 matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ABS_FLOOR, DEFAULT_TOL, ToleranceConfig, _is_normal, as_square_matrix, hermitian_parts, matrix_scale
from .numrange import SupportFunction, kprime_relative, point_boundary_defect
from .results import METHOD_DIRECT_SUM, GauWuResult

RANK_CUTOFF = 1e-8
# Real constants c of the pencil members H + cK tried for a separated spectrum.
PENCIL_CONSTANTS = (0.5772156649, -1.4142135624, 2.7182818285, -0.3183098862)
# Smallest eigenvalue gap, relative to the scale, at which a member's
# eigenbasis is used: rounding moves V*KV by about 1e-16 * scale / gap, which
# stays far below RANK_CUTOFF * scale.
GAP_CUTOFF = 1e-5

ROUTE_PENCIL = "pencil-eigenbasis"
ROUTE_SVD = "commutant-svd"


def _scaled_parts(m):
    h, k = hermitian_parts(m)
    return h, k, max(matrix_scale(h), matrix_scale(k), ABS_FLOOR)


def _components(adj: np.ndarray) -> list:
    """Connected components of a symmetric boolean adjacency matrix, each
    sorted and listed in order of its smallest vertex."""
    label = np.full(adj.shape[0], -1)
    comps = []
    for start in range(adj.shape[0]):
        if label[start] >= 0:
            continue
        label[start] = len(comps)
        members, frontier = [start], np.array([start])
        while frontier.size:
            frontier = np.nonzero(adj[frontier].any(axis=0) & (label < 0))[0]
            label[frontier] = len(comps)
            members.extend(frontier.tolist())
        comps.append(sorted(members))
    return comps


def _pencil_components(m):
    """Irreducible blocks from the eigenbasis of the best-separated member.

    Returns (V, components, margin), or None when no member H + cK has its
    eigenvalues more than GAP_CUTOFF * scale apart.
    """
    n = m.shape[0]
    h, k, s = _scaled_parts(m)
    w, v = np.linalg.eigh(h + np.reshape(PENCIL_CONSTANTS, (-1, 1, 1)) * k)
    gaps = np.diff(w, axis=1).min(axis=1, initial=np.inf) / s
    best = int(np.argmax(gaps))
    if gaps[best] <= GAP_CUTOFF:
        return None
    vb = v[best]
    coupling = np.abs(vb.conj().T @ k @ vb) / s
    coupling = np.maximum(coupling, coupling.T)
    off = coupling[np.triu_indices(n, 1)]
    kept, dropped = off[off > RANK_CUTOFF], off[off <= RANK_CUTOFF]
    margin = {
        "gap": float(gaps[best]) if n > 1 else None,
        "kept_min": float(kept.min()) if kept.size else None,
        "dropped_max": float(dropped.max()) if dropped.size else None,
    }
    return vb, _components(coupling > RANK_CUTOFF), margin


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
    """Commutant as the real nullspace of the stacked commutator system.

    Returns (dimension, Hermitian basis elements, margin); the margin holds
    the smallest singular value kept and the largest one dropped, relative to
    the largest.
    """
    m = as_square_matrix(a)
    h, k, s = _scaled_parts(m)
    basis = _hermitian_basis(m.shape[0])
    rows = []
    for e in basis:
        ch = (h @ e - e @ h).ravel() / s
        ck = (k @ e - e @ k).ravel() / s
        rows.append(np.concatenate([ch.real, ch.imag, ck.real, ck.imag]))
    mat = np.array(rows).T  # (4n^2) x (n^2)
    _, sv, vh = np.linalg.svd(mat, full_matrices=False)
    top = max(sv[0], ABS_FLOOR)
    null = sv <= RANK_CUTOFF * top
    null_dim = int(np.sum(null))
    elements = []
    for idx in range(len(sv) - null_dim, len(sv)):
        coeffs = vh[idx]
        x = sum(c * e for c, e in zip(coeffs, basis))
        elements.append((x + x.conj().T) / 2)
    margin = {
        "gap": None,
        "kept_min": float(sv[~null].min() / top) if (~null).any() else None,
        "dropped_max": float(sv[null].max() / top) if null.any() else None,
    }
    return null_dim, elements, margin


def commutant_dimension(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Real dimension of { X Hermitian : XH = HX, XK = KX }; 1 iff unitarily
    irreducible, n^2 for scalar matrices."""
    m = as_square_matrix(a)
    found = _pencil_components(m)
    if found is not None:
        return len(found[1])
    return _commutant_nullspace(m, tol)[0]


@dataclass
class BlockDecomposition:
    """A = U (B_1 + ... + B_r) U* with unitarily irreducible blocks B_i.

    ``route`` names how the split was decided: ``"pencil-eigenbasis"`` or,
    when some step needed the commutator nullspace, ``"commutant-svd"``.
    ``margin`` holds the deciding quantities nearest their thresholds over
    all steps: ``gap``, the smallest relative eigenvalue gap of a pencil
    member used (against GAP_CUTOFF), and ``kept_min`` / ``dropped_max``,
    the smallest coupling kept and the largest one dropped (relative
    |(V*KV)_ij| or singular values, against RANK_CUTOFF); None where no
    such quantity occurred.
    """

    unitary: np.ndarray
    blocks: list
    normal_flags: list
    route: str
    margin: dict

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


def _split(m, tol: ToleranceConfig, margins: list):
    """(unitary, blocks, route) for m; appends each step's margin to margins."""
    n = m.shape[0]
    if n == 1:
        return np.eye(1, dtype=complex), [m], ROUTE_PENCIL
    found = _pencil_components(m)
    if found is not None:
        v, comps, margin = found
        margins.append(margin)
        if len(comps) == 1:
            return np.eye(n, dtype=complex), [m], ROUTE_PENCIL
        blocks = [v[:, c].conj().T @ m @ v[:, c] for c in comps]
        return v[:, np.concatenate(comps)], blocks, ROUTE_PENCIL
    dim, elements, margin = _commutant_nullspace(m, tol)
    margins.append(margin)
    if dim <= 1:
        return np.eye(n, dtype=complex), [m], ROUTE_SVD
    x = None
    for e in elements:
        dev = e - (np.trace(e) / n) * np.eye(n)
        if np.linalg.norm(dev) > 1e-6 * max(np.linalg.norm(e), ABS_FLOOR):
            x = e
            break
    if x is None:
        return np.eye(n, dtype=complex), [m], ROUTE_SVD
    # split along the eigenspaces of a non-scalar commutant element at its
    # largest eigenvalue gap, then split each side again
    w, v = np.linalg.eigh(x)
    gaps = np.diff(w)
    s = int(np.argmax(gaps)) + 1
    v1, v2 = v[:, :s], v[:, s:]
    u1, b1, _ = _split(v1.conj().T @ m @ v1, tol, margins)
    u2, b2, _ = _split(v2.conj().T @ m @ v2, tol, margins)
    u = np.zeros((n, n), dtype=complex)
    u[:, :s] = v1 @ u1
    u[:, s:] = v2 @ u2
    return u, b1 + b2, ROUTE_SVD


def _merge_margins(margins: list) -> dict:
    def pick(key, fn):
        vals = [mg[key] for mg in margins if mg[key] is not None]
        return fn(vals) if vals else None

    return {"gap": pick("gap", min), "kept_min": pick("kept_min", min), "dropped_max": pick("dropped_max", max)}


def decompose(a, tol: ToleranceConfig = DEFAULT_TOL) -> BlockDecomposition:
    """Split into unitarily irreducible diagonal blocks.

    The blocks are the connected components of the coupling graph in the
    eigenbasis of the best-separated pencil member H + cK, in one step and
    ordered by their first eigenvector.  Only when no member separates its
    eigenvalues does the split fall back to the commutator nullspace, whose
    non-scalar element splits the matrix in two before each side is split
    again.  The result is deterministic for a given input.
    """
    m = as_square_matrix(a)
    margins: list = []
    u, blocks, route = _split(m, tol, margins)
    flags = [_is_normal(b, tol) for b in blocks]
    return BlockDecomposition(
        unitary=u, blocks=blocks, normal_flags=flags, route=route, margin=_merge_margins(margins)
    )


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
    cert = {
        "blocks": contributions,
        "block_sizes": [b.shape[0] for b in dec.blocks],
        "route": dec.route,
        "margin": dec.margin,
    }
    if not 2 <= total <= n:
        # k lies in [2, n], so a sum outside it means some share is wrong
        cert["unclamped_total"] = int(total)
        total = max(2, min(total, n))
    return GauWuResult(k=int(total), n=n, method=METHOD_DIRECT_SUM, certificate=cert)
