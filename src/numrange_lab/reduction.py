"""Unitary reducibility: commutant dimension, block splitting and Gau-Wu
values of direct sums.

A matrix is unitarily irreducible exactly when the only Hermitian matrices
commuting with both H = Re A and K = Im A are multiples of the identity.
Every such X commutes with each real pencil member M = H + cK, so in an
eigenbasis V of M it is block-diagonal over the clusters of nearly equal
eigenvalues of M, and it commutes with A exactly when it also commutes with
K' = V*KV / scale and with V*MV / scale = diag(d).  The commutant is found
in one solve (the block-diagonalisation of Murota, Kanno, Kojima & Kojima,
JJIAM 2010, and Maehara & Murota, 2011):

- of the members tried, the one whose eigenvalue clusters have the smallest
  sum of squared sizes gives V;
- a cluster on which K' and d are scalar and which K' couples to no other
  cluster is a scalar part of A: all its m^2 Hermitian matrices commute,
  and each of its m dimensions is a block of size 1;
- the other clusters give the system [X, K'] = [X, diag(d)] = 0 over
  block-diagonal X, so that clustering sets only the size of the system,
  never its answer.  Its nullspace, from one SVD, is the rest of the
  commutant: a *-algebra, so its complex dimension is the real dimension of
  its Hermitian part, and the singular values are those of the real system
  over Hermitian X.

The system has n^2 + sum m_c^2 rows and sum m_c^2 unknowns over the
clusters of sizes m_c, so even a member that separates all its eigenvalues
costs O(n^4) time and O(n^3) memory.  The irreducible blocks are eigenspaces
of a generic Hermitian element of the commutant, cut only where A couples
them by at most RANK_CUTOFF * scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, as_square_matrix, hermitian_parts, matrix_scale
from .numrange import SupportFunction, _split_witness, boundary_bound, boundary_residuals, dichotomy_scan, relative_share
from .oracle import restricted_max_set
from .results import METHOD_DIRECT_SUM, GauWuResult, Witness, joined

# Largest singular value of the commutator system, largest deviation of K'
# or of the member's eigenvalues from their mean on a scalar cluster, and
# largest coupling across a block cut that count as zero (all relative to
# the scale).
RANK_CUTOFF = 1e-8
# Real constants c of the pencil members H + cK tried.
PENCIL_CONSTANTS = (0.5772156649, -1.4142135624, 2.7182818285, -0.3183098862)
# Smallest eigenvalue gap, relative to the scale, at which a member's
# spectrum is cut into clusters: rounding moves V*KV by about
# 1e-16 * scale / gap, which stays far below RANK_CUTOFF * scale.
GAP_CUTOFF = 1e-5


def _best_member(m):
    """(scale, V, w / scale, cluster sizes, smallest cut gap or None,
    K' = V*KV / scale) for the member, with eigenvalues w, whose clusters, cut
    at gaps above GAP_CUTOFF * scale, have the smallest sum of squared sizes;
    ties go to the largest smallest cut gap, then to the first member.  The
    scale is max(||H||, ||K||), or 1 for the zero matrix."""
    h, k = hermitian_parts(m)
    s = max(matrix_scale(h), matrix_scale(k)) or 1.0
    w, v = np.linalg.eigh(h + np.reshape(PENCIL_CONSTANTS, (-1, 1, 1)) * k)
    gaps = np.diff(w, axis=1) / s
    cut = gaps > GAP_CUTOFF
    label = np.cumsum(np.pad(cut, ((0, 0), (1, 0))), axis=1)
    square_sum = np.sum(label[:, :, None] == label[:, None, :], axis=(1, 2))
    smallest_cut = np.where(cut, gaps, np.inf).min(axis=1, initial=np.inf)
    best = np.lexsort((-smallest_cut, square_sum))[0]
    gap = smallest_cut[best]
    vb = v[best]
    kp = vb.conj().T @ k @ vb / s
    return s, vb, w[best] / s, np.bincount(label[best]), (float(gap) if np.isfinite(gap) else None), kp


def _commutant_nullspace(m):
    """The commutant of m in one solve.

    Returns (dimension, V, element, margin, scale): ``element`` is one
    generic Hermitian element of the commutant written in the eigenbasis V
    of the chosen pencil member, with distinct eigenvalues above the rest on
    the scalar parts; ``margin`` is as in BlockDecomposition.
    """
    s, v, d, sizes, gap, kp = _best_member(m)
    n = m.shape[0]
    label = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    k_mean = np.add.reduceat(kp.diagonal().real, starts) / sizes
    d_mean = np.add.reduceat(d, starts) / sizes
    deviation = np.maximum(np.abs(kp - np.diag(k_mean[label])).max(axis=1), np.abs(d - d_mean[label]))
    resid = np.maximum.reduceat(deviation, starts)
    scalar = resid <= RANK_CUTOFF
    active = np.flatnonzero(~scalar[label])
    element = np.zeros((n, n), dtype=complex)
    sv = np.zeros(0)
    if len(active):
        # Row u is the unknown x_ij of X for (i, j) = (i[u], j[u]) in one
        # cluster.  Its entries are vec [e_i e_j^T, K'] (row i of the
        # commutator is row j of K', column j is minus column i) and then,
        # for i != j, (d_j - d_i): the entry of [X, V*MV / scale] =
        # [X, diag(d)], which a cluster's eigenvalue spread keeps nonzero.
        ka, la, da = kp[np.ix_(active, active)], label[active], d[active]
        na, at = len(active), np.arange(len(active))
        i, j = np.nonzero(la[:, None] == la[None, :])
        u = np.arange(len(i))[:, None]
        off = np.flatnonzero(i != j)
        system = np.zeros((len(i), na * na + len(off)), dtype=complex)
        system[u, i[:, None] * na + at] = ka[j, :]
        system[u, at * na + j[:, None]] -= ka[:, i].T
        system[off, na * na + np.arange(len(off))] = da[j[off]] - da[i[off]]
        # the triangular factor has the system's singular values and right
        # singular vectors, without the SVD's tall left factor
        _, sv, vh = np.linalg.svd(np.linalg.qr(system.T, mode="r"))
        null = vh[sv <= RANK_CUTOFF].conj()
        gen = np.zeros((na, na), dtype=complex)
        gen[i, j] = (2 + np.exp(1j * np.arange(1, len(null) + 1))) @ null
        gen += gen.conj().T
        element[np.ix_(active, active)] = gen / np.linalg.norm(gen)
    lone = np.flatnonzero(scalar[label])
    element[lone, lone] = 2.0 + np.arange(len(lone))
    kept, dropped = sv[sv > RANK_CUTOFF], np.concatenate([sv[sv <= RANK_CUTOFF], resid[scalar]])
    margin = {
        "gap": gap,
        "kept_min": float(kept.min()) if kept.size else None,
        "dropped_max": float(dropped.max()) if dropped.size else None,
    }
    return len(sv) - len(kept) + int(np.sum(sizes[scalar] ** 2)), v, element, margin, s


class ShareTotalError(ArithmeticError):
    """The block shares of a direct sum add up to a value outside [2, n]."""


def commutant_dimension(a) -> int:
    """Real dimension of { X Hermitian : XH = HX, XK = KX }; 1 iff unitarily
    irreducible, n^2 for scalar matrices."""
    return _commutant_nullspace(as_square_matrix(a))[0]


@dataclass
class BlockDecomposition:
    """A = U (B_1 + ... + B_r) U* with unitarily irreducible blocks B_i.

    The blocks are eigenspaces of one generic commutant element, in
    ascending order of its eigenvalues.  ``margin`` holds the deciding
    quantities nearest their thresholds: ``gap``, the smallest relative
    eigenvalue gap at which the chosen pencil member's spectrum was cut
    (against GAP_CUTOFF), and ``kept_min`` / ``dropped_max``, the smallest
    singular value of the commutator system kept and the largest one (or
    scalar-part deviation of K' or d) dropped, relative to the scale (against
    RANK_CUTOFF); None where no such quantity occurred.
    """

    unitary: np.ndarray
    blocks: list
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


def decompose(a) -> BlockDecomposition:
    """Split into unitarily irreducible diagonal blocks.

    The blocks are runs of eigenvectors of a generic element of the
    commutant, in ascending order of its eigenvalues, cut wherever the part
    of A coupling the vectors before the cut to those after it has Frobenius
    norm at most RANK_CUTOFF * scale.  A cut is thus never made inside an
    irreducible block.  The result is deterministic for a given input.
    """
    m = as_square_matrix(a)
    _, v, element, margin, s = _commutant_nullspace(m)
    u = v @ np.linalg.eigh(element)[1]
    # squared in units of the scale, so that no weight over- or underflows
    t = np.abs(u.conj().T @ m @ u / s) ** 2
    # across[i, j]: squared weight of t over rows <= i and columns >= j, both ways round
    across = np.cumsum(np.cumsum((t + t.T)[:, ::-1], axis=1)[:, ::-1], axis=0)
    cuts = np.flatnonzero(np.sqrt(np.diagonal(across, 1)) <= RANK_CUTOFF) + 1
    groups = np.split(np.arange(m.shape[0]), cuts)
    blocks = [u[:, g].conj().T @ m @ u[:, g] for g in groups]
    return BlockDecomposition(unitary=u, blocks=blocks, margin=margin)


def block_kprime(block, ambient: SupportFunction, tol: ToleranceConfig = DEFAULT_TOL, own=None):
    """(share, method, make_witness) of one irreducible block relative to the
    ambient range; ``make_witness()`` returns the block's ``Witness`` of that
    size in the block's coordinates.

    Normal and 2x2 blocks take all three from ``relative_share``.  Any
    other block B has its own exact result: ``own``, (k(B), method,
    make_witness) from the caller's theorem route, else (size, "dichotomy",
    split witness) when ``dichotomy_scan`` splits it.  W(B) lies in W(A), so
    the share is at most k(B), and it is k(B) when every column of that
    witness lies on the ambient boundary (``boundary_residuals`` within
    ``boundary_bound``).  Otherwise the restricted search gives the count
    and vectors."""
    b = as_square_matrix(block)
    share = relative_share(b, ambient, tol)
    if share is not None:
        return share
    if own is None and (scan := dichotomy_scan(b, tol)) is not None:
        own = b.shape[0], "dichotomy", lambda: _split_witness(b, scan[0], scan[1:3])
    if own is not None:
        w = own[2]()
        if np.all(boundary_residuals(b, w.vectors, w.thetas, ambient) <= boundary_bound(ambient)):
            return own[0], own[1], lambda: w
    k, vectors, thetas = restricted_max_set(b, ambient)
    return k, "restricted-search", lambda: Witness(vectors, thetas)


def dirsum_gauwu(dec: BlockDecomposition, tol: ToleranceConfig = DEFAULT_TOL, _dichotomy=None,
                 _own=None) -> GauWuResult:
    """Gau-Wu number of a direct sum as the sum of per-block boundary shares.

    Vectors from different blocks are automatically orthogonal, and tied
    supporting lines contribute their merged eigenspace dimension, so the
    per-block counts add up; so do the block witnesses, mapped back through
    ``dec.unitary``.  k lies in [2, n], so a total outside it means that a
    share is wrong, and it raises ``ShareTotalError``.

    ``classify_any`` passes ``_dichotomy``, (theta, h0, h1), when it has
    already proved the whole matrix dichotomous: Re(e^{-i theta} B) of each
    block then has only the eigenvalues h0 and h1, so every share is the
    block's size with its split witness, and no ambient is swept.
    ``_own`` maps a block's index to its ``block_kprime`` ``own``, as
    ``arrowhead.gauwu_with_zero_pairs`` passes the live sub-arrowhead's.
    """
    if len(dec.blocks) < 2:
        raise ValueError("need at least two blocks")
    if _dichotomy is None:
        ambient = SupportFunction(dec.assembled(), grid_size=1024)
        own = _own or {}
        shares = [block_kprime(b, ambient, tol, own=own[i]) if i in own else block_kprime(b, ambient, tol)
                  for i, b in enumerate(dec.blocks)]
    else:
        theta, h0, h1 = _dichotomy
        shares = [(b.shape[0], "dichotomy", lambda b=b: _split_witness(b, theta, (h0, h1))) for b in dec.blocks]
    contributions = [{"block": idx, "size": b.shape[0], "kprime": int(kp), "method": how}
                     for idx, (b, (kp, how, _)) in enumerate(zip(dec.blocks, shares))]
    total = sum(c["kprime"] for c in contributions)
    cert = {"blocks": contributions, "block_sizes": [b.shape[0] for b in dec.blocks], "margin": dec.margin}
    if not 2 <= total <= dec.n:
        raise ShareTotalError(f"block shares {[c['kprime'] for c in contributions]} add up to {total}, "
                              f"outside [2, {dec.n}]: some share is wrong")
    columns = np.split(dec.unitary, np.cumsum(cert["block_sizes"])[:-1], axis=1)
    return GauWuResult(k=int(total), n=dec.n, method=METHOD_DIRECT_SUM, certificate=cert,
                       build_witness=lambda: joined([(q, share[2]()) for q, share in zip(columns, shares)]))
