"""Structured analysis of arrowhead matrices.

An arrowhead matrix carries its nonzero entries on the main diagonal, the
last column and the last row.  Rotating by e^{-i theta} with
2*theta + pi = arg(col_j) + arg(row_j) kills the off-diagonal entries of the
Hermitian part whenever |col_j| = |row_j|; most of the classification below
is bookkeeping around which indices admit such a rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    StructureError,
    ToleranceConfig,
    _pencil_at,
    as_square_matrix,
    herm_part_at,
    hermitian_parts,
    matrix_scale,
    safe_norm,
)
from .numrange import IDEMPOTENT_TOL, SupportFunction, _split_witness, _two_level_form, dichotomy_scan
from .reduction import block_kprime
from .results import METHOD_ARROWHEAD, GauWuResult, Witness, joined


class NotArrowheadError(StructureError):
    """Dense matrix has entries off the arrow pattern."""


class NotApplicableError(ValueError):
    """The requested closed-form route does not cover this matrix."""


class CertificateMismatchError(ValueError):
    """A supplied certificate fails to reconstruct against the matrix."""


@dataclass
class ArrowheadMatrix:
    """Arrow data: diagonal a_1..a_{n-1}, last column, last row, corner a_n."""

    diag: np.ndarray
    col: np.ndarray
    row: np.ndarray
    corner: complex

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=complex)
        self.col = np.asarray(self.col, dtype=complex)
        self.row = np.asarray(self.row, dtype=complex)
        self.corner = complex(self.corner)
        if not (len(self.diag) == len(self.col) == len(self.row)):
            raise StructureError("diag, col, row must have equal length n-1")

    @property
    def n(self) -> int:
        return len(self.diag) + 1

    def to_dense(self) -> np.ndarray:
        n = self.n
        a = np.zeros((n, n), dtype=complex)
        a[np.arange(n - 1), np.arange(n - 1)] = self.diag
        a[: n - 1, n - 1] = self.col
        a[n - 1, : n - 1] = self.row
        a[n - 1, n - 1] = self.corner
        return a

    def scale(self) -> float:
        vals = [np.max(np.abs(self.diag), initial=0.0), abs(self.corner)]
        vals.append(np.max(np.abs(self.col), initial=0.0))
        vals.append(np.max(np.abs(self.row), initial=0.0))
        return max(vals)


def arrowhead_from_dense(a, tol: ToleranceConfig = DEFAULT_TOL) -> ArrowheadMatrix:
    """Read off the arrow data, rejecting matrices with off-pattern mass."""
    m = as_square_matrix(a)
    n = m.shape[0]
    if n == 1:
        return ArrowheadMatrix(np.empty(0), np.empty(0), np.empty(0), m[0, 0])
    mask = np.zeros((n, n), dtype=bool)
    mask[np.arange(n), np.arange(n)] = True
    mask[:, n - 1] = True
    mask[n - 1, :] = True
    off = np.max(np.abs(m[~mask]), initial=0.0)
    if off > tol.eq_tol * matrix_scale(m):
        raise NotArrowheadError(f"off-pattern magnitude {off:.3e} exceeds tolerance")
    return ArrowheadMatrix(
        diag=np.diag(m)[: n - 1].copy(),
        col=m[: n - 1, n - 1].copy(),
        row=m[n - 1, : n - 1].copy(),
        corner=m[n - 1, n - 1],
    )


# ---------------------------------------------------------------------------
# secular eigenproblem
# ---------------------------------------------------------------------------


@dataclass
class SecularPair:
    value: complex
    vector: np.ndarray
    residual: float


@dataclass
class SecularResult:
    eigen: list
    degenerate: list
    notices: list = field(default_factory=list)

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.eigen + self.degenerate])


def secular_function(ah: ArrowheadMatrix, lam):
    cr = ah.col * ah.row
    return np.sum(cr / (lam - ah.diag)) + ah.corner - lam


# the per-root stop ends the iteration in 7-12 sweeps on the Hermitian
# arrowheads of acceptance criterion 10 up to n = 400, also with couplings down
# to 1e-6, and in 8-18 on general ones; the cap only bounds a pathological input
_ABERTH_MAX_ITER = 200


def _secular_terms(ah: ArrowheadMatrix):
    """(s, d, cr, corner): the secular data of A / s, s the largest entry.

    f(lam) = sum cr_j / (lam - d_j) + corner - lam with cr = col * row.  An
    exactly Hermitian arrowhead (row = conj(col) bit for bit, a real diagonal
    and a real corner) gets real data with cr = |col / s|^2: the complex
    product col * row leaves imaginary parts of rounding size.
    """
    s = ah.scale() or 1.0
    if np.array_equal(ah.row, ah.col.conj()) and not ah.diag.imag.any() and ah.corner.imag == 0:
        return s, ah.diag.real / s, np.abs(ah.col / s) ** 2, ah.corner.real / s
    return s, ah.diag / s, (ah.col / s) * (ah.row / s), ah.corner / s


def _aberth_secular_roots(ah: ArrowheadMatrix):
    """Simultaneous root iteration on the cleared secular polynomial.

    Works on the product form p = f * prod(lam - a_j), so the logarithmic
    derivative p'/p = f'/f + sum 1/(lam - a_j) costs O(n) per point and no
    ill-conditioned coefficient expansion is ever formed.  A root whose
    correction falls to rounding level is frozen but still repels the live
    ones, so a sweep costs O(live * n), in two buffers allocated once.  A
    sweep divides unguarded and is redone only when rows come out non-finite
    (a point on a pole, two that meet), with their differences clamped to
    1e-30.  It runs on A / s (``_secular_terms``), so that no product over-
    or underflows at any scale.

    An exactly Hermitian arrowhead has one root in each gap of its sorted
    poles and one beyond each end.  It starts in each gap at the root of
    dlaed4's two-pole model (f with its other terms frozen at the midpoint),
    kept 1e-3 of the gap off either pole, and sqrt(sum |col_j|^2) + 1 beyond
    each end pole, and runs in float64.  Any other arrowhead starts at its
    poles (slightly displaced) and its corner, in complex arithmetic.
    """
    s, d, cr, corner = _secular_terms(ah)
    n = ah.n
    m = n - 1
    if np.isrealobj(d):
        poles, c, reach = np.sort(d), cr[np.argsort(d)], np.sqrt(cr.sum()) + 1.0
        # in gap (l, r): c_l / t + c_r / (t - gap) + w = 0 for t in (0, gap), w the rest of f at the midpoint
        cl, gap, mid = c[:-1], np.diff(poles), 0.5 * (poles[:-1] + poles[1:])
        with np.errstate(all="ignore"):
            w = (1.0 / (mid[:, None] - poles)) @ c + corner - mid - 2 * (cl - c[1:]) / gap
            b = cl + c[1:] - w * gap
            t = 2 * cl * gap / (b + np.sqrt(b * b + 4 * w * cl * gap))
        t = np.clip(np.where(np.isfinite(t), t, 0.5 * gap), 1e-3 * gap, (1 - 1e-3) * gap)  # next to a pole p'/p cancels
        z = np.concatenate([[poles[0] - reach], poles[:-1] + t, [poles[-1] + reach]])
    else:
        z = np.empty(n, dtype=complex)
        offs = 0.02 * np.exp(2j * np.pi * (np.arange(m) + 0.25) / max(m, 1))
        z[:m] = d + offs
        z[m] = corner + 0.013 * (1 + 1j)

    inv_buf = np.empty((n, m), dtype=z.dtype)  # 1 / (z_i - a_j), live rows first
    pair_buf = np.empty((n, n), dtype=z.dtype)  # 1 / (z_i - z_k)
    live = np.arange(n)
    for _ in range(_ABERTH_MAX_ITER):
        k = live.size
        zl = z[live]
        clamp = []  # no row at first, then the rows whose sums came out non-finite
        for _ in range(2):
            inv = np.subtract(zl[:, None], d, out=inv_buf[:k])
            pair = np.subtract(zl[:, None], z, out=pair_buf[:k])
            pair[np.arange(k), live] = np.inf
            if len(clamp):  # a point on a pole, two points that meet: |difference| lifted to 1e-30
                for diff in (inv, pair):
                    diff[clamp] = np.where(np.abs(diff[clamp]) < 1e-30, 1e-30, diff[clamp])
            with np.errstate(all="ignore"):
                np.divide(1.0, inv, out=inv)
                f = inv @ cr + corner - zl
                pole_sum = inv.sum(axis=1)
                inv *= inv
                fp = -(inv @ cr) - 1.0
                repel = np.divide(1.0, pair, out=pair).sum(axis=1)
                clamp = np.flatnonzero(~np.isfinite(f + fp + pole_sum + repel))
            if not clamp.size:
                break
        nonzero = np.abs(f) > 1e-300  # an exact root holds still
        denom = fp / np.where(nonzero, f, 1.0) + pole_sum - repel
        moving = nonzero & (np.abs(denom) >= 1e-300)
        step = np.where(moving, 1.0 / np.where(moving, denom, 1.0), 0.0)
        mags = np.abs(step)
        big = mags > 0.5
        if big.any():
            step = np.where(big, step / np.maximum(mags, 1e-300) * 0.5, step)
        z[live] = zl - step
        live = live[np.abs(step) > 4 * np.finfo(float).eps * np.maximum(np.abs(zl), 1.0)]
        if not live.size:
            break
    return s * z


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``safe_norm`` of each row of a C-contiguous array: one pass of squares, rescaled where they over- or underflow."""
    sq = np.einsum("ij,ij->i", v.view(float), v.view(float))
    out, bad = np.sqrt(sq), ~((sq >= np.finfo(float).tiny / np.finfo(float).eps) & (sq < np.inf))
    out[bad] = [safe_norm(row) for row in v[bad]]
    return out


def _distinct_entries(values, atol: float) -> bool:
    """True when every two entries differ by more than atol."""
    gaps = np.abs(values[:, None] - values[None, :])[~np.eye(len(values), dtype=bool)]
    return bool(np.min(gaps, initial=np.inf) > atol)


def secular_eigen(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> SecularResult:
    """All eigenvalues of the arrowhead via its rational secular equation.

    A zero pair (col_j = row_j = 0) gives the exact pair (a_j, e_j) and
    leaves the arrowhead without j.  One Aberth iteration
    (``_aberth_secular_roots``) locates every other root at O(n^2) a sweep.
    Each root of an exactly Hermitian arrowhead is carried as o + mu on A / s,
    o its nearest pole (a neighbour in the sorted poles, which the roots
    interlace), and mu takes two Newton steps on the secular function in
    offsets, sum cr_j / ((o - d_j) + mu) + corner - o - mu.  The gaps o - d_j
    are exact next to o, so x = (col / (lam - a), 1) keeps full relative
    accuracy at clustered poles and next to a pole (Gu & Eisenstat 1995).
    The secular vectors and residuals, read off the arrow pattern, cost O(n^2).

    Only roots without a secular vector build the dense matrix: a general
    root within eq_tol * s of a pole, and a Hermitian one there whose mu is 0,
    whose pole's coupling underflows or whose vector leaves a residual above
    64 eps s.  Genuine eigenvalues among them come back as degenerate pairs
    with a nullspace vector, one SVD per group that agrees to 1e-9 ||A||, so
    a repeated eigenvalue gets orthonormal vectors.  The zero arrowhead, all
    zero pairs, gets the standard basis for its n-fold eigenvalue 0.
    """
    n = ah.n
    if n == 1:
        return SecularResult(eigen=[SecularPair(ah.corner, np.ones(1, dtype=complex), 0.0)], degenerate=[])
    live = (ah.col != 0) | (ah.row != 0)
    if not live.all():  # e_j for each zero pair j, and the other pairs' arrowhead
        zero = np.flatnonzero(~live)
        out = secular_eigen(ArrowheadMatrix(ah.diag[live], ah.col[live], ah.row[live], ah.corner), tol)
        for p in out.eigen + out.degenerate:
            p.vector = np.insert(p.vector, zero - np.arange(zero.size), 0.0)
        out.degenerate[:0] = [SecularPair(complex(ah.diag[j]), np.eye(1, n, j, dtype=complex)[0], 0.0) for j in zero]
        return out
    roots = _aberth_secular_roots(ah)
    real = np.isrealobj(roots)  # exactly Hermitian input
    s, d, cr, corner = _secular_terms(ah)
    if real:
        r, order = roots / s, np.argsort(d)
        lo, hi = (order[np.clip(np.searchsorted(d[order], r) - k, 0, n - 2)] for k in (1, 0))
        nearest = np.where(np.abs(r - d[lo]) <= np.abs(r - d[hi]), lo, hi)  # a root on a pole gets mu = 0
        o, mu = d[nearest], r - d[nearest]  # lam = s (o + mu), so lam - a_j = s ((o - d_j) + mu)
        colliding = np.abs(mu) <= tol.eq_tol
    else:
        colliding = np.abs(roots[:, None] - ah.diag).min(axis=1) <= tol.eq_tol * s
    own = ~colliding | (real and (mu != 0) & (cr[nearest] > 0))  # a Hermitian root at a pole may keep its vector
    # one row per root: x = (col / (lam - a), 1) normalised, and Ax - lam x by rows of the arrow
    lams = roots[own]
    x = np.empty((lams.size, n), dtype=complex)
    head, tail = x[:, :-1], x[:, -1:]
    tail[:] = 1.0
    if real:
        o, mu = o[own], mu[own]
        gaps = np.empty((lams.size, n - 1))
        for newton in (True, True, False):  # two steps on g(mu) = sum cr_j / ((o - d_j) + mu) + corner - o - mu
            np.add(np.subtract(o[:, None], d, out=gaps), mu[:, None], out=gaps)
            np.divide(1.0, gaps, out=gaps)
            if newton:  # the numerator is taken before the square overwrites gaps
                mu += (gaps @ cr + corner - o - mu) / (np.square(gaps, out=gaps) @ cr + 1.0)
        np.multiply(ah.col / s, gaps, out=head)
        del gaps
        lams = s * (o + mu)
    else:
        np.subtract(lams[:, None], ah.diag, out=head)
        np.divide(ah.col, head, out=head)
    x *= (1.0 / _row_norms(x))[:, None]
    lams = lams[:, None]
    res = np.empty_like(x)
    np.multiply(ah.diag, head, out=res[:, :-1])
    res[:, :-1] += ah.col * tail
    res[:, :-1] -= lams * head
    res[:, -1:] = head @ ah.row[:, None] + ah.corner * tail - lams * tail
    resid = _row_norms(res)
    held = ~colliding[own] | (resid <= 64 * np.finfo(float).eps * s)
    own[own] = held
    eigen = [SecularPair(complex(lam), vec, float(r)) for lam, vec, r in zip(lams[held, 0], x[held], resid[held])]
    degen, notices = [], []
    # the other roots (only they need the dense matrix) that agree to the residual
    # target are one repeated eigenvalue and share one SVD, so their eigenvectors come out orthonormal
    dense = None if own.all() else ah.to_dense()
    target = 0.0 if own.all() else 1e-9 * matrix_scale(dense)
    groups = {}
    for i in np.flatnonzero(~own):
        key = next((k for k in groups if abs(roots[k] - roots[i]) <= target), i)
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        _, sv, vh = np.linalg.svd(dense - np.mean(roots[members]) * np.eye(n))
        for j, i in enumerate(members):
            lam = roots[i]
            if sv[n - 1 - j] <= 10 * target:
                degen.append(SecularPair(complex(lam), vh[n - 1 - j].conj(), float(sv[n - 1 - j])))
                notices.append(f"root {lam:.6g} within tolerance of a diagonal pole; eigenvector from nullspace")
            else:
                notices.append(f"cleared-polynomial root {lam:.6g} collides with a pole and is not an eigenvalue")
    return SecularResult(eigen=eigen, degenerate=degen, notices=notices)


# ---------------------------------------------------------------------------
# normal eigenvalues
# ---------------------------------------------------------------------------


@dataclass
class NormalEigCertificate:
    condition: str  # "i" | "ii" | "iii" | "iv"
    witness_lambda: Optional[complex]
    witness_vector: np.ndarray
    indices: tuple


def normal_eigenvalue_check(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Certificates for every satisfied normal-eigenvalue criterion.

    (i)-(iii) are one rule: for indices S sharing the diagonal value a, every
    x supported on S with row_S . x = 0 and conj(col_S) . x = 0 is a joint
    eigenvector of A and A* for a.  One SVD per equal-diagonal group gives an
    orthonormal basis of these x, each certified under (i) for |S| = 1 (a
    fully zero pair), (ii) for |S| = 2 (proportional couplings) and (iii) for
    |S| >= 3 (such x always exist); when every pair is zero, the corner joins
    the groups, as e_n is then a joint eigenvector for a_n.  (iv): balanced
    moduli with the lines a_j + r e^{i psi_j / 2} either all coincident (one
    certificate, for the top eigenvector of the essentially Hermitian
    rotation) or concurrent at a secular root, found by one least-squares
    solve.  So an eigenspace gets one orthonormal set of witnesses, not one
    witness per index subset.
    """
    n = ah.n
    dense = ah.to_dense()
    s = ah.scale()
    ztol = tol.eq_tol * s
    certs = []
    nm1 = n - 1

    def push(cond, lam, x, idx):
        x = x / np.linalg.norm(x)
        residual = max(safe_norm(dense @ x - lam * x), safe_norm(dense.conj().T @ x - np.conj(lam) * x))
        if residual <= 1e-6 * matrix_scale(dense):
            certs.append(NormalEigCertificate(cond, lam, x, idx))

    prof = pair_profile(ah, tol)
    diag, row, col = np.append(ah.diag, ah.corner), np.append(ah.row, 0), np.append(ah.col, 0)
    groups = {}
    for j in range(n if prof.zero.all() else nm1):
        key = next((i for i in groups if abs(diag[i] - diag[j]) <= ztol), j)
        groups.setdefault(key, []).append(j)
    for i, idx in groups.items():
        _, sv, vh = np.linalg.svd(np.array([row[idx], np.conj(col[idx])]))
        rank = int(np.sum(sv > ztol))
        for xi in vh[rank:].conj():
            x = np.zeros(n, dtype=complex)
            x[idx] = xi
            push(("i", "ii", "iii")[min(len(idx), 3) - 1], diag[i], x, tuple(idx))

    if nm1 and np.all(~prof.zero & prof.balanced):
        # line j: Im(e^{-i phi_j} (lam - a_j)) = 0; rank 1 when all directions agree to ARG_SPREAD_TOL
        phis = prof.psi / 2.0
        lines = np.column_stack([-np.sin(phis), np.cos(phis)])
        offsets = np.imag(np.exp(-1j * phis) * ah.diag)
        sol, _, rank, _ = np.linalg.lstsq(lines, offsets, rcond=ARG_SPREAD_TOL)
        lam = complex(sol[0], sol[1])
        meets = np.max(np.abs(lines @ sol - offsets)) <= (ztol if rank < 2 else 100 * ztol)
        if meets and rank < 2:
            # coincident lines: Im(e^{-i phi} A) is scalar when the corner lies on them too
            phi = phis[0]
            h, k = hermitian_parts(dense)
            im_part = _pencil_at(k, -h, phi)
            if np.linalg.norm(im_part - (np.trace(im_part) / n) * np.eye(n)) <= 1e-6 * matrix_scale(dense) * n:
                x = np.linalg.eigh(_pencil_at(h, k, phi))[1][:, -1]
                push("iv", complex(x.conj() @ dense @ x), x, tuple(range(nm1)))
        elif meets and np.min(np.abs(lam - ah.diag)) > ztol and abs(secular_function(ah, lam)) <= 1e-6 * max(s, abs(lam)):
            push("iv", lam, np.append(ah.col / (lam - ah.diag), 1.0), tuple(range(nm1)))
    return certs


# ---------------------------------------------------------------------------
# orthogonal-projection recognition
# ---------------------------------------------------------------------------


@dataclass
class ProjectionForm:
    kind: str  # "Diagonal01" | "RankStructured" | "NotProjection"
    index: Optional[int] = None
    t: Optional[float] = None
    alpha: Optional[complex] = None


def _coupled_pair(p: np.ndarray):
    """The shape of a Hermitian idempotent arrowhead P, which couples one
    index at most: None when no coupling |P[j, n-1]| exceeds IDEMPOTENT_TOL
    (P is a 0/1 diagonal), else (i, t, alpha) = (i, P[i, i], P[i, n-1]) for
    the largest coupling, the rank-one 2x2 block of slot i and the corner."""
    n = p.shape[0]
    i = int(np.argmax(np.abs(p[: n - 1, n - 1])))
    if abs(p[i, n - 1]) <= IDEMPOTENT_TOL:
        return None
    return i, float(p[i, i].real), complex(p[i, n - 1])


def projection_recognize(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ProjectionForm:
    """Match a self-adjoint idempotent arrowhead against its two shapes:
    a 0/1 diagonal, or a 0/1 diagonal plus one coupled 2x2 rank-one block.

    P is accepted when ||P - P*||_F <= eq_tol ||P|| n and, as in the
    dichotomy test, ||P^2 - P||_F <= IDEMPOTENT_TOL n; idempotency then fixes
    the 0/1 diagonal, the corner 1 - t and |alpha|^2 = t (1 - t)."""
    dense = ah.to_dense()
    n = ah.n
    if (np.linalg.norm(dense - dense.conj().T) > tol.eq_tol * matrix_scale(dense) * n
            or np.linalg.norm(dense @ dense - dense) > IDEMPOTENT_TOL * n):
        return ProjectionForm("NotProjection")
    shape = _coupled_pair(dense)
    return ProjectionForm("Diagonal01") if shape is None else ProjectionForm("RankStructured", *shape)


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------


@dataclass
class DichotomyCertificate:
    case: str  # "a" | "b"
    theta: float
    h0: float
    h1: float
    exceptional_index: Optional[int] = None
    t: Optional[float] = None
    alpha: Optional[complex] = None
    p_values: Optional[dict] = None  # index -> 0/1 for the projection diagonal

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "theta": self.theta,
            "h0": self.h0,
            "h1": self.h1,
            "exceptional_index": self.exceptional_index,
            "t": self.t,
            "alpha": None if self.alpha is None else [self.alpha.real, self.alpha.imag],
            "p_values": self.p_values,
        }


@dataclass
class PairProfile:
    zero: np.ndarray  # boolean per index
    balanced: np.ndarray  # boolean (moduli match), only meaningful off zero
    psi: np.ndarray  # arg(col) + arg(row)


def pair_profile(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> PairProfile:
    ztol = tol.eq_tol * ah.scale()
    zero = (np.abs(ah.col) <= ztol) & (np.abs(ah.row) <= ztol)
    mags = np.maximum(np.abs(ah.col), np.abs(ah.row))
    balanced = np.abs(np.abs(ah.col) - np.abs(ah.row)) <= tol.eq_tol * mags
    psi = np.angle(ah.col) + np.angle(ah.row)
    return PairProfile(zero=zero, balanced=balanced, psi=psi)


ARG_SPREAD_TOL = 1e-7  # largest deviation of a coupling angle from their circular mean


def dichotomy_check(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[DichotomyCertificate]:
    """Certificate that some rotation makes the Hermitian part two-valued.

    The direction and the levels are ``dichotomy_scan``'s, the test used at
    every size; the case is read off its idempotent P by ``_coupled_pair``:
    (a) P is a 0/1 diagonal, (b) P couples the exceptional index i to the
    corner with t = P[i, i] and alpha = P[i, n-1].  ``p_values`` holds P's
    rounded 0/1 diagonal at every other index.
    """
    n = ah.n
    if n < 3:
        raise NotApplicableError("dichotomy certificates need n >= 3")
    scan = dichotomy_scan(ah.to_dense(), tol=tol)
    if scan is None:
        return None
    theta, h0, h1, proj = scan
    p_values = {j: int(round(proj[j, j].real)) for j in range(n - 1)}
    shape = _coupled_pair(proj)
    if shape is None:
        return DichotomyCertificate("a", theta, h0, h1, p_values=p_values)
    i, t, alpha = shape
    del p_values[i]
    return DichotomyCertificate("b", theta, h0, h1, exceptional_index=i, t=t, alpha=alpha, p_values=p_values)


def irreducible_dichotomous_check(ah: ArrowheadMatrix, cert: DichotomyCertificate, tol: ToleranceConfig = DEFAULT_TOL):
    """Decide unitary irreducibility of a dichotomous arrowhead.

    Requires distinct diagonal entries and nonzero balanced pairs; beyond
    that, only the coupled case can fail, through either the aligned-diagonal
    resonance (a reducing eigenvector shared with the projection) or, at
    n = 4 with mixed projection diagonal, a two-dimensional reducing subspace
    pinned down by a singular 3x3 bordered block.
    """
    n = ah.n
    dense = ah.to_dense()
    atol = tol.eq_tol * matrix_scale(dense)
    if _two_level_form(herm_part_at(dense, cert.theta), [cert.h0, cert.h1], atol) is None:
        raise CertificateMismatchError("certificate fails to reconstruct the projection")
    prof = pair_profile(ah, tol)

    if not _distinct_entries(ah.diag, atol):
        return False, "repeated diagonal entry"
    live = [j for j in range(n - 1) if cert.exceptional_index is None or j != cert.exceptional_index]
    for j in live:
        if prof.zero[j]:
            return False, f"zero off-diagonal pair at index {j}"

    if cert.case == "a":
        return True, "diagonal projection with distinct couplings"

    i, t, alpha = cert.exceptional_index, cert.t, cert.alpha
    # the diagonal, couplings and corner of Im(e^{-i theta} A), in units of the
    # largest of them, so that no product below over- or underflows
    rot = np.exp(-1j * cert.theta)
    k_diag, m = np.imag(rot * ah.diag), (rot * ah.col - np.conj(rot) * np.conj(ah.row)) / 2j
    k_corner = float(np.imag(rot * ah.corner))
    kscale = max(np.max(np.abs(k_diag), initial=0.0), abs(k_corner), np.max(np.abs(m), initial=0.0)) or 1.0
    k_diag, m, k_corner, atol = k_diag / kscale, m / kscale, k_corner / kscale, atol / kscale
    ratio = m[i] / alpha
    if abs(ratio.imag) > tol.eq_tol * max(abs(ratio), 1.0):
        return True, "coupling-to-projection ratio not real"
    ratio = ratio.real

    others = [j for j in range(n - 1) if j != i]
    pvals = [cert.p_values[j] for j in others]

    if len(set(pvals)) <= 1:
        # all remaining projection levels coincide: A is reducible exactly when
        # the candidate level lam admits a full secular eigenvector of the skew
        # part whose i-th coordinate matches the projection's kernel direction
        p0 = pvals[0] if pvals else 0
        lam = k_diag[i] + (p0 - t) * ratio
        denom = lam - k_diag[others]
        if np.min(np.abs(denom), initial=np.inf) <= atol:
            return True, "aligned case: resonance value collides with a coupling level"
        total = float(np.sum(np.abs(m[others]) ** 2 / denom))
        if abs(m[i]) > atol:
            total += float(np.real(np.abs(m[i]) ** 2 / ((p0 - t) * ratio)))
        rhs = lam - total
        if abs(k_corner - rhs) <= 1e-6:
            return False, "aligned-diagonal resonance produces a reducing eigenvector"
        return True, "aligned diagonal, no resonance"

    if n != 4:
        return True, "mixed projection diagonal, reducible only at n = 4"
    sigma1 = others[pvals.index(0)]
    sigma2 = others[pvals.index(1)]
    k1, k2, ki = k_diag[sigma1], k_diag[sigma2], k_diag[i]
    cond_level = abs(ki - ((1 - t) * k1 + t * k2)) <= 1e-6
    if not cond_level:
        return True, "mixed case: level interpolation fails"
    m_comb = m[i] + (k1 - k2) * alpha
    if abs(m_comb) <= 1e-6:
        if abs((1 - t) * abs(m[sigma1]) ** 2 - t * abs(m[sigma2]) ** 2) > 1e-6:
            return True, "mixed case: degenerate branch balance fails"
    d1 = k1 - ki + t * ratio
    d2 = k2 - ki - (1 - t) * ratio
    d3 = k_corner - ki - (1 - 2 * t) * ratio
    det = d1 * d2 * d3 - d1 * abs(m[sigma2]) ** 2 - d2 * abs(m[sigma1]) ** 2
    if abs(det) <= tol.eq_tol * 100:
        return False, "mixed case: bordered block is singular (2-dim reducing subspace)"
    return True, "mixed case: bordered block nonsingular"


# ---------------------------------------------------------------------------
# Gau-Wu values for structured arrowheads
# ---------------------------------------------------------------------------


def _balanced_theta(ah: ArrowheadMatrix, tol: ToleranceConfig):
    prof = pair_profile(ah, tol)
    nz = ~prof.zero
    if not np.all(prof.balanced[nz]):
        raise NotApplicableError("unbalanced off-diagonal pair present")
    if not nz.any():
        raise NotApplicableError("no nonzero pair fixes the rotation angle")
    # angles whose unit vectors cancel deviate by pi / 2 or more from any mean
    mean = float(np.angle(np.sum(np.exp(1j * prof.psi[nz]))))
    if np.max(np.abs(np.angle(np.exp(1j * (prof.psi[nz] - mean))))) > ARG_SPREAD_TOL:
        raise NotApplicableError("coupling angles are not constant across indices")
    return float(np.mod((mean - np.pi) / 2.0, np.pi)), prof


def gauwu_balanced(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> GauWuResult:
    """Exact Gau-Wu number of a fully balanced arrowhead.

    The rotation fixed by the coupling angles diagonalizes the Hermitian
    part; the answer is the combined multiplicity of its extreme diagonal
    entries, achieved by the corresponding standard basis vectors: the
    witness holds e_j at theta for the top entries and at theta + pi for the
    bottom ones.  Entries count as tied within cluster_tol ||A||, so each
    witness vector lies that far from its supporting line at most; ``verify``
    accepts 10 boundary_tol times the diameter of W(A).  The route's bound
    decides k, and a tie that the check's bound does not cover fails the
    check and sends ``verify`` back to the search.
    """
    n = ah.n
    theta, prof = _balanced_theta(ah, tol)
    if prof.zero.any():
        raise NotApplicableError("zero off-diagonal pair present")
    dense = ah.to_dense()
    d = np.real(np.exp(-1j * theta) * np.concatenate([ah.diag, [ah.corner]]))
    link = tol.cluster_tol * matrix_scale(dense)
    spread = float(np.max(d) - np.min(d))
    if spread <= link:
        cert = {"theta": theta, "diagonal": d.tolist(), "note": "rotated Hermitian part is scalar; the range is a segment"}
        return GauWuResult(k=n, n=n, method=METHOD_ARROWHEAD, certificate=cert,
                           build_witness=lambda: Witness(np.eye(n), [theta] * n))
    top = np.nonzero(d >= np.max(d) - link)[0]
    bot = np.nonzero(d <= np.min(d) + link)[0]
    cert = {
        "route": "balanced",
        "theta": theta,
        "diagonal": d.tolist(),
        "top_indices": top.tolist(),
        "bottom_indices": bot.tolist(),
    }
    return GauWuResult(k=len(top) + len(bot), n=n, method=METHOD_ARROWHEAD, certificate=cert,
                       build_witness=lambda: Witness(np.eye(n)[:, np.concatenate([top, bot])],
                                                     [theta] * len(top) + [theta + np.pi] * len(bot)))


def gauwu_with_zero_pairs(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> GauWuResult:
    """Balanced arrowhead with some fully zero pairs: the direct sum of the
    diagonal entries at the zero pairs and the live sub-arrowhead, each share
    from ``reduction.block_kprime`` against the whole matrix's range.  The
    line rule, the sub-arrowhead's extreme rotated diagonal entries counted
    where they reach the boundary, is kept as a cross-check.  The witness is
    the boundary scalars' e_j and the sub-arrowhead's block witness."""
    n = ah.n
    theta, prof = _balanced_theta(ah, tol)
    if not prof.zero.any():
        return gauwu_balanced(ah, tol)
    dense = ah.to_dense()
    zero_idx = np.nonzero(prof.zero)[0]
    live_idx = np.nonzero(~prof.zero)[0]
    ambient = SupportFunction(dense, grid_size=1024)
    scalar_shares = {int(j): block_kprime(dense[j : j + 1, j : j + 1], ambient, tol) for j in zero_idx}
    scalars_on_boundary = [j for j, share in scalar_shares.items() if share[0]]

    sub = ArrowheadMatrix(ah.diag[live_idx], ah.col[live_idx], ah.row[live_idx], ah.corner)
    sub_dense = sub.to_dense()
    # _balanced_theta needs a nonzero pair, so the sub-arrowhead has n >= 2
    k1, _, sub_witness = block_kprime(sub_dense, ambient, tol)
    d1 = np.real(np.exp(-1j * theta) * np.concatenate([sub.diag, [sub.corner]]))
    btol = tol.boundary_tol * ambient.diameter()
    link = tol.cluster_tol * matrix_scale(sub_dense)
    line_rule = 0
    if abs(ambient(theta) - np.max(d1)) < btol:
        line_rule += int(np.sum(d1 >= np.max(d1) - link))
    if abs(ambient(float(theta + np.pi)) + np.min(d1)) < btol:
        line_rule += int(np.sum(d1 <= np.min(d1) + link))
    cert = {
        "route": "balanced-with-zero-pairs",
        "theta": theta,
        "zero_pair_indices": zero_idx.tolist(),
        "scalars_on_boundary": scalars_on_boundary,
        "sub_share": int(k1),
        "sub_count_line_rule": int(line_rule),
        "line_rule_agrees": bool(k1 == line_rule),
    }
    eye = np.eye(n)
    return GauWuResult(k=int(k1) + len(scalars_on_boundary), n=n, method=METHOD_ARROWHEAD, certificate=cert,
                       build_witness=lambda: joined([(eye[:, [j]], scalar_shares[j][2]()) for j in scalars_on_boundary]
                                                    + [(eye[:, np.append(live_idx, n - 1)], sub_witness())]))


def _hull_boundary_indices(points, tol: ToleranceConfig):
    """Indices of points on the boundary of their planar convex hull.

    The hull comes from Andrew's monotone chain.  A point counts when its
    distance to the nearest edge line, which is the minimum over directions
    of its support gap, is at most 10 eq_tol times the diameter; every point
    of a collinear set (a segment) counts.
    """
    pts = np.asarray(points, dtype=complex)
    m = len(pts)
    if m <= 2:
        return list(range(m))
    # in units of the diameter, so that no cross product over- or underflows
    pts = pts / (np.max(np.abs(pts[:, None] - pts[None, :])) or 1.0)

    def cross(o, a, b):
        return (np.conj(a - o) * (b - o)).imag

    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2 and cross(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out[:-1]

    order = list(np.lexsort((pts.imag, pts.real)))
    hull = pts[chain(order) + chain(order[::-1])]
    if len(hull) < 3:
        return list(range(m))
    ends = np.roll(hull, -1)
    dist = cross(hull[:, None], ends[:, None], pts[None, :]) / np.abs(ends - hull)[:, None]
    return np.nonzero(np.min(dist, axis=0) <= 10 * tol.eq_tol)[0].tolist()


def gauwu_unbalanced_two(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> GauWuResult:
    """k = 2 for arrowheads whose couplings are unbalanced the same way.

    Requires distinct diagonal entries, one of |col_j| >= |row_j| or the
    reverse for every index, strictly on the indices whose diagonal entries
    sit on the boundary of their convex hull (pure almost normal matrices,
    with a zero last row, are the extreme special case).  The witness is the
    top and bottom eigenvectors of the Hermitian part, at ``witness_thetas``.
    """
    n = ah.n
    if n < 3:
        raise NotApplicableError("route needs n >= 3")
    atol = tol.eq_tol * ah.scale()
    if not _distinct_entries(ah.diag, atol):
        raise NotApplicableError("diagonal entries must be distinct")
    hull = _hull_boundary_indices(ah.diag, tol)
    bc = np.abs(ah.col) - np.abs(ah.row)
    col_dom = np.all(bc >= -atol)
    row_dom = np.all(bc <= atol)
    if not (col_dom or row_dom):
        raise NotApplicableError("couplings are not uniformly unbalanced")
    direction = "column" if col_dom else "row"
    sign = 1.0 if col_dom else -1.0
    for j in hull:
        if sign * bc[j] <= atol:
            raise NotApplicableError(f"imbalance not strict on hull index {j}")
    cert = {
        "route": "unbalanced",
        "hull_indices": [int(j) for j in hull],
        "direction": direction,
        "witness_thetas": [0.0, float(np.pi)],
    }
    return GauWuResult(k=2, n=n, method=METHOD_ARROWHEAD, certificate=cert,
                       build_witness=lambda: _split_witness(ah.to_dense(), 0.0))
