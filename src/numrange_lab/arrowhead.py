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
    ABS_FLOOR,
    DEFAULT_TOL,
    StructureError,
    ToleranceConfig,
    _pencil_at,
    as_square_matrix,
    herm_part_at,
    hermitian_parts,
    matrix_scale,
)
from .numrange import SupportFunction, _two_level_form, dichotomy_scan, point_boundary_defect
from .results import METHOD_ARROWHEAD, GauWuResult


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
        return max(max(vals), ABS_FLOOR)


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
    if off > tol.eq_abs(matrix_scale(m)):
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


def _secular_derivative(ah: ArrowheadMatrix, lam):
    cr = ah.col * ah.row
    return -np.sum(cr / (lam - ah.diag) ** 2) - 1.0


def _aberth_secular_roots(ah: ArrowheadMatrix, max_iter: int = 200):
    """Simultaneous root iteration on the cleared secular polynomial.

    Works on the product form p = f * prod(lam - a_j), so the logarithmic
    derivative p'/p = f'/f + sum 1/(lam - a_j) is available in O(n) per point
    and no ill-conditioned coefficient expansion is ever formed.  Starting
    points are the poles (slightly displaced) plus the corner, which the
    mutual-repulsion term then sorts out.
    """
    d = ah.diag
    cr = ah.col * ah.row
    corner = ah.corner
    n = ah.n
    s = ah.scale()
    m = n - 1
    z = np.empty(n, dtype=complex)
    offs = 0.02 * s * np.exp(2j * np.pi * (np.arange(m) + 0.25) / max(m, 1))
    z[:m] = d + offs
    z[m] = corner + 0.013 * s * (1 + 1j)

    for _ in range(max_iter):
        dz = z[:, None] - d[None, :]  # n x m
        near = np.abs(dz) < 1e-14 * s
        if near.any():
            dz = np.where(near, 1e-13 * s, dz)
        inv = 1.0 / dz
        terms = cr[None, :] * inv
        f = terms.sum(axis=1) + corner - z
        fp = -(terms * inv).sum(axis=1) - 1.0
        live = np.abs(f) > 1e-300  # converged points hold still
        pair = z[:, None] - z[None, :]
        np.fill_diagonal(pair, np.inf)
        repel = (1.0 / pair).sum(axis=1)
        denom = np.where(live, fp / np.where(live, f, 1.0) + inv.sum(axis=1) - repel, 1.0)
        bad = np.abs(denom) < 1e-300
        denom = np.where(bad, 1.0, denom)
        step = np.where(live & ~bad, 1.0 / denom, 0.0)
        mags = np.abs(step)
        big = mags > 0.5 * s
        if big.any():
            step = np.where(big, step / np.maximum(mags, 1e-300) * (0.5 * s), step)
        z = z - step
        if np.max(np.abs(step)) < 1e-16 * s:
            break
    return z


def _distinct_entries(values, atol: float) -> bool:
    """True when every two entries differ by more than atol."""
    gaps = np.abs(values[:, None] - values[None, :])[~np.eye(len(values), dtype=bool)]
    return bool(np.min(gaps, initial=np.inf) > atol)


def _is_hermitian_arrowhead(ah: ArrowheadMatrix, tol: ToleranceConfig) -> bool:
    s = ah.scale()
    if np.max(np.abs(ah.diag.imag), initial=0.0) > tol.eq_abs(s):
        return False
    if abs(ah.corner.imag) > tol.eq_abs(s):
        return False
    return np.max(np.abs(ah.row - np.conj(ah.col)), initial=0.0) <= tol.eq_abs(s)


def _hermitian_secular_roots(ah: ArrowheadMatrix, tol: ToleranceConfig):
    """Bisection between the poles of the rational secular function.

    With distinct real poles and nonzero couplings the function decreases
    strictly from +inf to -inf on every gap, so each gap holds one root and
    one more root sits outside the pole range on each side.
    """
    poles = np.sort(ah.diag.real)
    corner = ah.corner.real
    cr = np.abs(ah.col) ** 2

    order = np.argsort(ah.diag.real)
    cr = cr[order]

    def f(lam):
        return float(np.sum(cr / (lam - poles)) + corner - lam)

    bound = float(np.sum(np.sqrt(cr))) + abs(corner) + np.max(np.abs(poles)) + 1.0
    roots = []
    intervals = []
    lo = -bound
    while f(lo) <= 0:
        lo *= 2
    intervals.append((lo, poles[0]))
    for i in range(len(poles) - 1):
        intervals.append((poles[i], poles[i + 1]))
    hi = bound
    while f(hi) >= 0:
        hi *= 2
    intervals.append((poles[-1], hi))
    eps = 1e-14 * max(1.0, np.max(np.abs(poles)))
    for lo, hi in intervals:
        a, b = lo + eps, hi - eps
        fa, fb = f(a), f(b)
        if not (fa > 0 > fb):
            # nudge closer to the poles until the signs bracket
            for shrink in range(60):
                a = lo + (a - lo) / 4
                b = hi - (hi - b) / 4
                fa, fb = f(a), f(b)
                if fa > 0 > fb:
                    break
        for _ in range(120):
            mid = 0.5 * (a + b)
            if f(mid) > 0:
                a = mid
            else:
                b = mid
            if b - a < 1e-17 * max(1.0, abs(mid)):
                break
        roots.append(0.5 * (a + b))
    for _ in range(3):  # Newton cleanup
        roots = [
            r - float(np.real(secular_function(ah, r) / _secular_derivative(ah, r)))
            for r in roots
        ]
    return np.array(roots, dtype=complex)


def secular_eigen(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> SecularResult:
    """All eigenvalues of the arrowhead via its rational secular equation.

    Roots are located by interlaced bisection for Hermitian arrowheads with
    distinct poles and nonzero couplings, and otherwise by Aberth iteration
    on the product form of the cleared-denominator polynomial, then polished
    by Newton iteration on the rational function.  Roots colliding
    with a diagonal pole have no secular eigenvector formula; they are set
    aside as degenerate with a nullspace-derived eigenvector when they are
    genuine eigenvalues.
    """
    n = ah.n
    dense = ah.to_dense()
    dscale = matrix_scale(dense)
    if n == 1:
        return SecularResult(eigen=[SecularPair(ah.corner, np.ones(1, dtype=complex), 0.0)], degenerate=[])
    s = ah.scale()
    cr = ah.col * ah.row

    couplings_ok = np.min(np.abs(cr), initial=np.inf) > tol.eq_abs(s) ** 2
    if _is_hermitian_arrowhead(ah, tol) and _distinct_entries(ah.diag, tol.eq_abs(s)) and couplings_ok:
        roots = _hermitian_secular_roots(ah, tol)
    else:
        roots = _aberth_secular_roots(ah)

    # Newton polish on the rational secular function
    polished = []
    for lam in roots:
        dist = np.min(np.abs(lam - ah.diag)) if len(ah.diag) else np.inf
        if dist <= tol.eq_abs(s):
            polished.append(lam)
            continue
        for _ in range(50):
            fval = secular_function(ah, lam)
            step = fval / _secular_derivative(ah, lam)
            lam2 = lam - step
            if len(ah.diag) and np.min(np.abs(lam2 - ah.diag)) <= 1e-15 * s:
                break
            lam = lam2
            if abs(step) < 1e-16 * max(abs(lam), s):
                break
        polished.append(lam)

    eigen, degen, notices = [], [], []
    target = 1e-9 * dscale
    for lam in polished:
        dist = np.min(np.abs(lam - ah.diag)) if len(ah.diag) else np.inf
        if dist <= tol.eq_abs(s):
            u, sv, vh = np.linalg.svd(dense - lam * np.eye(n))
            if sv[-1] <= 10 * target:
                vec = vh.conj().T[:, -1]
                degen.append(SecularPair(complex(lam), vec, float(sv[-1])))
                notices.append(f"root {lam:.6g} within tolerance of a diagonal pole; eigenvector from nullspace")
            else:
                notices.append(f"cleared-polynomial root {lam:.6g} collides with a pole and is not an eigenvalue")
            continue
        x = np.empty(n, dtype=complex)
        x[: n - 1] = ah.col / (lam - ah.diag)
        x[n - 1] = 1.0
        x = x / np.linalg.norm(x)
        res = float(np.linalg.norm(dense @ x - lam * x))
        eigen.append(SecularPair(complex(lam), x, res))
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


def _joint_eigen_residual(dense, lam, x) -> float:
    r1 = np.linalg.norm(dense @ x - lam * x)
    r2 = np.linalg.norm(dense.conj().T @ x - np.conj(lam) * x)
    return float(max(r1, r2))


def normal_eigenvalue_check(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Certificates for every satisfied normal-eigenvalue criterion.

    (i) a fully zero off-diagonal pair, (ii) a repeated diagonal entry with
    proportional couplings, (iii) a triple repeat, (iv) balanced moduli with
    the coupling-direction lines through the diagonal entries either all
    coincident or meeting at a single secular root.
    """
    n = ah.n
    dense = ah.to_dense()
    s = ah.scale()
    ztol = tol.eq_abs(s)
    certs = []
    nm1 = n - 1

    def push(cond, lam, x, idx):
        x = x / np.linalg.norm(x)
        if _joint_eigen_residual(dense, lam, x) <= 1e-6 * matrix_scale(dense):
            certs.append(NormalEigCertificate(cond, lam, x, idx))

    for j in range(nm1):
        if abs(ah.col[j]) <= ztol and abs(ah.row[j]) <= ztol:
            e = np.zeros(n, dtype=complex)
            e[j] = 1.0
            push("i", ah.diag[j], e, (j,))

    for i in range(nm1):
        for j in range(i + 1, nm1):
            if abs(ah.diag[i] - ah.diag[j]) > ztol:
                continue
            if abs(ah.col[i] * np.conj(ah.row[j]) - ah.col[j] * np.conj(ah.row[i])) > ztol * ztol / tol.eq_tol:
                continue
            sys = np.array(
                [[ah.row[i], ah.row[j]], [np.conj(ah.col[i]), np.conj(ah.col[j])]]
            )
            _, sv, vh = np.linalg.svd(sys)
            xi = vh.conj().T[:, -1]
            x = np.zeros(n, dtype=complex)
            x[i], x[j] = xi
            push("ii", ah.diag[i], x, (i, j))

    for i in range(nm1):
        for j in range(i + 1, nm1):
            for k in range(j + 1, nm1):
                if abs(ah.diag[i] - ah.diag[j]) > ztol or abs(ah.diag[j] - ah.diag[k]) > ztol:
                    continue
                sys = np.array(
                    [
                        [ah.row[i], ah.row[j], ah.row[k]],
                        [np.conj(ah.col[i]), np.conj(ah.col[j]), np.conj(ah.col[k])],
                    ]
                )
                _, sv, vh = np.linalg.svd(sys)
                xi = vh.conj().T[:, -1]
                x = np.zeros(n, dtype=complex)
                x[i], x[j], x[k] = xi
                push("iii", ah.diag[i], x, (i, j, k))

    # (iv): balanced moduli, coupling-direction lines concurrent
    if nm1 >= 1 and all(
        abs(ah.col[j]) > ztol and abs(abs(ah.col[j]) - abs(ah.row[j])) <= tol.eq_tol * max(abs(ah.col[j]), abs(ah.row[j]))
        for j in range(nm1)
    ):
        phis = (np.angle(ah.col) + np.angle(ah.row)) / 2.0
        dirs = np.exp(1j * phis)
        same_dir = all(abs(np.imag((dirs[j] / dirs[0]) ** 2)) <= 1e-7 and np.real((dirs[j] / dirs[0]) ** 2) > 0 for j in range(nm1))
        if same_dir:
            coincide = all(
                abs(np.imag((ah.diag[j] - ah.diag[0]) / dirs[0])) <= ztol for j in range(nm1)
            )
        else:
            coincide = False
        if coincide:
            # essentially Hermitian direction: Im(e^{-i phi} A) is scalar
            phi = phis[0]
            h, k = hermitian_parts(dense)
            im_part = _pencil_at(k, -h, phi)
            if np.linalg.norm(im_part - (np.trace(im_part) / n) * np.eye(n)) <= 1e-6 * matrix_scale(dense) * n:
                w, v = np.linalg.eigh(_pencil_at(h, k, phi))
                x = v[:, -1]
                lam = complex(x.conj() @ dense @ x)
                push("iv", lam, x, tuple(range(nm1)))
        elif nm1 >= 2:
            # pairwise intersections of the lines a_j + s e^{i phi_j}
            pts = []
            for i in range(nm1):
                for j in range(i + 1, nm1):
                    det = np.imag(np.conj(dirs[i]) * dirs[j])
                    if abs(det) < 1e-12:
                        pts = []
                        break
                    rhs = ah.diag[j] - ah.diag[i]
                    # solve s*dirs[i] - r*dirs[j] = rhs over the reals
                    m2 = np.array(
                        [
                            [dirs[i].real, -dirs[j].real],
                            [dirs[i].imag, -dirs[j].imag],
                        ]
                    )
                    sol = np.linalg.solve(m2, np.array([rhs.real, rhs.imag]))
                    pts.append(ah.diag[i] + sol[0] * dirs[i])
                if not pts:
                    break
            if pts:
                pts = np.array(pts)
                lam = np.mean(pts)
                spread = np.max(np.abs(pts - lam), initial=0.0)
                if spread <= 100 * ztol and np.min(np.abs(lam - ah.diag)) > ztol:
                    if abs(secular_function(ah, lam)) <= 1e-6 * max(s, abs(lam)):
                        x = np.empty(n, dtype=complex)
                        x[: n - 1] = ah.col / (lam - ah.diag)
                        x[n - 1] = 1.0
                        push("iv", complex(lam), x, tuple(range(nm1)))
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


def projection_recognize(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ProjectionForm:
    """Match a self-adjoint idempotent arrowhead against its two shapes:
    a 0/1 diagonal, or a 0/1 diagonal plus one coupled 2x2 rank-one block."""
    dense = ah.to_dense()
    n = ah.n
    scale = max(matrix_scale(dense), 1.0)
    if np.linalg.norm(dense - dense.conj().T) > tol.eq_abs(scale) * n:
        return ProjectionForm("NotProjection")
    if np.linalg.norm(dense @ dense - dense) > 1e-6 * scale * n:
        return ProjectionForm("NotProjection")
    ztol = tol.eq_abs(scale)
    live = [j for j in range(n - 1) if abs(ah.col[j]) > ztol or abs(ah.row[j]) > ztol]
    diag = ah.diag.real
    if not live:
        vals = np.concatenate([diag, [ah.corner.real]])
        if np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= 100 * ztol):
            return ProjectionForm("Diagonal01")
        return ProjectionForm("NotProjection")
    if len(live) > 1:
        return ProjectionForm("NotProjection")
    i = live[0]
    others = np.delete(diag, i)
    if not np.all(np.minimum(np.abs(others), np.abs(others - 1.0)) <= 100 * ztol):
        return ProjectionForm("NotProjection")
    t = float(diag[i])
    alpha = complex(ah.col[i])
    if not (ztol < t < 1 - ztol):
        return ProjectionForm("NotProjection")
    if abs(ah.corner.real - (1 - t)) > 100 * ztol:
        return ProjectionForm("NotProjection")
    if abs(abs(alpha) - np.sqrt(t * (1 - t))) > 1e-6:
        return ProjectionForm("NotProjection")
    return ProjectionForm("RankStructured", index=i, t=t, alpha=alpha)


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
    s = ah.scale()
    ztol = tol.eq_abs(s)
    zero = (np.abs(ah.col) <= ztol) & (np.abs(ah.row) <= ztol)
    mags = np.maximum(np.abs(ah.col), np.abs(ah.row))
    balanced = np.abs(np.abs(ah.col) - np.abs(ah.row)) <= tol.eq_tol * np.maximum(mags, ABS_FLOOR)
    psi = np.angle(ah.col) + np.angle(ah.row)
    return PairProfile(zero=zero, balanced=balanced, psi=psi)


def _circular_consensus(psis):
    """Mean direction and max angular deviation of a list of angles (mod 2 pi)."""
    z = np.sum(np.exp(1j * np.asarray(psis)))
    if abs(z) < ABS_FLOOR:
        return None, np.inf
    mean = float(np.angle(z))
    dev = float(np.max(np.abs(np.angle(np.exp(1j * (np.asarray(psis) - mean))))))
    return mean, dev


ARG_SPREAD_TOL = 1e-7


def _theta_from_psi(psi_mean: float) -> float:
    return float(np.mod((psi_mean - np.pi) / 2.0, np.pi))


def dichotomy_check(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[DichotomyCertificate]:
    """Certificate that some rotation makes the Hermitian part two-valued.

    Case (a): every off-diagonal pair is balanced with a common coupling
    angle and the rotated diagonal takes exactly two values.  Case (b): one
    exceptional pair survives the rotation and couples two diagonal slots
    into a 2x2 block whose eigenvalues supply the two levels.
    """
    n = ah.n
    if n < 3:
        raise NotApplicableError("dichotomy certificates need n >= 3")
    dense = ah.to_dense()
    s = matrix_scale(dense)
    atol = tol.eq_abs(s)
    prof = pair_profile(ah, tol)
    nz = ~prof.zero
    all_vals = np.concatenate([ah.diag, [ah.corner]])

    def try_case_a(theta):
        form = _two_level_form(herm_part_at(dense, theta), np.real(np.exp(-1j * theta) * all_vals), atol)
        if form is None:
            return None
        h0, h1, _ = form
        p_values = {
            j: int(round((np.real(np.exp(-1j * theta) * ah.diag[j]) - h0) / (h1 - h0)))
            for j in range(n - 1)
        }
        return DichotomyCertificate("a", float(theta), h0, h1, p_values=p_values)

    # case (a)
    if np.all(prof.balanced[nz]) if nz.any() else True:
        if nz.any():
            mean, dev = _circular_consensus(prof.psi[nz])
            if mean is not None and dev <= ARG_SPREAD_TOL:
                cert = try_case_a(_theta_from_psi(mean))
                if cert is not None:
                    return cert
        else:
            # diagonal matrix: candidate angles come from pairs of entries
            cands = set()
            for i in range(n):
                for j in range(i + 1, n):
                    d = all_vals[i] - all_vals[j]
                    if abs(d) > atol:
                        cands.add(float(np.mod(np.angle(d) + np.pi / 2, np.pi)))
            for theta in sorted(cands):
                cert = try_case_a(theta)
                if cert is not None:
                    return cert

    # case (b)
    for i in range(n - 1):
        if prof.zero[i]:
            continue
        others = [j for j in range(n - 1) if j != i and not prof.zero[j]]
        if others and not np.all(prof.balanced[others]):
            continue
        if others:
            mean, dev = _circular_consensus(prof.psi[others])
            if mean is None or dev > ARG_SPREAD_TOL:
                continue
            theta = _theta_from_psi(mean)
        else:
            scan = dichotomy_scan(dense, tol=tol)
            if scan is None:
                continue
            theta = scan[0]
        rot = np.exp(-1j * theta)
        w_i = (rot * ah.col[i] + np.conj(rot) * np.conj(ah.row[i])) / 2.0
        if abs(w_i) <= atol:
            continue
        r = np.real(rot * ah.diag)
        r_n = float(np.real(rot * ah.corner))
        mid = (r[i] + r_n) / 2.0
        half = np.hypot((r[i] - r_n) / 2.0, abs(w_i))
        h0, h1 = mid - half, mid + half
        # every other slot sits on a level (the lower one when both are near)
        p_values = {j: int(abs(r[j] - h0) > 4 * atol) for j in range(n - 1) if j != i}
        if any(min(abs(r[j] - h0), abs(r[j] - h1)) > 4 * atol for j in p_values):
            continue
        t = (r[i] - h0) / (h1 - h0)
        if not (0 < t < 1) or _two_level_form(herm_part_at(dense, theta), [h0, h1], atol) is None:
            continue
        alpha = w_i / (h1 - h0)
        return DichotomyCertificate(
            "b", float(theta), h0, h1, exceptional_index=i, t=float(t), alpha=complex(alpha), p_values=p_values
        )
    return None


def _skew_data(ah: ArrowheadMatrix, theta: float):
    """Diagonal and coupling entries of Im(e^{-i theta} A)."""
    rot = np.exp(-1j * theta)
    k_diag = np.imag(rot * ah.diag)
    k_corner = float(np.imag(rot * ah.corner))
    m = (rot * ah.col - np.conj(rot) * np.conj(ah.row)) / 2j
    return k_diag, m, k_corner


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
    atol = tol.eq_abs(matrix_scale(dense))
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

    i = cert.exceptional_index
    t = cert.t
    alpha = cert.alpha
    k_diag, m, k_corner = _skew_data(ah, cert.theta)
    kscale = max(np.max(np.abs(k_diag), initial=0.0), abs(k_corner), np.max(np.abs(m), initial=0.0), ABS_FLOOR)
    ratio = m[i] / alpha
    if abs(ratio.imag) > tol.eq_tol * max(abs(ratio), kscale):
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
        if abs(k_corner - rhs) <= 1e-6 * max(kscale, 1.0):
            return False, "aligned-diagonal resonance produces a reducing eigenvector"
        return True, "aligned diagonal, no resonance"

    if n != 4:
        return True, "mixed projection diagonal, reducible only at n = 4"
    sigma1 = others[pvals.index(0)]
    sigma2 = others[pvals.index(1)]
    k1, k2, ki = k_diag[sigma1], k_diag[sigma2], k_diag[i]
    cond_level = abs(ki - ((1 - t) * k1 + t * k2)) <= 1e-6 * max(kscale, 1.0)
    if not cond_level:
        return True, "mixed case: level interpolation fails"
    m_comb = m[i] + (k1 - k2) * alpha
    if abs(m_comb) <= 1e-6 * max(kscale, 1.0):
        if abs((1 - t) * abs(m[sigma1]) ** 2 - t * abs(m[sigma2]) ** 2) > 1e-6 * max(kscale, 1.0) ** 2:
            return True, "mixed case: degenerate branch balance fails"
    d1 = k1 - ki + t * ratio
    d2 = k2 - ki - (1 - t) * ratio
    d3 = k_corner - ki - (1 - 2 * t) * ratio
    det = d1 * d2 * d3 - d1 * abs(m[sigma2]) ** 2 - d2 * abs(m[sigma1]) ** 2
    if abs(det) <= tol.eq_tol * max(kscale, 1.0) ** 3 * 100:
        return False, "mixed case: bordered block is singular (2-dim reducing subspace)"
    return True, "mixed case: bordered block nonsingular"


# ---------------------------------------------------------------------------
# Gau-Wu values for structured arrowheads
# ---------------------------------------------------------------------------


def _balanced_theta(ah: ArrowheadMatrix, tol: ToleranceConfig, require_all_nonzero: bool):
    prof = pair_profile(ah, tol)
    nz = ~prof.zero
    if require_all_nonzero and not np.all(nz):
        raise NotApplicableError("zero off-diagonal pair present")
    if not np.all(prof.balanced[nz]):
        raise NotApplicableError("unbalanced off-diagonal pair present")
    if not nz.any():
        raise NotApplicableError("no nonzero pair fixes the rotation angle")
    mean, dev = _circular_consensus(prof.psi[nz])
    if mean is None or dev > ARG_SPREAD_TOL:
        raise NotApplicableError("coupling angles are not constant across indices")
    return _theta_from_psi(mean), prof


def gauwu_balanced(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> GauWuResult:
    """Exact Gau-Wu number of a fully balanced arrowhead.

    The rotation fixed by the coupling angles diagonalizes the Hermitian
    part; the answer is the combined multiplicity of its extreme diagonal
    entries, achieved by the corresponding standard basis vectors.
    """
    n = ah.n
    theta, _ = _balanced_theta(ah, tol, require_all_nonzero=True)
    dense = ah.to_dense()
    d = np.real(np.exp(-1j * theta) * np.concatenate([ah.diag, [ah.corner]]))
    link = tol.cluster_abs(matrix_scale(dense))
    spread = float(np.max(d) - np.min(d))
    if spread <= link:
        cert = {"theta": theta, "diagonal": d.tolist(), "note": "rotated Hermitian part is scalar; the range is a segment"}
        return GauWuResult(k=n, n=n, method=METHOD_ARROWHEAD, certificate=cert)
    top = np.nonzero(d >= np.max(d) - link)[0]
    bot = np.nonzero(d <= np.min(d) + link)[0]
    cert = {
        "route": "balanced",
        "theta": theta,
        "diagonal": d.tolist(),
        "top_indices": top.tolist(),
        "bottom_indices": bot.tolist(),
    }
    return GauWuResult(k=len(top) + len(bot), n=n, method=METHOD_ARROWHEAD, certificate=cert)


def gauwu_with_zero_pairs(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> GauWuResult:
    """Balanced arrowhead with some fully zero pairs: split off the diagonal
    part and add its boundary eigenvalues to the live sub-arrowhead's share."""
    from .oracle import restricted_max_set

    n = ah.n
    theta, prof = _balanced_theta(ah, tol, require_all_nonzero=False)
    dense = ah.to_dense()
    zero_idx = np.nonzero(prof.zero)[0]
    live_idx = np.nonzero(~prof.zero)[0]
    if len(zero_idx) == 0:
        return gauwu_balanced(ah, tol)
    ambient = SupportFunction(dense, grid_size=1024)
    btol = tol.boundary_abs(ambient.diameter())

    scalars_on_boundary = [int(j) for j in zero_idx if point_boundary_defect(ambient, ah.diag[j]) < btol]

    sub = ArrowheadMatrix(ah.diag[live_idx], ah.col[live_idx], ah.row[live_idx], ah.corner)
    sub_dense = sub.to_dense()
    if sub.n == 1:
        k1 = 1 if point_boundary_defect(ambient, ah.corner) < btol else 0
        line_rule = k1
    else:
        k1, _, _ = restricted_max_set(sub_dense, ambient, tol=tol)
        d1 = np.real(np.exp(-1j * theta) * np.concatenate([sub.diag, [sub.corner]]))
        link = tol.cluster_abs(matrix_scale(sub_dense))
        line_rule = 0
        if abs(ambient(theta) - np.max(d1)) < btol:
            line_rule += int(np.sum(d1 >= np.max(d1) - link))
        if abs(ambient(float(theta + np.pi)) + np.min(d1)) < btol:
            line_rule += int(np.sum(d1 <= np.min(d1) + link))
    k = k1 + len(scalars_on_boundary)
    cert = {
        "route": "balanced-with-zero-pairs",
        "theta": theta,
        "zero_pair_indices": zero_idx.tolist(),
        "scalars_on_boundary": scalars_on_boundary,
        "sub_count_search": int(k1),
        "sub_count_line_rule": int(line_rule),
        "line_rule_agrees": bool(k1 == line_rule),
    }
    return GauWuResult(k=k, n=n, method=METHOD_ARROWHEAD, certificate=cert)


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
    scale = max(np.max(np.abs(pts[:, None] - pts[None, :])), ABS_FLOOR)

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
    return np.nonzero(np.min(dist, axis=0) <= 10 * tol.eq_abs(scale))[0].tolist()


def gauwu_unbalanced_two(ah: ArrowheadMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> GauWuResult:
    """k = 2 for arrowheads whose couplings are unbalanced the same way.

    Requires distinct diagonal entries, one of |col_j| >= |row_j| or the
    reverse for every index, strictly on the indices whose diagonal entries
    sit on the boundary of their convex hull (pure almost normal matrices,
    with a zero last row, are the extreme special case).
    """
    n = ah.n
    if n < 3:
        raise NotApplicableError("route needs n >= 3")
    s = ah.scale()
    atol = tol.eq_abs(s)
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
    return GauWuResult(k=2, n=n, method=METHOD_ARROWHEAD, certificate=cert)
