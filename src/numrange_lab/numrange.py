"""Support-function geometry of the numerical range W(A).

The supporting line of W(A) in direction theta is
    { z : Re(e^{-i theta} z) = p(theta) },   p(theta) = lambda_max(Re(e^{-i theta} A)),
and every unit vector in the top eigenspace of Re(e^{-i theta} A) maps onto it
under f_A(x) = x* A x.  All boundary computations below reduce to eigenvalue
problems for the pencil member cos(theta) H + sin(theta) K (linalg._pencil_at).
Each SupportFunction sweeps its grid once; event, seed and candidate scans
read that sweep, and the functions here and in ``oracle`` that take a matrix
also take its SupportFunction (``support_function``).  A sweep solves half a
turn: B(theta + pi) = -B(theta), so the spectrum at theta + pi is the spectrum
at theta negated and reversed, and its top vector is the bottom vector at
theta; an even grid solves only its directions in [0, pi).  A matrix of
diagonal blocks is swept block by block.  Every minimum in theta of a
function of these eigenvalues is refined off the grid by one lockstep Newton
solver (``_refined_minima``) on their analytic derivatives, unless the grid
already meets the bound that decides (``_grid_contact``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _is_normal,
    _pencil_at,
    as_square_matrix,
    hermitian_parts,
    matrix_scale,
    reducing_eigenvectors,
)
from .results import Witness

TWO_PI = 2 * np.pi
MIN_CURVE_SAMPLES = 8
REFINE_STEPS = 8  # cap on the lockstep steps of one refinement, each one or two stacked eighs
MIXED_GAP = 1e-8  # relative eigenvalue gap below which the coupling of a pair is rounding noise


class UnsupportedBlockError(ValueError):
    """Relative boundary count requested for a block shape we cannot handle."""


# ---------------------------------------------------------------------------
# support function
# ---------------------------------------------------------------------------


@dataclass
class SupportSample:
    theta: float
    p: float
    multiplicity: int
    boundary_points: list


def _top_cluster_basis(h, k, theta: float, link: float):
    """(p, basis, w) at theta: the top eigenvalue p, an orthonormal basis of
    the eigenvectors of the eigenvalues within ``link`` of p, and the whole
    ascending spectrum w."""
    w, v = np.linalg.eigh(_pencil_at(h, k, theta))
    m = 1
    while m < len(w) and w[-1] - w[-m - 1] <= link:
        m += 1
    return float(w[-1]), v[:, len(w) - m :], w


def support(a, theta: float) -> SupportSample:
    """Support value and boundary points of W(A) in direction theta: the
    images of the top cluster's basis, linked within cluster_tol ||A|| of p."""
    m = as_square_matrix(a)
    p, basis, _ = _top_cluster_basis(*hermitian_parts(m), theta, ToleranceConfig.cluster_tol * matrix_scale(m))
    pts = [complex(x.conj() @ m @ x) for x in basis.T]
    return SupportSample(theta=float(theta), p=p, multiplicity=basis.shape[1], boundary_points=pts)


class SupportFunction:
    """p(theta) precomputed on a uniform grid, with exact evaluation anywhere;
    ``grid_eigvals`` keeps the whole spectrum of each grid member, and its
    largest magnitude ``radius`` is the scale of every pencil eigenvalue.
    An even grid solves only its first ``_solved`` = grid_size / 2 members,
    whose directions cover [0, pi): the member at theta + pi is the one at
    theta negated, so its spectrum is theta's negated and reversed.  An odd
    grid has no antipodal samples and solves all its members.
    A matrix of contiguous diagonal blocks (``_diagonal_blocks``), such as a
    direct sum's ``assembled()``, has as spectra the sorted union of its
    blocks', each size stacked in ``_groups`` and solved by ``_block_eigen``;
    one block larger than 2x2 is solved whole, as is ``top_vectors``.
    ``_memo`` holds the stages built on this sweep, one of each
    (``top_gap_events``, ``oracle.boundary_cover`` and
    ``oracle.boundary_vector_field``), so the stages of one classification
    share them; nothing in it refers back to the SupportFunction."""

    def __init__(self, a, grid_size: int = 1024):
        self.a = as_square_matrix(a)
        self.h, self.k = hermitian_parts(self.a)
        self.grid_size = int(grid_size)
        self.thetas = np.linspace(0.0, TWO_PI, self.grid_size, endpoint=False)
        self._solved = self.grid_size // 2 if self.grid_size % 2 == 0 else self.grid_size
        sizes = _diagonal_blocks(self.a)
        starts = np.cumsum(sizes) - sizes
        self._groups = None if sizes[0] > 2 and len(sizes) == 1 else [
            tuple(np.stack([x[s : s + m, s : s + m] for s in starts[sizes == m]]) for x in (self.h, self.k))
            for m in sorted(set(sizes.tolist()))]
        w = self._eigen(self.thetas[: self._solved])
        self.grid_eigvals = np.concatenate([w, -w[:, ::-1]])[: self.grid_size]
        self.grid_values = self.grid_eigvals[:, -1]
        self.radius = float(np.max(np.abs(self.grid_eigvals)))
        self._memo: dict = {}

    def _eigen(self, theta, floor=None):
        """``_block_eigen`` of the whole pencil, or the union of its blocks', ascending."""
        if self._groups is None:
            return _block_eigen(self.h, self.k, theta, floor)
        out = np.concatenate([w.reshape(w.shape[:-2] + (w.shape[-2] * w.shape[-1],)) for w in
                              (_block_eigen(h, k, theta, floor) for h, k in self._groups)], axis=-1)
        return np.sort(out, axis=-1) if floor is None else np.take_along_axis(out, np.argsort(out[0])[None], axis=-1)

    def __call__(self, theta):
        """p(theta): a float for a scalar theta, an array for a 1-d array."""
        w = self._eigen(theta)
        return float(w[-1]) if w.ndim == 1 else w[:, -1]

    @cached_property
    def top_vectors(self) -> np.ndarray:
        """(grid_size, n) top eigenvectors of the grid members, from one eigh
        of the solved members: the top vectors there and, for the directions
        theta + pi, the bottom ones.  Lazy, because only the search reads
        it; the (solved, n, n) eigenvector stack is freed on return."""
        v = np.linalg.eigh(_pencil_at(self.h, self.k, self.thetas[: self._solved]))[1]
        return np.concatenate([v[:, :, -1], v[:, :, 0]])[: self.grid_size]

    def branches(self, thetas) -> np.ndarray:
        """Ascending eigenvalues of the pencil members at the 1-d ``thetas`` and
        their first and second derivatives, one (3, len(thetas), n) array: by
        ``_pencil_derivatives``, lam_i' = C_ii and, as B'' = -B, lam_i'' =
        -lam_i + 2 sum_j |C_ij| (|C_ij| R_ij) over the pairs at least MIXED_GAP *
        radius apart (that order neither over- nor underflows at any scale);
        rounding mixes closer pairs, which cross like blocks."""
        return self._eigen(thetas, MIXED_GAP * (self.radius or 1.0))

    def on_grid_of(self, other: "SupportFunction") -> np.ndarray:
        """p on the grid of ``other``: read off this sweep when the grids nest
        (other's directions are every r-th of these), else evaluated there."""
        r, rest = divmod(self.grid_size, other.grid_size)
        return self.grid_values[::r] if r and not rest else self(other.thetas)

    def diameter(self) -> float:
        """Largest width over the grid: p(theta) + p(theta + pi) is the spread
        of the pencil member at theta, as p(theta + pi) = -lambda_min(theta)."""
        return float(np.max(self.grid_eigvals[:, -1] - self.grid_eigvals[:, 0]))


def support_function(a, grid_size: int = 1024) -> SupportFunction:
    """The SupportFunction of ``a`` (a matrix or a SupportFunction of one) on
    ``grid_size`` directions: ``a`` itself when its grid matches."""
    if isinstance(a, SupportFunction) and a.grid_size == grid_size:
        return a
    return SupportFunction(a.a if isinstance(a, SupportFunction) else a, grid_size)


def _diagonal_blocks(a) -> np.ndarray:
    """Sizes of the contiguous diagonal blocks of ``a``: one ends before index i
    when a[:i, i:] and a[i:, :i] are exactly zero (one pass, as ``decompose`` cuts)."""
    if a[0, -1] != 0 or a[-1, 0] != 0:  # the corners lie across every cut
        return np.array([a.shape[0]])
    nonzero = (a != 0) | (a.T != 0)
    across = np.cumsum(np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1], axis=0)
    return np.diff(np.flatnonzero(np.diagonal(across, 1) == 0) + 1, prepend=0, append=a.shape[0])


def _block_eigen(h, k, theta, floor=None):
    """Ascending eigenvalues of the pencil members at ``theta`` (a float or a
    1-d array) of the (stacked) matrices (h, k); with a ``floor``, the (3, ...)
    stack of them and their derivatives as ``SupportFunction.branches`` says.
    1x1 and 2x2 take the closed form (a + d) / 2 -+ r, r = |delta| for
    delta = ((a - d) / 2, b): r' = u . delta' with u = delta / r, and
    r'' = |delta'_perp|^2 / r - r, delta'_perp (across u) being |C_12|."""
    if h.shape[-1] > 2 and floor is None:
        return np.linalg.eigvalsh(_pencil_at(h, k, theta))
    if h.shape[-1] > 2:
        w, _, c, r = _pencil_derivatives(h, k, theta, floor)
        r[np.abs(r) >= 1 / floor] = 0.0
        ac = np.abs(c)
        return np.stack([w, np.diagonal(c, axis1=-2, axis2=-1).real, 2 * np.sum(ac * (ac * r), axis=-1) - w])
    b, db = _pencil_at(h, k, theta), _pencil_at(k, -h, theta)
    if h.shape[-1] == 1:
        w = b[..., 0].real
        return w if floor is None else np.stack([w, db[..., 0].real, -w])
    (a, d, off), (da, dd, doff) = ((x[..., 0, 0].real / 2, x[..., 1, 1].real / 2, x[..., 0, 1]) for x in (b, db))
    r = np.hypot(a - d, np.abs(off))
    w = np.stack([a + d - r, a + d + r], axis=-1)
    if floor is None:
        return w
    unit = np.where(r > 0, r, 1.0)
    ua, uoff = (a - d) / unit, off / unit
    slope = ua * (da - dd) + (uoff.conj() * doff).real
    across = np.hypot(da - dd - slope * ua, np.abs(doff - slope * uoff))
    bend = np.where(2 * r > floor, across * (across / unit), 0.0)
    return np.stack([w, np.stack([da + dd - slope, da + dd + slope], axis=-1), np.stack([-bend, bend], axis=-1) - w])


def _pencil_derivatives(h, k, thetas, floor):
    """(w, V, C, R) for the pencil members B at the 1-d ``thetas``, from one
    stacked eigh: the eigenpairs, C = V* B' V with B' = -sin(t) H + cos(t) K,
    and R_ij = 1 / (w_i - w_j) (0 for i = j), each gap raised to ``floor`` in
    size; the perturbation theory (Kato) of both derivatives needs them."""
    w, v = np.linalg.eigh(_pencil_at(h, k, thetas))
    c = v.conj().swapaxes(-1, -2) @ _pencil_at(k, -h, thetas) @ v
    below = np.tri(w.shape[-1], k=-1)  # w ascends, so w_i >= w_j below the diagonal
    return w, v, c, (below - below.T) / np.maximum(np.abs(w[..., :, None] - w[..., None, :]), floor)


def _refined_minima(pieces: Callable, thetas, values, step: float, scale: float, count=None, eligible=None,
                    lipschitz=np.inf):
    """Refine, each within one ``step``, the ``count`` lowest cyclic local
    minima of ``values`` sampled at ``thetas`` (all when ``count`` is None),
    skipping those where the grid mask ``eligible`` is False; returns the
    refined (argmin, fmin) pairs in order of grid value.

    The objective is the largest of smooth pieces, whose values and first and
    second derivatives ``pieces(t)`` gives as one (3, len(t), P) array.  All
    brackets step together to a candidate, clipped to the bracket, among the
    active piece's Newton step and each pair of pieces' crossing (a kink),
    judged by the largest piece's Taylor model.  Each step first drops the
    pieces that lie, in every bracket, more than 2 L d below the top, with d
    the distance to the bracket's far end and L the pieces' ``lipschitz``
    bound: such a piece stays below the top throughout, so it is never the
    objective there and no kink of it matters.  A candidate on the edge
    bisects; the active slope shrinks the bracket.  A bracket stops once the
    predicted decrease is at most 8 eps * ``scale``, which ends flat arcs.
    The pieces are taken in units of ``scale``, so that no product of the
    models over- or underflows.
    """
    unit = scale or 1.0
    idxs = np.nonzero((values <= np.roll(values, 1)) & (values <= np.roll(values, -1)))[0]
    idxs = idxs[np.argsort(values[idxs])][:count]
    if eligible is not None:
        idxs = idxs[eligible[idxs]]
    t = np.array(thetas[idxs], dtype=float)
    lo, hi = t - step, t + step
    best_t, best_f = t.copy(), np.full(len(t), np.inf)
    live = np.arange(len(t))
    for _ in range(REFINE_STEPS):
        if not len(live):
            break
        tl, (f, d1, d2) = t[live], pieces(t[live]) / unit
        reach = 2 * lipschitz * np.maximum(tl - lo[live], hi[live] - tl) / unit
        keep = ~np.all(f.max(axis=1, keepdims=True) - f > reach[:, None], axis=0)
        f, d1, d2 = f[:, keep], d1[:, keep], d2[:, keep]
        rows, act = np.arange(len(live)), np.argmax(f, axis=1)
        top, slope, curv = f[rows, act], d1[rows, act], d2[rows, act]
        best_t[live], best_f[live] = np.where(top < best_f[live], tl, best_t[live]), np.minimum(top, best_f[live])
        lo[live], hi[live] = np.where(slope < 0, tl, lo[live]), np.where(slope > 0, tl, hi[live])
        i, j = np.triu_indices(f.shape[1], 1)
        df, d1f, d2f = f[:, i] - f[:, j], d1[:, i] - d1[:, j], d2[:, i] - d2[:, j]
        with np.errstate(all="ignore"):
            # the nearer root of each pair's model difference, stable as d2f -> 0
            steps = np.column_stack([np.where(curv > 0, -slope / curv, -4 * step * np.sign(slope)),
                                     -2 * df / (d1f + np.copysign(np.sqrt(d1f * d1f - 2 * d2f * df), d1f))])
        cand = np.clip(tl[:, None] + np.nan_to_num(steps), lo[live, None], hi[live, None])
        dt = cand[:, :, None] - tl[:, None, None]
        gain = top[:, None] - np.max(f[:, None] + (d1[:, None] + d2[:, None] * dt / 2) * dt, axis=2)
        best = np.max(gain, axis=1)
        # the models are local: the shortest step with half the best predicted gain
        nxt = cand[rows, np.argmin(np.where(gain >= best[:, None] / 2, np.abs(dt[:, :, 0]), np.inf), axis=1)]
        t[live] = np.where((nxt <= lo[live]) | (nxt >= hi[live]), (lo[live] + hi[live]) / 2, nxt)
        live = live[best > 8 * np.finfo(float).eps]
    return list(zip(best_t.tolist(), (unit * best_f).tolist()))


def _refined_min(pieces: Callable, thetas, values, step: float, scale: float, lipschitz: float, level: float):
    """``_grid_contact`` if the grid decides, else the best pair of
    ``_refined_minima`` over the 6 lowest grid minima that can reach ``level``
    (``_reachable``, the objective ``lipschitz``-Lipschitz); (None, inf) if none."""
    on_grid = _grid_contact(thetas, values, level)
    if on_grid is not None:
        return on_grid
    eligible = _reachable(values, lipschitz, step, level)
    return min(_refined_minima(pieces, thetas, values, step, scale, 6, eligible, lipschitz), key=lambda r: r[1],
               default=(None, np.inf))


def _grid_contact(thetas, values, level: float):
    """(theta, value) of the lowest sample if it meets a finite ``level``, else
    None: refinement would start there and only go lower, to the same decision."""
    i = int(np.argmin(values))
    return (float(thetas[i]), float(values[i])) if values[i] <= level < np.inf else None


def _reachable(values, lipschitz: float, step: float, level: float):
    """Grid mask of the brackets that can refine to ``level``: a refined value is
    the objective within one ``step`` of its sample, where an L-Lipschitz objective
    exceeds value - L step (Shubert, SIAM J. Numer. Anal. 9, 1972)."""
    return values - lipschitz * step <= level


def _point_defect(support_fn: SupportFunction, z: complex, level: float):
    """(theta, ``point_boundary_defect``) refined where the defect can reach
    ``level``: the contact direction and the defect there; (None, inf) when
    nowhere; unrefined where a grid direction meets a finite ``level``."""
    proj = np.real(np.exp(-1j * support_fn.thetas) * z)
    g = support_fn.grid_values - proj

    def pieces(t):
        # p is the largest branch; more than two may cross at a kink of a direct sum's p
        line = np.real((-1j) ** np.arange(3)[:, None] * np.exp(-1j * t) * z)
        return support_fn.branches(t) - line[:, :, None]

    step, scale = TWO_PI / support_fn.grid_size, max(support_fn.radius, abs(z))
    # p is w(A)-Lipschitz; 2 (radius + |z|) covers radius <= w(A) <= radius / cos(step / 2) and rounding
    theta, defect = _refined_min(pieces, support_fn.thetas, g, step, scale, 2 * (support_fn.radius + abs(z)), level)
    return theta, float(defect)


def point_boundary_defect(support_fn: SupportFunction, z: complex) -> float:
    """min_theta [ p(theta) - Re(e^{-i theta} z) ]  (0 iff z lies on the boundary)."""
    return _point_defect(support_fn, z, np.inf)[1]


def boundary_residuals(m, X, thetas, sf: SupportFunction) -> np.ndarray:
    """|p(theta_i) - Re(e^{-i theta_i} x_i* m x_i)| for each column x_i of X, p the support function of sf."""
    thetas = np.asarray(thetas, dtype=float)
    return np.abs(sf(thetas) - np.real(np.exp(-1j * thetas) * np.einsum("ji,jk,ki->i", X.conj(), m, X)))


def boundary_bound(sf: SupportFunction) -> float:
    """The one bound of "on the boundary of W" for residuals, point defects
    and support gaps: boundary_tol times its diameter."""
    return ToleranceConfig.boundary_tol * sf.diameter()


# ---------------------------------------------------------------------------
# spectral events: directions where the top eigenvalue is (nearly) multiple
# ---------------------------------------------------------------------------


@dataclass
class TopEvent:
    theta: float
    p: float
    gap: float
    basis: np.ndarray  # n x m orthonormal columns spanning the top cluster
    eigvals: np.ndarray


def top_gap_events(sf: SupportFunction):
    """Locate directions where the top two eigenvalues of Re(e^{-i theta}A) meet.

    Grid scan of the gap, the larger of the pieces +-(lam_n - lam_{n-1}),
    then Newton refinement of each local minimum; a direction qualifies as an
    event only if the refined gap falls below split_tol * ||A||, which keeps
    merely-close eigenvalues (for example after a tiny arrowhead perturbation)
    from being mistaken for true multiplicity.  The list is memoised on
    ``sf``: the seeds, the cover and the search's candidates read one scan.
    """
    key = "top_gap_events"
    if key in sf._memo:
        return sf._memo[key]
    if sf.a.shape[0] == 1:
        return []
    scale = matrix_scale(sf.a)
    split = ToleranceConfig.split_tol * scale
    h, k, thetas, grid_size = sf.h, sf.k, sf.thetas, sf.grid_size
    gaps = sf.grid_eigvals[:, -1] - sf.grid_eigvals[:, -2]

    degenerate = np.flatnonzero(gaps <= split)
    if len(degenerate) > 0.25 * grid_size:
        # globally multiple top eigenvalue (scalar-like or segment-like range):
        # every 16th degenerate direction, its top cluster the multiple one alone
        events = []
        for idx in degenerate[:: max(1, grid_size // 64)]:
            t = thetas[idx]
            p, basis, ww = _top_cluster_basis(h, k, t, 4 * split)
            events.append(TopEvent(theta=float(t), p=p, gap=float(gaps[idx]), basis=basis, eigvals=ww))
        return sf._memo.setdefault(key, events)

    step = TWO_PI / grid_size
    events = []
    seen = []

    def pieces(t):
        gap = np.diff(sf.branches(t)[:, :, -2:], axis=2)
        return np.concatenate([gap, -gap], axis=2)

    # each eigenvalue of the pencil is ||A||-Lipschitz in theta (Weyl), so the gap is 2 ||A||-Lipschitz
    for t, g in _refined_minima(pieces, thetas, gaps, step, scale, eligible=_reachable(gaps, 2 * scale, step, split)):
        if g > split:
            continue
        t = float(np.mod(t, TWO_PI))
        if any(min(abs(t - s), TWO_PI - abs(t - s)) < 4 * step for s in seen):
            continue
        seen.append(t)
        link = 8 * max(g, split)
        p, basis, ww = _top_cluster_basis(h, k, t, link)
        events.append(TopEvent(theta=t, p=p, gap=float(g), basis=basis, eigvals=ww))
    return sf._memo.setdefault(key, events)


# ---------------------------------------------------------------------------
# base polynomial
# ---------------------------------------------------------------------------


@dataclass
class BasePolynomial:
    """Real homogeneous form F(x:y:t) = det(xH + yK + tI) of degree n.

    coeffs[j, k] multiplies x^j y^k t^(n-j-k).
    """

    n: int
    coeffs: np.ndarray

    def evaluate(self, x, y, t):
        total = 0.0
        for j in range(self.n + 1):
            for k in range(self.n + 1 - j):
                c = self.coeffs[j, k]
                if c != 0.0:
                    total = total + c * x**j * y**k * t ** (self.n - j - k)
        return total

    def multiply(self, other: "BasePolynomial") -> "BasePolynomial":
        n = self.n + other.n
        out = np.zeros((n + 1, n + 1))
        for j in range(self.n + 1):
            for k in range(self.n + 1 - j):
                if self.coeffs[j, k] == 0.0:
                    continue
                out[j : j + other.n + 1, k : k + other.n + 1] += (
                    self.coeffs[j, k] * other.coeffs
                )
        return BasePolynomial(n=n, coeffs=out)


def base_polynomial(a) -> BasePolynomial:
    """Coefficients of det(xH + yK + tI) by evaluation-interpolation.

    For each (x, y)-degree d the t^(n-d) coefficient is the d-th elementary
    symmetric function of the eigenvalues of xH + yK, a homogeneous trig
    polynomial of degree d recovered from d+1 sampled directions.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    h, k = hermitian_parts(m)
    coeffs = np.zeros((n + 1, n + 1))
    coeffs[0, 0] = 1.0  # t^n
    # sample enough angles for the highest degree, reuse for all of them
    s_count = n + 1
    phis = np.pi * (np.arange(s_count) + 0.31) / s_count
    # prod(t + mu) coefficients of each member, index d -> e_d
    esym = np.array([np.poly(-w) for w in np.linalg.eigvalsh(_pencil_at(h, k, phis))])
    for d in range(1, n + 1):
        van = np.array(
            [
                [np.cos(phi) ** j * np.sin(phi) ** (d - j) for j in range(d + 1)]
                for phi in phis[: d + 1]
            ]
        )
        rhs = esym[: d + 1, d]
        sol = np.linalg.solve(van, rhs)
        for j in range(d + 1):
            coeffs[j, d - j] = sol[j]
    return BasePolynomial(n=n, coeffs=coeffs)


# ---------------------------------------------------------------------------
# boundary generating curve
# ---------------------------------------------------------------------------


@dataclass
class BoundaryCurve:
    thetas: np.ndarray
    points: np.ndarray  # (branches, samples) complex, branch 0 = lowest eigenvalue
    eigvals: np.ndarray
    on_boundary: np.ndarray  # boolean, same shape as points


def boundary_generating_curve(a, samples: int = 512) -> BoundaryCurve:
    """Sample all eigenvector branches x_j(theta)* A x_j(theta).

    Branches are continued across eigenvalue crossings by maximal eigenvector
    overlap with the previous direction, so each row traces one smooth branch
    of the curve rather than the always-sorted eigenvalue ordering.  A
    point is ``on_boundary`` when its eigenvalue is within cluster_tol ||A||
    of the top one.
    """
    if samples < MIN_CURVE_SAMPLES:
        raise ValueError(f"need at least {MIN_CURVE_SAMPLES} samples")
    m = as_square_matrix(a)
    n = m.shape[0]
    thetas = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    pts = np.zeros((n, samples), dtype=complex)
    vals = np.zeros((n, samples))
    onb = np.zeros((n, samples), dtype=bool)
    link = ToleranceConfig.cluster_tol * matrix_scale(m)
    prev = None
    for s, (w, v) in enumerate(zip(*np.linalg.eigh(_pencil_at(*hermitian_parts(m), thetas)))):
        if prev is not None:
            overlap = np.abs(prev.conj().T @ v)
            order = np.full(n, -1)
            for _ in range(n):
                i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
                order[i] = j
                overlap[i, :] = -1
                overlap[:, j] = -1
            w, v = w[order], v[:, order]
        pts[:, s] = np.einsum("ij,ik,kj->j", v.conj(), m, v)
        vals[:, s] = w
        onb[:, s] = w >= np.max(w) - link
        prev = v
    return BoundaryCurve(thetas=thetas, points=pts, eigvals=vals, on_boundary=onb)


# ---------------------------------------------------------------------------
# seeds: flat portions and singular points of the boundary
# ---------------------------------------------------------------------------

FLAT_PORTION = "FlatPortion"
SINGULAR_POINT = "SingularPoint"
POINT_LENGTH = 1e-6  # relative to the diameter: a shorter boundary segment is a point


@dataclass
class Seed:
    kind: str
    theta: float
    segment: tuple  # (z_start, z_end); equal entries for a point
    witnesses: np.ndarray  # n x w orthonormal-ish columns mapping into the line

    @property
    def independent(self) -> bool:
        if self.witnesses.shape[1] < 2:
            return False
        s = np.linalg.svd(self.witnesses, compute_uv=False)
        return bool(s[-1] > 1e-6)


def _seed_from_event(a, ev: TopEvent, diameter: float) -> Seed:
    """Flat portion / multiply generated point carried by a top eigenspace."""
    basis = ev.basis
    hc, kc = hermitian_parts(basis.conj().T @ a @ basis)
    w, v = np.linalg.eigh(_pencil_at(kc, -hc, ev.theta))
    z_lo = np.exp(1j * ev.theta) * (ev.p + 1j * w[0])
    z_hi = np.exp(1j * ev.theta) * (ev.p + 1j * w[-1])
    length = abs(z_hi - z_lo)
    kind = FLAT_PORTION if length > POINT_LENGTH * diameter else SINGULAR_POINT
    witnesses = basis @ v[:, [0, -1]] if basis.shape[1] >= 2 else basis
    return Seed(kind=kind, theta=ev.theta, segment=(complex(z_lo), complex(z_hi)), witnesses=witnesses)


def detect_seeds(a, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Find flat portions and singular points of the boundary.

    Flat portions, and points generated by a multiple top eigenvalue, come
    from the directions where the top eigenvalue of the rotated Hermitian
    part is genuinely multiple (``top_gap_events``).  Corners come from
    Donoghue's theorem (Michigan Math. J. 4, 1957): every corner of W(A) is a
    normal eigenvalue.  A normal eigenvalue lambda is a corner when the
    supporting lines of at least three grid directions pass within
    ``boundary_bound`` of it, and its witnesses are its joint eigenvectors
    of A and A* (``reducing_eigenvectors``).  So an irreducible matrix has no
    corner, and a corner whose normal cone is narrower than two grid steps is
    missed.
    """
    sf = support_function(a)
    m = sf.a
    n = m.shape[0]
    diam = sf.diameter()
    seeds = []

    events = top_gap_events(sf)
    if len(events) > n * (n - 1) + 2:
        # globally degenerate top eigenspace: the whole range is a point or a
        # segment; report a single exceptional line rather than a grid of them
        events = events[:1]
    for ev in events:
        if ev.basis.shape[1] >= 2:
            seeds.append(_seed_from_event(m, ev, diam))

    event_points = [complex(np.mean(sd.segment)) for sd in seeds if sd.kind == SINGULAR_POINT]
    witnesses = {}
    for lam, vec in reducing_eigenvectors(m, tol):
        witnesses.setdefault(lam, []).append(vec)
    for lam, vecs in witnesses.items():
        g = sf.grid_values - np.real(np.exp(-1j * sf.thetas) * lam)
        if np.count_nonzero(g <= boundary_bound(sf)) < 3:
            continue
        if any(abs(z - lam) < 4 * POINT_LENGTH * diam for z in event_points):
            continue
        seeds.append(Seed(kind=SINGULAR_POINT, theta=float(sf.thetas[np.argmin(g)]), segment=(lam, lam),
                          witnesses=np.column_stack(vecs)))
    return seeds


# ---------------------------------------------------------------------------
# relative boundary count for blocks of a direct sum
# ---------------------------------------------------------------------------


def kprime_relative(block, ambient_support: SupportFunction, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Max count of orthonormal vectors of the block whose images lie on the
    ambient boundary (the block's share in a direct-sum decomposition); the
    count of ``relative_share``."""
    return relative_share(block, ambient_support, tol)[0]


def relative_share(block, ambient_support: SupportFunction, tol: ToleranceConfig = DEFAULT_TOL, _normal=None):
    """(share, make_witness) of a normal or 2x2 block against the ambient
    boundary; ``make_witness()`` returns the block's ``Witness`` of that size,
    made from the contacts the count found.

    Normal blocks contribute every eigenvalue (with multiplicity) sitting on
    the ambient boundary, each witnessed by its eigenvector in its contact
    direction.  A non-normal 2x2 block contributes 2 when an antipodal pair of
    its elliptical boundary touches the ambient boundary (orthonormal pairs of
    C^2 map to center-symmetric point pairs): the top and bottom eigenvectors
    of the refined direction.  It contributes 1 when the ellipse merely
    touches it (the top eigenvector there), 0 otherwise.  A 2x2 block is
    swept on the largest even grid of at most half the ambient's directions,
    read there by ``SupportFunction.on_grid_of``.  A contact the grid shows
    is taken there; only the rest is refined.
    ``_normal`` is the caller's ``_is_normal`` verdict on the block, if it has one.
    """
    b = as_square_matrix(block)
    n = b.shape[0]
    btol = boundary_bound(ambient_support)
    if _is_normal(b, tol) if _normal is None else _normal:
        contacts = []
        for z in np.linalg.eigvals(b):
            t, defect = _point_defect(ambient_support, z, btol)
            if defect <= btol:
                contacts.append((z, t))
        return len(contacts), lambda: _normal_witness(b, contacts, tol)
    if n == 2:
        # an even grid, so that each direction has its antipode (512 of 1,024 nest)
        own = SupportFunction(b, grid_size=2 * (ambient_support.grid_size // 4))
        grid = own.thetas
        g = ambient_support.on_grid_of(own) - own.grid_values
        half = len(grid) // 2
        pair = np.maximum(g[:half], g[half:])
        step, scale = TWO_PI / len(grid), ambient_support.radius
        # g and pair are (w(A) + w(B))-Lipschitz, the factor 2 as in ``_point_defect``
        lipschitz = 2 * (ambient_support.radius + own.radius)

        def pieces(t, antipodal=True):
            # p_ambient is its largest branch, kinked where branches cross; the
            # gap at t + pi comes from the bottom branches at t, as B(t + pi) = -B(t)
            amb, mine = ambient_support.branches(t), own.branches(t)
            gap = amb - mine[:, :, -1:]
            return np.concatenate([gap, mine[:, :, :1] - amb], axis=2) if antipodal else gap

        t, val = _refined_min(pieces, grid, pair, step, scale, lipschitz, btol)
        if val <= btol:
            return 2, lambda: _split_witness(b, t)
        t, val = _refined_min(lambda t: pieces(t, antipodal=False), grid, g, step, scale, lipschitz, btol)
        if val <= btol:
            return 1, lambda: Witness(np.linalg.eigh(_pencil_at(own.h, own.k, t))[1][:, -1:], [t])
        return 0, lambda: Witness(np.zeros((2, 0)), [])
    raise UnsupportedBlockError(
        f"relative count for a non-normal {n}x{n} block needs the restricted search"
    )


def _normal_witness(b, contacts, tol: ToleranceConfig) -> Witness:
    """Orthonormal eigenvectors of the normal block ``b`` for its contact
    eigenvalues, each (z, theta) at its contact direction theta: contacts
    that agree within eq_tol ||b|| are one repeated eigenvalue and share one
    SVD of b - z I, whose last singular vectors span its eigenspace."""
    n = b.shape[0]
    atol = tol.eq_tol * matrix_scale(b)
    groups: dict = {}
    for i, (z, _) in enumerate(contacts):
        groups.setdefault(next((g for g in groups if abs(contacts[g][0] - z) <= atol), i), []).append(i)
    vectors, thetas = [np.zeros((n, 0))], []
    for members in groups.values():
        z = np.mean([contacts[i][0] for i in members])
        vectors.append(np.linalg.svd(b - z * np.eye(n))[2][n - len(members):].conj().T)
        thetas += [contacts[i][1] for i in members]
    return Witness(np.column_stack(vectors), thetas)


def _split_witness(m, theta: float, levels=None) -> Witness:
    """Eigenvectors of B = Re(e^{-i theta} m) as a witness.  With the levels
    (h0, h1) of a dichotomy, all n: those nearer h1 at theta, on the
    supporting line there, the rest at theta + pi, on the opposite one (every
    eigenbasis of a two-level member reaches k = n).  Without, the top one at
    theta and the bottom one at theta + pi: the orthonormal pair that every
    matrix of size >= 2 has."""
    w, v = np.linalg.eigh(_pencil_at(*hermitian_parts(m), theta))
    n = len(w)
    top = 1 if levels is None else int(np.sum(np.abs(w - levels[1]) < np.abs(w - levels[0])))
    cols = [n - 1, 0] if levels is None else list(range(n - top, n)) + list(range(n - top))
    return Witness(v[:, cols], [theta] * top + [theta + np.pi] * (len(cols) - top))


# ---------------------------------------------------------------------------
# dichotomy: a direction where Re(e^{-i theta} A) has exactly two eigenvalues
# ---------------------------------------------------------------------------

IDEMPOTENT_TOL = 1e-5  # bound on ||P^2 - P||_F / n for an accepted two-level form


def _dichotomy_split(w: np.ndarray):
    """Best two-cluster split of each row of ascending eigenvalues.

    A split s (clusters w[:s] and w[s:]) qualifies when its gap exceeds twice
    its defect, the larger within-cluster spread.  Returns, per row of ``w``
    (scalars for a 1-d ``w``), the smallest qualifying defect (inf when no
    split qualifies) and its split index.
    """
    d = np.maximum(w[..., :-1] - w[..., :1], w[..., -1:] - w[..., 1:])
    d[w[..., 1:] - w[..., :-1] <= 2 * d] = np.inf
    return d.min(axis=-1), d.argmin(axis=-1) + 1


def _two_level_form(member: np.ndarray, values, accept: float):
    """The one two-level rule: (h0, h1, P) with member = h0 I + (h1 - h0) P, or None.

    ``values`` (the member's eigenvalues, or levels already known) must split
    by ``_dichotomy_split`` with defect at most ``accept`` into clusters whose
    means h0 < h1 lie more than 4 accept apart, and P must be idempotent within
    IDEMPOTENT_TOL * n.  Such a split is also the largest-gap split: its gap
    exceeds 2 accept and every other gap is at most accept.
    """
    w = np.sort(np.asarray(values, dtype=float))
    defect, s = _dichotomy_split(w)
    if defect > accept:
        return None
    h0, h1 = float(np.mean(w[:s])), float(np.mean(w[s:]))
    proj = (member - h0 * np.eye(len(member))) / (h1 - h0)
    if h1 - h0 <= 4 * accept or np.linalg.norm(proj @ proj - proj) > IDEMPOTENT_TOL * len(member):
        return None
    return h0, h1, proj


def _polished(h, k, theta: float) -> float:
    """theta moved by one least-squares step that flattens, to first order,
    the two clusters of ``_dichotomy_split`` at theta: each eigenvalue moves
    by its derivative lam_i' = v_i* B' v_i times the step, both in units of the
    member's spectral radius, so that no product over- or underflows.  A step
    out of [0, pi) is dropped, so theta keeps its representative."""
    w, v = np.linalg.eigh(_pencil_at(h, k, theta))
    unit = float(np.max(np.abs(w))) or 1.0
    w, d = w / unit, np.diagonal(v.conj().T @ _pencil_at(k, -h, theta) @ v).real / unit
    s = _dichotomy_split(w)[1]
    spread = np.concatenate([w[:s] - np.mean(w[:s]), w[s:] - np.mean(w[s:])])
    slope = np.concatenate([d[:s] - np.mean(d[:s]), d[s:] - np.mean(d[s:])])
    norm = float(slope @ slope)
    polished = theta - float(spread @ slope) / norm if norm > 0 else theta
    return polished if 0 <= polished < np.pi else theta


def dichotomy_scan(a, tol: ToleranceConfig = DEFAULT_TOL):
    """The one dichotomy test, for every size: a direction where
    Re(e^{-i theta} A) has exactly two distinct eigenvalues, as
    (theta, h0, h1, P) with theta in [0, pi), h0 < h1 and P the Hermitian
    idempotent with Re(e^{-i theta} A) = h0 I + (h1 - h0) P; else None.

    M = cH + sK (c = cos theta, s = sin theta) has at most two eigenvalues
    exactly when M^2 - alpha M + beta I = 0, i.e. when (c^2, cs, s^2, -alpha c,
    -alpha s, beta) lies in the nullspace N of x -> x1 H^2 + x2 (HK + KH) +
    x3 K^2 + x4 H + x5 K + x6 I: the right singular vectors of one SVD below
    eq_tol * sigma_max, and always the last one.  Off span(N, e6) the parts
    (c^2, cs, s^2) and (c, s) are then parallel, so every 2x2 minor, a cubic
    in tan(theta), vanishes.  The roots of the largest minor and pi/2 ({0, pi/2}
    when every minor vanishes) are the only candidates.  The SVD fixes a root
    only to about eps / (h1 - h0), so each candidate is first ``_polished``;
    ``_two_level_form`` decides the polished direction and then the candidate
    itself on the member's eigenvalues with the bound eq_tol * ||A||.  The
    zero matrix has one eigenvalue in every direction, so none.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    scale = matrix_scale(m)
    if n < 2 or not scale:
        return None
    accept = tol.eq_tol * scale
    h, k = hermitian_parts(m)
    # centred and scaled, the pair has the same relations and a well-scaled SVD
    eye = np.eye(n)
    hs, ks = (h - np.trace(h).real / n * eye) / scale, (k - np.trace(k).real / n * eye) / scale
    terms = np.stack([hs @ hs, hs @ ks + ks @ hs, ks @ ks, hs, ks, eye]).reshape(6, -1)
    sv, vt = np.linalg.svd(np.concatenate([terms.real, terms.imag], axis=1).T, full_matrices=False)[1:]
    null = vt[min(np.count_nonzero(sv > tol.eq_tol * sv[0]), 5) :]
    r = np.eye(6)[5] - null.T @ null[:, 5]
    span = np.vstack([null, r / np.linalg.norm(r)])
    q = np.eye(6) - span.T @ span
    # minor (i, j) of (Qu, Qv): coefficients of tan^0..tan^3 after dividing by cos^3
    minors = [np.convolve(q[i, :3], q[j, 3:5]) - np.convolve(q[j, :3], q[i, 3:5]) for i, j in zip(*np.triu_indices(6, 1))]
    poly = max(minors, key=np.linalg.norm)
    thetas = [0.0, np.pi / 2]
    if np.max(np.abs(poly)) > tol.eq_tol:
        # rounding-level coefficients are structural zeros (a leading one throws
        # the companion matrix off); a double real root may come back complex
        poly[np.abs(poly) <= 1e-13 * np.max(np.abs(poly))] = 0.0
        thetas = [float(t) for t in np.mod(np.arctan(np.roots(poly[::-1]).real), np.pi)] + [np.pi / 2]
    for theta in thetas:
        for t in dict.fromkeys((_polished(h, k, theta), theta)):
            member = _pencil_at(h, k, t)
            form = _two_level_form(member, np.linalg.eigvalsh(member), accept)
            if form is not None:
                return (t, *form)
    return None
