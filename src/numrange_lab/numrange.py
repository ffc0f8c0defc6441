"""Support-function geometry of the numerical range W(A).

The supporting line of W(A) in direction theta is
    { z : Re(e^{-i theta} z) = p(theta) },   p(theta) = lambda_max(Re(e^{-i theta} A)),
and every unit vector in the top eigenspace of Re(e^{-i theta} A) maps onto it
under f_A(x) = x* A x.  All boundary computations below reduce to eigenvalue
problems for the pencil member cos(theta) H + sin(theta) K (linalg._pencil_at).
Each SupportFunction sweeps its grid once; event, seed and candidate scans
read that sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    ABS_FLOOR,
    DEFAULT_TOL,
    ToleranceConfig,
    _is_normal,
    _pencil_at,
    as_square_matrix,
    hermitian_parts,
    matrix_scale,
)

TWO_PI = 2 * np.pi
MIN_CURVE_SAMPLES = 8


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


def support(a, theta: float, tol: ToleranceConfig = DEFAULT_TOL) -> SupportSample:
    """Support value and boundary points of W(A) in direction theta."""
    m = as_square_matrix(a)
    w, v = np.linalg.eigh(_pencil_at(*hermitian_parts(m), theta))
    p = float(w[-1])
    link = tol.cluster_abs(matrix_scale(m))
    mult = 1
    while mult < len(w) and w[-mult] - w[-mult - 1] <= link:
        mult += 1
    pts = []
    for j in range(len(w) - mult, len(w)):
        x = v[:, j]
        pts.append(complex(x.conj() @ m @ x))
    return SupportSample(theta=float(theta), p=p, multiplicity=mult, boundary_points=pts)


class SupportFunction:
    """p(theta) precomputed on a uniform grid, with exact evaluation anywhere;
    ``grid_eigvals`` keeps the whole spectrum of each grid member."""

    def __init__(self, a, grid_size: int = 1024):
        self.a = as_square_matrix(a)
        self.h, self.k = hermitian_parts(self.a)
        self.grid_size = int(grid_size)
        self.thetas = np.linspace(0.0, TWO_PI, self.grid_size, endpoint=False)
        self.grid_eigvals = np.linalg.eigvalsh(_pencil_at(self.h, self.k, self.thetas))
        self.grid_values = self.grid_eigvals[:, -1]

    def __call__(self, theta):
        """p(theta): a float for a scalar theta, an array for a 1-d array."""
        w = np.linalg.eigvalsh(_pencil_at(self.h, self.k, theta))
        return float(w[-1]) if w.ndim == 1 else w[:, -1]

    @cached_property
    def top_vectors(self) -> np.ndarray:
        """(grid_size, n) top eigenvectors of the grid members; lazy, because
        the batched eigh costs about three eigvalsh sweeps and an ambient
        range never needs it."""
        return np.linalg.eigh(_pencil_at(self.h, self.k, self.thetas))[1][:, :, -1]

    def diameter(self) -> float:
        half = self.grid_size // 2
        widths = self.grid_values[:half] + self.grid_values[half : 2 * half]
        return max(float(np.max(widths)), 0.0)


def _golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int = 80):
    """Golden-section minimum of f on [lo, hi]; returns (argmin, fmin)."""
    invphi = (np.sqrt(5.0) - 1) / 2
    invphi2 = (3 - np.sqrt(5.0)) / 2
    h = hi - lo
    x1 = lo + invphi2 * h
    x2 = lo + invphi * h
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            h = hi - lo
            x1 = lo + invphi2 * h
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            h = hi - lo
            x2 = lo + invphi * h
            f2 = f(x2)
    if f1 < f2:
        return x1, f1
    return x2, f2


def _refined_minima(f: Callable[[float], float], thetas, values, step: float, count=None, iters: int = 80,
                    eligible=None):
    """Golden-refine, each within one ``step``, the ``count`` lowest cyclic
    local minima of ``values`` sampled at ``thetas`` (all minima when
    ``count`` is None), skipping those where the grid mask ``eligible`` is
    False; returns the refined (argmin, fmin) pairs in order of grid value."""
    idxs = np.nonzero((values <= np.roll(values, 1)) & (values <= np.roll(values, -1)))[0]
    idxs = idxs[np.argsort(values[idxs])][:count]
    if eligible is not None:
        idxs = idxs[eligible[idxs]]
    return [_golden_min(f, thetas[i] - step, thetas[i] + step, iters=iters) for i in idxs]


def _refined_min(f: Callable[[float], float], thetas, values, step: float):
    """The best pair of ``_refined_minima`` over the 6 lowest grid minima;
    (None, inf) when nothing was refined."""
    return min(_refined_minima(f, thetas, values, step, 6), key=lambda r: r[1], default=(None, np.inf))


def point_boundary_defect(support_fn: SupportFunction, z: complex) -> float:
    """min_theta [ p(theta) - Re(e^{-i theta} z) ]  (0 iff z lies on the boundary)."""
    proj = np.real(np.exp(-1j * support_fn.thetas) * z)
    g = support_fn.grid_values - proj

    def f(t):
        return support_fn(t) - np.real(np.exp(-1j * t) * z)

    return float(_refined_min(f, support_fn.thetas, g, TWO_PI / support_fn.grid_size)[1])


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


def _top_cluster_basis(h, k, theta: float, link: float):
    w, v = np.linalg.eigh(_pencil_at(h, k, theta))
    m = 1
    while m < len(w) and w[-1] - w[-m - 1] <= link:
        m += 1
    return float(w[-1]), v[:, len(w) - m :], w


def top_gap_events(sf: SupportFunction, tol: ToleranceConfig = DEFAULT_TOL):
    """Locate directions where the top two eigenvalues of Re(e^{-i theta}A) meet.

    Grid scan of the gap followed by golden-section refinement of each local
    minimum; a direction qualifies as an event only if the refined gap falls
    below split_tol * ||A||, which keeps merely-close eigenvalues (for example
    after a tiny arrowhead perturbation) from being mistaken for true
    multiplicity.
    """
    if sf.a.shape[0] == 1:
        return []
    scale = matrix_scale(sf.a)
    split = tol.split_abs(scale)
    h, k, thetas, grid_size = sf.h, sf.k, sf.thetas, sf.grid_size
    gaps = sf.grid_eigvals[:, -1] - sf.grid_eigvals[:, -2]

    degenerate = gaps < split
    if np.count_nonzero(degenerate) > 0.25 * grid_size:
        # globally multiple top eigenvalue (scalar-like or segment-like range)
        events = []
        for idx in range(0, grid_size, max(1, grid_size // 64)):
            t = thetas[idx]
            p, basis, ww = _top_cluster_basis(h, k, t, 4 * split + 4 * gaps[idx])
            events.append(TopEvent(theta=float(t), p=p, gap=float(gaps[idx]), basis=basis, eigvals=ww))
        return events

    step = TWO_PI / grid_size
    thresh = max(8 * scale * step, 64 * split)
    events = []
    seen = []

    def gap_at(t):
        ww = np.linalg.eigvalsh(_pencil_at(h, k, t))
        return ww[-1] - ww[-2]

    for t, g in _refined_minima(gap_at, thetas, gaps, step, iters=90, eligible=gaps <= thresh):
        if g > split:
            continue
        t = float(np.mod(t, TWO_PI))
        if any(min(abs(t - s), TWO_PI - abs(t - s)) < 4 * step for s in seen):
            continue
        seen.append(t)
        link = 8 * max(g, split)
        p, basis, ww = _top_cluster_basis(h, k, t, link)
        events.append(TopEvent(theta=t, p=p, gap=float(g), basis=basis, eigvals=ww))
    return events


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


def base_polynomial(a, tol: ToleranceConfig = DEFAULT_TOL) -> BasePolynomial:
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


def boundary_generating_curve(a, samples: int = 512, tol: ToleranceConfig = DEFAULT_TOL) -> BoundaryCurve:
    """Sample all eigenvector branches x_j(theta)* A x_j(theta).

    Branches are continued across eigenvalue crossings by maximal eigenvector
    overlap with the previous direction, so each row traces one smooth branch
    of the curve rather than the always-sorted eigenvalue ordering.
    """
    if samples < MIN_CURVE_SAMPLES:
        raise ValueError(f"need at least {MIN_CURVE_SAMPLES} samples")
    m = as_square_matrix(a)
    n = m.shape[0]
    thetas = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    pts = np.zeros((n, samples), dtype=complex)
    vals = np.zeros((n, samples))
    onb = np.zeros((n, samples), dtype=bool)
    link = tol.cluster_abs(matrix_scale(m))
    prev = None
    for s, (w, v) in enumerate(zip(*np.linalg.eigh(_pencil_at(*hermitian_parts(m), thetas)))):
        if prev is not None:
            overlap = np.abs(prev.conj().T @ v)
            order = np.full(n, -1)
            used = set()
            for _ in range(n):
                i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
                order[i] = j
                used.add(j)
                overlap[i, :] = -1
                overlap[:, j] = -1
            w = w[order]
            v = v[:, order]
        for j in range(n):
            x = v[:, j]
            pts[j, s] = x.conj() @ m @ x
            vals[j, s] = w[j]
        top = np.max(w)
        onb[:, s] = w >= top - link
        prev = v
    return BoundaryCurve(thetas=thetas, points=pts, eigvals=vals, on_boundary=onb)


# ---------------------------------------------------------------------------
# seeds: flat portions and singular points of the boundary
# ---------------------------------------------------------------------------

FLAT_PORTION = "FlatPortion"
SINGULAR_POINT = "SingularPoint"


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
    kind = FLAT_PORTION if length > 1e-6 * max(diameter, 1e-12) else SINGULAR_POINT
    witnesses = basis @ v[:, [0, -1]] if basis.shape[1] >= 2 else basis
    return Seed(kind=kind, theta=ev.theta, segment=(complex(z_lo), complex(z_hi)), witnesses=witnesses)


def detect_seeds(a, tol: ToleranceConfig = DEFAULT_TOL, grid_size: int = 1024) -> list:
    """Find flat portions and singular points of the boundary.

    Two detectors: (i) directions where the top eigenvalue of the rotated
    Hermitian part is genuinely multiple (exceptional supporting lines), and
    (ii) clusters of boundary contact points that stay put while the
    direction sweeps (corners / branch crossings on the boundary).
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    sf = SupportFunction(m, grid_size=grid_size)
    diam = sf.diameter()
    seeds = []

    events = top_gap_events(sf, tol=tol)
    if len(events) > n * (n - 1) + 2:
        # globally degenerate top eigenspace: the whole range is a point or a
        # segment; report a single exceptional line rather than a grid of them
        events = events[:1]
    for ev in events:
        if ev.basis.shape[1] >= 2:
            seeds.append(_seed_from_event(m, ev, diam))

    # corner / crossing detector on the top branch
    top_vecs = sf.top_vectors
    pts = np.einsum("si,ij,sj->s", top_vecs.conj(), m, top_vecs)
    close = 1e-6 * max(diam, 1e-12)
    used = np.zeros(len(pts), dtype=bool)
    for s in range(len(pts)):
        if used[s]:
            continue
        group = np.nonzero(np.abs(pts - pts[s]) < close)[0]
        if len(group) < 3:
            continue
        spread = np.ptp(sf.thetas[group])
        if spread < 1e-3:
            continue
        used[group] = True
        vecs = top_vecs[group].T  # n x g
        # orthonormalize the span of the generating vectors
        q, r = np.linalg.qr(vecs)
        rank = int(np.sum(np.abs(np.diag(r)) > 1e-6 * max(np.abs(np.diag(r)).max(), 1e-300)))
        witnesses = q[:, :rank]
        z0 = complex(np.mean(pts[group]))
        theta0 = float(sf.thetas[group[len(group) // 2]])
        dup = any(
            sd.kind == SINGULAR_POINT and abs(complex(np.mean(sd.segment)) - z0) < 4 * close
            for sd in seeds
        )
        if not dup:
            seeds.append(
                Seed(kind=SINGULAR_POINT, theta=theta0, segment=(z0, z0), witnesses=witnesses)
            )
    return seeds


# ---------------------------------------------------------------------------
# relative boundary count for blocks of a direct sum
# ---------------------------------------------------------------------------


def kprime_relative(block, ambient_support: SupportFunction, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Max count of orthonormal vectors of the block whose images lie on the
    ambient boundary (the block's share in a direct-sum decomposition).

    Normal blocks contribute every eigenvalue (with multiplicity) sitting on
    the ambient boundary.  A non-normal 2x2 block contributes 2 when an
    antipodal pair of its elliptical boundary touches the ambient boundary
    (orthonormal pairs of C^2 map to center-symmetric point pairs), 1 when the
    ellipse merely touches it, 0 otherwise.
    """
    b = as_square_matrix(block)
    n = b.shape[0]
    btol = tol.boundary_abs(ambient_support.diameter())
    if n == 1 or _is_normal(b, tol):
        w = np.linalg.eigvals(b)
        return int(sum(1 for z in w if point_boundary_defect(ambient_support, z) < btol))
    if n == 2:
        own = SupportFunction(b, grid_size=max(256, ambient_support.grid_size // 2))
        grid = own.thetas
        amb = ambient_support(grid)
        g = amb - own.grid_values
        half = len(grid) // 2
        pair = np.maximum(g[:half], g[half : 2 * half])
        step = TWO_PI / len(grid)

        def gap_fn(t):
            return ambient_support(float(t)) - own(float(t))

        def pair_fn(t):
            return max(gap_fn(t), gap_fn(t + np.pi))

        if _refined_min(pair_fn, grid, pair, step)[1] < btol:
            return 2
        return 1 if _refined_min(gap_fn, grid, g, step)[1] < btol else 0
    raise UnsupportedBlockError(
        f"relative count for a non-normal {n}x{n} block needs the restricted search"
    )


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


def dichotomy_scan(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Find a direction where Re(e^{-i theta} A) has exactly two distinct
    eigenvalues: (theta, h0, h1, P) with theta in [0, pi) and P the induced
    idempotent, or None.

    M = cH + sK (c = cos theta, s = sin theta) has at most two eigenvalues
    exactly when M^2 - alpha M + beta I = 0, i.e. when (c^2, cs, s^2, -alpha c,
    -alpha s, beta) lies in the nullspace N of x -> x1 H^2 + x2 (HK + KH) +
    x3 K^2 + x4 H + x5 K + x6 I: the right singular vectors of one SVD below
    eq_tol * sigma_max, and always the last one.  Off span(N, e6) the parts
    (c^2, cs, s^2) and (c, s) are then parallel, so every 2x2 minor, a cubic
    in tan(theta), vanishes.  The roots of the largest minor and pi/2 ({0, pi/2}
    when every minor vanishes) are the only candidates; ``_two_level_form``
    decides each on its member's eigenvalues with the bound eq_tol * ||A||.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    if n < 2:
        return None
    accept = tol.eq_abs(matrix_scale(m))
    h, k = hermitian_parts(m)
    # centred and scaled, the pair has the same relations and a well-scaled SVD
    eye = np.eye(n)
    hs, ks = h - np.trace(h).real / n * eye, k - np.trace(k).real / n * eye
    hs, ks = np.array([hs, ks]) / max(np.linalg.norm(hs), np.linalg.norm(ks), ABS_FLOOR)
    terms = np.stack([hs @ hs, hs @ ks + ks @ hs, ks @ ks, hs, ks, eye]).reshape(6, -1)
    sv, vt = np.linalg.svd(np.concatenate([terms.real, terms.imag], axis=1).T, full_matrices=False)[1:]
    null = vt[min(np.count_nonzero(sv > tol.eq_tol * sv[0]), 5) :]
    r = np.eye(6)[5] - null.T @ null[:, 5]
    span = np.vstack([null, r / max(np.linalg.norm(r), ABS_FLOOR)])
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
        member = _pencil_at(h, k, theta)
        form = _two_level_form(member, np.linalg.eigvalsh(member), accept)
        if form is not None:
            return (theta, *form)
    return None
