"""Seeded generators for every matrix family the classifier covers, plus the
worked 4x4 example with a flat-portion seed and the instability perturbation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arrowhead import ArrowheadMatrix, _hull_boundary_indices
from .linalg import DEFAULT_TOL

REJECTION_CAP = 10_000


class InfeasibleSpecError(ValueError):
    """Rejection sampling exhausted its attempt budget."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int = 4
    seed: int = 0
    knobs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {sorted(_FAMILIES)}")


def _rng(spec: FamilySpec) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(spec.seed), _FAMILIES[spec.family][0]]))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :].conj()


def _distinct_reals(rng, count, lo, hi, mingap):
    # count values mingap apart span (count - 1) mingap
    if count > (hi - lo) / mingap + 1:
        raise InfeasibleSpecError(f"{count} values at least {mingap} apart do not fit in [{lo}, {hi}]")
    for _ in range(REJECTION_CAP):
        vals = np.sort(rng.uniform(lo, hi, size=count))
        if count < 2 or np.min(np.diff(vals)) >= mingap:
            return rng.permutation(vals)
    # exact draw: sorted uniforms on the span left after the gaps, each moved up by its gaps
    vals = np.sort(rng.uniform(lo, hi - (count - 1) * mingap, size=count)) + np.arange(count) * mingap
    return rng.permutation(vals)


def _unit_phase(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi))


def _maybe_conjugate(a, rng, knobs):
    if knobs.get("conjugate", True):
        u = random_unitary(rng, a.shape[0])
        a = u.conj().T @ a @ u
    return a


# ---------------------------------------------------------------------------
# arrowhead families
# ---------------------------------------------------------------------------


def _gen_diag_dichotomous(spec: FamilySpec, rng):
    n = spec.n
    if n < 3:
        raise InfeasibleSpecError("needs n >= 3")
    theta = spec.knobs.get("theta", rng.uniform(0, np.pi))
    h0 = spec.knobs.get("h0", rng.uniform(-1.0, -0.3))
    h1 = spec.knobs.get("h1", rng.uniform(0.3, 1.0))
    for _ in range(REJECTION_CAP):
        p = rng.integers(0, 2, size=n)
        if 0 < np.sum(p[: n - 1]) < n - 1:
            break
    else:
        raise InfeasibleSpecError("projection diagonal never mixed")
    kvals = _distinct_reals(rng, n, -1.0, 1.0, 1e-2)
    r = h0 + (h1 - h0) * p
    diag = np.exp(1j * theta) * (r[: n - 1] + 1j * kvals[: n - 1])
    corner = np.exp(1j * theta) * (r[n - 1] + 1j * kvals[n - 1])
    rho = rng.uniform(0.3, 1.0, size=n - 1)
    beta = rng.uniform(0, 2 * np.pi, size=n - 1)
    col = rho * np.exp(1j * beta)
    row = rho * np.exp(1j * (2 * theta + np.pi - beta))
    return ArrowheadMatrix(diag, col, row, corner).to_dense()


def _coupled_parts(spec: FamilySpec, rng, p_mixed):
    """Shared scaffolding for the coupled dichotomous families."""
    n = spec.n
    if n < 3:
        raise InfeasibleSpecError("needs n >= 3")
    theta = spec.knobs.get("theta", rng.uniform(0, np.pi))
    h0 = spec.knobs.get("h0", rng.uniform(-1.0, -0.3))
    h1 = spec.knobs.get("h1", rng.uniform(0.3, 1.0))
    i = int(spec.knobs.get("index", rng.integers(0, n - 1)))
    t = float(spec.knobs.get("t", rng.uniform(0.15, 0.85)))
    alpha = np.sqrt(t * (1 - t)) * _unit_phase(rng)
    others = [j for j in range(n - 1) if j != i]
    if p_mixed is None:
        p = rng.integers(0, 2, size=n - 1)
    elif p_mixed:
        if len(others) < 2:
            raise InfeasibleSpecError("mixed projection diagonal needs n >= 4")
        p = np.zeros(n - 1, dtype=int)
        p[others[0]] = 0
        p[others[1]] = 1
        for j in others[2:]:
            p[j] = rng.integers(0, 2)
    else:
        p0 = int(spec.knobs.get("p0", rng.integers(0, 2)))
        p = np.full(n - 1, p0, dtype=int)
    proj = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        proj[j, j] = t if j == i else p[j]
    proj[n - 1, n - 1] = 1 - t
    proj[i, n - 1] = alpha
    proj[n - 1, i] = np.conj(alpha)
    re_part = h0 * np.eye(n) + (h1 - h0) * proj
    kdiag = _distinct_reals(rng, n - 1, -1.0, 1.0, 1e-2)
    kcorner = rng.uniform(-1.0, 1.0)
    mvals = rng.uniform(0.25, 1.0, size=n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n - 1))
    return theta, h0, h1, i, t, alpha, p, re_part, kdiag, kcorner, mvals


def _assemble_coupled(theta, re_part, kdiag, kcorner, mvals):
    n = re_part.shape[0]
    kmat = np.zeros((n, n), dtype=complex)
    kmat[np.arange(n - 1), np.arange(n - 1)] = kdiag
    kmat[n - 1, n - 1] = kcorner
    kmat[: n - 1, n - 1] = mvals
    kmat[n - 1, : n - 1] = np.conj(mvals)
    return np.exp(1j * theta) * (re_part + 1j * kmat)


def _gen_coupled_dichotomous(spec: FamilySpec, rng):
    parts = _coupled_parts(spec, rng, p_mixed=None)
    theta, _, _, i, t, alpha, p, re_part, kdiag, kcorner, mvals = parts
    # keep the coupling-to-projection ratio away from the real axis so the
    # exceptional reducible branches stay out of reach
    ratio = mvals[i] / alpha
    if abs(ratio.imag) < 0.05 * abs(ratio):
        mvals[i] *= np.exp(1j * 0.4)
    return _assemble_coupled(theta, re_part, kdiag, kcorner, mvals)


def _gen_reducible_aligned(spec: FamilySpec, rng):
    for _ in range(REJECTION_CAP):
        parts = _coupled_parts(spec, rng, p_mixed=False)
        theta, h0, h1, i, t, alpha, p, re_part, kdiag, kcorner, mvals = parts
        p0 = p[[j for j in range(spec.n - 1) if j != i][0]] if spec.n > 2 else 0
        ratio = rng.uniform(0.3, 1.2) * rng.choice([-1.0, 1.0])
        mvals[i] = ratio * alpha
        lam = kdiag[i] + (p0 - t) * ratio
        others = [j for j in range(spec.n - 1) if j != i]
        denom = lam - kdiag[others]
        if np.min(np.abs(denom)) < 0.05:
            continue
        total = float(np.sum(np.abs(mvals[others]) ** 2 / denom))
        total += float(np.abs(mvals[i]) ** 2 / ((p0 - t) * ratio))
        kcorner = lam - total
        return _assemble_coupled(theta, re_part, kdiag, kcorner, mvals)
    raise InfeasibleSpecError("aligned reducible construction kept hitting resonances")


def _gen_reducible_mixed(spec: FamilySpec, rng):
    if spec.n != 4:
        raise InfeasibleSpecError("mixed reducible case lives at n = 4")
    for _ in range(REJECTION_CAP):
        parts = _coupled_parts(spec, rng, p_mixed=True)
        theta, h0, h1, i, t, alpha, p, re_part, kdiag, kcorner, mvals = parts
        others = [j for j in range(3) if j != i]
        sigma1 = next(j for j in others if p[j] == 0)
        sigma2 = next(j for j in others if p[j] == 1)
        k1, k2 = kdiag[sigma1], kdiag[sigma2]
        if abs(k1 - k2) < 0.1:
            continue
        kdiag[i] = (1 - t) * k1 + t * k2
        ratio = rng.uniform(0.3, 1.2) * rng.choice([-1.0, 1.0])
        mvals[i] = ratio * alpha
        d1 = k1 - kdiag[i] + t * ratio
        d2 = k2 - kdiag[i] - (1 - t) * ratio
        if min(abs(d1), abs(d2)) < 0.05:
            continue
        kcorner = kdiag[i] + (1 - 2 * t) * ratio + (
            d1 * abs(mvals[sigma2]) ** 2 + d2 * abs(mvals[sigma1]) ** 2
        ) / (d1 * d2)
        return _assemble_coupled(theta, re_part, kdiag, kcorner, mvals)
    raise InfeasibleSpecError("mixed reducible construction kept degenerating")


def _gen_pure_almost_normal(spec: FamilySpec, rng):
    n = spec.n
    if n < 3:
        raise InfeasibleSpecError("needs n >= 3")
    diag = _random_distinct_points(rng, n - 1, mingap=0.15)
    col = rng.uniform(0.3, 1.0, size=n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n - 1))
    row = np.zeros(n - 1, dtype=complex)
    corner = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
    return ArrowheadMatrix(diag, col, row, corner).to_dense()


def _random_distinct_points(rng, count, mingap):
    # disjoint discs of radius mingap / 2 about the points fill part of the square grown by mingap / 2
    if count * np.pi * (mingap / 2) ** 2 > (2 + mingap) ** 2:
        raise InfeasibleSpecError(f"{count} points at least {mingap} apart do not fit in the square [-1, 1]^2")
    for _ in range(REJECTION_CAP):
        pts = rng.uniform(-1, 1, size=count) + 1j * rng.uniform(-1, 1, size=count)
        if count < 2:
            return pts
        d = np.abs(pts[:, None] - pts[None, :])[~np.eye(count, dtype=bool)]
        if np.min(d) >= mingap:
            return pts
    # one point at a time, each drawn until it keeps mingap from those placed
    pts = np.zeros(0, dtype=complex)
    while len(pts) < count:
        for _ in range(REJECTION_CAP):
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            if np.all(np.abs(pts - z) >= mingap):
                pts = np.append(pts, z)
                break
        else:
            raise InfeasibleSpecError("could not place distinct points")
    return pts


def _gen_unbalanced(spec: FamilySpec, rng):
    n = spec.n
    if n < 3:
        raise InfeasibleSpecError("needs n >= 3")
    diag = _random_distinct_points(rng, n - 1, mingap=0.15)
    base = rng.uniform(0.3, 1.0, size=n - 1)
    delta = rng.uniform(0.15, 0.5, size=n - 1)
    row = base * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n - 1))
    col = base * (1 + delta) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n - 1))
    if spec.knobs.get("direction", "column") == "row":
        col, row = row, col
    corner = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
    return ArrowheadMatrix(diag, col, row, corner).to_dense()


# ---------------------------------------------------------------------------
# dichotomous 4x4 canonical families
# ---------------------------------------------------------------------------


def _random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def _gen_k4_22(spec: FamilySpec, rng):
    if spec.n != 4:
        raise InfeasibleSpecError("the 2+2 family lives at n = 4")
    knobs = spec.knobs
    h1 = knobs.get("h1", rng.uniform(-1.0, -0.3))
    h2 = knobs.get("h2", rng.uniform(0.3, 1.0))
    edge = knobs.get("edge")  # None | "reducible-zero-product" | "reducible-commuting"
    for _ in range(REJECTION_CAP):
        k1 = _random_hermitian(rng, 2)
        k2 = _random_hermitian(rng, 2)
        s1 = rng.uniform(0.4, 1.0)
        s2 = rng.uniform(0.1, s1 - 0.15) if s1 > 0.3 else 0.0
        if edge == "reducible-zero-product":
            s2 = 0.0
            k1[0, 1] = 0.0
            k1[1, 0] = 0.0
        elif edge == "reducible-commuting":
            s2 = s1
            d1 = np.diag(rng.uniform(-1, 1, 2))
            d2 = np.diag(rng.uniform(-1, 1, 2))
            k1, k2 = d1.astype(complex), d2.astype(complex)
        else:
            if abs(k1[0, 1]) < 0.05 or abs(k2[0, 1]) < 0.05:
                continue
        h = np.diag([h1, h1, h2, h2]).astype(complex)
        k = np.zeros((4, 4), dtype=complex)
        k[:2, :2] = k1
        k[2:, 2:] = k2
        k[:2, 2:] = np.diag([s1, s2])
        k[2:, :2] = np.diag([s1, s2])
        theta0 = knobs.get("theta", rng.uniform(0, np.pi))
        return _maybe_conjugate(np.exp(1j * theta0) * (h + 1j * k), rng, knobs), {"theta": theta0 % np.pi}
    raise InfeasibleSpecError("2+2 sampling failed")


def _gen_k4_31(spec: FamilySpec, rng):
    if spec.n != 4:
        raise InfeasibleSpecError("the 3+1 family lives at n = 4")
    knobs = spec.knobs
    h1 = knobs.get("h1", rng.uniform(-1.0, -0.3))
    h2 = knobs.get("h2", rng.uniform(0.3, 1.0))
    klev = _distinct_reals(rng, 3, -1.0, 1.0, 0.1)
    b = rng.uniform(0.25, 1.0, size=3)
    k4 = rng.uniform(-1.0, 1.0)
    h = np.diag([h1, h1, h1, h2]).astype(complex)
    k = np.zeros((4, 4), dtype=complex)
    k[np.arange(3), np.arange(3)] = klev
    k[3, 3] = k4
    k[:3, 3] = b
    k[3, :3] = b
    theta0 = knobs.get("theta", rng.uniform(0, np.pi))
    return _maybe_conjugate(np.exp(1j * theta0) * (h + 1j * k), rng, knobs), {"theta": theta0 % np.pi}


# ---------------------------------------------------------------------------
# k = 3 canonical families
# ---------------------------------------------------------------------------


def _gen_k3_parallel(spec: FamilySpec, rng):
    if spec.n != 4:
        raise InfeasibleSpecError("the parallel family lives at n = 4")
    for _ in range(REJECTION_CAP):
        evals = np.sort(rng.uniform(0.15, 0.85, size=2))
        if evals[1] - evals[0] < 0.1:
            continue
        u2 = random_unitary(rng, 2)
        hb = u2 @ np.diag(evals) @ u2.conj().T
        if abs(hb[0, 1]) < 0.03:
            continue
        ell = np.tril(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        np.fill_diagonal(ell, np.abs(np.diag(ell).real) + 0.4)
        kb = ell @ ell.conj().T / 3 + 0.05 * np.eye(3)
        if min(abs(kb[0, 1]), abs(kb[0, 2]), abs(kb[1, 2])) < 0.02:
            continue
        h = np.zeros((4, 4), dtype=complex)
        h[1, 1], h[1, 3], h[3, 1], h[3, 3] = hb[0, 0], hb[0, 1], hb[1, 0], hb[1, 1]
        h[2, 2] = 1.0
        k = np.zeros((4, 4), dtype=complex)
        idx = [0, 2, 3]
        for ii, gi in enumerate(idx):
            for jj, gj in enumerate(idx):
                k[gi, gj] = kb[ii, jj]
        return _maybe_conjugate(h + 1j * k, rng, spec.knobs)
    raise InfeasibleSpecError("parallel-form sampling failed")


def _gen_k3_nonparallel(spec: FamilySpec, rng):
    if spec.n != 4:
        raise InfeasibleSpecError("the nonparallel family lives at n = 4")
    for _ in range(REJECTION_CAP):
        h22 = rng.uniform(0.25, 0.55)
        h33 = rng.uniform(0.35, 0.65)
        k33 = rng.uniform(0.35, 0.65)
        k11 = rng.uniform(0.25, 0.55)
        h44 = rng.uniform(0.3, 0.6)
        level = h33 + k33
        hi = level - h44 - 0.12
        if hi <= 0.05:
            continue
        k44 = rng.uniform(0.05, hi)
        h24 = rng.uniform(0.03, 0.1) * _unit_phase(rng)
        h34 = rng.uniform(0.03, 0.1) * _unit_phase(rng)
        k14 = rng.uniform(0.03, 0.1) * _unit_phase(rng)
        h = np.zeros((4, 4), dtype=complex)
        h[1, 1], h[2, 2], h[3, 3] = h22, h33, h44
        h[1, 3], h[3, 1] = h24, np.conj(h24)
        h[2, 3], h[3, 2] = h34, np.conj(h34)
        k = np.zeros((4, 4), dtype=complex)
        k[0, 0], k[2, 2], k[3, 3] = k11, k33, k44
        k[0, 3], k[3, 0] = k14, np.conj(k14)
        k[2, 3], k[3, 2] = -h34, -np.conj(h34)
        margin = 1e-3
        hblock = h[1:, 1:]
        kblock = k[np.ix_([0, 2, 3], [0, 2, 3])]
        third = np.array(
            [
                [k11, 0, k14],
                [0, h22, h24],
                [np.conj(k14), np.conj(h24), h44 + k44],
            ]
        )
        if np.linalg.eigvalsh(hblock)[0] < margin:
            continue
        if np.linalg.eigvalsh(kblock)[0] < margin:
            continue
        if np.linalg.eigvalsh(level * np.eye(3) - third)[0] < margin:
            continue
        return _maybe_conjugate(h + 1j * k, rng, spec.knobs)
    raise InfeasibleSpecError("nonparallel-form sampling failed")


# ---------------------------------------------------------------------------
# direct-sum configurations
# ---------------------------------------------------------------------------


def _disk_block(center: complex, radius: float) -> np.ndarray:
    return np.array([[center, 2 * radius], [0, center]], dtype=complex)


def _gen_ellipse_pair(spec: FamilySpec, rng):
    if spec.n != 4:
        raise InfeasibleSpecError("the ellipse-pair family lives at n = 4")
    config = spec.knobs.get("config", "nested")
    jit = 0.02 * rng.uniform(-1, 1, size=4)
    if config == "nested":
        b1 = _disk_block(0, 1.0 + jit[0] * 0.5)
        b2 = _disk_block((0.1 + jit[1]) + 1j * (0.05 + jit[2]), 0.3 + jit[3] * 0.5)
    elif config == "crossed":
        b1 = _disk_block(0, 1.0)
        b2 = _disk_block(0.9 + jit[0], 0.55 + jit[1] * 0.5)
    elif config == "aligned":
        r = 1.0 + jit[0] * 0.5
        b1 = _disk_block(0, r)
        b2 = _disk_block(1.0 + jit[1], r)
    else:
        raise InfeasibleSpecError(f"unknown ellipse-pair config {config!r}")
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = b1
    a[2:, 2:] = b2
    if spec.knobs.get("rotate", True):
        a = _unit_phase(rng) * a
    return _maybe_conjugate(a, rng, spec.knobs)


def _gen_ellipse_scalars(spec: FamilySpec, rng):
    if spec.n != 4:
        raise InfeasibleSpecError("the ellipse-with-scalars family lives at n = 4")
    config = spec.knobs.get("config", "three")
    jit = 0.03 * rng.uniform(-1, 1, size=3)
    disk = _disk_block(0, 1.0)
    if config == "three":
        z1 = 1.7 + jit[0]
        z2 = (0.2 + jit[1]) + 1j * jit[2] * 0.3
    elif config == "four":
        z1 = 1.7 + jit[0]
        z2 = -1.7 + jit[1]
    else:
        raise InfeasibleSpecError(f"unknown ellipse-with-scalars config {config!r}")
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = disk
    a[2, 2] = z1
    a[3, 3] = z2
    if spec.knobs.get("rotate", True):
        a = _unit_phase(rng) * a
    return _maybe_conjugate(a, rng, spec.knobs)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


# name -> (seed-stream id, generator); a generator returns the matrix, or the
# pair (matrix, construction metadata) when it has metadata
_FAMILIES = {
    "dichotomous-arrowhead-diag": (1, _gen_diag_dichotomous),
    "dichotomous-arrowhead-coupled": (2, _gen_coupled_dichotomous),
    "k4-split-22": (3, _gen_k4_22),
    "k4-split-31": (4, _gen_k4_31),
    "k3-parallel-lines": (5, _gen_k3_parallel),
    "k3-nonparallel-lines": (6, _gen_k3_nonparallel),
    "pure-almost-normal": (7, _gen_pure_almost_normal),
    "unbalanced-arrowhead": (8, _gen_unbalanced),
    "ellipse-pair": (9, _gen_ellipse_pair),
    "ellipse-with-scalars": (10, _gen_ellipse_scalars),
    "reducible-aligned": (11, _gen_reducible_aligned),
    "reducible-mixed": (12, _gen_reducible_mixed),
}

ALL_FAMILIES = tuple(_FAMILIES)


def _build(spec: FamilySpec):
    """(matrix, metadata) for ``spec``; private, so that bench/tracer.py, which
    wraps public names only, books the whole generation to ``generate``."""
    out = _FAMILIES[spec.family][1](spec, _rng(spec))
    return out if isinstance(out, tuple) else (out, {})


def generate(spec: FamilySpec) -> np.ndarray:
    """Deterministic matrix for the requested family; same spec, same bits."""
    return _build(spec)[0]


def generate_with_info(spec: FamilySpec):
    """Like generate() but also returns construction metadata when available
    (currently the dichotomy angle of the k4 families)."""
    return _build(spec)


def flat_portion_example() -> np.ndarray:
    """The worked 4x4 example: parallel canonical form whose pencil acquires
    a double extreme eigenvalue (a flat portion) at t = 1, level 17/8."""
    f = Fraction
    entries = [
        [(0, f(2)), (0, 0), (0, f(1, 8)), (0, f(1, 4))],
        [(0, 0), (f(1, 2), 0), (0, 0), (f(-1, 4), 0)],
        [(0, f(1, 8)), (0, 0), (f(1), f(1)), (0, f(-1, 4))],
        [(0, f(1, 4)), (f(-1, 4), 0), (0, f(-1, 4)), (f(3, 8), f(63, 52))],
    ]
    a = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            re, im = entries[i][j]
            a[i, j] = float(re) + 1j * float(im)
    return a


def perturb_unbalance(ah: ArrowheadMatrix, eps: float) -> ArrowheadMatrix:
    """Radially bump the last-column entries over the hull indices.

    Applied to a balanced arrowhead this breaks |col_j| = |row_j| strictly on
    the convex-hull indices for any eps != 0 (outward for eps > 0, inward for
    eps < 0), which collapses the Gau-Wu number to 2.
    """
    if eps == 0:
        warnings.warn("eps = 0 leaves the matrix unchanged")
        return ArrowheadMatrix(ah.diag.copy(), ah.col.copy(), ah.row.copy(), ah.corner)
    mags = np.abs(ah.col)
    if np.max(np.abs(mags - np.abs(ah.row)), initial=0.0) > 1e-6 * np.max(mags, initial=0.0):
        warnings.warn("input columns and rows are not balanced; perturbation semantics still apply")
    hull = _hull_boundary_indices(ah.diag, DEFAULT_TOL)
    col = ah.col.copy()
    for j in hull:
        if col[j]:
            col[j] = col[j] * (1 + eps / abs(col[j]))
        else:
            col[j] = eps
    return ArrowheadMatrix(ah.diag.copy(), col, ah.row.copy(), ah.corner)
