"""Theorem-independent search for orthonormal boundary families.

The Gau-Wu number is the size of the largest orthonormal set whose image
under f_A(x) = x* A x lies on the boundary of W(A).  Every admissible vector
is a top eigenvector of Re(e^{-i theta} A) for some theta, so the search
space is the union of top eigenspaces over all directions.  The engine
harvests candidates on a theta grid (refining directions where the top
eigenvalue becomes multiple), finds near-orthogonal cliques, and polishes
each clique by alternating exact eigenspace steps with Levenberg-Marquardt
steps in the free directions, on analytic top-eigenvector derivatives.

Results are constructive lower bounds: sets are reported only with their
Gram and boundary residuals, never by extrapolation.  The searches take a
matrix or its SupportFunction, whose sweep they reuse when the grid matches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .linalg import ABS_FLOOR, DEFAULT_TOL, ToleranceConfig, _pencil_at, as_square_matrix, hermitian_parts, matrix_scale
from .numrange import SupportFunction, _pencil_derivatives, _refined_minima, _top_cluster_basis, support_function, top_gap_events

COARSE_OVERLAP = 0.1
MIN_GRID_SIZE = 64


@dataclass(frozen=True)
class SearchParams:
    grid_size: int = 1024
    max_cliques: int = 4000
    attempts_per_size: int = 24
    sweeps: int = 60  # iteration budget of one starting set's Levenberg-Marquardt loop
    theta_refine: bool = True

    def escalate(self) -> "SearchParams":
        return replace(
            self,
            grid_size=self.grid_size * 4,
            attempts_per_size=self.attempts_per_size * 3,
            sweeps=self.sweeps * 2,
        )


@dataclass
class Candidate:
    theta: float
    vec: np.ndarray
    basis: np.ndarray  # n x d top-cluster basis at theta
    pinned: bool  # True for multiplicity events: theta stays fixed


@dataclass
class BoundaryVectorField:
    thetas: np.ndarray
    support: SupportFunction
    candidates: list
    events: list


@dataclass
class OracleResult:
    k_lower: int
    vectors: np.ndarray  # n x k orthonormal columns
    thetas: np.ndarray
    gram_residual: float
    boundary_residuals: np.ndarray
    floors: dict  # size -> best (failed) gram residual seen at that size

    def to_dict(self) -> dict:
        return {
            "k_lower": int(self.k_lower),
            "gram_residual": float(self.gram_residual),
            "boundary_residuals": [float(b) for b in self.boundary_residuals],
            "thetas": [float(t) for t in self.thetas],
            "floors": {str(k): (None if not np.isfinite(v) else float(v)) for k, v in self.floors.items()},
        }


def boundary_vector_field(
    a,
    grid_size: int = 1024,
    tol: ToleranceConfig = DEFAULT_TOL,
    ambient: Optional[SupportFunction] = None,
) -> BoundaryVectorField:
    """Harvest top-eigenspace candidates over a direction grid.

    With ``ambient`` given, only directions where the matrix's own supporting
    line touches the ambient boundary are kept (the restricted search used
    for blocks of a direct sum).
    """
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be at least {MIN_GRID_SIZE}")
    sf = support_function(a, grid_size)
    m = sf.a
    n = m.shape[0]
    scale = matrix_scale(m)
    split = tol.split_abs(scale)

    events = top_gap_events(sf, tol=tol)
    cands: list = []
    for ev in events:
        basis = ev.basis
        for j in range(basis.shape[1]):
            cands.append(Candidate(theta=ev.theta, vec=basis[:, j].copy(), basis=basis, pinned=True))
    # the direction opposite an event carries the exactly-orthogonal partners
    # (top vectors there are bottom vectors of the event direction)
    if len(events) < 3 * n:
        for ev in events:
            anti = float(np.mod(ev.theta + np.pi, 2 * np.pi))
            _, basis, _ = _top_cluster_basis(sf.h, sf.k, anti, 4 * split)
            for j in range(basis.shape[1]):
                cands.append(Candidate(theta=anti, vec=basis[:, j].copy(), basis=basis, pinned=basis.shape[1] > 1))

    thetas = sf.thetas
    w, v = sf.grid_eigvals, sf.top_vectors
    keep = np.ones(grid_size, dtype=bool)

    if ambient is not None:
        btol = tol.boundary_abs(ambient.diameter())
        g = ambient(thetas) - sf.grid_values
        keep = g <= btol
        # refine tangency contacts that the grid straddles
        step = 2 * np.pi / grid_size

        def pieces(t):
            # p of the ambient is its largest branch, kinked where branches cross
            return ambient.branches(t) - sf.branches(t)[:, :, -1:]

        near = ~keep & (g <= max(0.05 * scale, 100 * btol))
        for t, val in _refined_minima(pieces, thetas, g, step, ambient.radius, 8, eligible=near):
            if val <= btol:
                _, vv = np.linalg.eigh(_pencil_at(sf.h, sf.k, t))
                cands.append(
                    Candidate(theta=float(t), vec=vv[:, -1], basis=vv[:, -1:], pinned=True)
                )

    stride = max(1, grid_size // 256)
    first_grid = len(cands)
    ev_thetas = np.array([ev.theta for ev in events]) if events else np.empty(0)
    for s in range(0, grid_size, stride):
        if not keep[s]:
            continue
        if len(ev_thetas) and np.min(np.abs(np.angle(np.exp(1j * (thetas[s] - ev_thetas))))) < 1e-9:
            continue
        if w[s, -1] - w[s, -2] <= split:
            continue  # covered by an event (or globally degenerate)
        cands.append(Candidate(theta=float(thetas[s]), vec=v[s], basis=v[s, :, None], pinned=False))

    # a candidate may stand in for its near-copies only at a direction the
    # search accepts: with an ambient range, one where the matrix touches its
    # boundary (grid directions were filtered above; events and their
    # antipodes were not)
    touches = np.ones(len(cands), dtype=bool)
    if ambient is not None and first_grid:
        head = cands[:first_grid]
        own = [np.real(np.exp(-1j * c.theta) * (c.vec.conj() @ m @ c.vec)) for c in head]
        touches[:first_grid] = ambient(np.array([c.theta for c in head])) - np.array(own) <= btol
    return BoundaryVectorField(thetas=thetas, support=sf, candidates=_dedup(cands, touches), events=events)


def _dedup(cands: list, touches: np.ndarray, thin: float = 0.999) -> list:
    """Drop near-duplicate candidates.

    Pinned (event/contact) candidates are only removed against exact
    duplicates; free candidates are thinned whenever they overlap by more
    than ``thin`` a kept one whose ``touches`` flag is set (smooth arcs
    collapse to a few representatives, which the angle refinement later
    re-tunes).
    """
    if not cands:
        return []
    vecs = np.column_stack([c.vec for c in cands])
    overlaps = np.abs(vecs.conj().T @ vecs)
    thetas = np.array([c.theta for c in cands])
    kept: list = []
    for i, c in enumerate(cands):
        ov = overlaps[i, kept]
        exact = (np.abs(ov - 1.0) < 1e-10) & (np.abs(c.theta - thetas[kept]) < 1e-9)
        if not (exact.any() or (not c.pinned and ((ov >= thin) & touches[kept]).any())):
            kept.append(i)
    return [cands[i] for i in kept]


def _maximal_cliques(adj: np.ndarray, cap: int):
    """Bron-Kerbosch with pivoting; yields vertex tuples, at most ``cap``."""
    m = adj.shape[0]
    neighbors = [set(np.nonzero(adj[i])[0].tolist()) for i in range(m)]
    out: list = []

    def expand(r, p, x):
        if len(out) >= cap:
            return
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(neighbors[u] & p))
        for vtx in list(p - neighbors[pivot]):
            expand(r | {vtx}, p & neighbors[vtx], x & neighbors[vtx])
            p.discard(vtx)
            x.add(vtx)

    expand(set(), set(range(m)), set())
    return out


def _top_vectors(h, k, thetas, ref, floor):
    """Top eigenvectors of the pencil members at ``thetas`` and their
    derivatives in theta, both n x len(thetas), from one stacked ``eigh``.

    Column i is phased to column i of ``ref``.  For a simple top eigenpair
    (lam, x) of B = cos(t) H + sin(t) K, first-order perturbation theory gives
    x' = sum_j v_j (v_j* B' x) / (lam - lam_j) over the other eigenpairs, with
    B' = -sin(t) H + cos(t) K (``_pencil_derivatives``); this x' is orthogonal
    to x, the gauge that the phasing to the previous vector follows.  Gaps
    below ``floor`` are raised to it, so near a multiple top eigenvalue x' is
    large but finite.
    """
    _, v, c, r = _pencil_derivatives(h, k, thetas, floor)
    x, dx = v[:, :, -1], np.einsum("fij,fj->fi", v, c[:, :, -1] * r[:, -1])
    ph = np.einsum("ji,ij->i", ref.conj(), x)
    mag = np.abs(ph)
    phase = np.where(mag > 1e-12, ph.conj() / np.maximum(mag, 1e-12), 1.0)[:, None]
    return (x * phase).T, (dx * phase).T


def _boundary_residuals(m, X, thetas, sf: SupportFunction) -> np.ndarray:
    """|p(theta_i) - Re(e^{-i theta_i} x_i* A x_i)| for each column x_i of X."""
    thetas = np.asarray(thetas, dtype=float)
    return np.abs(sf(thetas) - np.real(np.exp(-1j * thetas) * np.einsum("ji,jk,ki->i", X.conj(), m, X)))


def _refine_set(m_mat, members: list, sf: SupportFunction, params: SearchParams):
    """Polish a candidate family towards exact orthonormality.

    Members sharing a direction, or pinned to a multiple top eigenvalue, are
    reassigned jointly inside their eigenspace (smallest eigenvectors of the
    projected conflict operator), which keeps them exactly orthonormal among
    themselves.  The other (free) members move along theta: each pass of one
    loop makes that exact eigenspace step and then one Levenberg-Marquardt
    step on the real and imaginary parts of the pairwise overlaps, with the
    Jacobian in the free angles taken from the analytic top-eigenvector
    derivatives of ``_top_vectors``.  A step is kept only when it lowers the
    sum of squared overlaps; otherwise the damping grows, which also rejects
    the huge steps that a nearly multiple top eigenvalue produces.  The loop
    stops when every overlap is below 5e-15, when a step no longer moves any
    angle, when alignment alone stops lowering the overlaps (no free
    members), or after ``params.sweeps`` passes.  Boundary residuals are
    taken against ``sf``.
    """
    k = len(members)
    hm, km = hermitian_parts(m_mat)
    X = np.column_stack([c.vec for c in members]).astype(complex)
    thetas = np.array([float(c.theta) for c in members])

    groups: dict = {}
    for i, t in enumerate(thetas):
        groups.setdefault(round(t, 12), []).append(i)
    group_list = list(groups.values())
    free = [g[0] for g in group_list if len(g) == 1 and not members[g[0]].pinned and params.theta_refine]
    # a one-dimensional eigenspace leaves nothing to choose
    spans = [(g, members[g[0]].basis) for g in group_list if members[g[0]].basis.shape[1] >= max(len(g), 2)]
    upper = np.triu_indices(k, 1)
    pairs = np.arange(len(upper[0]))

    def overlaps(Y):
        return (Y.conj().T @ Y)[upper]

    def align_groups():
        for g, B in spans:
            idx = [i for i in range(k) if i not in g]
            Xo = X[:, idx]
            M = B.conj().T @ (Xo @ Xo.conj().T) @ B
            X[:, g] = B @ np.linalg.eigh((M + M.conj().T) / 2)[1][:, : len(g)]

    floor = ABS_FLOOR * matrix_scale(m_mat)
    D = np.zeros_like(X)  # d x_i / d theta_i, zero for members that do not move
    if free:
        X[:, free], D[:, free] = _top_vectors(hm, km, thetas[free], X[:, free], floor)
    damping = 1e-3
    cost = np.inf
    for _ in range(params.sweeps):
        align_groups()
        z = overlaps(X)
        now = float(np.vdot(z, z).real)
        if np.max(np.abs(z), initial=0.0) < 5e-15 or (not free and now >= cost):
            break
        cost = now
        if not free:
            continue
        # d<x_p, x_q>/d theta_p = <x_p', x_q>, d<x_p, x_q>/d theta_q = <x_p, x_q'>
        jac = np.zeros((len(pairs), k), dtype=complex)
        jac[pairs, upper[0]] = (D.conj().T @ X)[upper]
        jac[pairs, upper[1]] = (X.conj().T @ D)[upper]
        jac = np.vstack([jac.real, jac.imag])[:, free]
        scale = np.sqrt(damping * np.sum(jac * jac, axis=0))
        lhs = np.vstack([jac, np.diag(scale)])
        rhs = np.concatenate([-z.real, -z.imag, np.zeros(len(free))])
        trial = thetas[free] + np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        if np.array_equal(trial, thetas[free]):
            break
        xt, dt = _top_vectors(hm, km, trial, X[:, free], floor)
        Xt = X.copy()
        Xt[:, free] = xt
        zt = overlaps(Xt)
        if float(np.vdot(zt, zt).real) < now:
            X, thetas[free], D[:, free] = Xt, trial, dt
            damping /= 3
        else:
            damping *= 4
    res = float(np.max(np.abs(overlaps(X)), initial=0.0))
    return res, X, thetas, _boundary_residuals(m_mat, X, thetas, sf)


def _clique_score(clique, overlaps) -> float:
    """Total pairwise overlap; near-orthogonal starting sets score lowest."""
    total = 0.0
    cl = list(clique)
    for a_i in range(len(cl)):
        for b_i in range(a_i + 1, len(cl)):
            total += overlaps[cl[a_i], cl[b_i]]
    return float(total)


def _candidate_cliques(overlaps: np.ndarray, cap: int) -> list:
    """Coarse near-orthogonal cliques, sorted largest and cleanest first.

    Exact Bron-Kerbosch enumeration (capped) is supplemented with a greedy
    clique grown from every single candidate, so each harvested direction is
    guaranteed to seed at least one refinement attempt.
    """
    mcount = overlaps.shape[0]
    adj = (overlaps < COARSE_OVERLAP) & ~np.eye(mcount, dtype=bool)
    pool = {}
    for start in range(mcount):
        members = [start]
        compatible = set(np.nonzero(adj[start])[0].tolist())
        while compatible:
            best = min(compatible, key=lambda j: (float(np.max(overlaps[j, members])), j))
            members.append(best)
            compatible = {j for j in compatible if adj[j, best] and j != best}
        pool[tuple(sorted(members))] = None
    for cl in _maximal_cliques(adj, cap=cap):
        pool[tuple(sorted(cl))] = None
    cliques = list(pool)
    cliques.sort(key=lambda c: (-len(c), _clique_score(c, overlaps)))
    return cliques


def _subsets_by_quality(clique, overlaps, size, cap):
    """A few size-``size`` subsets of a clique, dropping worst-overlap members first."""
    clique = list(clique)
    if len(clique) == size:
        return [tuple(clique)]
    scores = [(sum(overlaps[i][j] for j in clique if j != i), i) for i in clique]
    scores.sort()
    ordered = [i for _, i in scores]
    out = []
    for combo in itertools.combinations(ordered, size):
        out.append(combo)
        if len(out) >= cap:
            break
    return out


def _scored_subsets(cliques, overlaps, size):
    """Distinct size-``size`` starting sets from the clique pool, cleanest first."""
    seen = set()
    scored = []
    for clique in cliques:
        if len(clique) < size:
            continue
        for combo in _subsets_by_quality(clique, overlaps, size, cap=3):
            key = tuple(sorted(combo))
            if key in seen:
                continue
            seen.add(key)
            scored.append((_clique_score(key, overlaps), key))
    scored.sort()
    return scored


def _search(m, cands: list, support: SupportFunction, tol: ToleranceConfig, params: SearchParams,
            min_size: int, accept_hook: Optional[Callable] = None) -> OracleResult:
    """Clique -> refine core shared by the full and the restricted search.

    Candidates are grouped into coarse near-orthogonal cliques
    (|<v_i, v_j>| < 0.1); starting sets of each size, largest first, are
    refined, and the first size with a family whose Gram residual beats
    ``gram_tol`` and whose members lie on the boundary of ``support`` wins.
    Below ``min_size`` the result has k_lower = 0.
    """
    n = m.shape[0]
    vecs = np.column_stack([c.vec for c in cands]) if cands else np.zeros((n, 0))
    overlaps = np.abs(vecs.conj().T @ vecs)
    cliques = _candidate_cliques(overlaps, cap=params.max_cliques)
    max_size = min(n, max((len(c) for c in cliques), default=1))
    btol = 10 * tol.boundary_abs(support.diameter())

    floors: dict = {}
    for size in range(max_size, min_size - 1, -1):
        best = None
        for _, combo in _scored_subsets(cliques, overlaps, size)[: params.attempts_per_size]:
            res, X, thetas, bres = _refine_set(m, [cands[i] for i in combo], support, params)
            ok = res <= tol.gram_tol and np.all(bres <= btol)
            if ok and accept_hook is not None:
                ok = bool(accept_hook(X, thetas))
            if ok:
                if best is None or res < best[0]:
                    best = (res, X, thetas, bres)
                if res < 1e-12:
                    break
            else:
                floors[size] = min(floors.get(size, np.inf), res)
        if best is not None:
            res, X, thetas, bres = best
            floors.setdefault(size + 1, np.inf)
            return OracleResult(size, X, thetas, res, bres, floors)
    return OracleResult(0, np.zeros((n, 0)), np.zeros(0), 0.0, np.zeros(0), floors)


def max_orthonormal_boundary_set(
    a,
    tol: ToleranceConfig = DEFAULT_TOL,
    params: SearchParams = SearchParams(),
    accept_hook: Optional[Callable] = None,
) -> OracleResult:
    """Constructive lower bound for the Gau-Wu number.

    Candidates from the boundary vector field are grouped into coarse
    near-orthogonal cliques (|<v_i, v_j>| < 0.1), each clique is refined, and
    the largest family whose final Gram residual beats ``gram_tol`` wins.
    ``accept_hook(vectors, thetas)`` can impose extra structure (used by the
    three-line search of the 4x4 classifier).
    """
    sf = support_function(a, params.grid_size)
    m = sf.a
    n = m.shape[0]
    if n == 1:
        return OracleResult(1, np.ones((1, 1), dtype=complex), np.zeros(1), 0.0, np.zeros(1), {})
    field_ = boundary_vector_field(sf, grid_size=params.grid_size, tol=tol)
    if sf.diameter() <= 4 * ABS_FLOOR:
        eye = np.eye(n, dtype=complex)
        return OracleResult(n, eye, np.zeros(n), 0.0, np.zeros(n), {})
    found = _search(m, field_.candidates, sf, tol, params, min_size=2, accept_hook=accept_hook)
    if found.k_lower:
        return found
    # guaranteed pair: extremal eigenvectors of any one direction are orthogonal
    w, v = np.linalg.eigh(sf.h)
    X = np.column_stack([v[:, -1], v[:, 0]])
    thetas = np.array([0.0, np.pi])
    return OracleResult(2, X, thetas, 0.0, _boundary_residuals(m, X, thetas, sf), found.floors)


def restricted_max_set(
    block,
    ambient: SupportFunction,
    tol: ToleranceConfig = DEFAULT_TOL,
    params: SearchParams = SearchParams(grid_size=512, theta_refine=False),
):
    """Largest orthonormal family of the block landing on the ambient boundary.

    Candidates are restricted to directions where the block's supporting line
    touches the boundary of the ambient range; may return 0 (blocks buried in
    the interior contribute nothing).  Returns (count, vectors, thetas).
    """
    m = as_square_matrix(block)
    field_ = boundary_vector_field(m, grid_size=params.grid_size, tol=tol, ambient=ambient)
    found = _search(m, field_.candidates, ambient, tol, params, min_size=1)
    return found.k_lower, found.vectors, found.thetas


@dataclass
class VerifyReport:
    match: bool
    status: str  # "match" | "oracle-exceeds-claim" | "search-below-claim"
    claimed_k: int
    oracle: OracleResult
    escalations: int

    def to_dict(self) -> dict:
        return {
            "match": self.match,
            "status": self.status,
            "claimed_k": self.claimed_k,
            "oracle": self.oracle.to_dict(),
            "escalations": self.escalations,
        }


def verify(a, claimed_k: int, tol: ToleranceConfig = DEFAULT_TOL, params: SearchParams = SearchParams()) -> VerifyReport:
    """Check a claimed Gau-Wu value against the constructive search.

    A search result above the claim is a soundness failure (the witness set
    is explicit); a result below the claim triggers escalation before the
    mismatch is reported, since the search is only a lower bound.
    """
    escalations = 0
    cur = params
    res = max_orthonormal_boundary_set(a, tol=tol, params=cur)
    while res.k_lower < claimed_k and escalations < 2:
        cur = cur.escalate()
        escalations += 1
        res = max_orthonormal_boundary_set(a, tol=tol, params=cur)
    if res.k_lower == claimed_k:
        return VerifyReport(True, "match", claimed_k, res, escalations)
    if res.k_lower > claimed_k:
        return VerifyReport(False, "oracle-exceeds-claim", claimed_k, res, escalations)
    return VerifyReport(False, "search-below-claim", claimed_k, res, escalations)
