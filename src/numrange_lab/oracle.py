"""Theorem-independent search for orthonormal boundary families.

The Gau-Wu number is the size of the largest orthonormal set whose image
under f_A(x) = x* A x lies on the boundary of W(A).  Every admissible vector
is a top eigenvector of Re(e^{-i theta} A) for some theta, so the search
space is the union of top eigenspaces over all directions.  The engine
harvests candidates on a theta grid (refining directions where the top
eigenvalue becomes multiple), finds near-orthogonal cliques, and polishes
each clique by alternating exact eigenspace steps and local angle descent.

Results are constructive lower bounds: sets are reported only with their
Gram and boundary residuals, never by extrapolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .linalg import ABS_FLOOR, DEFAULT_TOL, ToleranceConfig, _pencil_at, as_square_matrix, hermitian_parts, matrix_scale
from .numrange import SupportFunction, _refined_minima, _top_cluster_basis, top_gap_events

COARSE_OVERLAP = 0.1
MIN_GRID_SIZE = 64


@dataclass(frozen=True)
class SearchParams:
    grid_size: int = 1024
    max_cliques: int = 4000
    attempts_per_size: int = 24
    sweeps: int = 60
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
    m = as_square_matrix(a)
    n = m.shape[0]
    sf = SupportFunction(m, grid_size=grid_size)
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

        def gap_fn(t):
            return ambient(float(t)) - sf(float(t))

        near = ~keep & (g <= max(0.05 * scale, 100 * btol))
        for t, val in _refined_minima(gap_fn, thetas, g, step, 8, eligible=near):
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


def _top_eigvec(h, k, t, ref=None):
    _, vv = np.linalg.eigh(_pencil_at(h, k, t))
    x = vv[:, -1]
    if ref is not None:
        ph = np.vdot(ref, x)
        if abs(ph) > 1e-12:
            x = x * (np.conj(ph) / abs(ph))
    return x


def _boundary_residuals(m, X, thetas, sf: SupportFunction) -> np.ndarray:
    """|p(theta_i) - Re(e^{-i theta_i} x_i* A x_i)| for each column x_i of X."""
    return np.array(
        [abs(sf(float(t)) - float(np.real(np.exp(-1j * t) * (x.conj() @ m @ x)))) for x, t in zip(X.T, thetas)]
    )


def _refine_set(m_mat, members: list, sf: SupportFunction, params: SearchParams):
    """Polish a candidate family towards exact orthonormality.

    Members sharing a direction are reassigned jointly inside their eigenspace
    (smallest eigenvectors of the projected conflict operator), which keeps
    them exactly orthonormal among themselves.  Free members first slide along
    theta by quadratic coordinate descent to reach the basin, then a
    Gauss-Newton iteration on the complex pairwise overlaps (finite-difference
    Jacobian in the free angles) drives the residual to machine zero whenever
    an exact orthonormal family exists nearby.  Boundary residuals are taken
    against ``sf``.
    """
    k = len(members)
    hm, km = hermitian_parts(m_mat)
    X = np.column_stack([c.vec for c in members]).astype(complex)
    thetas = np.array([float(c.theta) for c in members])
    pinned = [c.pinned for c in members]
    bases = [c.basis for c in members]

    groups: dict = {}
    for i, t in enumerate(thetas):
        groups.setdefault(round(t, 12), []).append(i)
    group_list = list(groups.values())
    free = [g[0] for g in group_list if len(g) == 1 and not pinned[g[0]] and params.theta_refine]

    def gram_res(Xc):
        G = Xc.conj().T @ Xc
        off = G - np.diag(np.diag(G))
        return float(np.max(np.abs(off))) if k > 1 else 0.0

    def align_groups():
        for g in group_list:
            idx = [i for i in range(k) if i not in g]
            B = bases[g[0]]
            if B.shape[1] < len(g):
                continue
            if idx:
                Xo = X[:, idx]
                M = B.conj().T @ (Xo @ Xo.conj().T) @ B
            else:
                M = np.zeros((B.shape[1], B.shape[1]))
            ww, vv = np.linalg.eigh((M + M.conj().T) / 2)
            for slot, i in enumerate(g):
                X[:, i] = B @ vv[:, slot]

    def descent(i, inner):
        idx = [j for j in range(k) if j != i]
        if not idx:
            return
        C = X[:, idx] @ X[:, idx].conj().T

        def conflict(t):
            x = _top_eigvec(hm, km, t)
            return float(np.real(x.conj() @ C @ x)), x

        d = 2 * np.pi / max(params.grid_size, 64)
        t0 = thetas[i]
        f0, x0 = conflict(t0)
        for _ in range(inner):
            fm, xm = conflict(t0 - d)
            fp, xp = conflict(t0 + d)
            bt, bf, bx = t0, f0, x0
            if fm < bf:
                bt, bf, bx = t0 - d, fm, xm
            if fp < bf:
                bt, bf, bx = t0 + d, fp, xp
            denom = fm - 2 * f0 + fp
            if denom > 1e-300:
                step = float(np.clip(0.5 * d * (fm - fp) / denom, -4 * d, 4 * d))
                ft, xt = conflict(t0 + step)
                if ft < bf:
                    bt, bf, bx = t0 + step, ft, xt
            moved = abs(bt - t0)
            t0, f0, x0 = bt, bf, bx
            d = min(d * 2.5, 0.25) if moved >= 1.5 * d else max(d * 0.25, 1e-13)
            if d <= 1e-12:
                break
        thetas[i] = t0
        X[:, i] = x0
        bases[i] = x0[:, None]

    def residuals(Xc):
        out = []
        for i in range(k):
            for j in range(i + 1, k):
                z = np.vdot(Xc[:, i], Xc[:, j])
                out.extend([z.real, z.imag])
        return np.array(out)

    def gauss_newton(iters):
        h = 1e-7
        for _ in range(iters):
            r = residuals(X)
            rmax = np.max(np.abs(r)) if len(r) else 0.0
            if rmax < 5e-15:
                return
            jac = np.zeros((len(r), len(free)))
            for col, i in enumerate(free):
                Xp = X.copy()
                Xp[:, i] = _top_eigvec(hm, km, thetas[i] + h, ref=X[:, i])
                jac[:, col] = (residuals(Xp) - r) / h
            delta, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            nrm = float(np.linalg.norm(delta))
            if not np.isfinite(nrm) or nrm == 0.0:
                return
            if nrm > 0.1:
                delta = delta * (0.1 / nrm)
            trial_t = thetas.copy()
            trial_x = X.copy()
            for col, i in enumerate(free):
                trial_t[i] = thetas[i] + delta[col]
                trial_x[:, i] = _top_eigvec(hm, km, trial_t[i], ref=X[:, i])
            if np.max(np.abs(residuals(trial_x))) < rmax:
                for col, i in enumerate(free):
                    thetas[i] = trial_t[i]
                    X[:, i] = trial_x[:, i]
                    bases[i] = X[:, i][:, None]
            else:
                return

    warmup = max(2, params.sweeps // 15)
    for _ in range(warmup):
        align_groups()
        for i in free:
            descent(i, inner=8)
        if gram_res(X) < 5e-15:
            break
    if free and gram_res(X) >= 5e-15:
        for _ in range(3):
            gauss_newton(iters=max(8, params.sweeps // 4))
            if gram_res(X) < 5e-15:
                break
            align_groups()
            for i in free:
                descent(i, inner=4)
    align_groups()
    return gram_res(X), X, thetas, _boundary_residuals(m_mat, X, thetas, sf)


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
    m = as_square_matrix(a)
    n = m.shape[0]
    if n == 1:
        return OracleResult(1, np.ones((1, 1), dtype=complex), np.zeros(1), 0.0, np.zeros(1), {})
    field_ = boundary_vector_field(m, grid_size=params.grid_size, tol=tol)
    sf = field_.support
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
