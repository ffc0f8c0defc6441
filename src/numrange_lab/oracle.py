"""Theorem-independent search for orthonormal boundary families, and the
certified cover that bounds their size.

The Gau-Wu number is the size of the largest orthonormal set whose image
under f_A(x) = x* A x lies on the boundary of W(A).  Every admissible vector
is a top eigenvector of Re(e^{-i theta} A) for some theta, so the search
space is the curve x(theta) of top eigenvectors plus the multiple top
eigenspaces at events.

Upper bound: ``boundary_cover`` covers x(theta) by nodes whose radii are
certified by the Davis-Kahan sin theta theorem (SIAM J. Numer. Anal. 7,
1970), bisecting cells as in Lipschitz covering (Shubert, SIAM J. Numer.
Anal. 9, 1972).  An orthonormal boundary family lies within the radii of a
clique of the nodes' orthogonality graph, so a graph without a triangle
proves k(A) <= 2, and the orthonormal pair that every matrix has
(``numrange._split_witness``) reaches it.  The cover declines at events,
at a triangle and when its node budget runs out.

Lower bound: nodes spaced evenly in arc length stand for the curve within
their radii, and overlaps are 1-Lipschitz in arc length (Piyavskii,
Shubert), so an orthonormal boundary family on the covered arcs lies within
the radii of a clique of one orthogonality graph.  These radii come from
chords, which bound arc length from below, so they only seed the search:
the arcs leave out the event directions and the turns of avoided crossings
narrower than the bisection resolution, which no node covers.  Node-disjoint
cliques of each size, best largest overlap first, are polished by
alternating exact eigenspace steps with Levenberg-Marquardt steps in the
free directions, on analytic top-eigenvector derivatives.  Families are
reported only with their Gram and boundary residuals, never by
extrapolation, so a search result alone is a lower bound; with a proved
cover (``OracleResult.k_upper``) the value 2 is exact.  Families, checked
witnesses and restricted contacts meet one bound (``numrange.boundary_bound``).
The searches take a matrix or its SupportFunction, reusing a matching sweep.

One pencil has one search graph: on a SupportFunction's own grid the event
list, the cover, the candidate field and the clique table grown from it are
built once and kept with the SupportFunction, so the three-line search of
``classify.ka3_check`` and ``verify`` above its k share one event scan, one
cover, one arc-node field and one graph, whose clique levels ``verify``
extends.  The thresholds are the fixed ones of ``ToleranceConfig``, so no
search takes a tolerance.  Not shared: an escalated grid is a new
SupportFunction with its own graph, a restricted search's field depends on
its ambient and is built per call (``restricted_max_set``, from the same
``_field`` as ``boundary_vector_field``), and the ambient of a direct sum is
a sweep of its own (``reduction.dirsum_gauwu``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import (SCALAR_GUARD, DimensionError, Normalisation, ToleranceConfig, _pencil_at, as_square_matrix,
                     hermitian_parts, matrix_scale, normalise, safe_norm)
from .numrange import (SupportFunction, _ambient_gap, _pencil_derivatives, _refined_minima, _split_witness,
                       _top_cluster_basis, boundary_bound, boundary_residuals, relative_share, support_function,
                       top_gap_events)
from .results import Witness

MIN_GRID_SIZE = 64
ARC_ROUNDS = 8  # cap on the bisection rounds of the arc-length grid, one stacked eigh each
MAX_ARC_NODES = 1024  # bounds the graph's n_nodes^2 arrays on escalated and user-set grids
CLIQUE_CHUNK = 1 << 20  # graph cells one clique-extension step holds at a time
MAX_CLIQUES = 32768  # cliques kept per size; the largest level measured, on a 6x6 near-normal input, has 29,064
TOP_GAP_FLOOR = 1e-12  # relative to ||A||: top gaps below it are raised to it in x'(theta)
COVER_START = 64  # solved members of the first cover; with their half-turn mirrors, 128 directions
COVER_RADIUS = 0.05  # a cell whose certified radius is larger, or unbounded, is bisected
COVER_ROUNDS = 30  # cap on the cover's bisection rounds, one stacked eigh each
COVER_NODES = 512  # cap on the cover's nodes, which bounds its node x node arrays


@dataclass(frozen=True)
class SearchParams:
    grid_size: int = 1024
    attempts_per_size: int = 24
    sweeps: int = 60  # iteration budget of one starting set's Levenberg-Marquardt loop

    def escalate(self) -> "SearchParams":
        return replace(
            self,
            grid_size=self.grid_size * 4,
            attempts_per_size=self.attempts_per_size * 3,
            sweeps=self.sweeps * 2,
        )


@dataclass(frozen=True)
class Candidate:
    theta: float
    vec: np.ndarray
    basis: np.ndarray  # n x d top-cluster basis at theta
    pinned: bool  # True for multiplicity events: theta stays fixed
    radius: float = 0.0  # arc of x(theta) this candidate stands for (free arc nodes)


@dataclass
class BoundaryVectorField:
    """The search's candidates of the matrix ``a``, in order, with the clique
    table of their orthogonality graph (``cliques``), built on first use and
    grown as larger cliques are asked for.  It holds the matrix rather than
    its SupportFunction, whose memo keeps it."""

    a: np.ndarray
    candidates: list
    events: list
    turns: list  # (theta_lo, theta_hi) of the turns that the arc nodes leave uncovered

    @cached_property
    def _table(self) -> "_CliqueTable":
        return _CliqueTable(self.candidates)

    def cliques(self, largest: int):
        """The candidates' orthogonality graph and its cliques.

        Returns, per size 1, 2, ... up to ``largest`` while any exist, the
        cliques as rows of ascending indices, sorted by their largest pair
        measure, every size above 1 cut to the best MAX_CLIQUES; and the sizes
        that were cut.

        A pair's measure is its overlap |<x_i, x_j>|, or ||P_E x|| for a column
        of a multi-dimensional pinned eigenspace E (columns of one E are
        adjacent).  A pair is adjacent when its measure is at most the sum of
        the radii plus gram_tol.  Each size extends the kept cliques of the
        size below by their common neighbours of larger index, one AND per
        member, on chunks of at most CLIQUE_CHUNK graph cells, cutting as it
        goes.  Since a clique's measure is at least that of each of its
        subcliques, every clique whose measure is below that of all cut
        cliques is kept.

        A level depends only on the level below and the graph, so a later call
        for a larger size appends to the table and returns what a fresh build
        would (the triple search builds sizes 1-3 and ``verify`` on the same
        pencil extends them to 4).
        """
        self._table.grow(largest)
        return self._table.levels[:largest], [s for s in self._table.capped if s <= largest]


@dataclass(frozen=True)
class Cover:
    """The certified cover of x(theta) that ``boundary_cover`` built.

    ``status`` is "proved" when every cell is certified and the nodes'
    orthogonality graph has no triangle, so that k(A) <= 2 (``k_upper``; k = n
    for n <= 2); otherwise it names why the cover declined: "event" (a
    multiple top eigenvalue), "triangle" or "budget" (COVER_ROUNDS or
    COVER_NODES reached).  A proved cover keeps its cells in angular order
    from -pi / (2 COVER_START), where the first starting cell begins: cell i
    is the node direction ``thetas[i]`` +- ``widths[i]``, with half-width
    pi / (2 COVER_START) / 2^``depths[i]`` after its bisections, and its
    certified chordal radius ``radii[i]``.  The cells tile the circle, so the
    depths alone fix the nodes, and ``to_dict`` reports them as one base-36
    digit per cell.  ``margin`` is the smallest excess of |x_i* x_j| over its
    edge limit among non-adjacent nodes: how near the graph came to one more
    edge.
    """

    n: int
    status: str
    rounds: int = 0
    thetas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    depths: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    radii: np.ndarray = field(default_factory=lambda: np.zeros(0))
    margin: float = np.inf

    @property
    def k_upper(self) -> Optional[int]:
        return min(self.n, 2) if self.status == "proved" else None

    @property
    def widths(self) -> np.ndarray:
        return np.pi / (2 * COVER_START) / 2.0 ** self.depths

    def to_dict(self) -> dict:
        out = {"status": self.status, "k_upper": self.k_upper, "rounds": self.rounds, "nodes": len(self.thetas)}
        if self.status == "proved" and len(self.thetas):
            out.update(largest_radius=float(np.max(self.radii)), margin=float(self.margin),
                       depths="".join("0123456789abcdefghijklmnopqrstuvwxyz"[d] for d in self.depths.tolist()))
        return out


@dataclass
class OracleResult:
    k_lower: int
    vectors: np.ndarray  # n x k orthonormal columns
    thetas: np.ndarray
    gram_residual: float
    boundary_residuals: np.ndarray
    floors: dict  # size -> best (failed) gram residual seen at that size
    capped: list = field(default_factory=list)  # sizes whose clique list was cut to MAX_CLIQUES
    cover: Optional[Cover] = None  # the cover built for this result, proved or not

    @property
    def k_upper(self) -> Optional[int]:
        """2 when the cover proves k <= 2, else None: no bound below n."""
        return None if self.cover is None else self.cover.k_upper

    def to_dict(self) -> dict:
        return {
            "k_lower": int(self.k_lower),
            "k_upper": self.k_upper,
            "gram_residual": float(self.gram_residual),
            "boundary_residuals": [float(b) for b in self.boundary_residuals],
            "thetas": [float(t) for t in self.thetas],
            "floors": {str(k): (None if not np.isfinite(v) else float(v)) for k, v in self.floors.items()},
            "capped": [int(s) for s in self.capped],
            "cover": None if self.cover is None else self.cover.to_dict(),
        }


def in_caller_units(res: OracleResult, norm: Optional[Normalisation]) -> OracleResult:
    """``res``, found for norm.m, with its boundary residuals in the units of
    the matrix that ``norm`` normalised (unchanged for None); its vectors,
    angles and Gram residual are the same for both."""
    return res if norm is None else replace(res, boundary_residuals=norm.scale * res.boundary_residuals)


def _entry(a, grid_size: int):
    """(SupportFunction, Normalisation or None) of an entry's argument: a
    matrix is normalised first, a SupportFunction is used as built."""
    if isinstance(a, SupportFunction):
        return support_function(a, grid_size), None
    norm = normalise(a)
    return SupportFunction(norm.m, grid_size), norm


def boundary_cover(a) -> Cover:
    """A certified cover of the top-eigenvector curve x(theta), which proves
    k(A) <= 2 when its orthogonality graph has no triangle.

    It runs on A0 = (A - (tr A / n) I) / ||A - (tr A / n) I||_F, so that every
    member B(theta) = Re(e^{-i theta} A0) has lambda_max >= 0 and
    ||B(theta)|| <= ||A0||_2 <= 1.  A node at theta_a, with top eigenpair
    (lam, x), second eigenvalue lam2, B' = dB/dtheta there and
    c = ||(I - xx*) B' x||, stands for its cell |Delta| <= d.  In the cell,
    B(theta_a + Delta) = cos(Delta) B + sin(Delta) B', so x has Rayleigh
    quotient rho >= cos(d) lam - sin(d) |x* B' x| and residual at most
    sin(d) c, while lambda_{n-1} <= lam2 + 2 sin(d / 2) (Weyl).  With
    delta = rho - lambda_{n-1} > 0 the top eigenvalue is simple, and the
    angle phi from x to its eigenvector has sin(phi) <= sin(d) c / delta
    (Davis-Kahan sin theta); the node's radius is the chordal 2 sin(phi / 2).
    Both delta and the radius carry a slack of 8 eps n.

    Members of an orthonormal family in the cells of nodes i and j have
    |x_i* x_j| <= r_i + r_j + r_i r_j, so one cell holds one member at most
    (r < sqrt(2) - 1), and nodes whose overlap is at most that plus gram_tol
    are adjacent: k(A) is at most the largest clique.  The cover starts from
    COVER_START solved members and their half-turn mirrors, with cells
    symmetric about their nodes, and bisects every cell whose radius is
    unbounded or above COVER_RADIUS, for at most COVER_ROUNDS rounds and
    COVER_NODES nodes.  After each round the graph of the nodes certified so
    far is checked for a triangle, ((M @ M) * M).sum() > 0 on the new rows,
    and the first ends the cover.  A multiple top eigenvalue
    (``top_gap_events``) would need a subspace node, so the cover declines
    at any event.  Every matrix of size n <= 2 has k = n.  The cover is
    memoised on the SupportFunction.
    """
    sf = a if isinstance(a, SupportFunction) else SupportFunction(a)
    key = "boundary_cover"
    if key not in sf._memo:
        n = sf.a.shape[0]
        if n <= 2:
            sf._memo[key] = Cover(n, "proved")
        elif top_gap_events(sf):
            sf._memo[key] = Cover(n, "event")
        else:
            sf._memo[key] = _cover(sf.a)
    return sf._memo[key]


def _cell_radii(width, lam, lam2, along, across, slack):
    """Certified chordal radii of the cells of half-width ``width`` (inf where
    unbounded), from each node's top two eigenvalues and |x* B' x|, c
    (``boundary_cover``)."""
    sd = np.sin(width)
    delta = np.cos(width) * lam - sd * along - lam2 - 2 * np.sin(width / 2) - slack
    s = np.divide(sd * across, delta, out=np.full_like(delta, np.inf), where=delta > 0)
    return np.where(s < 1, 2 * np.sin(np.arcsin(np.minimum(s, 1.0)) / 2) + slack, np.inf)


def _cover(m) -> Cover:
    """The cover of ``boundary_cover`` for an n >= 3 matrix without events."""
    n = m.shape[0]
    a0 = m - np.trace(m) / n * np.eye(n)
    h, k = hermitian_parts(a0 / safe_norm(a0))
    slack = 8 * np.finfo(float).eps * n
    half = np.arange(COVER_START) * np.pi / COVER_START
    w, v = np.linalg.eigh(_pencil_at(h, k, half))
    # B(theta + pi) = -B(theta): its top pair is the bottom pair at theta, negated
    thetas = np.concatenate([half, half + np.pi])
    x = np.concatenate([v[:, :, -1], v[:, :, 0]])
    lam, lam2 = np.concatenate([w[:, -1], -w[:, 0]]), np.concatenate([w[:, -2], -w[:, 1]])
    unit = np.pi / (2 * COVER_START)  # half-width of a starting cell; one of depth d has unit / 2^d
    depth = np.zeros(len(thetas), dtype=int)
    done_t, done_d, done_r, done_x = np.zeros(0), np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, n), dtype=complex)
    excess = np.zeros((0, 0))  # |x_i* x_j| minus the edge limit, between certified nodes
    rounds = 0
    while True:
        y = np.einsum("fij,fj->fi", _pencil_at(k, -h, thetas), x)
        along = np.einsum("fi,fi->f", x.conj(), y)
        across = np.linalg.norm(y - along[:, None] * x, axis=1)
        r = _cell_radii(unit / 2.0 ** depth, lam, lam2, np.abs(along), across, slack)
        ok = r <= COVER_RADIUS
        if ok.any():
            rn, xn = r[ok], x[ok]
            both = np.concatenate([done_r, rn])
            limit = rn[:, None] + both + rn[:, None] * both + ToleranceConfig.gram_tol
            rows = np.abs(xn.conj() @ np.concatenate([done_x, xn]).T) - limit
            excess = np.block([[excess, rows[:, :len(done_r)].T], [rows]])
            done_t, done_d = np.concatenate([done_t, thetas[ok]]), np.concatenate([done_d, depth[ok]])
            done_r, done_x = both, np.concatenate([done_x, xn])
            adj = (excess <= 0).astype(float)
            new = adj[len(done_r) - len(rn):]
            if ((new @ adj) * new).sum() > 0:
                return Cover(n, "triangle", rounds)
        bad = ~ok
        if not bad.any():
            order = np.argsort(done_t)  # the cells tile [-unit, 2 pi - unit)
            return Cover(n, "proved", rounds, done_t[order], done_d[order], done_r[order],
                         float(np.min(excess[excess > 0], initial=np.inf)))
        if rounds == COVER_ROUNDS or len(done_r) + 2 * np.count_nonzero(bad) > COVER_NODES:
            return Cover(n, "budget", rounds)
        quarter = unit / 2.0 ** (depth[bad] + 1)
        thetas = np.concatenate([thetas[bad] - quarter, thetas[bad] + quarter])
        depth = np.tile(depth[bad] + 1, 2)
        w, v = np.linalg.eigh(_pencil_at(h, k, thetas))
        x, lam, lam2 = v[:, :, -1], w[:, -1], w[:, -2]
        rounds += 1


def boundary_vector_field(a, grid_size: int = 1024) -> BoundaryVectorField:
    """Candidates of the search: pinned top eigenspaces and free arc nodes.

    Pinned are the columns of each event's top eigenspace and the top vectors
    opposite each event.  Free are ``grid_size // 4`` arc nodes, at most
    MAX_ARC_NODES (``_arc_nodes``), whose radii cover x(theta) except at the
    events and inside ``turns``, the avoided crossings too narrow for the
    bisection.  The field is memoised on the SupportFunction, so the
    three-line search and ``verify`` on one pencil share its candidates and
    their clique table.
    """
    sf = support_function(a, grid_size)
    if "boundary_vector_field" not in sf._memo:
        sf._memo["boundary_vector_field"] = _field(sf)
    return sf._memo["boundary_vector_field"]


def _field(sf: SupportFunction, usable=True, contacts=()) -> BoundaryVectorField:
    """The field of ``sf``: the event candidates, the pinned ``contacts`` and
    the arc nodes on the ``usable`` grid directions (a mask, all when True)
    whose top eigenvalue is simple (a multiple one is an event's)."""
    if sf.grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be at least {MIN_GRID_SIZE}")
    n = sf.a.shape[0]
    if n == 1:
        raise DimensionError("a 1x1 matrix has no curve of top eigenvectors; its point is its one vector")
    split = ToleranceConfig.split_tol * matrix_scale(sf.a)
    events = top_gap_events(sf)
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
    usable = usable & (sf.grid_eigvals[:, -1] - sf.grid_eigvals[:, -2] > split)
    nodes, turns = _arc_nodes(sf, usable, events, min(sf.grid_size // 4, MAX_ARC_NODES))
    return BoundaryVectorField(sf.a, cands + list(contacts) + nodes, events, turns)


def _arc_nodes(sf: SupportFunction, usable: np.ndarray, events: list, count: int):
    """``count`` top vectors spaced evenly in arc length along x(theta), at
    least gram_tol apart (closer nodes are interchangeable to the edges),
    and the (theta_lo, theta_hi) steps left as turns.

    Arc length sums the phase-free chords sqrt(2 - 2|<x_s, x_s+1>|) between
    neighbouring samples, from the grid of ``sf``.  A step is a jump, not
    arc, when an end is not ``usable`` or it holds the direction of one of
    the ``events``.  Each of at most ARC_ROUNDS rounds bisects every arc
    step whose chord exceeds the node spacing, with one stacked ``eigh``; a
    step still wider after them, narrower than 2 pi / (grid_size 2^ARC_ROUNDS),
    is the turn of an avoided crossing, a jump like an event.  Each arc gets
    evenly spaced nodes, at least one, snapped to samples; a node's radius is
    half the arc to its farther neighbour node (an arc end counts at twice
    its distance), so the radii cover the arcs, and only the arcs.
    """
    t, x, ok = sf.thetas, sf.top_vectors, usable
    jump = ~usable | ~np.roll(usable, -1)
    near_cuts = np.mod([ev.theta for ev in events], 2 * np.pi)[:, None] + np.array([-1e-9, 1e-9])
    jump[np.floor(near_cuts * sf.grid_size / (2 * np.pi)).astype(int).ravel() % sf.grid_size] = True
    for rnd in range(ARC_ROUNDS + 1):
        chord = np.sqrt(np.maximum(2 - 2 * np.abs(np.sum(x.conj() * np.roll(x, -1, axis=0), axis=1)), 0.0))
        chord[jump] = 0.0
        spacing = max(chord.sum() / count, ToleranceConfig.gram_tol)
        wide = np.nonzero(chord > spacing)[0]
        if rnd == ARC_ROUNDS or not len(wide):
            break
        mids = t[wide] + np.mod(np.roll(t, -1)[wide] - t[wide], 2 * np.pi) / 2
        xm = np.linalg.eigh(_pencil_at(sf.h, sf.k, mids))[1][:, :, -1]
        t, x = np.insert(t, wide + 1, mids), np.insert(x, wide + 1, xm, axis=0)
        ok, jump = np.insert(ok, wide + 1, True), np.insert(jump, wide + 1, False)
    turns = [(float(np.mod(t[i], 2 * np.pi)), float(np.mod(t[(i + 1) % len(t)], 2 * np.pi))) for i in wide]
    jump[wide], chord[wide] = True, 0.0
    if not jump.any():  # a closed curve: cut it at sample 0, repeated at the end
        t, x, ok, chord = np.append(t, t[0]), np.vstack([x, x[:1]]), np.append(ok, True), np.append(chord, 0.0)
        jump = np.append(jump, True)
    # roll so that the last step is a jump: every arc is then a run of samples
    r = (np.argmax(jump) + 1) % len(t)
    t, x, ok, chord, jump = (np.roll(v, -r, axis=0) for v in (t, x, ok, chord, jump))
    arc = np.concatenate([[0.0], np.cumsum(chord)])
    # the spacing and the arc lengths come from one cumulative sum, so that a
    # closed curve's one arc is count spacings long exactly for a power-of-two
    # count (every default and escalated grid), at any scale
    spacing = max(arc[-1] / count, ToleranceConfig.gram_tol)
    first, last = np.nonzero(np.concatenate([[True], jump[:-1]]))[0], np.nonzero(jump)[0]
    first, last = first[ok[first]], last[ok[first]]
    start, length = arc[first], arc[last] - arc[first]
    per = np.maximum(1, np.ceil(length / spacing)).astype(int)
    seg = np.repeat(np.arange(len(first)), per)
    target = start[seg] + (np.arange(len(seg)) - np.repeat(np.cumsum(per) - per, per) + 0.5) * (length / per)[seg]
    hi = np.clip(np.searchsorted(arc[:-1], target), first[seg], last[seg])
    lo = np.clip(hi - 1, first[seg], last[seg])
    idx = np.where(target - arc[lo] <= arc[hi] - target, lo, hi)
    fresh = np.diff(idx, prepend=-1) != 0
    idx, seg = idx[fresh], seg[fresh]
    pos = arc[idx]
    head, tail = np.diff(seg, prepend=-1) != 0, np.diff(seg, append=-1) != 0
    before = np.where(head, 2 * (pos - start[seg]), pos - np.roll(pos, 1))
    after = np.where(tail, 2 * (start[seg] + length[seg] - pos), np.roll(pos, -1) - pos)
    radius = np.maximum(before, after) / 2
    nodes = [Candidate(float(np.mod(t[i], 2 * np.pi)), x[i], x[i, :, None], False, float(rad)) for i, rad in zip(idx, radius)]
    return nodes, turns


def _graph(cands: list):
    """(measure, upper) of the candidates' orthogonality graph: the pair
    measures and the adjacency above the diagonal (see
    ``BoundaryVectorField.cliques``)."""
    vecs = np.column_stack([c.vec for c in cands])
    measure, group, spaces = np.abs(vecs.conj().T @ vecs), np.arange(len(cands)), {}
    for i, c in enumerate(cands):
        if c.pinned and c.basis.shape[1] > 1:
            group[i] = len(cands) + spaces.setdefault(id(c.basis), len(spaces))
    same = group[:, None] == group[None, :]
    overlap = measure[same]
    for i in np.flatnonzero(group >= len(cands)):
        measure[i] = np.maximum(measure[i], np.linalg.norm(cands[i].basis.conj().T @ vecs, axis=0))
    np.maximum(measure, measure.T, out=measure)
    measure[same] = overlap
    radius = np.array([c.radius for c in cands])
    limit = np.add.outer(radius, radius)
    limit += ToleranceConfig.gram_tol
    upper = measure <= limit
    upper |= same
    return measure, np.triu(upper, 1)


class _CliqueTable:
    """Clique levels of one orthogonality graph, grown one size at a time
    (``BoundaryVectorField.cliques``); it keeps only the graph and the levels."""

    def __init__(self, cands: list):
        self.measure, self.upper = _graph(cands)
        self.levels, self.capped = [np.arange(len(cands), dtype=np.int32)[:, None]], []  # node indices < 2**31
        self.worst = np.zeros(len(cands))  # largest pair measure of each clique of the top level
        self.complete = False  # the size above the top level has no clique

    def _best(self, parts):
        level, worst = (np.concatenate(v) for v in zip(*parts))
        order = np.argsort(worst, kind="stable")[:MAX_CLIQUES]
        return level[order], worst[order]

    def grow(self, largest: int) -> None:
        """Append levels until ``largest`` or the first size without a clique."""
        upper, measure = self.upper, self.measure
        chunk = max(1, CLIQUE_CHUNK // len(upper))
        while not self.complete and len(self.levels) < largest:
            level, worst = self.levels[-1], self.worst
            parts, found = [], 0
            for lo in range(0, len(level), chunk):
                part = level[lo:lo + chunk]
                common = upper[part[:, 0]]
                for col in part.T[1:]:
                    common &= upper[col]
                rows, cols = np.divmod(np.flatnonzero(common), common.shape[1])
                w = worst[lo + rows]
                for col in part.T:
                    w = np.maximum(w, measure[col[rows], cols])
                parts.append((np.column_stack([part[rows], cols.astype(np.int32)]), w))
                found += len(rows)
                if sum(len(p[1]) for p in parts) > 2 * MAX_CLIQUES:
                    parts = [self._best(parts)]
            if not found:
                self.complete = True
                break
            if found > MAX_CLIQUES:
                self.capped.append(level.shape[1] + 1)
            level, self.worst = self._best(parts)
            self.levels.append(level)


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
    free = [g[0] for g in group_list if len(g) == 1 and not members[g[0]].pinned]
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

    floor = TOP_GAP_FLOOR * matrix_scale(m_mat)
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
    return res, X, thetas, boundary_residuals(m_mat, X, thetas, sf)


def _search(field_: BoundaryVectorField, support: SupportFunction, params: SearchParams, sizes,
            accept: Optional[Callable] = None) -> OracleResult:
    """Graph -> clique -> refine core shared by the full and the restricted search.

    The starting sets of each size are the cliques of the orthogonality graph
    of the field's candidates (``BoundaryVectorField.cliques``).  Largest
    size first, up to ``attempts_per_size`` cliques of each size are refined
    in their order, each passing over the cliques that share a node with it:
    a node stands for its stretch of the curve, so the starts are
    node-disjoint.  The
    first size with a family whose Gram residual beats ``gram_tol`` and
    whose members lie on the boundary of ``support`` wins; its attempts stop
    at the first refinement that does not improve on its best family.
    Only the descending ``sizes`` are tried, so cliques are built up to the
    first of them, or taken from the field's clique table when an earlier
    search on the same field built them; ``accept(vectors, thetas)`` can
    reject a family that passes.  With no family of these sizes the result
    has k_lower = 0.
    """
    m, cands = field_.a, field_.candidates
    n = m.shape[0]
    levels, capped = field_.cliques(sizes[0]) if cands else ([], [])
    btol = boundary_bound(support)

    floors: dict = {}
    for size in [s for s in sizes if s <= len(levels)]:
        level, best = levels[size - 1], None
        for _ in range(params.attempts_per_size):
            if not len(level):
                break
            combo, level = level[0], level[1:]
            level = level[~np.isin(level, combo).any(axis=1)]  # one start per node and size
            res, X, thetas, bres = _refine_set(m, [cands[i] for i in combo], support, params)
            if best is not None and res >= best[0]:
                break  # a family is found and a further start no longer improves on it
            ok = res <= ToleranceConfig.gram_tol and np.all(bres <= btol)
            if ok and accept is not None:
                ok = bool(accept(X, thetas))
            if ok:
                best = (res, X, thetas, bres)
                if res < 1e-12:
                    break
            else:
                floors[size] = min(floors.get(size, np.inf), res)
        if best is not None:
            res, X, thetas, bres = best
            floors.setdefault(size + 1, np.inf)
            return OracleResult(size, X, thetas, res, bres, floors, capped)
    return OracleResult(0, np.zeros((n, 0)), np.zeros(0), 0.0, np.zeros(0), floors, capped)


def max_orthonormal_boundary_set(a, params: SearchParams = SearchParams()) -> OracleResult:
    """Constructive lower bound for the Gau-Wu number, exact when the cover
    proves k <= 2.

    A proved ``boundary_cover`` ends the search before it starts: the result
    is the orthonormal pair every matrix has (``_split_witness``), with
    k_lower = k_upper = 2.  Otherwise the cliques of the orthogonality graph
    of the boundary vector field are the starting sets (``_search``); up to
    ``params.attempts_per_size`` node-disjoint ones of each size are refined,
    and the largest family whose final Gram residual beats ``gram_tol`` wins,
    the pair when none does.  The result keeps its cover.  ``capped`` in the
    result lists the clique sizes that MAX_CLIQUES cut.  A
    matrix is normalised first (``_entry``), and the residuals are reported
    in its units.  A diameter of W below SCALAR_GUARD * n * eps times its
    radius means a scalar matrix up to rounding (``normalise`` makes one
    exactly zero): W is a point, and every basis is a family.
    """
    sf, norm = _entry(a, params.grid_size)
    m = sf.a
    n = m.shape[0]
    if _is_point(sf):
        return in_caller_units(OracleResult(n, np.eye(n, dtype=complex), np.zeros(n), 0.0, np.zeros(n), {}), norm)
    cover = boundary_cover(sf)
    found = OracleResult(0, np.zeros((n, 0)), np.zeros(0), 0.0, np.zeros(0), {})
    if cover.k_upper is None:
        found = _search(boundary_vector_field(sf, params.grid_size), sf, params, range(n, 1, -1))
    if not found.k_lower:
        pair = _split_witness(m, 0.0)  # the orthonormal pair every matrix has
        found = OracleResult(2, pair.vectors, pair.thetas, 0.0, boundary_residuals(m, pair.vectors, pair.thetas, sf),
                             found.floors, found.capped)
    return in_caller_units(replace(found, cover=cover), norm)


def _is_point(sf: SupportFunction) -> bool:
    """W is a point up to rounding: its diameter is below SCALAR_GUARD n eps
    times its radius."""
    return sf.diameter() <= SCALAR_GUARD * sf.a.shape[0] * np.finfo(float).eps * sf.radius


def restricted_max_set(block, ambient: SupportFunction, params: SearchParams = SearchParams(grid_size=512)):
    """Largest orthonormal family of the block landing on the ambient boundary.

    The search's field (``_field``) has its arc nodes only on the grid
    directions where the block's supporting line touches the ambient
    boundary, the gap g of ``numrange._ambient_gap`` within ``boundary_bound``,
    and pins the refined contacts that the grid leaves out: the 8 lowest
    grid minima of g that can reach the bound, once the samples already in
    the arcs are set to +inf (the arcs' ends and the tangencies that the grid
    straddles).  Refined members are checked against the ambient boundary;
    may return 0 (blocks buried in the interior contribute nothing).  A 1x1
    block counts 1 when its point lies on the ambient boundary and 0
    otherwise (``relative_share``).  Returns (count, vectors, thetas).
    """
    m = as_square_matrix(block)
    if m.shape[0] == 1:
        share, _, build = relative_share(m, ambient)
        w = build()
        return share, w.vectors, w.thetas
    sf = SupportFunction(m, params.grid_size)
    g, pieces, lipschitz = _ambient_gap(sf, ambient)
    btol = boundary_bound(ambient)
    contacts = []
    for t, val in _refined_minima(pieces, sf.thetas, np.where(g <= btol, np.inf, g), 2 * np.pi / sf.grid_size,
                                  ambient.radius, lipschitz, btol, 8):
        if val <= btol:
            top = np.linalg.eigh(_pencil_at(sf.h, sf.k, t))[1][:, -1:]
            contacts.append(Candidate(theta=float(t), vec=top[:, 0], basis=top, pinned=True))
    found = _search(_field(sf, g <= btol, contacts), ambient, params, range(m.shape[0], 0, -1))
    return found.k_lower, found.vectors, found.thetas


def _checked(sf: SupportFunction, witness: Witness, claimed_k: int) -> Optional[OracleResult]:
    """``check_witness`` on the matrix of ``sf``, in its units."""
    X, thetas = witness.vectors, witness.thetas
    if X.shape != (sf.a.shape[0], claimed_k) or thetas.shape != (claimed_k,):
        return None
    gram = float(np.max(np.abs(X.conj().T @ X - np.eye(claimed_k)), initial=0.0))
    bres = boundary_residuals(sf.a, X, thetas, sf)
    if gram > ToleranceConfig.gram_tol or np.any(bres > boundary_bound(sf)):
        return None
    return OracleResult(claimed_k, X, thetas, gram, bres, {})


def check_witness(a, witness: Witness, claimed_k: int) -> Optional[OracleResult]:
    """The witness as a search result when it reaches ``claimed_k``, else None.

    It reaches the claim when it is n x claimed_k, its Gram residual
    max |X*X - I| is at most gram_tol, and every column's boundary residual
    |p(theta_i) - Re(e^{-i theta_i} x_i* A x_i)| is at most boundary_tol times
    the diameter of W(A) (``numrange.boundary_bound``), the one bound that
    also decides the search's families and block shares.  A matrix is
    normalised first and the residuals are reported in its units.
    """
    sf, norm = _entry(a, 1024)
    res = _checked(sf, witness, claimed_k)
    return None if res is None else in_caller_units(res, norm)


@dataclass
class VerifyReport:
    match: bool
    status: str  # "match" | "oracle-exceeds-claim" | "search-below-claim" | "claim-above-bound"
    claimed_k: int
    oracle: OracleResult
    escalations: int
    witness_check: Optional[str] = None  # None without a witness, else "passed" | "failed"
    searched_sizes: tuple = ()  # the family sizes asked of the search, largest first

    @property
    def source(self) -> str:
        """Where ``oracle`` comes from: "witness" when the checked witness stands
        and nothing larger was found, "cover" when no search ran and the
        cover's pair is the family, else "search"."""
        if self.witness_check == "passed" and self.match:
            return "witness"
        return "cover" if not self.searched_sizes and self.oracle.k_upper is not None else "search"

    def provenance(self) -> dict:
        return {"k_lower_source": self.source, "witness_check": self.witness_check,
                "searched_sizes": [int(s) for s in self.searched_sizes]}

    def to_dict(self) -> dict:
        return {
            "match": self.match,
            "status": self.status,
            "claimed_k": self.claimed_k,
            "oracle": self.oracle.to_dict(),
            "escalations": self.escalations,
            **self.provenance(),
        }


def verify(a, claimed_k: int, params: SearchParams = SearchParams(), witness: Optional[Witness] = None) -> VerifyReport:
    """Check a claimed Gau-Wu value against the constructive search and the
    cover's upper bound.

    A ``witness`` that passes ``check_witness`` proves the claim reached.  A
    passing witness of 2 is exact when ``boundary_cover`` proves k <= 2, and
    nothing is searched; otherwise the search runs only for the sizes above
    the claim (none when it is n), without escalation: a family found there
    means the claim is too low ("oracle-exceeds-claim"), and otherwise the
    witness is the report's family.  A witness that fails the check is
    reported as failed, and the claim goes to the search as without one.

    Without a witness, ``max_orthonormal_boundary_set`` decides, and a result
    above the claim is a soundness failure (the witness set is explicit).  A
    result below the claim triggers escalation before the mismatch is
    reported ("search-below-claim"), since the search is only a lower bound,
    unless the cover's k_upper is already below the claim, which proves the
    claim too high ("claim-above-bound").  ``searched_sizes`` lists the sizes
    the search was asked for: none when the cover settled k.  A matrix is
    normalised once, and every search runs on the same m.
    """
    sf, norm = _entry(a, params.grid_size)
    n = sf.a.shape[0]
    if witness is not None and (reached := _checked(sf, witness, claimed_k)) is not None:
        sizes = tuple(range(n, claimed_k, -1))
        if sizes and claimed_k == 2:
            reached = replace(reached, cover=boundary_cover(sf))
            if reached.k_upper == 2:
                sizes = ()
        if sizes:
            above = _search(boundary_vector_field(sf, params.grid_size), sf, params, sizes)
            if above.k_lower:
                return VerifyReport(False, "oracle-exceeds-claim", claimed_k, in_caller_units(above, norm), 0,
                                    "passed", sizes)
            reached = replace(reached, floors=above.floors, capped=above.capped)
        return VerifyReport(True, "match", claimed_k, in_caller_units(reached, norm), 0, "passed", sizes)
    escalations = 0
    cur = params
    res = max_orthonormal_boundary_set(sf, cur)
    searched = () if _is_point(sf) or res.k_upper is not None else tuple(range(n, 1, -1))
    # a proved cover has k_upper = k_lower, below the claim here: no escalation reaches it
    while res.k_lower < claimed_k and escalations < 2 and res.k_upper is None:
        cur = cur.escalate()
        escalations += 1
        res = max_orthonormal_boundary_set(sf, cur)
    res = in_caller_units(res, norm)
    provenance = (None if witness is None else "failed", searched)
    if res.k_lower == claimed_k:
        return VerifyReport(True, "match", claimed_k, res, escalations, *provenance)
    if res.k_lower > claimed_k:
        return VerifyReport(False, "oracle-exceeds-claim", claimed_k, res, escalations, *provenance)
    below = "search-below-claim" if res.k_upper is None else "claim-above-bound"
    return VerifyReport(False, below, claimed_k, res, escalations, *provenance)
