"""Complete Gau-Wu classification of 4x4 matrices, and the routes of other sizes.

``classify_any`` is the one route table; ``classify`` is its 4x4 entry.  A
4x4 matrix is split when unitarily reducible (block additivity); for an
irreducible one k = 4 exactly when some rotation makes the Hermitian part
two-valued; otherwise k = 3 when the boundary carries an exceptional
supporting line (seed) or an orthonormal triple touching three distinct
supporting lines; else k = 2.  Each stage runs at most once and keeps what it
found in ``GauWuResult.work``; seeds, triple search and check share one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .linalg import (
    AffineMap,
    DEFAULT_TOL,
    DimensionError,
    Normalisation,
    ToleranceConfig,
    _pencil_at,
    affine_apply,
    affine_from_planar,
    as_square_matrix,
    hermitian_parts,
    matrix_scale,
    normalise,
)
from .arrowhead import (NotApplicableError, NotArrowheadError, arrowhead_from_dense, dichotomy_check,
                        gauwu_unbalanced_two, gauwu_with_zero_pairs, irreducible_dichotomous_check)
from .numrange import SupportFunction, _split_witness, detect_seeds, dichotomy_scan, support_function
from .oracle import (SearchParams, _search, boundary_cover, boundary_vector_field, in_caller_units,
                     max_orthonormal_boundary_set, verify)
from .reduction import commutant_dimension, decompose, dirsum_gauwu
from .results import (
    METHOD_ARROWHEAD,
    METHOD_DICHOTOMY,
    METHOD_DICHOTOMY4,
    METHOD_DIRECT_SUM,
    METHOD_FALLBACK2,
    METHOD_KA3,
    METHOD_ORACLE,
    METHOD_SEED3,
    GauWuResult,
    Witness,
)

LINE_ANGLE_TOL = 1e-6


class PreconditionError(ValueError):
    """The operation was called outside its contract."""


# ---------------------------------------------------------------------------
# k = 4: canonical dichotomous forms
# ---------------------------------------------------------------------------


@dataclass
class CanonicalK4Form:
    case: str  # "2+2" | "3+1"
    theta: float
    h_values: tuple
    unitary: np.ndarray
    params: dict
    clause: str


def k4_check(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Dichotomy test plus canonical-form extraction for irreducible 4x4.

    Returns (True, CanonicalK4Form) when a rotation produces a two-valued
    Hermitian part (which for an irreducible matrix is equivalent to k = 4),
    else (False, None).  ``classify_any`` needs only the test, not the form.
    """
    m = as_square_matrix(a)
    if m.shape[0] != 4:
        raise DimensionError("k4_check handles 4x4 matrices")
    if commutant_dimension(m) != 1:
        raise PreconditionError("input is unitarily reducible")
    scan = dichotomy_scan(m, tol=tol)
    if scan is None:
        return False, None
    theta, h0, h1, _ = scan
    h, k = hermitian_parts(m)
    w, v = np.linalg.eigh(_pencil_at(h, k, theta))
    lower = np.nonzero(np.abs(w - h0) < np.abs(w - h1))[0]
    upper = np.nonzero(np.abs(w - h0) >= np.abs(w - h1))[0]
    krot = _pencil_at(k, -h, theta)
    if len(lower) == 2:
        v_lo, v_hi = v[:, lower], v[:, upper]
        b = v_lo.conj().T @ krot @ v_hi
        ub, sb, vbh = np.linalg.svd(b)
        v_lo = v_lo @ ub
        v_hi = v_hi @ vbh.conj().T
        u = np.column_stack([v_lo, v_hi])
        kb = u.conj().T @ krot @ u
        s1, s2 = float(sb[0]), float(sb[1])
        k12, k34 = complex(kb[0, 1]), complex(kb[2, 3])
        ztol = tol.eq_tol * matrix_scale(m)
        if s2 <= ztol:
            clause = "single coupling with both in-block couplings nonzero"
        elif abs(s1 - s2) <= ztol:
            clause = "equal couplings with non-commuting half blocks"
        else:
            clause = "distinct couplings with an in-block coupling"
        params = {
            "h1": h0,
            "h2": h1,
            "sigma1": s1,
            "sigma2": s2,
            "K1": kb[:2, :2],
            "K2": kb[2:, 2:],
            "k12": k12,
            "k34": k34,
        }
        return True, CanonicalK4Form("2+2", float(theta), (h0, h1), u, params, clause)
    # 3 + 1 split
    if len(lower) == 3:
        v_tri, v_one = v[:, lower], v[:, upper]
        h_tri, h_one = h0, h1
    else:
        v_tri, v_one = v[:, upper], v[:, lower]
        h_tri, h_one = h1, h0
    k3 = v_tri.conj().T @ krot @ v_tri
    w3, q3 = np.linalg.eigh((k3 + k3.conj().T) / 2)
    v_tri = v_tri @ q3
    u = np.column_stack([v_tri, v_one])
    kb = u.conj().T @ krot @ u
    beta = kb[:3, 3]
    # np.angle(0) = 0, so a zero coupling keeps its vector
    phases = np.append(np.exp(-1j * np.angle(beta)), 1.0)
    u = u * phases[None, :].conj()
    kb = u.conj().T @ krot @ u
    params = {
        "h1": h_tri,
        "h2": h_one,
        "k_levels": [float(x) for x in w3],
        "k4": float(np.real(kb[3, 3])),
        "couplings": [float(abs(b)) for b in beta],
    }
    return True, CanonicalK4Form("3+1", float(theta), (h_tri, h_one), u, params, "arrowhead levels distinct, couplings nonzero")


# ---------------------------------------------------------------------------
# k = 3: three supporting lines and canonical forms
# ---------------------------------------------------------------------------


@dataclass
class SeedConditionReport:
    applies: bool
    t: Optional[float] = None
    lam: Optional[float] = None
    warning: Optional[str] = None


def extract_parallel_form(a, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[dict]:
    """Read canonical parallel-form parameters off a matrix already in that
    basis (H kernel at e1, H e3 = e3, K kernel at e2)."""
    m = as_square_matrix(a)
    if m.shape[0] != 4:
        return None
    h, k = hermitian_parts(m)
    if _parallel_residual(h, k) > 100 * tol.eq_tol * matrix_scale(m):
        return None
    return _parallel_params(h, k)


def _parallel_residual(h, k) -> float:
    """Largest defect of the parallel pattern H e1 = 0, H e3 = e3, K e2 = 0."""
    return float(np.max(np.abs([h[:, 0], h[:, 2] - np.eye(4)[2], k[:, 1]])))


def _parallel_params(h, k) -> dict:
    """The free entries of the parallel canonical form, read off H and K."""
    return {
        "h22": float(h[1, 1].real),
        "h24": complex(h[1, 3]),
        "h44": float(h[3, 3].real),
        "k11": float(k[0, 0].real),
        "k13": complex(k[0, 2]),
        "k14": complex(k[0, 3]),
        "k33": float(k[2, 2].real),
        "k34": complex(k[2, 3]),
        "k44": float(k[3, 3].real),
    }


def parallel_seed_condition(params: dict, tol: ToleranceConfig = DEFAULT_TOL) -> SeedConditionReport:
    """Exceptional-line test for the parallel canonical form.

    A unique pencil member K + tH can acquire a multiple extreme eigenvalue;
    the closed-form candidate (t, lambda) applies when the coupling product
    k13 * conj(k14) * k34 is real nonzero, the two bracketing quantities
    share a sign, and the 2x2 determinant identity holds.
    """
    k13, k14, k34 = params["k13"], params["k14"], params["k34"]
    scale = max(abs(k13), abs(k14), abs(k34), abs(params["k11"]))
    r = k13 * np.conj(k14) * k34
    if abs(r) <= (tol.eq_tol * scale) ** 3 * 1e3:
        return SeedConditionReport(False, warning="coupling product vanishes")
    if abs(r.imag) > tol.eq_tol * abs(r) * 100:
        return SeedConditionReport(False)
    q1 = k13 * k34 / k14
    q2 = np.conj(k13) * k14 / k34
    t = params["k11"] - params["k33"] + float((q1 - q2).real)
    lam = params["k11"] - float(q2.real)
    s1 = float((q1 + q2).real)
    s2 = t * params["h22"] - lam
    warning = None
    if abs(s1) <= tol.eq_tol * scale or abs(s2) <= tol.eq_tol * scale:
        warning = "sign condition is degenerate; deferring to the search"
    if s1 * s2 <= 0:
        return SeedConditionReport(False, t=t, lam=lam, warning=warning)
    h24 = params["h24"]
    det2 = (t * params["h22"] - lam) * (params["k44"] + t * params["h44"] - lam) - (
        t * h24
    ) * np.conj(t * h24)
    lhs = s1 * float(det2.real) if isinstance(det2, complex) else s1 * float(det2)
    rhs = s2 * (abs(k14) ** 2 + abs(k34) ** 2)
    ok = abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), scale**3)
    return SeedConditionReport(bool(ok), t=float(t), lam=float(lam), warning=warning)


@dataclass
class CanonicalKA3Form:
    case: str  # "parallel" | "nonparallel"
    affine: AffineMap
    unitary: np.ndarray
    params: dict
    pattern_residual: float
    conditions_ok: bool
    form_ok: bool
    triple: np.ndarray
    triple_thetas: np.ndarray
    seed_condition: Optional[SeedConditionReport] = None
    notes: list = field(default_factory=list)


def _distinct_lines(thetas, sf: SupportFunction, diam: float) -> bool:
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            d = abs(np.angle(np.exp(1j * (thetas[i] - thetas[j]))))
            if d < LINE_ANGLE_TOL:
                return False
            if abs(d - np.pi) < LINE_ANGLE_TOL:
                width = sf(float(thetas[i])) + sf(float(thetas[j]))
                if width <= 1e-6 * diam:
                    return False
    return True


def _normalizing_affine(thetas, ps):
    """Affine map sending the three supporting lines to canonical position.

    Parallel pair present: the pair goes to {x=0, x=1} and the crossing line
    to {y=0}; otherwise the lines go to {x=0}, {y=0}, {x+y=1}.  Returns
    (case, tau, order) with ``order`` the member indices mapped to the lines
    carrying e1, e2, e3 contacts respectively, or None for configurations
    whose outward normals fit in a half plane (no bounded canonical frame).
    """
    u = [np.array([np.cos(t), np.sin(t)]) for t in thetas]
    pair = None
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(abs(np.angle(np.exp(1j * (thetas[i] - thetas[j])))) - np.pi) < 1e-4:
                pair = (i, j)
    if pair is not None:
        i, j = pair
        kk = [x for x in range(3) if x not in pair][0]
        width_x = ps[i] + ps[j]
        if width_x <= 0:
            return None
        sx = 1.0 / width_x
        # the second row needs the crossing line's opposite support; the
        # caller supplies exact support values for refinement directions only,
        # so the scale of the y axis is free: pick 1 / (width + |p|), which
        # scales with the matrix as the x axis does
        s2 = 1.0 / (width_x + abs(ps[kk]))
        m = np.array([sx * u[j], -s2 * u[kk]])
        v = np.array([sx * ps[i], s2 * ps[kk]])
        tau = affine_from_planar(m, v)
        # e1 carries the x=0 contact (line i), e2 the y=0 contact, e3 the x=1
        return "parallel", tau, (i, kk, j)
    # nonparallel: roles L1 -> x=0, L2 -> y=0, L3 -> x+y=q
    i, j, kk = 0, 1, 2
    m2 = np.column_stack([u[i], u[j]])
    try:
        sol = np.linalg.solve(m2, -u[kk])
    except np.linalg.LinAlgError:
        return None
    if sol[0] <= 0 or sol[1] <= 0:
        return None
    s1, s2 = float(sol[0]), float(sol[1])
    m = np.array([-s1 * u[i], -s2 * u[j]])
    v = np.array([s1 * ps[i], s2 * ps[j]])
    q3 = ps[kk] + s1 * ps[i] + s2 * ps[j]
    if q3 <= 0:
        return None
    m = m / q3
    v = v / q3
    tau = affine_from_planar(m, v)
    return "nonparallel", tau, (i, j, kk)


def _eig_margin(mat) -> float:
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])


def _block(mat, idx):
    """The principal submatrix of ``mat`` on the indices ``idx``."""
    return mat[np.ix_(idx, idx)]


def ka3_check(a, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[CanonicalKA3Form]:
    """Search for an orthonormal triple whose images touch three distinct
    supporting lines and normalize to canonical coordinates (tangent lines
    x=0, y=0 and either x=1 or x+y=1).

    The oracle's search is asked for triples only, so an orthogonality graph
    without a triangle costs no refinement.

    Returns None when no qualifying triple exists; a form with
    ``form_ok=False`` when the triple exists but the canonical patterns or
    strict sign conditions fail (the value k=3 stands either way).
    """
    sf = support_function(a)
    m = sf.a
    if m.shape[0] != 4:
        raise DimensionError("ka3_check handles 4x4 matrices")
    diam = sf.diameter()
    res = _search(boundary_vector_field(sf), sf, SearchParams(), (3,),
                  accept=lambda x, thetas: _distinct_lines(thetas, sf, diam))
    if not res.k_lower:
        return None
    x3, thetas = res.vectors, res.thetas
    norm = _normalizing_affine(thetas, sf(thetas))
    if norm is None:
        return CanonicalKA3Form(
            case="nonparallel",
            affine=AffineMap(1, 1, 0),
            unitary=np.eye(4, dtype=complex),
            params={},
            pattern_residual=np.inf,
            conditions_ok=False,
            form_ok=False,
            triple=x3,
            triple_thetas=thetas,
            notes=["supporting-line normals fit in a half plane; no bounded canonical frame"],
        )
    case, tau, order = norm
    # keep the triple exactly; complete it with the unit vector orthogonal to it
    cols = x3[:, list(order)]
    qmat = np.column_stack([cols, np.linalg.svd(cols)[0][:, 3]])
    b = qmat.conj().T @ affine_apply(m, tau) @ qmat
    h, k = hermitian_parts(b)
    s = matrix_scale(b)
    margin = tol.eq_tol * s
    if case == "parallel":
        pattern_residual = _parallel_residual(h, k)
        params_d = _parallel_params(h, k)
        hb = _block(h, [1, 3])
        blocks = (hb, np.eye(2) - hb, _block(k, [0, 2, 3]))
        zero_count = sum(1 for key in ("k13", "k14", "k34") if abs(params_d[key]) <= margin)
        extra = abs(params_d["h24"]) > margin and zero_count <= 1
        seed_rep = parallel_seed_condition(params_d, tol)
    else:
        pattern_residual = float(max(np.max(np.abs(h[0])), abs(h[1, 2]), np.max(np.abs(k[1])), abs(k[0, 2]),
                                     abs(k[2, 3] + h[2, 3])))
        params_d = {
            "h22": float(h[1, 1].real),
            "h24": complex(h[1, 3]),
            "h33": float(h[2, 2].real),
            "h34": complex(h[2, 3]),
            "h44": float(h[3, 3].real),
            "k11": float(k[0, 0].real),
            "k14": complex(k[0, 3]),
            "k33": float(k[2, 2].real),
            "k44": float(k[3, 3].real),
        }
        # on the pattern, (h + k)[2, 2] I - (h + k) on e1, e2, e4 is the pencil
        # gap at the third line's level
        hk = h + k
        blocks = (h[1:, 1:], _block(k, [0, 2, 3]), hk[2, 2] * np.eye(3) - _block(hk, [0, 1, 3]))
        extra = min(abs(params_d["h24"]), abs(params_d["h34"]), abs(params_d["k14"])) > margin
        seed_rep = None
    cond = bool(all(_eig_margin(blk) > margin for blk in blocks) and extra)
    return CanonicalKA3Form(
        case=case,
        affine=tau,
        unitary=qmat,
        params=params_d,
        pattern_residual=pattern_residual,
        conditions_ok=cond,
        form_ok=bool(pattern_residual <= 1e-8 * s and cond),
        triple=x3,
        triple_thetas=thetas,
        seed_condition=seed_rep,
    )


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _confirm_with_oracle(pencil: SupportFunction, norm: Normalisation, result: GauWuResult) -> None:
    """Record whether ``verify`` confirms result.k, with its certificate: the
    route's witness is checked first, so the search looks only above k."""
    rep = verify(pencil, result.k, witness=result.witness)
    result.oracle_confirmed = rep.match
    result.certificate["oracle"] = {**in_caller_units(rep.oracle, norm).to_dict(), **rep.provenance()}


def _dichotomy_work(norm: Normalisation, case: str, theta: float, h0: float, h1: float) -> dict:
    """work["dichotomy"]: the two levels in the coordinates of A."""
    return {"case": case, "theta": theta, "h0": norm.level(h0, theta), "h1": norm.level(h1, theta)}


def _irreducible4(norm: Normalisation, tol: ToleranceConfig, work: dict):
    """(result, SupportFunction of m = norm.m) of an irreducible 4x4 matrix that
    is not dichotomous: a seed gives k = 3; a cover that proves k <= 2
    (``boundary_cover``) gives k = 2 before any triple is searched; else a
    three-line triple gives k = 3, and k = 2 without a proof.  Every k = 2
    certificate carries the cover, proved or not.  The stages keep what they
    found in ``work``."""
    pencil = SupportFunction(norm.m)
    seeds = work["seeds"] = [replace(sd, segment=tuple(norm.shift + norm.scale * z for z in sd.segment))
                             for sd in detect_seeds(pencil, tol)]
    strong = [sd for sd in seeds if sd.witnesses.shape[1] >= 2 and sd.independent]
    if strong:
        cert = {
            "seeds": [
                {"kind": sd.kind, "theta": sd.theta, "segment": [str(z) for z in sd.segment]}
                for sd in strong
            ]
        }

        def seed_witness(sd=strong[0]):
            # the seed's two ends on its line and the bottom vector of the same member
            bottom = _split_witness(norm.m, sd.theta).vectors[:, 1:]
            return Witness(np.column_stack([sd.witnesses, bottom]), [sd.theta, sd.theta, sd.theta + np.pi])

        return GauWuResult(k=3, n=4, method=METHOD_SEED3, certificate=cert, build_witness=seed_witness), pencil
    cover = boundary_cover(pencil)
    if cover.k_upper == 2 or (ka3 := ka3_check(pencil, tol)) is None:
        return GauWuResult(k=2, n=4, method=METHOD_FALLBACK2, certificate={"cover": cover.to_dict()},
                           build_witness=lambda: _split_witness(norm.m, 0.0)), pencil
    triple = partial(Witness, ka3.triple, ka3.triple_thetas)
    if not ka3.form_ok:
        cert = {"note": "triple on three distinct lines found; canonical form unavailable", "notes": ka3.notes}
        return GauWuResult(k=3, n=4, method=METHOD_ORACLE, certificate=cert, build_witness=triple), pencil
    cert = {
        "case": ka3.case,
        "pattern_residual": ka3.pattern_residual,
        "thetas": [float(t) for t in ka3.triple_thetas],
    }
    if ka3.seed_condition is not None:
        cert["seed_condition"] = {
            "applies": ka3.seed_condition.applies,
            "t": ka3.seed_condition.t,
            "lambda": ka3.seed_condition.lam,
        }
    return GauWuResult(k=3, n=4, method=METHOD_KA3, certificate=cert, build_witness=triple), pencil


def classify(a, tol: ToleranceConfig = DEFAULT_TOL, confirm_with_oracle: bool = False) -> GauWuResult:
    """k(A) for a 4x4 matrix with a certificate of the deciding route: the
    4x4 entry of ``classify_any``."""
    m = as_square_matrix(a)
    if m.shape[0] != 4:
        raise DimensionError("classify handles 4x4 matrices; other sizes go through classify_any")
    return classify_any(m, tol, confirm_with_oracle=confirm_with_oracle)


class UnsupportedDimensionError(ValueError):
    """No exact classification route for this input; the search-only route
    must be requested explicitly."""


def classify_any(a, tol: ToleranceConfig = DEFAULT_TOL, allow_oracle_only: bool = False,
                 confirm_with_oracle: bool = False) -> GauWuResult:
    """Route a matrix of any size to an exact classification when one exists.

    k(alpha A + beta I) = k(A) for alpha > 0, so every stage runs on
    m = (A - (tr A / n) I) / s from ``normalise``, and the certificate
    records {"shift", "scale"} as "normalisation".  Dichotomy levels, seed
    segments, the balanced route's diagonal and the search's boundary
    residuals are reported in the coordinates of A; the blocks in
    ``work["decomposition"]`` are those of m.

    A scalar matrix (``normalise`` gives scale 0) has k = n as a direct sum
    of 1x1 blocks.  Arrowhead matrices other than 4x4 go through the
    structured routes; then unitarily reducible matrices through block
    additivity.  A dichotomous arrowhead that ``irreducible_dichotomous_check``
    finds reducible is still decomposed, but ``dirsum_gauwu`` reuses the
    dichotomy instead of sweeping the ambient, and the certificate adds it
    as "dichotomy" (theta and "h_values" in the coordinates of A).  An
    irreducible matrix of any size has k = n when ``dichotomy_scan`` accepts
    it (every basis adapted to the idempotent lies on its two supporting
    lines); other irreducible 4x4 ones go through the stages of the paper
    (``_irreducible4``); anything else requires the search route
    (``allow_oracle_only``), ``max_orthonormal_boundary_set``, which is exact
    when its cover proves k <= 2 and a lower bound otherwise.
    Each stage runs at most once and keeps what it found in ``result.work``;
    an arrowhead's ``dichotomy_check`` is its one dichotomy scan.
    """
    norm = normalise(a)
    m = norm.m
    n = m.shape[0]
    if n <= 2:
        note = "numerical range is a point" if n == 1 else "every 2x2 matrix has k = 2"
        return GauWuResult(k=n, n=n, method=METHOD_ORACLE if n == 1 else METHOD_FALLBACK2,
                           certificate={"note": note, "normalisation": norm.to_dict()},
                           build_witness=lambda: Witness(np.eye(1), [0.0]) if n == 1 else _split_witness(m, 0.0))
    if not norm.scale:
        return GauWuResult(k=n, n=n, method=METHOD_DIRECT_SUM, oracle_confirmed=confirm_with_oracle or None,
                           certificate={"note": "scalar matrix: n blocks of size 1", "normalisation": norm.to_dict()},
                           build_witness=lambda: Witness(np.eye(n), np.zeros(n)))

    result, pencil, work, known, undichotomous = None, m, {}, None, False
    try:
        ah = arrowhead_from_dense(m, tol) if n != 4 else None
    except NotArrowheadError:
        ah = None
    if ah is not None:
        # two strictly unbalanced pairs rule a dichotomy out (its idempotent
        # couples one pair at most), so the cheaper routes go first
        for route in (gauwu_with_zero_pairs, gauwu_unbalanced_two):
            try:
                result = route(ah, tol)
                if "diagonal" in result.certificate:  # the balanced route's rotated diagonal
                    result.certificate["diagonal"] = [norm.level(h, result.certificate["theta"])
                                                      for h in result.certificate["diagonal"]]
                break
            except NotApplicableError:
                pass
        if result is None:
            cert = dichotomy_check(ah, tol)  # n >= 3 here, so the check applies
            undichotomous = cert is None  # arrowhead_from_dense took the entries off its pattern as zero
            if cert is not None:
                work["dichotomy"] = _dichotomy_work(norm, cert.case, cert.theta, cert.h0, cert.h1)
                irr, reason = irreducible_dichotomous_check(ah, cert, tol)
                if irr:
                    result = GauWuResult(
                        k=n, n=n, method=METHOD_ARROWHEAD,
                        certificate={"route": "dichotomous-irreducible", "theta": cert.theta, "reason": reason},
                        build_witness=lambda: _split_witness(m, cert.theta, (cert.h0, cert.h1)),
                    )
                else:
                    known = (cert.theta, cert.h0, cert.h1)
    if result is None:
        dec = work["decomposition"] = decompose(m)
        if len(dec.blocks) > 1:
            result = dirsum_gauwu(dec, tol, _dichotomy=known)
            if known is not None:  # the whole's dichotomy, in the coordinates of A
                result.certificate["dichotomy"] = {"theta": known[0],
                                                   "h_values": [norm.level(h, known[0]) for h in known[1:]]}
        elif not undichotomous and (scan := dichotomy_scan(m, tol)) is not None:
            theta, h0, h1, proj = scan
            upper = int(round(np.trace(proj).real))
            work["dichotomy"] = _dichotomy_work(norm, f"{n - upper}+{upper}", theta, h0, h1)
            result = GauWuResult(k=n, n=n, method=METHOD_DICHOTOMY4 if n == 4 else METHOD_DICHOTOMY, certificate={
                "route": "dichotomy-scan", "theta": theta, "h_values": [norm.level(h, theta) for h in (h0, h1)]},
                build_witness=lambda: _split_witness(m, theta, (h0, h1)))
        elif n == 4:
            result, pencil = _irreducible4(norm, tol, work)
    if result is None:
        if not allow_oracle_only:
            raise UnsupportedDimensionError(
                f"no exact route for this {n}x{n} matrix; rerun with the search enabled"
            )
        res = in_caller_units(max_orthonormal_boundary_set(SupportFunction(m)), norm)
        note = "constructive lower bound" if res.k_upper is None else "k = 2 proved by the cover"
        result = GauWuResult(
            k=res.k_lower, n=n, method=METHOD_ORACLE,
            certificate={"note": note, "oracle": res.to_dict()},
            build_witness=lambda: Witness(res.vectors, res.thetas),
        )
        if confirm_with_oracle:  # verify's first pass is this same search, so it matches
            result.oracle_confirmed = True
    result.work = work
    result.certificate["normalisation"] = norm.to_dict()
    if confirm_with_oracle and result.oracle_confirmed is None:
        _confirm_with_oracle(support_function(pencil), norm, result)
    return result
