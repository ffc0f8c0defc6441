"""Complete Gau-Wu classification of 4x4 matrices.

Pipeline: split off unitarily reducible matrices (block additivity), then
for irreducible ones k = 4 exactly when some rotation makes the Hermitian
part two-valued; otherwise k = 3 when the boundary carries an exceptional
supporting line (seed) or an orthonormal triple touching three distinct
supporting lines; else k = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    ABS_FLOOR,
    AffineMap,
    DEFAULT_TOL,
    DimensionError,
    NonInvertibleMapError,
    ToleranceConfig,
    _pencil_at,
    affine_apply,
    affine_from_planar,
    as_square_matrix,
    hermitian_parts,
    matrix_scale,
)
from .numrange import SupportFunction, detect_seeds, dichotomy_scan
from .oracle import SearchParams, max_orthonormal_boundary_set, verify
from .reduction import commutant_dimension, decompose, dirsum_gauwu
from .results import (
    METHOD_DICHOTOMY4,
    METHOD_FALLBACK2,
    METHOD_KA3,
    METHOD_ORACLE,
    METHOD_SEED3,
    GauWuResult,
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
    else (False, None).
    """
    m = as_square_matrix(a)
    if m.shape[0] != 4:
        raise DimensionError("k4_check handles 4x4 matrices")
    if commutant_dimension(m, tol) != 1:
        raise PreconditionError("input is unitarily reducible")
    return _k4_form(m, tol)


def _k4_form(m, tol: ToleranceConfig):
    """k4_check on a 4x4 matrix already known to be irreducible."""
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
        ztol = tol.eq_abs(matrix_scale(m))
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
    phases = np.ones(4, dtype=complex)
    for j in range(3):
        if abs(beta[j]) > ABS_FLOOR:
            phases[j] = np.exp(-1j * np.angle(beta[j]))
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
    s = matrix_scale(m)
    atol = 100 * tol.eq_abs(max(s, 1.0))
    zeros = [
        np.max(np.abs(h[0, :])),
        np.max(np.abs(h[:, 0])),
        abs(h[1, 2]),
        abs(h[2, 3]),
        abs(h[2, 2] - 1.0),
        np.max(np.abs(k[1, :])),
        np.max(np.abs(k[:, 1])),
    ]
    if max(zeros) > atol:
        return None
    return _parallel_params(h, k)


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
    scale = max(abs(k13), abs(k14), abs(k34), abs(params["k11"]), 1.0)
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
    if abs(s1) <= tol.eq_abs(scale) or abs(s2) <= tol.eq_abs(scale):
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
                if width <= 1e-6 * max(diam, ABS_FLOOR):
                    return False
    return True


def ka3_triple_search(a, tol: ToleranceConfig = DEFAULT_TOL, params: SearchParams = SearchParams()):
    """Orthonormal triple whose images touch three distinct supporting lines:
    (vectors, thetas, the support function they were checked against) or None."""
    m = as_square_matrix(a)
    sf = SupportFunction(m, grid_size=256)
    diam = sf.diameter()

    def hook(x, thetas):
        if x.shape[1] != 3:
            return False
        return _distinct_lines(thetas, sf, diam)

    res = max_orthonormal_boundary_set(m, tol=tol, params=params, accept_hook=hook)
    if res.k_lower >= 3:
        return res.vectors[:, :3], res.thetas[:3], sf
    return None


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
        # so the scale of the y axis is free: pick 1 / (1 + |p|) for balance
        s2 = 1.0 / (1.0 + abs(ps[kk]))
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
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    return float(w[0])


def ka3_check(a, tol: ToleranceConfig = DEFAULT_TOL, params: SearchParams = SearchParams()) -> Optional[CanonicalKA3Form]:
    """Search for a three-line orthonormal triple and normalize to canonical
    coordinates (tangent lines x=0, y=0 and either x=1 or x+y=1).

    Returns None when no qualifying triple exists; a form with
    ``form_ok=False`` when the triple exists but the canonical patterns or
    strict sign conditions fail (the value k=3 stands either way).
    """
    m = as_square_matrix(a)
    if m.shape[0] != 4:
        raise DimensionError("ka3_check handles 4x4 matrices")
    found = ka3_triple_search(m, tol=tol, params=params)
    if found is None:
        return None
    x3, thetas, sf = found
    ps = [sf(float(t)) for t in thetas]
    notes = []
    norm = _normalizing_affine(thetas, ps)
    if norm is None:
        notes.append("supporting-line normals fit in a half plane; no bounded canonical frame")
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
            notes=notes,
        )
    case, tau, order = norm
    a_prime = affine_apply(m, tau)
    cols = [x3[:, order[0]], x3[:, order[1]], x3[:, order[2]]]
    # keep the triple exactly; complete with the best-projecting basis vector
    # (some standard basis vector always has overlap >= 1/2 with the complement)
    best = None
    for j in range(4):
        cand = np.zeros(4, dtype=complex)
        cand[j] = 1.0
        for c in cols:
            cand = cand - c * (c.conj() @ cand)
        norm = np.linalg.norm(cand)
        if best is None or norm > best[0]:
            best = (norm, cand)
    filler = best[1] / best[0]
    qmat = np.column_stack(cols + [filler])
    b = qmat.conj().T @ a_prime @ qmat
    h, k = hermitian_parts(b)
    s = max(matrix_scale(b), 1.0)

    if case == "parallel":
        mask_entries = [
            np.max(np.abs(h[0, :])),
            abs(h[1, 2]),
            abs(h[2, 3]),
            abs(h[2, 2] - 1.0),
            np.max(np.abs(k[1, :])),
        ]
        pattern_residual = float(max(mask_entries))
        params_d = _parallel_params(h, k)
        hb = np.array([[params_d["h22"], params_d["h24"]], [np.conj(params_d["h24"]), params_d["h44"]]])
        kb = np.array(
            [
                [params_d["k11"], params_d["k13"], params_d["k14"]],
                [np.conj(params_d["k13"]), params_d["k33"], params_d["k34"]],
                [np.conj(params_d["k14"]), np.conj(params_d["k34"]), params_d["k44"]],
            ]
        )
        margin = tol.eq_abs(s)
        cond = (
            _eig_margin(hb) > margin
            and _eig_margin(np.eye(2) - hb) > margin
            and _eig_margin(kb) > margin
        )
        ztol = tol.eq_abs(s)
        zero_count = sum(1 for key in ("k13", "k14", "k34") if abs(params_d[key]) <= ztol)
        cond = cond and abs(params_d["h24"]) > ztol and zero_count <= 1
        seed_rep = parallel_seed_condition(params_d, tol)
    else:
        mask_entries = [
            np.max(np.abs(h[0, :])),
            abs(h[1, 2]),
            np.max(np.abs(k[1, :])),
            abs(k[0, 2]),
            abs(k[2, 3] + h[2, 3]),
        ]
        pattern_residual = float(max(mask_entries))
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
        hb = np.array(
            [
                [params_d["h22"], 0, params_d["h24"]],
                [0, params_d["h33"], params_d["h34"]],
                [np.conj(params_d["h24"]), np.conj(params_d["h34"]), params_d["h44"]],
            ]
        )
        kb = np.array(
            [
                [params_d["k11"], 0, params_d["k14"]],
                [0, params_d["k33"], -params_d["h34"]],
                [np.conj(params_d["k14"]), -np.conj(params_d["h34"]), params_d["k44"]],
            ]
        )
        third = np.array(
            [
                [params_d["k11"], 0, params_d["k14"]],
                [0, params_d["h22"], params_d["h24"]],
                [np.conj(params_d["k14"]), np.conj(params_d["h24"]), params_d["h44"] + params_d["k44"]],
            ]
        )
        level = params_d["h33"] + params_d["k33"]
        margin = tol.eq_abs(s)
        cond = (
            _eig_margin(hb) > margin
            and _eig_margin(kb) > margin
            and _eig_margin(level * np.eye(3) - third) > margin
        )
        ztol = tol.eq_abs(s)
        cond = cond and min(abs(params_d["h24"]), abs(params_d["h34"]), abs(params_d["k14"])) > ztol
        seed_rep = None

    form_ok = pattern_residual <= 1e-8 * s and cond
    return CanonicalKA3Form(
        case=case,
        affine=tau,
        unitary=qmat,
        params=params_d,
        pattern_residual=pattern_residual,
        conditions_ok=bool(cond),
        form_ok=bool(form_ok),
        triple=x3,
        triple_thetas=thetas,
        seed_condition=seed_rep,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _confirm_with_oracle(m, result: GauWuResult, tol: ToleranceConfig) -> None:
    """Record whether the search reaches result.k, with its certificate."""
    rep = verify(m, result.k, tol=tol)
    result.oracle_confirmed = rep.match
    result.certificate["oracle"] = rep.oracle.to_dict()


def classify(a, tol: ToleranceConfig = DEFAULT_TOL, confirm_with_oracle: bool = False) -> GauWuResult:
    """k(A) for a 4x4 matrix with a certificate of the deciding route."""
    m = as_square_matrix(a)
    if m.shape[0] != 4:
        raise DimensionError("classify handles 4x4 matrices; other sizes go through classify_any")
    dec = decompose(m, tol)
    if len(dec.blocks) > 1:
        result = dirsum_gauwu(dec, tol)
    else:
        is_k4, form = _k4_form(m, tol)
        if is_k4:
            cert = {
                "theta": form.theta,
                "case": form.case,
                "clause": form.clause,
                "h_values": list(form.h_values),
            }
            result = GauWuResult(k=4, n=4, method=METHOD_DICHOTOMY4, certificate=cert)
        else:
            seeds = detect_seeds(m, tol)
            strong = [sd for sd in seeds if sd.witnesses.shape[1] >= 2 and sd.independent]
            if strong:
                cert = {
                    "seeds": [
                        {"kind": sd.kind, "theta": sd.theta, "segment": [str(z) for z in sd.segment]}
                        for sd in strong
                    ]
                }
                ka3 = None
                try:
                    ka3 = ka3_check(m, tol)
                except (NonInvertibleMapError, np.linalg.LinAlgError) as exc:
                    # the seed already decides k = 3; only the canonical form is lost
                    cert["canonical_form_error"] = f"{type(exc).__name__}: {exc}"
                if ka3 is not None and ka3.form_ok:
                    cert["canonical_form"] = {"case": ka3.case, "params_keys": sorted(ka3.params)}
                result = GauWuResult(k=3, n=4, method=METHOD_SEED3, certificate=cert)
            else:
                ka3 = ka3_check(m, tol)
                if ka3 is not None and ka3.form_ok:
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
                    result = GauWuResult(k=3, n=4, method=METHOD_KA3, certificate=cert)
                elif ka3 is not None:
                    cert = {"note": "triple on three distinct lines found; canonical form unavailable", "notes": ka3.notes}
                    result = GauWuResult(k=3, n=4, method=METHOD_ORACLE, certificate=cert)
                else:
                    result = GauWuResult(k=2, n=4, method=METHOD_FALLBACK2, certificate={})
    if confirm_with_oracle:
        _confirm_with_oracle(m, result, tol)
    return result


class UnsupportedDimensionError(ValueError):
    """No exact classification route for this input; the search-only route
    must be requested explicitly."""


def classify_any(a, tol: ToleranceConfig = DEFAULT_TOL, allow_oracle_only: bool = False,
                 confirm_with_oracle: bool = False) -> GauWuResult:
    """Route a matrix of any size to an exact classification when one exists.

    4x4 goes through the full pipeline; arrowhead matrices of any size go
    through the structured routes; anything else is either unitarily
    reducible (block additivity) or requires the constructive search.
    """
    from .arrowhead import (
        NotApplicableError,
        NotArrowheadError,
        arrowhead_from_dense,
        dichotomy_check,
        gauwu_balanced,
        gauwu_unbalanced_two,
        gauwu_with_zero_pairs,
        irreducible_dichotomous_check,
        pair_profile,
    )
    from .results import METHOD_ARROWHEAD

    m = as_square_matrix(a)
    n = m.shape[0]
    if n == 1:
        return GauWuResult(k=1, n=1, method=METHOD_ORACLE, certificate={"note": "numerical range is a point"})
    if n == 2:
        return GauWuResult(k=2, n=2, method=METHOD_FALLBACK2, certificate={"note": "every 2x2 matrix has k = 2"})
    if n == 4:
        return classify(m, tol, confirm_with_oracle=confirm_with_oracle)

    result = None
    try:
        ah = arrowhead_from_dense(m, tol)
    except NotArrowheadError:
        ah = None
    if ah is not None:
        prof = pair_profile(ah, tol)
        nz = ~prof.zero
        balanced_all = bool(np.all(prof.balanced[nz])) if nz.any() else False
        try:
            if balanced_all and nz.all():
                result = gauwu_balanced(ah, tol)
            elif balanced_all and nz.any():
                result = gauwu_with_zero_pairs(ah, tol)
        except NotApplicableError:
            result = None
        if result is None:
            cert = dichotomy_check(ah, tol)  # n >= 3 here, so the check applies
            if cert is not None:
                irr, reason = irreducible_dichotomous_check(ah, cert, tol)
                if irr:
                    result = GauWuResult(
                        k=n, n=n, method=METHOD_ARROWHEAD,
                        certificate={"route": "dichotomous-irreducible", "theta": cert.theta, "reason": reason},
                    )
        if result is None:
            try:
                result = gauwu_unbalanced_two(ah, tol)
            except NotApplicableError:
                result = None
    if result is None:
        dec = decompose(m, tol)
        if len(dec.blocks) > 1:
            result = dirsum_gauwu(dec, tol)
    if result is None:
        if not allow_oracle_only:
            raise UnsupportedDimensionError(
                f"no exact route for this {n}x{n} matrix; rerun with the search enabled"
            )
        res = max_orthonormal_boundary_set(m, tol=tol)
        result = GauWuResult(
            k=res.k_lower, n=n, method=METHOD_ORACLE,
            certificate={"note": "constructive lower bound", "oracle": res.to_dict()},
        )
    if confirm_with_oracle and result.oracle_confirmed is None:
        _confirm_with_oracle(m, result, tol)
    return result
