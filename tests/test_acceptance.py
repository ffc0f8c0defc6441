"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from conftest import balanced_arrowhead, random_unitary, rng_for
from numrange_lab.arrowhead import (
    ArrowheadMatrix,
    arrowhead_from_dense,
    gauwu_balanced,
    gauwu_unbalanced_two,
    secular_eigen,
)
from numrange_lab.classify import (
    classify,
    classify_any,
    extract_parallel_form,
    k4_check,
    parallel_seed_condition,
)
from numrange_lab.generators import (
    FamilySpec,
    generate,
    generate_with_info,
    flat_portion_example,
    perturb_unbalance,
)
from numrange_lab import oracle
from numrange_lab.linalg import AffineMap, affine_apply, matrix_scale, normalise, rotate
from numrange_lab.numrange import FLAT_PORTION, SupportFunction, base_polynomial, detect_seeds
from numrange_lab.oracle import SearchParams, boundary_vector_field, max_orthonormal_boundary_set
from numrange_lab.reduction import commutant_dimension


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_paper_example():
    """Worked-example reproduction: k = 3, one flat-portion seed, exact
    pencil parameters, under one second."""
    t0 = time.monotonic()
    a = flat_portion_example()
    res = classify(a)
    seeds = detect_seeds(a)
    params = extract_parallel_form(a)
    rep = parallel_seed_condition(params)
    elapsed = time.monotonic() - t0
    assert res.k == 3
    flats = [s for s in seeds if s.kind == FLAT_PORTION]
    assert len(seeds) == 1 and len(flats) == 1
    assert rep.applies
    assert abs(rep.t - 1.0) < 1e-9
    assert abs(rep.lam - 17.0 / 8.0) < 1e-9
    assert elapsed < 1.0
    _report(1, f"k=3, one flat portion, t={rep.t:.12f}, lambda={rep.lam:.12f}, {elapsed:.2f}s")


def test_criterion_2_balanced_theorem_equals_oracle():
    """200 seeded balanced arrowheads, n in 3..6: structured value equals the
    search exactly, with search Gram residual below 1e-8."""
    t0 = time.monotonic()
    checked = 0
    for i in range(200):
        n = 3 + i % 4
        ah = balanced_arrowhead(1000 + i, n)
        th = gauwu_balanced(ah)
        orc = max_orthonormal_boundary_set(ah.to_dense())
        assert th.k == orc.k_lower, (i, n, th.k, orc.k_lower)
        assert orc.gram_residual < 1e-8, (i, n, orc.gram_residual)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(2, f"{checked} balanced instances, theorem == search, {elapsed:.1f}s")


def test_criterion_3_unbalanced_soundness():
    """100 unbalanced instances (30 pure almost normal): value 2, proved by
    the search route's cover (k_upper = 2), and an escalated search of the
    sizes above 2, run on its own, never reaches a triple (floor above 1e-4)."""
    t0 = time.monotonic()
    esc = SearchParams().escalate()
    floors = []
    for i in range(100):
        fam = "pure-almost-normal" if i < 30 else "unbalanced-arrowhead"
        n = 3 + i % 4
        a = generate(FamilySpec(fam, n=n, seed=2000 + i))
        th = gauwu_unbalanced_two(arrowhead_from_dense(a))
        assert th.k == 2
        orc = max_orthonormal_boundary_set(a)
        assert orc.k_lower == 2 == orc.k_upper, (i, fam, orc.k_lower, orc.k_upper)
        sf = SupportFunction(normalise(a).m, esc.grid_size)
        field = boundary_vector_field(sf, esc.grid_size)
        found = oracle._search(field, sf, esc, range(n, 2, -1))
        assert found.k_lower == 0, (i, fam, found.k_lower)
        floor = found.floors.get(3, np.inf)
        assert floor > 1e-4, (i, fam, floor)
        floors.append(floor)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    finite = [f for f in floors if np.isfinite(f)]
    lowest = min(finite) if finite else np.inf
    _report(3, f"100 instances all k=2 with k_upper=2, lowest triple floor {lowest:.2e}, {elapsed:.1f}s")


def test_criterion_4_dichotomous_families():
    """50 instances each of the 2+2 and 3+1 forms: direction recovered to
    1e-6, value 4 confirmed by the search at 1e-8; both reducible edge cases
    are caught by the commutant."""
    t0 = time.monotonic()
    worst_dt = 0.0
    worst_gram = 0.0
    for fam in ("k4-split-22", "k4-split-31"):
        for i in range(50):
            a, info = generate_with_info(FamilySpec(fam, seed=3000 + i))
            res = classify(a)
            assert res.k == 4, (fam, i, res.k)
            ok, form = k4_check(a)
            assert ok
            dt = abs((form.theta - info["theta"] + np.pi / 2) % np.pi - np.pi / 2)
            assert dt < 1e-6, (fam, i, dt)
            orc = max_orthonormal_boundary_set(a)
            assert orc.k_lower == 4 and orc.gram_residual < 1e-8, (fam, i)
            worst_dt = max(worst_dt, dt)
            worst_gram = max(worst_gram, orc.gram_residual)
    for edge in ("reducible-zero-product", "reducible-commuting"):
        for i in range(5):
            a = generate(FamilySpec("k4-split-22", seed=3500 + i, knobs={"edge": edge}))
            assert commutant_dimension(a) >= 2, (edge, i)
    elapsed = time.monotonic() - t0
    _report(4, f"100 instances k=4 (worst dtheta {worst_dt:.1e}, worst gram {worst_gram:.1e}), edges reducible, {elapsed:.1f}s")


def test_criterion_5_three_line_families():
    """50 parallel + 50 nonparallel instances: value 3 with a canonical form
    whose zero patterns hold to 1e-8; the search certifies 3 and never 4."""
    t0 = time.monotonic()
    worst_pattern = 0.0
    for fam in ("k3-parallel-lines", "k3-nonparallel-lines"):
        for i in range(50):
            a = generate(FamilySpec(fam, seed=4000 + i))
            res = classify(a)
            assert res.k == 3 and res.method == "KA3Form3", (fam, i, res.k, res.method)
            pattern = res.certificate["pattern_residual"]
            assert pattern < 1e-8, (fam, i, pattern)
            orc = max_orthonormal_boundary_set(a)
            assert orc.k_lower == 3, (fam, i, orc.k_lower)
            worst_pattern = max(worst_pattern, pattern)
    elapsed = time.monotonic() - t0
    _report(5, f"100 instances k=3 with canonical forms (worst pattern {worst_pattern:.1e}), {elapsed:.1f}s")


def test_criterion_6_exceptional_reducible_cases():
    """20 instances of each exceptional coupled construction are unitarily
    reducible; 20 generic instances are irreducible."""
    t0 = time.monotonic()
    for fam in ("reducible-aligned", "reducible-mixed"):
        for i in range(20):
            a = generate(FamilySpec(fam, seed=5000 + i))
            assert commutant_dimension(a) >= 2, (fam, i)
    for i in range(10):
        a = generate(FamilySpec("dichotomous-arrowhead-diag", seed=5100 + i))
        assert commutant_dimension(a) == 1, ("diag", i)
        a = generate(FamilySpec("dichotomous-arrowhead-coupled", seed=5200 + i))
        assert commutant_dimension(a) == 1, ("coupled", i)
    elapsed = time.monotonic() - t0
    _report(6, f"40 exceptional constructions reducible, 20 generic irreducible, {elapsed:.1f}s")


def test_criterion_7_direct_sum_configurations():
    """Ellipse-pair and ellipse-with-scalars corpora reproduce k in {2,3,4}
    and {3,4}, matching the search on every instance."""
    t0 = time.monotonic()
    seen_pair = set()
    for cfg, expect in (("nested", 2), ("crossed", 3), ("aligned", 4)):
        for i in range(7):
            a = generate(FamilySpec("ellipse-pair", seed=6000 + i, knobs={"config": cfg}))
            res = classify(a)
            orc = max_orthonormal_boundary_set(a)
            assert res.k == expect == orc.k_lower, (cfg, i, res.k, orc.k_lower)
            seen_pair.add(res.k)
    seen_scalar = set()
    for cfg, expect in (("three", 3), ("four", 4)):
        for i in range(10):
            a = generate(FamilySpec("ellipse-with-scalars", seed=6100 + i, knobs={"config": cfg}))
            res = classify(a)
            orc = max_orthonormal_boundary_set(a)
            assert res.k == expect == orc.k_lower, (cfg, i, res.k, orc.k_lower)
            seen_scalar.add(res.k)
    assert seen_pair == {2, 3, 4}
    assert seen_scalar == {3, 4}
    elapsed = time.monotonic() - t0
    _report(7, f"41 direct-sum instances match the search exactly, {elapsed:.1f}s")


def test_criterion_8_invariance_suite():
    """k is invariant under unitary similarity, rotation and affine maps on a
    100-matrix mixed corpus; the base polynomial of direct sums factors."""
    t0 = time.monotonic()
    fams = [
        "k4-split-22",
        "k4-split-31",
        "k3-parallel-lines",
        "k3-nonparallel-lines",
        "pure-almost-normal",
        "unbalanced-arrowhead",
        "ellipse-pair",
        "ellipse-with-scalars",
        "dichotomous-arrowhead-diag",
        "dichotomous-arrowhead-coupled",
    ]
    rng = rng_for(99)
    for i in range(100):
        fam = fams[i % len(fams)]
        a = generate(FamilySpec(fam, seed=7000 + i))
        k0 = classify_any(a).k
        u = random_unitary(rng, 4)
        assert classify_any(u.conj().T @ a @ u).k == k0, (fam, i, "unitary")
        assert classify_any(rotate(a, rng.uniform(0, 2 * np.pi))).k == k0, (fam, i, "rotation")
        tau = AffineMap(
            complex(rng.uniform(0.8, 1.3), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(0.8, 1.3), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        assert classify_any(affine_apply(a, tau)).k == k0, (fam, i, "affine")
    # factorization of the base polynomial over direct sums
    for i in range(10):
        r = rng_for(7700 + i)
        b1 = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
        b2 = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2], a[2:, 2:] = b1, b2
        f = base_polynomial(a)
        prod = base_polynomial(b1).multiply(base_polynomial(b2))
        assert np.max(np.abs(f.coeffs - prod.coeffs)) < 1e-8
    elapsed = time.monotonic() - t0
    _report(8, f"100-matrix corpus invariant under all three transforms; factorization holds, {elapsed:.1f}s")


def _instability_instance():
    # double top level in the skew part shared by two diagonal entries, so
    # the balanced route gives 3; the couplings are conjugate-balanced
    diag = np.array([0.0 + 1j, 0.7 + 1j, 0.35 + 0.95j])
    b = np.array([0.5 * np.exp(0.3j), 0.6 * np.exp(2.0j), 0.45 * np.exp(-1.2j)])
    return ArrowheadMatrix(diag, b, np.conj(b), 0.5 + 0.96j)


def test_criterion_9_instability():
    """The Gau-Wu number is unstable: a 1e-6 radial bump of the hull
    couplings collapses a balanced k=3 instance to 2 for both the
    classification and the search."""
    t0 = time.monotonic()
    ah = _instability_instance()
    a = ah.to_dense()
    assert gauwu_balanced(arrowhead_from_dense(a)).k == 3
    assert classify(a).k == 3
    assert max_orthonormal_boundary_set(a).k_lower == 3
    pert = perturb_unbalance(ah, 1e-6)
    ap = pert.to_dense()
    res = classify(ap)
    orc = max_orthonormal_boundary_set(ap)
    assert res.k == 2, res.k
    assert orc.k_lower == 2, orc.k_lower
    elapsed = time.monotonic() - t0
    _report(9, f"k flips 3 -> 2 at eps=1e-6 for classification and search, {elapsed:.1f}s")


def test_criterion_10_secular_kernels():
    """500 random arrowheads up to n = 200: secular residuals below
    1e-9 ||A||; Hermitian instances interlace their poles strictly."""
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    worst = 0.0
    hermitian_count = 0
    for trial in range(500):
        hermitian = trial % 10 < 3
        n = int(rng.integers(100, 201)) if trial % 25 == 0 else int(rng.integers(3, 40))
        if hermitian:
            d = np.sort(np.linspace(-1, 1, n - 1) + rng.uniform(-0.3, 0.3, n - 1) / max(n, 4))
            b = rng.uniform(0.1, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
            ah = ArrowheadMatrix(d, b, np.conj(b), rng.uniform(-1, 1))
        else:
            diag = rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1)
            col = rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
            row = rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
            ah = ArrowheadMatrix(
                diag, col, row, rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            )
        res = secular_eigen(ah)
        scale = matrix_scale(ah.to_dense())
        assert len(res.eigen) + len(res.degenerate) == n
        for p in res.eigen:
            assert p.residual < 1e-9 * scale, (trial, n, p.residual / scale)
            worst = max(worst, p.residual / scale)
        if hermitian:
            hermitian_count += 1
            roots = np.sort([p.value.real for p in res.eigen])
            poles = np.sort(ah.diag.real)
            assert len(roots) == n
            for i in range(n - 1):
                assert roots[i] < poles[i] < roots[i + 1], (trial, i)
    elapsed = time.monotonic() - t0
    _report(
        10,
        f"500 arrowheads (worst residual {worst:.1e}), {hermitian_count} Hermitian all interlacing, {elapsed:.1f}s",
    )
