import sys
import zlib

import numpy as np
import pytest

from conftest import balanced_arrowhead, near_normal4, random_matrix, random_unitary, rng_for
from numrange_lab.arrowhead import (ArrowheadMatrix, arrowhead_from_dense, dichotomy_check, gauwu_unbalanced_two,
                                    gauwu_with_zero_pairs, irreducible_dichotomous_check, secular_eigen)
from numrange_lab.classify import (
    PreconditionError,
    UnsupportedDimensionError,
    classify,
    classify_any,
    extract_parallel_form,
    k4_check,
    ka3_check,
    parallel_seed_condition,
)
from numrange_lab.reduction import commutant_dimension, decompose, dirsum_gauwu
from numrange_lab.generators import FamilySpec, generate, flat_portion_example
from numrange_lab.linalg import AffineMap, DimensionError, affine_apply, herm_part_at, normalise, rotate
from numrange_lab.numrange import FLAT_PORTION, SupportFunction, detect_seeds, dichotomy_scan
from numrange_lab import arrowhead, numrange, oracle, reduction
from numrange_lab.oracle import check_witness, max_orthonormal_boundary_set, verify
from numrange_lab.results import (
    METHOD_ARROWHEAD,
    METHOD_DICHOTOMY,
    METHOD_DICHOTOMY4,
    METHOD_DIRECT_SUM,
    METHOD_FALLBACK2,
    METHOD_KA3,
    METHOD_ORACLE,
    METHOD_SEED3,
)


class TestK4Check:
    def test_split_31_instance(self):
        a = generate(FamilySpec("k4-split-31", seed=0))
        ok, form = k4_check(a)
        assert ok and form.case == "3+1"
        levels = form.params["k_levels"]
        assert min(np.diff(sorted(levels))) > 1e-3
        assert min(form.params["couplings"]) > 1e-3

    def test_split_22_instance(self):
        a = generate(FamilySpec("k4-split-22", seed=0))
        ok, form = k4_check(a)
        assert ok and form.case == "2+2"
        assert form.params["sigma1"] > 0

    def test_reducible_edges_rejected_at_precondition(self):
        for edge in ("reducible-zero-product", "reducible-commuting"):
            a = generate(FamilySpec("k4-split-22", seed=1, knobs={"edge": edge}))
            with pytest.raises(PreconditionError):
                k4_check(a)

    def test_worked_example_not_dichotomous(self):
        ok, form = k4_check(flat_portion_example())
        assert not ok and form is None

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionError):
            k4_check(np.eye(3))


def narrow_dichotomous(seed, lower, gap):
    """Irreducible 4x4 A = e^{i theta} U (H + iK) U* with H two-valued, ``lower``
    eigenvalues at the lower level, the levels gap * ||K|| apart; returns
    (A, theta)."""
    rng = rng_for(seed)
    z = random_matrix(rng, 4)
    k = (z + z.conj().T) / 2
    levels = rng.uniform(-1, 1) + gap * np.linalg.norm(k, 2) * (np.arange(4) >= lower)
    u = random_unitary(rng, 4)
    theta = rng.uniform(0, 2 * np.pi)
    return np.exp(1j * theta) * (u @ (np.diag(levels) + 1j * k) @ u.conj().T), theta


# 2+2 and 3+1 levels, 1e-3 and 1e-4 ||K|| apart, five seeds of their own each;
# then both splits with levels 1e-6 ||K|| apart, seeds 100-119, where the SVD's
# direction alone is too coarse and the scan needs its polish
NARROW_CASES = [
    (5 * i + j, lower, gap) for i, (lower, gap) in enumerate([(2, 1e-3), (2, 1e-4), (3, 1e-3), (3, 1e-4)]) for j in range(5)
] + [(100 + j, lower, 1e-6) for lower in (2, 3) for j in range(20)]


class TestNarrowDichotomyWindow:
    """Levels much closer than ||K||: the dichotomy direction is a window far
    narrower than any fixed sampling of directions."""

    @pytest.mark.parametrize("seed,lower,gap", NARROW_CASES)
    def test_found_and_classified(self, seed, lower, gap):
        a, theta = narrow_dichotomous(seed, lower, gap)
        got = dichotomy_scan(a)
        assert got is not None
        assert abs(np.angle(np.exp(2j * (got[0] - theta)))) / 2 < 1e-8
        res = classify(a)
        assert (res.k, res.method) == (4, METHOD_DICHOTOMY4)

    @pytest.mark.parametrize("seed,lower,gap", NARROW_CASES[:20:7])
    def test_search_confirms_four(self, seed, lower, gap):
        assert verify(narrow_dichotomous(seed, lower, gap)[0], 4).match


class TestParallelForm:
    def test_extract_worked_example(self):
        p = extract_parallel_form(flat_portion_example())
        assert p is not None
        assert abs(p["h22"] - 0.5) < 1e-12
        assert abs(p["k11"] - 2.0) < 1e-12
        assert abs(p["k44"] - 63.0 / 52.0) < 1e-12

    def test_seed_condition_fires_exactly(self):
        p = extract_parallel_form(flat_portion_example())
        rep = parallel_seed_condition(p)
        assert rep.applies
        assert abs(rep.t - 1.0) < 1e-9
        assert abs(rep.lam - 17.0 / 8.0) < 1e-9

    def test_seed_condition_absent_generically(self):
        a = generate(FamilySpec("k3-parallel-lines", seed=0, knobs={"conjugate": False}))
        p = extract_parallel_form(a)
        assert p is not None
        assert not parallel_seed_condition(p).applies

    def test_non_pattern_matrix_returns_none(self):
        assert extract_parallel_form(random_matrix(rng_for(0), 4)) is None


class TestKA3Check:
    def test_parallel_family_form(self):
        for seed in range(3):
            a = generate(FamilySpec("k3-parallel-lines", seed=seed))
            form = ka3_check(a)
            assert form is not None and form.case == "parallel"
            assert form.form_ok
            assert form.pattern_residual < 1e-8

    def test_nonparallel_family_form(self):
        for seed in range(3):
            a = generate(FamilySpec("k3-nonparallel-lines", seed=seed))
            form = ka3_check(a)
            assert form is not None and form.case == "nonparallel"
            assert form.form_ok
            assert form.pattern_residual < 1e-8

    def test_pure_almost_normal_absent(self):
        a = generate(FamilySpec("pure-almost-normal", seed=1))
        assert ka3_check(a) is None

    @pytest.mark.parametrize("fam, seed", [("pure-almost-normal", 1), ("unbalanced-arrowhead", 2030)])
    def test_no_triangle_no_refinement(self, fam, seed, refinements):
        # the orthogonality graph has no triangle, so the search for triples
        # starts no refinement (a search over every size refined 24 pairs)
        assert ka3_check(generate(FamilySpec(fam, seed=seed))) is None
        assert refinements == {}

    def test_other_sizes_raise(self):
        with pytest.raises(DimensionError, match="4x4"):
            ka3_check(random_matrix(rng_for(2), 5))

    def test_scalar_matrix_has_no_triple(self):
        # every vector lands on the one point, so no three lines are distinct
        assert ka3_check(2 * np.eye(4)) is None

    def test_canonical_pattern_reconstruction(self):
        a = generate(FamilySpec("k3-nonparallel-lines", seed=4))
        form = ka3_check(a)
        b = form.unitary.conj().T @ affine_apply(a, form.affine) @ form.unitary
        h = (b + b.conj().T) / 2
        k = (b - b.conj().T) / 2j
        assert np.max(np.abs(h[0, :])) < 1e-8
        assert np.max(np.abs(k[1, :])) < 1e-8
        assert abs(k[2, 3] + h[2, 3]) < 1e-8

    @pytest.mark.parametrize("fam", ["k3-parallel-lines", "k3-nonparallel-lines"])
    @pytest.mark.parametrize("seed", range(10))
    def test_canonical_basis_keeps_the_triple(self, fam, seed):
        # the basis is the triple, in line order, completed by one unit vector,
        # and the verdicts do not move under a unitary similarity
        a = generate(FamilySpec(fam, seed=seed))
        form = ka3_check(a)
        u = form.unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        for j in range(3):
            assert any(np.array_equal(u[:, j], form.triple[:, i]) for i in range(3))

        def verdicts(f):
            return f.case, f.form_ok, f.conditions_ok, f.seed_condition and f.seed_condition.applies

        w = random_unitary(rng_for(zlib.crc32(f"{fam}-{seed}".encode())), 4)
        assert verdicts(ka3_check(w.conj().T @ a @ w)) == verdicts(form)


class TestClassifyPipeline:
    def test_worked_example(self):
        res = classify(flat_portion_example())
        assert res.k == 3
        assert res.method == METHOD_SEED3

    def test_seed_decides_without_the_triple_search(self, refinements, stack_sizes):
        # the flat portion decides k = 3, so the three-line search, whose
        # boundary field sweeps the grid's top eigenvectors, never runs
        res = classify(flat_portion_example())
        assert (res.k, res.method) == (3, METHOD_SEED3)
        assert [sd["kind"] for sd in res.certificate["seeds"]] == [FLAT_PORTION]
        assert refinements == {}
        assert stack_sizes["eigh"][512] == 0  # the half-turn sweep of the top vectors

    def test_direct_sum_square(self):
        res = classify(np.diag([1.0, 1j, -1.0, -1j]))
        assert res.k == 4
        assert res.method == METHOD_DIRECT_SUM

    def test_unbalanced_arrowhead_is_two(self):
        a = generate(FamilySpec("unbalanced-arrowhead", seed=5))
        res = classify(a)
        assert res.k == 2
        assert res.method == METHOD_FALLBACK2
        assert max_orthonormal_boundary_set(a).k_lower == 2

    @pytest.mark.parametrize("fam", ["pure-almost-normal", "unbalanced-arrowhead"])
    def test_proved_two_skips_the_triple_search(self, fam, refinements, stack_sizes):
        # the cover proves k <= 2 before ka3_check runs: no sweep of the grid's
        # top vectors (the search field's 512-member eigh) and no refinement
        res = classify(generate(FamilySpec(fam, seed=11)))
        assert (res.k, res.method) == (2, METHOD_FALLBACK2)
        assert res.certificate["cover"]["status"] == "proved" and res.certificate["cover"]["k_upper"] == 2
        assert refinements == {} and stack_sizes["eigh"][512] == 0

    def test_methods_per_family(self):
        cases = [
            ("k4-split-22", 4, METHOD_DICHOTOMY4),
            ("k4-split-31", 4, METHOD_DICHOTOMY4),
            ("k3-parallel-lines", 3, METHOD_KA3),
            ("k3-nonparallel-lines", 3, METHOD_KA3),
            ("pure-almost-normal", 2, METHOD_FALLBACK2),
            ("ellipse-pair", 2, METHOD_DIRECT_SUM),
        ]
        for fam, expect, method in cases:
            res = classify(generate(FamilySpec(fam, seed=7)))
            assert (res.k, res.method) == (expect, method), (fam, res.k, res.method)

    @pytest.mark.parametrize("eps", [1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("seed", range(7100, 7110))
    def test_near_normal_has_no_corner(self, seed, eps):
        # irreducible, so no normal eigenvalue and no corner, although W(A) is
        # eps-close to the quadrilateral of d; the grid once clustered into corners
        res = classify(near_normal4(seed, eps))
        assert (res.k, res.method) == (2, METHOD_FALLBACK2)

    def test_parallel_lines_seed_once_misread_as_two(self):
        # k = 3 by construction; the search refines at most 24 node-disjoint
        # triangles of the 680 of its arc graph, and the fourth reaches the triple
        res = classify(generate(FamilySpec("k3-parallel-lines", n=4, seed=347341074)))
        assert (res.k, res.method) == (3, METHOD_KA3)

    def test_parallel_lines_triple_where_top_vector_turns_fast(self):
        # k = 3 by construction; the triple sits where the top gap is about 0.3% of
        # the scale, and 256 evenly spaced directions missed it (Fallback2)
        res = classify(generate(FamilySpec("k3-parallel-lines", n=4, seed=3683100870)))
        assert (res.k, res.method) == (3, METHOD_KA3)

    @pytest.mark.parametrize("fam", ["pure-almost-normal", "k3-parallel-lines"])
    def test_search_cost(self, fam, linalg_calls):
        # the three-line search refines each starting set with one stacked
        # eigh per Levenberg-Marquardt step
        classify(generate(FamilySpec(fam, seed=7001)))
        assert linalg_calls["eigh"] <= 4000

    def test_triple_without_a_canonical_frame(self, monkeypatch):
        # a triple on three distinct lines with no canonical frame still
        # decides k = 3, under the search's label and with the triple as witness
        a = generate(FamilySpec("k3-parallel-lines", seed=4000))
        assert classify(a).method == METHOD_KA3
        monkeypatch.setattr(sys.modules["numrange_lab.classify"], "_normalizing_affine", lambda thetas, ps: None)
        res = classify(a)
        assert (res.k, res.method) == (3, METHOD_ORACLE)
        assert res.certificate["note"] == "triple on three distinct lines found; canonical form unavailable"
        assert res.certificate["notes"] == ["supporting-line normals fit in a half plane; no bounded canonical frame"]
        checked = check_witness(a, res.witness, 3)
        assert checked is not None and checked.gram_residual <= 1e-6

    def test_oracle_confirmation_flag(self):
        res = classify(flat_portion_example(), confirm_with_oracle=True)
        assert res.oracle_confirmed is True
        assert res.certificate["oracle"]["k_lower"] == 3

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            classify(np.eye(3))


class TestOneSupportFunction:
    """One classification sweeps the pencil once: the seeds, the three-line
    search and the oracle confirmation share one SupportFunction."""

    @pytest.mark.parametrize(
        "make",
        [lambda: generate(FamilySpec("k3-parallel-lines", seed=4000)), flat_portion_example],
        ids=["k3-parallel-lines", "worked-example"],
    )
    def test_classify_builds_one(self, make, support_builds):
        a = make()
        classify(a)
        assert support_builds == {1024: 1}

    def test_confirmation_reuses_it(self, support_builds):
        # verify matches the worked example's k = 3 without escalating
        res = classify(flat_portion_example(), confirm_with_oracle=True)
        assert res.oracle_confirmed is True
        assert support_builds == {1024: 1}

    def test_confirmation_extends_the_triple_search_graph(self, monkeypatch, support_builds):
        # the seeds and the three-line search read one event scan, and verify
        # above k = 3 extends the triple search's clique table to size 4
        runs = []

        def counting(module, name):
            orig = getattr(module, name)

            def run(*args, **kwargs):
                runs.append((name, sys._getframe(1).f_code.co_name))
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, name, run)

        counting(numrange, "_refined_minima")
        counting(oracle, "_arc_nodes")
        counting(oracle, "_graph")
        res = classify(generate(FamilySpec("k3-parallel-lines", seed=4000)), confirm_with_oracle=True)
        assert (res.k, res.method, res.oracle_confirmed) == (3, METHOD_KA3, True)
        assert res.certificate["oracle"]["searched_sizes"] == [4]
        assert sorted(runs) == [("_arc_nodes", "_field"), ("_graph", "__init__"),
                                ("_refined_minima", "top_gap_events")]
        assert support_builds == {1024: 1}

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_dichotomous_sum_builds_none(self, n, support_builds):
        # the arrowhead route's dichotomy of the whole gives every block its
        # size, so no ambient is swept
        res = classify_any(generate(FamilySpec("reducible-aligned", n=n, seed=0)))
        assert (res.k, res.method) == (n, METHOD_DIRECT_SUM)
        assert {b["method"] for b in res.certificate["blocks"]} == {"dichotomy"}
        assert support_builds == {}


class TestInvariance:
    @pytest.mark.parametrize(
        "fam",
        ["k4-split-31", "k3-parallel-lines", "k3-nonparallel-lines", "pure-almost-normal", "ellipse-with-scalars"],
    )
    def test_unitary_rotation_affine(self, fam):
        rng = rng_for(zlib.crc32(fam.encode()))
        a = generate(FamilySpec(fam, seed=2))
        k0 = classify(a).k
        u = random_unitary(rng, 4)
        assert classify(u.conj().T @ a @ u).k == k0
        assert classify(rotate(a, rng.uniform(0, 2 * np.pi))).k == k0
        tau = AffineMap(
            complex(rng.uniform(0.8, 1.4), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(0.8, 1.4), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        assert classify(affine_apply(a, tau)).k == k0

    def test_seed_and_ka3_routes_agree(self):
        # the worked example carries a seed *and* a clean three-line triple
        a = flat_portion_example()
        res = classify(a)
        assert res.k == 3
        form = ka3_check(a)
        assert form is not None and form.form_ok
        assert form.case == "parallel"


def zero_pair_arrowhead(seed, n):
    """A balanced arrowhead with its third coupling pair zeroed."""
    ah = balanced_arrowhead(seed, n)
    ah.col[2] = ah.row[2] = 0
    return ah


class TestClassifyAny:
    def test_one_by_one(self):
        assert classify_any(np.array([[2.0 + 1j]])).k == 1

    def test_two_by_two(self):
        assert classify_any(random_matrix(rng_for(1), 2)).k == 2

    def test_balanced_arrowhead_any_size(self):
        ah = balanced_arrowhead(13, 6)
        res = classify_any(ah.to_dense())
        orc = max_orthonormal_boundary_set(ah.to_dense())
        assert res.k == orc.k_lower

    def test_dichotomous_5x5_reaches_n(self):
        a = generate(FamilySpec("dichotomous-arrowhead-diag", n=5, seed=3))
        res = classify_any(a)
        assert res.k == 5

    def test_unsupported_without_oracle(self):
        rng = rng_for(5)
        a = random_matrix(rng, 5)  # dense 5x5, no structure
        with pytest.raises(UnsupportedDimensionError):
            classify_any(a)

    def test_oracle_only_route(self):
        rng = rng_for(6)
        a = random_matrix(rng, 5)
        res = classify_any(a, allow_oracle_only=True)
        assert 2 <= res.k <= 5
        assert res.method == "OracleOnly"

    @pytest.mark.parametrize(
        "make, k, method, route, work",
        [
            (lambda: generate(FamilySpec("dichotomous-arrowhead-coupled", n=5, seed=0)),
             5, METHOD_ARROWHEAD, "dichotomous-irreducible", ["dichotomy"]),
            (lambda: generate(FamilySpec("pure-almost-normal", n=6, seed=0)), 2, METHOD_ARROWHEAD, "unbalanced", []),
            (lambda: generate(FamilySpec("unbalanced-arrowhead", n=6, seed=0)), 2, METHOD_ARROWHEAD, "unbalanced", []),
            (lambda: generate(FamilySpec("reducible-aligned", n=8, seed=0)),
             8, METHOD_DIRECT_SUM, None, ["decomposition", "dichotomy"]),
            (lambda: zero_pair_arrowhead(0, 6).to_dense(), None, METHOD_ARROWHEAD, "balanced-with-zero-pairs", []),
        ],
        ids=["dichotomous-coupled-5", "pure-almost-normal-6", "unbalanced-6", "reducible-aligned-8", "zero-pair-6"],
    )
    def test_route_table(self, make, k, method, route, work):
        res = classify_any(make())
        assert (res.method, res.certificate.get("route"), sorted(res.work)) == (method, route, work)
        assert k is None or res.k == k


def narrow_coupled_arrowhead(seed, n, gap):
    """Irreducible dichotomous n x n arrowhead e^{i theta} (h0 I + gap ||K|| P + iK)
    with levels gap ||K|| apart: K a Hermitian arrowhead with distinct diagonal,
    P a Hermitian idempotent arrowhead coupled at one index i by its (t, alpha)
    block, and K's coupling at i off the real line through alpha, which keeps
    the reducible branches out of reach."""
    rng = rng_for(seed)
    i, t = int(rng.integers(0, n - 1)), rng.uniform(0.15, 0.85)
    alpha = np.sqrt(t * (1 - t)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p = np.diag(np.append(rng.integers(0, 2, n - 1), 1 - t)).astype(complex)
    p[i, i], p[i, n - 1], p[n - 1, i] = t, alpha, np.conj(alpha)
    m = rng.uniform(0.25, 1.0, n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
    m[i] = abs(m[i]) * alpha / abs(alpha) * np.exp(1j * rng.choice([-1, 1]) * rng.uniform(0.3, 1.2))
    kdiag = np.linspace(-1, 1, n - 1) + rng.uniform(-0.05, 0.05, n - 1)
    k = ArrowheadMatrix(kdiag, m, np.conj(m), rng.uniform(-1, 1)).to_dense()
    levels = rng.uniform(-1, 1) * np.eye(n) + gap * np.linalg.norm(k, 2) * p
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * (levels + 1j * k)


def bumped_dichotomous(fam, n, seed, factor):
    """A dichotomous arrowhead family member with its first two last-column
    couplings scaled by ``factor``: near the scan's accept bound."""
    a = generate(FamilySpec(fam, n=n, seed=seed))
    a[:2, n - 1] *= factor
    return a


class TestOneDichotomyRule:
    """Every size decides a dichotomy by ``dichotomy_scan``; arrowheads read
    the case off its idempotent."""

    def test_rejected_arrowhead_is_scanned_once(self, monkeypatch):
        # complex Gaussian arrowheads that no arrowhead route takes: the scan
        # inside dichotomy_check rejects each, and the route after decompose
        # reuses that verdict instead of scanning the matrix again
        calls, scan = [], numrange.dichotomy_scan

        def counting(*args, **kwargs):
            calls.append(1)
            return scan(*args, **kwargs)

        for module in (arrowhead, sys.modules["numrange_lab.classify"], reduction):
            monkeypatch.setattr(module, "dichotomy_scan", counting)
        rng = np.random.default_rng(3)
        for n in range(5, 9):
            for _ in range(5):
                z = [rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1) for _ in range(3)]
                calls.clear()
                with pytest.raises(UnsupportedDimensionError):
                    classify_any(ArrowheadMatrix(*z, 0.3).to_dense())
                assert len(calls) == 1, n

    @pytest.mark.parametrize("n", range(5, 13))
    def test_narrow_coupled_arrowhead_reaches_n(self, n):
        for seed in range(10):
            res = classify_any(narrow_coupled_arrowhead(100 * n + seed, n, 1e-6))
            assert (res.k, res.method) == (n, METHOD_ARROWHEAD), seed

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_k_is_n_exactly_when_the_scan_accepts(self, n):
        # classify_any scans the normalisation of its input
        for fam in ("dichotomous-arrowhead-diag", "dichotomous-arrowhead-coupled"):
            for seed in range(6):
                for factor in (1 + 3e-8, 1 - 1e-8):
                    a = bumped_dichotomous(fam, n, seed, factor)
                    try:
                        k = classify_any(a).k
                    except UnsupportedDimensionError:
                        k = None
                    assert (k == n) == (dichotomy_scan(normalise(a).m) is not None), (fam, seed, factor)


class TestInvarianceBeyondFour:
    """k and method of the arrowhead routes at n = 5-8 do not move under a
    rotation, an affine map of criterion 8, a positive scale plus a shift,
    the scales 1e-200 and 1e200, or a shift by 1e6 ||A||; under a unitary
    similarity, k of the k = 2 families stays exact on the search route."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize(
        "fam", ["dichotomous-arrowhead-diag", "dichotomous-arrowhead-coupled", "pure-almost-normal", "unbalanced-arrowhead"]
    )
    def test_rotation_affine_scale(self, fam, n):
        rng = rng_for(8000 + n)
        for seed in range(8):
            a = generate(FamilySpec(fam, n=n, seed=seed))
            base = classify_any(a)
            tau = AffineMap(
                complex(rng.uniform(0.8, 1.3), rng.uniform(-0.3, 0.3)),
                complex(rng.uniform(0.8, 1.3), rng.uniform(-0.3, 0.3)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            shift = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * np.eye(n)
            images = {
                "rotation": rotate(a, rng.uniform(0, 2 * np.pi)),
                "affine": affine_apply(a, tau),
                "scale": rng.uniform(0.5, 2.0) * a + shift,
                "scale 1e-200": 1e-200 * a,
                "scale 1e200": 1e200 * a,
                "shift 1e6": a + 1e6 * np.linalg.norm(a, 2) * np.exp(1j * seed) * np.eye(n),
            }
            for name, b in images.items():
                res = classify_any(b)
                assert (res.k, res.method) == (base.k, base.method), (seed, name)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("fam", ["pure-almost-normal", "unbalanced-arrowhead"])
    def test_unitary_similarity(self, fam, n):
        # U*AU is no arrowhead, so the search route decides, and its cover
        # makes k = 2 exact, as the arrowhead route has it for A
        rng = rng_for(8100 + n)
        for seed in range(8):
            a = generate(FamilySpec(fam, n=n, seed=seed))
            u = random_unitary(rng, n)
            res = classify_any(u.conj().T @ a @ u, allow_oracle_only=True)
            assert (res.k, res.method, res.certificate["oracle"]["k_upper"]) == (2, METHOD_ORACLE, 2), seed
            assert classify_any(a).k == 2


def jordan_plus_zero():
    """J2 (+) 0 (+) 0: k = 2 by block additivity."""
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = 1.0
    return a


class TestExtremeScales:
    """classify_any normalises its input once, so inputs that absolute floors
    misread at extreme scales keep their scale-1 answer, with no warning."""

    @pytest.mark.parametrize(
        "make, c, k, method",
        [
            (jordan_plus_zero, 1e-20, 2, METHOD_DIRECT_SUM),
            *[(lambda: generate(FamilySpec("k3-parallel-lines", seed=4000)), c, 3, METHOD_KA3)
              for c in (1e-20, 1e-13, 1e100, 1e200)],
            (lambda: generate(FamilySpec("k4-split-22", seed=3000)), 1e200, 4, METHOD_DICHOTOMY4),
            *[(lambda: random_matrix(rng_for(6), 5), c, 2, METHOD_ORACLE) for c in (1e-13, 1e-20)],
        ],
        ids=["jordan-1e-20", "parallel-1e-20", "parallel-1e-13", "parallel-1e100", "parallel-1e200",
             "split22-1e200", "dense5-1e-13", "dense5-1e-20"],
    )
    def test_scale_one_answer(self, make, c, k, method):
        a = make()
        base = classify_any(a, allow_oracle_only=True)
        res = classify_any(c * a, allow_oracle_only=True)
        assert (base.k, base.method) == (res.k, res.method) == (k, method)
        scale = res.certificate["normalisation"]["scale"]
        assert abs(scale / c - base.certificate["normalisation"]["scale"]) <= 1e-12 * scale / c
        if method == METHOD_DICHOTOMY4:
            assert np.allclose(np.array(res.certificate["h_values"]) / c, base.certificate["h_values"], rtol=1e-8)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("c", [1e-200, 1.0, 1e200])
    def test_scalar_matrix(self, n, c):
        res = classify_any(c * np.eye(n), confirm_with_oracle=True)
        assert (res.k, res.method, res.oracle_confirmed) == (n, METHOD_DIRECT_SUM, True)
        assert res.certificate["normalisation"] == {"shift": c, "scale": 0.0}
        u = random_unitary(rng_for(n), n)
        conjugated = u.conj().T @ (c * (2 + 1j) * np.eye(n)) @ u
        assert max_orthonormal_boundary_set(conjugated).k_lower == n
        assert max_orthonormal_boundary_set(SupportFunction(conjugated)).k_lower == n

    @pytest.mark.parametrize("c", [1e-20, 1e200])
    def test_verify_reports_in_the_callers_units(self, c):
        a = random_matrix(rng_for(6), 5)
        rep = verify(c * a, 2)
        assert rep.match and rep.oracle.k_lower == 2 and rep.oracle.gram_residual <= 1e-12
        # in the units of c A: residuals of m (about 1e-16) would fail at c = 1e-20
        assert 0 < np.max(rep.oracle.boundary_residuals) <= 1e-12 * c * np.linalg.norm(a, 2)


def _stages(c):
    """What the exported stages find on c times: B = k4-split-22 seed 3000
    (irreducible, k = 4); R = ellipse-with-scalars seed 0 and M =
    reducible-mixed seed 1 (reducible, M an arrowhead); P = k3-parallel-lines seed
    4000; S = k4-split-31 seed 1 (a top-gap event off the grid); F, the worked
    example; D = diag(0, 0.5, 1, i); Z, a balanced 6x6 arrowhead with a zero
    pair; U = unbalanced-arrowhead n = 5 seed 1."""
    b, r, m, p, s, u = (c * generate(FamilySpec(fam, n=n, seed=seed))
                        for fam, n, seed in (("k4-split-22", 4, 3000), ("ellipse-with-scalars", 4, 0),
                                             ("reducible-mixed", 4, 1), ("k3-parallel-lines", 4, 4000),
                                             ("k4-split-31", 4, 1), ("unbalanced-arrowhead", 5, 1)))
    form = ka3_check(p)
    mixed = arrowhead_from_dense(m)
    return {
        "blocks": [[blk.shape[0] for blk in decompose(x).blocks] for x in (b, r, m)],
        "commutant": [commutant_dimension(x) for x in (b, r, m)],
        "direct sum": [dirsum_gauwu(decompose(x)).k for x in (r, m)],
        "k4": k4_check(b)[0],
        "scan": dichotomy_scan(b),
        "ka3": None if form is None else (form.case, form.form_ok),
        "seeds": [[sd.kind for sd in detect_seeds(x)] for x in (p, s, c * flat_portion_example(),
                                                             c * np.diag([0.0, 0.5, 1.0, 1j]))],
        "irreducible": irreducible_dichotomous_check(mixed, dichotomy_check(mixed)),
        "arrowhead k": [gauwu_with_zero_pairs(arrowhead_from_dense(c * zero_pair_arrowhead(3, 6).to_dense())).k,
                        gauwu_unbalanced_two(arrowhead_from_dense(u)).k],
        "secular": np.sort_complex(secular_eigen(arrowhead_from_dense(u)).values()),
    }


class TestScaleFreeStages:
    """Every tolerance of a stage is relative to its own input, so the
    exported stages give the same answer for c A as for A (RuntimeWarnings are
    errors in this suite, so none may over- or underflow either)."""

    @pytest.fixture(scope="class")
    def base(self):
        return _stages(1.0)

    @pytest.mark.parametrize("c", [1e-200, 1e-20, 1e20, 1e200])
    def test_same_answer_as_at_scale_one(self, base, c):
        got = _stages(c)
        for key in ("blocks", "commutant", "direct sum", "k4", "ka3", "seeds", "irreducible", "arrowhead k"):
            assert got[key] == base[key], key
        assert base["k4"] and base["ka3"] == ("parallel", True) and base["seeds"][1] == [FLAT_PORTION]
        assert np.allclose(got["secular"] / c, base["secular"], rtol=0, atol=1e-12 * np.max(np.abs(base["secular"])))
        theta, h0, h1, _ = got["scan"]
        assert abs(theta - base["scan"][0]) <= 1e-12
        assert np.allclose([h0 / c, h1 / c], base["scan"][1:3], rtol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_zero_matrix(self, n):
        z = np.zeros((n, n), dtype=complex)
        assert [blk.shape[0] for blk in decompose(z).blocks] == [1] * n
        assert dichotomy_scan(z) is None
        for c in (0.0, 1e-200, 1e200):
            res = classify_any(c * np.eye(n), confirm_with_oracle=True)
            assert (res.k, res.method, res.oracle_confirmed) == (n, METHOD_DIRECT_SUM, True)


class TestDichotomyBeyondFour:
    """An irreducible matrix whose rotated Hermitian part is two-valued has
    k = n at every size; classify_any reads that off ``dichotomy_scan`` once
    the arrowhead routes no longer see the structure, so k does not move
    under unitary similarity."""

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("fam", ["dichotomous-arrowhead-diag", "dichotomous-arrowhead-coupled"])
    def test_conjugated_arrowhead(self, fam, n):
        for seed in range(4):
            a = generate(FamilySpec(fam, n=n, seed=seed))
            assert classify_any(a).k == n
            for s in (0, 1):
                u = random_unitary(rng_for(100 * seed + 10 * n + s), n)
                b = u.conj().T @ a @ u
                res = classify_any(b)
                assert (res.k, res.method, res.certificate["route"]) == (n, METHOD_DICHOTOMY, "dichotomy-scan"), seed
                # the levels are those of Re(e^{-i theta} B), in B's coordinates
                w = np.linalg.eigvalsh(herm_part_at(b, res.certificate["theta"]))
                levels = np.array(res.certificate["h_values"])
                assert np.max(np.min(np.abs(w[:, None] - levels[None, :]), axis=1)) <= 1e-8 * np.linalg.norm(b, 2)
                low, high = (int(x) for x in res.work["dichotomy"]["case"].split("+"))
                assert low + high == n and low == np.sum(np.abs(w - levels[0]) < np.abs(w - levels[1]))
            assert verify(b, n).match  # the independent search agrees
