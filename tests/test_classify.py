import importlib

import numpy as np
import pytest

from conftest import balanced_arrowhead, random_matrix, random_unitary, rng_for
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
from numrange_lab.generators import FamilySpec, generate, flat_portion_example
from numrange_lab.linalg import AffineMap, DimensionError, affine_apply, rotate
from numrange_lab.numrange import dichotomy_scan
from numrange_lab.oracle import max_orthonormal_boundary_set, verify
from numrange_lab.results import (
    METHOD_DICHOTOMY4,
    METHOD_DIRECT_SUM,
    METHOD_FALLBACK2,
    METHOD_KA3,
    METHOD_SEED3,
)

# the package re-exports the function `classify`, which hides the module
classify_mod = importlib.import_module("numrange_lab.classify")


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


# 2+2 and 3+1 levels, 1e-3 and 1e-4 ||K|| apart, five seeds of their own each
NARROW_CASES = [
    (5 * i + j, lower, gap) for i, (lower, gap) in enumerate([(2, 1e-3), (2, 1e-4), (3, 1e-3), (3, 1e-4)]) for j in range(5)
]


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

    @pytest.mark.parametrize("seed,lower,gap", NARROW_CASES[::7])
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

    def test_canonical_pattern_reconstruction(self):
        a = generate(FamilySpec("k3-nonparallel-lines", seed=4))
        form = ka3_check(a)
        b = form.unitary.conj().T @ affine_apply(a, form.affine) @ form.unitary
        h = (b + b.conj().T) / 2
        k = (b - b.conj().T) / 2j
        assert np.max(np.abs(h[0, :])) < 1e-8
        assert np.max(np.abs(k[1, :])) < 1e-8
        assert abs(k[2, 3] + h[2, 3]) < 1e-8


class TestClassifyPipeline:
    def test_worked_example(self):
        res = classify(flat_portion_example())
        assert res.k == 3
        assert res.method == METHOD_SEED3

    def test_seed_route_records_canonical_form_failure(self, monkeypatch):
        from numrange_lab.linalg import NonInvertibleMapError

        def singular(*args, **kwargs):
            raise NonInvertibleMapError("affine map needs a*b != 0")

        monkeypatch.setattr(classify_mod, "ka3_check", singular)
        res = classify(flat_portion_example())
        assert res.k == 3 and res.method == METHOD_SEED3
        assert "NonInvertibleMapError" in res.certificate["canonical_form_error"]

    def test_seed_route_propagates_unexpected_errors(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(classify_mod, "ka3_check", broken)
        with pytest.raises(RuntimeError):
            classify(flat_portion_example())

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

    def test_oracle_confirmation_flag(self):
        res = classify(flat_portion_example(), confirm_with_oracle=True)
        assert res.oracle_confirmed is True
        assert res.certificate["oracle"]["k_lower"] == 3

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            classify(np.eye(3))


class TestInvariance:
    @pytest.mark.parametrize(
        "fam",
        ["k4-split-31", "k3-parallel-lines", "k3-nonparallel-lines", "pure-almost-normal", "ellipse-with-scalars"],
    )
    def test_unitary_rotation_affine(self, fam):
        rng = rng_for(hash(fam) % 2**31)
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
