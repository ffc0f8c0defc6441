import time

import numpy as np
import pytest

from numrange_lab.arrowhead import arrowhead_from_dense, dichotomy_check, gauwu_balanced, gauwu_unbalanced_two
from numrange_lab.classify import classify, k4_check
from numrange_lab.generators import (
    ALL_FAMILIES,
    FamilySpec,
    InfeasibleSpecError,
    generate,
    flat_portion_example,
    perturb_unbalance,
)
from numrange_lab import generators
from numrange_lab.reduction import commutant_dimension, decompose


class TestDeterminism:
    @pytest.mark.parametrize("fam", sorted(ALL_FAMILIES))
    def test_same_spec_same_bits(self, fam):
        spec = FamilySpec(fam, seed=12)
        a1, a2 = generate(spec), generate(FamilySpec(fam, seed=12))
        assert np.array_equal(a1, a2)

    def test_different_seeds_differ(self):
        a1 = generate(FamilySpec("k4-split-31", seed=1))
        a2 = generate(FamilySpec("k4-split-31", seed=2))
        assert not np.allclose(a1, a2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("no-such-family")


class TestFamilyPredicates:
    def test_diag_dichotomous(self):
        for seed in range(5):
            a = generate(FamilySpec("dichotomous-arrowhead-diag", seed=seed))
            cert = dichotomy_check(arrowhead_from_dense(a))
            assert cert is not None and cert.case == "a"

    def test_coupled_dichotomous(self):
        for seed in range(5):
            a = generate(FamilySpec("dichotomous-arrowhead-coupled", seed=seed))
            cert = dichotomy_check(arrowhead_from_dense(a))
            assert cert is not None and cert.case == "b"
            assert commutant_dimension(a) == 1

    def test_k4_families(self):
        for fam in ("k4-split-22", "k4-split-31"):
            for seed in range(5):
                a = generate(FamilySpec(fam, seed=seed))
                ok, _ = k4_check(a)
                assert ok
                assert commutant_dimension(a) == 1

    def test_k3_families(self):
        for fam in ("k3-parallel-lines", "k3-nonparallel-lines"):
            for seed in range(3):
                a = generate(FamilySpec(fam, seed=seed))
                assert classify(a).k == 3

    def test_unbalanced_families(self):
        for fam in ("pure-almost-normal", "unbalanced-arrowhead"):
            for seed in range(5):
                a = generate(FamilySpec(fam, seed=seed))
                res = gauwu_unbalanced_two(arrowhead_from_dense(a))
                assert res.k == 2

    def test_reducible_families(self):
        for fam in ("reducible-aligned", "reducible-mixed"):
            for seed in range(5):
                a = generate(FamilySpec(fam, seed=seed))
                assert commutant_dimension(a) >= 2

    def test_ellipse_configs_split(self):
        for fam, cfg, sizes in (
            ("ellipse-pair", "nested", [2, 2]),
            ("ellipse-with-scalars", "four", [1, 1, 2]),
        ):
            a = generate(FamilySpec(fam, seed=0, knobs={"config": cfg, "conjugate": True}))
            dec = decompose(a)
            assert sorted(b.shape[0] for b in dec.blocks) == sizes


class TestWorkedExample:
    def test_entries(self):
        a = flat_portion_example()
        assert a[0, 0] == 2j
        assert a[3, 3] == 0.375 + 1j * (63.0 / 52.0)
        assert a[0, 2] == 1j / 8 and a[2, 0] == 1j / 8
        assert a[1, 3] == -0.25

    def test_is_parallel_form_with_seed_values(self):
        from numrange_lab.classify import extract_parallel_form, parallel_seed_condition

        rep = parallel_seed_condition(extract_parallel_form(flat_portion_example()))
        assert rep.applies and abs(rep.t - 1) < 1e-12 and abs(rep.lam - 17 / 8) < 1e-12


class TestPerturbUnbalance:
    def _balanced_k3(self):
        from numrange_lab.arrowhead import ArrowheadMatrix

        diag = np.array([0.0 + 1j, 0.7 + 1j, 0.35 + 0.95j])
        b = np.array([0.5 * np.exp(0.3j), 0.6 * np.exp(2.0j), 0.45 * np.exp(-1.2j)])
        return ArrowheadMatrix(diag, b, np.conj(b), 0.5 + 0.92j)

    def test_zero_eps_warns_and_keeps(self):
        ah = self._balanced_k3()
        with pytest.warns(UserWarning):
            same = perturb_unbalance(ah, 0.0)
        assert np.array_equal(same.col, ah.col)
        assert gauwu_balanced(same).k == 3

    def test_small_eps_flips_to_two(self):
        ah = self._balanced_k3()
        assert gauwu_balanced(ah).k == 3
        for eps in (1e-3, -1e-3):
            pert = perturb_unbalance(ah, eps)
            res = gauwu_unbalanced_two(pert)
            assert res.k == 2

    def test_eps_sweep_discontinuity(self):
        ah = self._balanced_k3()
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            pert = perturb_unbalance(ah, eps)
            assert classify(pert.to_dense()).k == 2, eps


class TestInfeasible:
    def test_reducible_mixed_needs_n4(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec("reducible-mixed", n=5, seed=0))

    @pytest.mark.parametrize("fam", ["ellipse-pair", "ellipse-with-scalars"])
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 5])
    def test_ellipse_families_need_n4(self, fam, n):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec(fam, n=n, seed=0))

    def test_small_n_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec("dichotomous-arrowhead-diag", n=2, seed=0))

    def test_unplaceable_counts_fail_before_any_draw(self):
        # disc packing: 262 points 0.15 apart cannot fit in [-1, 1]^2 grown by
        # 0.075, and 202 reals 0.01 apart cannot fit in [-1, 1]
        class NoDraws:
            def uniform(self, *args, **kwargs):
                raise AssertionError("drew for a count no draw can place")

        with pytest.raises(InfeasibleSpecError):
            generators._random_distinct_points(NoDraws(), 262, 0.15)
        with pytest.raises(InfeasibleSpecError):
            generators._distinct_reals(NoDraws(), 202, -1.0, 1.0, 1e-2)

    @pytest.mark.parametrize("seed", range(5))
    def test_spaced_draws_past_the_rejection_budget(self, seed):
        # pure-almost-normal at n = 34 (33 points 0.15 apart) exhausts the
        # whole-set draws on 4 of these seeds and dichotomous-arrowhead-diag at
        # n = 50 (50 reals 0.01 apart) on all 5; the samplers then place
        # points one at a time and draw the reals exactly
        ah = arrowhead_from_dense(generate(FamilySpec("pure-almost-normal", n=34, seed=seed)))
        d = np.abs(ah.diag[:, None] - ah.diag[None, :])[~np.eye(33, dtype=bool)]
        assert np.min(d) >= 0.15 and np.max(np.abs(ah.diag.real)) <= 1 and np.max(np.abs(ah.diag.imag)) <= 1
        a = generate(FamilySpec("dichotomous-arrowhead-diag", n=50, seed=seed))
        cert = dichotomy_check(arrowhead_from_dense(a))
        assert a.shape == (50, 50) and cert is not None and cert.case == "a"

    def test_exact_real_draw_fills_the_bound(self):
        # 201 reals 0.01 apart fit [-1, 1] only evenly spaced: no whole draw
        # succeeds, and the exact draw lands on that spacing up to rounding
        vals = np.sort(generators._distinct_reals(np.random.default_rng(0), 201, -1.0, 1.0, 1e-2))
        assert -1.0 <= vals[0] and vals[-1] <= 1.0 and np.min(np.diff(vals)) >= 1e-2 - 1e-15

    @pytest.mark.parametrize("fam, n", [("pure-almost-normal", 300), ("unbalanced-arrowhead", 300),
                                        ("dichotomous-arrowhead-diag", 300)])
    def test_large_n_fails_at_once(self, fam, n):
        t0 = time.perf_counter()
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec(fam, n=n, seed=0))
        assert time.perf_counter() - t0 < 1.0
