import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_matrix, random_unitary, rng_for
from numrange_lab.generators import flat_portion_example
from numrange_lab.linalg import (
    AffineMap,
    DimensionError,
    NonInvertibleMapError,
    ToleranceConfig,
    _pencil_at,
    affine_apply,
    hermitian_parts,
    normalise,
    rotate,
)
from numrange_lab.numrange import SupportFunction


class TestHermitianParts:
    def test_hermitian_input_has_zero_skew(self):
        h = np.array([[2.0, 1 + 1j], [1 - 1j, -1.0]])
        hp, kp = hermitian_parts(h)
        assert np.allclose(kp, 0)
        assert np.allclose(hp, h)

    def test_skew_input(self):
        a = 1j * np.eye(3)
        hp, kp = hermitian_parts(a)
        assert np.allclose(hp, 0)
        assert np.allclose(kp, np.eye(3))

    def test_worked_example_entries(self):
        a = flat_portion_example()
        hp, kp = hermitian_parts(a)
        assert hp[0, 0] == 0 and kp[0, 0] == 2
        assert hp[0, 2] == 0 and kp[0, 2] == 0.125

    def test_reconstruction_exact(self):
        rng = rng_for(11)
        for _ in range(20):
            a = random_matrix(rng, 5)
            hp, kp = hermitian_parts(a)
            err = np.abs(hp + 1j * kp - a)
            assert np.max(err) <= 4 * np.finfo(float).eps * np.max(np.abs(a))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            hermitian_parts(np.zeros((2, 3)))


class TestPencilMember:
    def test_matches_rotated_parts(self):
        a = random_matrix(rng_for(12), 5)
        h, k = hermitian_parts(a)
        bound = 1e-14 * np.linalg.norm(a, 2)
        thetas = np.linspace(0.0, 2 * np.pi, 7, endpoint=False) + 0.3

        def rotated(t):
            r = np.exp(-1j * t) * a
            return (r + r.conj().T) / 2, (r - r.conj().T) / 2j

        for t in (0.7, np.float64(0.7), np.array(0.7)):
            re, im = rotated(0.7)
            assert _pencil_at(h, k, t).shape == (5, 5)
            assert np.max(np.abs(_pencil_at(h, k, t) - re)) <= bound
            assert np.max(np.abs(_pencil_at(k, -h, t) - im)) <= bound
        stacked = _pencil_at(h, k, thetas)
        assert stacked.shape == (7, 5, 5)
        for t, member in zip(thetas, stacked):
            assert np.max(np.abs(member - rotated(t)[0])) <= bound

    def test_support_function_return_types(self):
        sf = SupportFunction(random_matrix(rng_for(13), 4), grid_size=64)
        assert type(sf(0.7)) is float
        assert type(sf(np.array(0.7))) is float
        values = sf(np.array([0.7, 1.4, 2.1]))
        assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert values[0] == pytest.approx(sf(0.7), abs=1e-14)


class TestRotate:
    def test_identity_rotation(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(rotate(a, 0), a)

    def test_half_turn(self):
        assert np.allclose(rotate(np.eye(2), np.pi), -np.eye(2))

    def test_quarter_turn_diag(self):
        a = np.diag([1.0, -1.0])
        r = rotate(a, np.pi / 2)
        assert np.allclose(r, np.diag([1j, -1j]))
        re = (np.exp(-1j * np.pi / 2) * r + np.exp(1j * np.pi / 2) * r.conj().T) / 2
        # direct 2x2 computation: the rotated-back Hermitian part is diag(1,-1)
        assert abs(np.linalg.eigvalsh(re)[-1] - 1.0) < 1e-14

    @given(theta=st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=25)
    def test_round_trip(self, theta):
        a = np.array([[1 + 1j, 2], [0.5j, -1]], dtype=complex)
        assert np.allclose(rotate(rotate(a, theta), -theta), a, atol=1e-12)


class TestAffine:
    def test_identity_map(self):
        a = random_matrix(rng_for(0), 3)
        assert np.allclose(affine_apply(a, AffineMap(1, 1, 0)), a)

    def test_translation_shifts_support(self):
        from numrange_lab.numrange import support

        a = random_matrix(rng_for(1), 3)
        c = 3 + 4j
        before = support(a, 0.0).p
        after = support(affine_apply(a, AffineMap(1, 1, c)), 0.0).p
        assert abs(after - before - c.real) < 1e-10

    def test_pointwise_action_matches(self):
        # f_{tau(A)}(x) = tau(f_A(x)) holds exactly by construction
        rng = rng_for(5)
        a = random_matrix(rng, 4)
        tau = AffineMap(1.2 - 0.3j, 0.7 + 0.5j, 2 - 1j)
        b = affine_apply(a, tau)
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x /= np.linalg.norm(x)
            za = complex(x.conj() @ a @ x)
            zb = complex(x.conj() @ b @ x)
            assert abs(zb - tau.apply_point(za)) < 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(NonInvertibleMapError):
            affine_apply(np.eye(2), AffineMap(0, 1, 0))
        with pytest.raises(NonInvertibleMapError):
            affine_apply(np.eye(2), AffineMap(1, 1j, 0))  # b/a purely imaginary

    @pytest.mark.parametrize("c", [1e-7, 1e-200, 1e100])
    def test_validity_is_scale_free(self, c):
        # c times the identity map, and a rotated one, are invertible at any c > 0
        for tau in (AffineMap(c, c), AffineMap(c * (0.6 + 0.8j), c * (0.6 + 0.8j), 1 - 2j)):
            tau.validate()
        for bad in (AffineMap(0, c), AffineMap(c, 0), AffineMap(c * (0.6 + 0.8j), c * (0.6 + 0.8j) * 1j)):
            with pytest.raises(NonInvertibleMapError):
                bad.validate()

    def test_preserves_commutant_dimension(self):
        from numrange_lab.reduction import commutant_dimension

        rng = rng_for(9)
        a = random_matrix(rng, 4)
        blocky = np.zeros((4, 4), dtype=complex)
        blocky[:2, :2] = random_matrix(rng, 2)
        blocky[2:, 2:] = random_matrix(rng, 2)
        tau = AffineMap(1.5 + 0.2j, 0.9 - 0.4j, 1j)
        for m in (a, blocky):
            assert commutant_dimension(m) == commutant_dimension(affine_apply(m, tau))


class TestNormalise:
    @pytest.mark.parametrize("c", [1e-200, 1e-20, 1.0, 1e200])
    def test_traceless_unit_frobenius_at_any_scale(self, c):
        a = random_matrix(rng_for(4), 5)
        base, norm = normalise(a), normalise(c * a + c * (3 - 1j) * np.eye(5))
        assert abs(np.trace(norm.m)) < 1e-14 and abs(np.linalg.norm(norm.m) - 1) < 1e-14
        assert np.max(np.abs(norm.m - base.m)) < 1e-13
        assert abs(norm.scale / c - base.scale) <= 1e-13 * base.scale
        assert abs(norm.shift / c - (base.shift + 3 - 1j)) <= 1e-13 * abs(base.shift + 3 - 1j)
        # a level h of m in direction theta is Re(e^{-i theta} shift) + scale h in the input's coordinates
        lift = (np.exp(-0.7j) * (3 - 1j)).real
        assert abs(norm.level(0.4, 0.7) / c - (lift + base.level(0.4, 0.7))) <= 1e-13 * abs(base.level(0.4, 0.7))

    @pytest.mark.parametrize("c", [1e-200, 1.0, 1e200])
    def test_scalar_up_to_rounding_is_the_zero_matrix(self, c):
        u = random_unitary(rng_for(5), 6)
        norm = normalise(u.conj().T @ (c * (2 + 1j) * np.eye(6)) @ u)
        assert norm.scale == 0.0 and not norm.m.any()
        assert abs(norm.shift - c * (2 + 1j)) <= 1e-14 * c


class TestToleranceConfig:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(eq_tol=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_requires_finite(self, value):
        with pytest.raises(ValueError):
            ToleranceConfig(eq_tol=value)

    def test_eq_tol_is_the_one_setting(self):
        # the other four are class constants, read on the class or an instance
        for name in ("cluster_tol", "gram_tol", "boundary_tol", "split_tol"):
            with pytest.raises(TypeError):
                ToleranceConfig(**{name: 1e-3})
        tol = ToleranceConfig(eq_tol=1e-9)
        assert tol.gram_tol == ToleranceConfig.gram_tol == 1e-6
        assert tol.to_dict() == {"eq_tol": 1e-9, "cluster_tol": 1e-7, "gram_tol": 1e-6, "boundary_tol": 1e-8,
                                 "split_tol": 1e-12}
