import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hermitian_eigenvalues_by_bisection, random_matrix, rng_for
from numrange_lab.generators import flat_portion_example
from numrange_lab.linalg import (
    AffineMap,
    DimensionError,
    NonInvertibleMapError,
    StructureError,
    ToleranceConfig,
    _pencil_at,
    affine_apply,
    affine_invert,
    eig_hermitian_clustered,
    hermitian_parts,
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


class TestEigClustered:
    def test_identity_single_cluster(self):
        es = eig_hermitian_clustered(np.eye(4))
        assert len(es.clusters) == 1
        assert es.multiplicities() == [4]

    def test_two_level_diagonal(self):
        h = np.diag([0.0, 0.0, 1.0, 1.0])
        es = eig_hermitian_clustered(h)
        assert es.multiplicities() == [2, 2]
        assert np.allclose(sorted(np.unique(np.round(es.values, 12))), [0, 1])

    def test_against_bisection_oracle(self):
        rng = rng_for(3)
        z = random_matrix(rng, 6)
        h = (z + z.conj().T) / 2
        es = eig_hermitian_clustered(h)
        scale = np.linalg.norm(h, 2)
        for j in range(6):
            r = np.linalg.norm(h @ es.vectors[:, j] - es.values[j] * es.vectors[:, j])
            assert r < 1e-12 * scale
        oracle = hermitian_eigenvalues_by_bisection(h)
        assert len(oracle) == 6
        assert np.max(np.abs(oracle - es.values)) < 1e-9 * scale

    def test_trace_identity(self):
        rng = rng_for(8)
        for _ in range(10):
            z = random_matrix(rng, 5)
            h = (z + z.conj().T) / 2
            es = eig_hermitian_clustered(h)
            assert sum(es.multiplicities()) == 5
            assert abs(np.trace(h).real - np.sum(es.values)) < 1e-10 * 5 * np.linalg.norm(h, 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructureError):
            eig_hermitian_clustered(np.array([[0, 1], [0, 0]], dtype=complex))


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

    def test_invert_round_trip(self):
        rng = rng_for(7)
        for trial in range(20):
            tau = AffineMap(
                complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),
                complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            try:
                tau.validate()
            except NonInvertibleMapError:
                continue
            inv = affine_invert(tau)
            a = random_matrix(rng, 4)
            back = affine_apply(affine_apply(a, tau), inv)
            assert np.max(np.abs(back - a)) < 1e-10

    def test_simple_inverses(self):
        inv = affine_invert(AffineMap(2, 1, 0))
        assert abs(inv.a - 0.5) < 1e-14 and abs(inv.b - 1) < 1e-14
        inv = affine_invert(AffineMap(1, 1, 3 + 4j))
        assert abs(inv.c + (3 + 4j)) < 1e-14

    def test_rejects_degenerate(self):
        with pytest.raises(NonInvertibleMapError):
            affine_apply(np.eye(2), AffineMap(0, 1, 0))
        with pytest.raises(NonInvertibleMapError):
            affine_apply(np.eye(2), AffineMap(1, 1j, 0))  # b/a purely imaginary

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


class TestToleranceConfig:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(eq_tol=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_requires_finite(self, value):
        with pytest.raises(ValueError):
            ToleranceConfig(split_tol=value)

    def test_scaling_helpers(self):
        t = ToleranceConfig()
        assert t.eq_abs(10.0) == 10.0 * t.eq_tol
        assert t.cluster_abs(2.0) == 2.0 * t.cluster_tol
