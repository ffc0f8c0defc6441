import numpy as np
import pytest

from conftest import random_matrix, random_unitary, rng_for
from numrange_lab.generators import FamilySpec, generate, flat_portion_example
from numrange_lab.numrange import SupportFunction
from numrange_lab.oracle import max_orthonormal_boundary_set
from numrange_lab.reduction import (
    block_kprime,
    commutant_dimension,
    decompose,
    dirsum_gauwu,
    reducing_eigenvectors,
)


class TestCommutant:
    def test_identity_full_commutant(self):
        assert commutant_dimension(np.eye(3)) == 9

    def test_irreducible_2x2(self):
        assert commutant_dimension(np.array([[0, 1], [0, 0]], dtype=complex)) == 1

    def test_mixed_reducible_construction(self):
        for seed in range(3):
            a = generate(FamilySpec("reducible-mixed", seed=seed))
            assert commutant_dimension(a) >= 2

    def test_block_diagonal_has_two(self):
        rng = rng_for(1)
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = random_matrix(rng, 2)
        a[2:, 2:] = random_matrix(rng, 2)
        assert commutant_dimension(a) == 2

    def test_unitary_invariance(self):
        rng = rng_for(2)
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = random_matrix(rng, 2)
        a[2:, 2:] = random_matrix(rng, 2)
        for _ in range(5):
            u = random_unitary(rng, 4)
            assert commutant_dimension(u.conj().T @ a @ u) == 2


class TestDecompose:
    def test_diagonal_splits_fully(self):
        dec = decompose(np.diag([1.0, 1j]))
        assert [b.shape[0] for b in dec.blocks] == [1, 1]

    def test_conjugated_direct_sum_recovered(self):
        rng = rng_for(3)
        a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2], a[2:, 2:] = a1, a2
        u = random_unitary(rng, 4)
        dec = decompose(u.conj().T @ a @ u)
        assert sorted(b.shape[0] for b in dec.blocks) == [2, 2]
        # the recovered blocks have the same numerical ranges as the originals
        sf = {i: SupportFunction(m, grid_size=128) for i, m in enumerate([a1, a2])}
        for b in dec.blocks:
            sb = SupportFunction(b, grid_size=128)
            match = min(
                np.max(np.abs(sb.grid_values - sf[i].grid_values)) for i in range(2)
            )
            assert match < 1e-8

    def test_reassembly(self):
        rng = rng_for(4)
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = random_matrix(rng, 2)
        a[2, 2], a[3, 3] = 1.0, -1j
        u = random_unitary(rng, 4)
        m = u.conj().T @ a @ u
        dec = decompose(m)
        assert np.linalg.norm(dec.reassemble() - m) < 1e-9 * np.linalg.norm(m)
        uh = dec.unitary
        assert np.linalg.norm(uh.conj().T @ uh - np.eye(4)) < 1e-10

    def test_worked_example_irreducible(self):
        dec = decompose(flat_portion_example())
        assert len(dec.blocks) == 1


class TestReducingEigenvectors:
    def test_normal_matrix_full_basis(self):
        a = np.diag([1.0, 1j, -2.0])
        red = reducing_eigenvectors(a)
        assert len(red) == 3
        vecs = np.column_stack([v for _, v in red])
        assert abs(abs(np.linalg.det(vecs))) > 0.9

    def test_arrowhead_zero_pair(self):
        from numrange_lab.arrowhead import ArrowheadMatrix

        ah = ArrowheadMatrix([0.5, -0.5], [1.0, 0.0], [0.2, 0.0], 0.1)
        red = reducing_eigenvectors(ah.to_dense())
        hits = [v for lam, v in red if abs(lam - (-0.5)) < 1e-9]
        assert hits and abs(abs(hits[0][1]) - 1.0) < 1e-9

    def test_concurrent_lines_vector_shape(self):
        # an arrowhead whose coupling lines meet at lam reduces along the
        # secular eigenvector at lam
        lam = 0.3 + 0.2j
        d = np.array([lam + np.exp(1j * 0.2), lam + 0.8 * np.exp(1j * 1.4), lam + 1.3 * np.exp(1j * 2.9)])
        phis = np.angle(lam - d)
        mod = np.array([0.5, 0.4, 0.7])
        beta = np.array([0.3, 2.0, -1.0])
        col = mod * np.exp(1j * beta)
        row = mod * np.exp(1j * (2 * phis - beta))
        from numrange_lab.arrowhead import ArrowheadMatrix

        corner = lam - np.sum(col * row / (lam - d))
        ah = ArrowheadMatrix(d, col, row, corner)
        red = reducing_eigenvectors(ah.to_dense())
        match = [v for lv, v in red if abs(lv - lam) < 1e-7]
        assert match
        v = match[0]
        expected = np.append(col / (lam - d), 1.0)
        expected /= np.linalg.norm(expected)
        overlap = abs(np.vdot(v, expected))
        assert overlap > 1 - 1e-8

    def test_irreducible_has_none(self):
        assert reducing_eigenvectors(flat_portion_example()) == []


class TestDirsum:
    def _conj(self, a, seed):
        u = random_unitary(rng_for(seed), a.shape[0])
        return u.conj().T @ a @ u

    def test_nested_ellipses_two(self):
        a = generate(FamilySpec("ellipse-pair", seed=0, knobs={"config": "nested"}))
        dec = decompose(a)
        res = dirsum_gauwu(dec)
        assert res.k == 2
        assert max_orthonormal_boundary_set(a).k_lower == 2

    def test_ellipse_scalar_configs(self):
        for cfg, expect in (("three", 3), ("four", 4)):
            a = generate(FamilySpec("ellipse-with-scalars", seed=1, knobs={"config": cfg}))
            res = dirsum_gauwu(decompose(a))
            assert res.k == expect
            assert max_orthonormal_boundary_set(a).k_lower == expect

    def test_normal_square_counts_vertices(self):
        a = self._conj(np.diag([1.0, 1j, -1.0, -1j]), 9)
        dec = decompose(a)
        res = dirsum_gauwu(dec)
        assert res.k == 4

    def test_ellipse_pair_full_sweep_matches_oracle(self):
        for cfg in ("nested", "crossed", "aligned"):
            for seed in range(3):
                a = generate(FamilySpec("ellipse-pair", seed=seed, knobs={"config": cfg}))
                res = dirsum_gauwu(decompose(a))
                orc = max_orthonormal_boundary_set(a)
                assert res.k == orc.k_lower, (cfg, seed, res.k, orc.k_lower)

    def test_one_plus_three_split(self):
        # scalar far outside an irreducible 3x3 block
        rng = rng_for(11)
        block = random_matrix(rng, 3)
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 6.0
        a[1:, 1:] = block
        m = self._conj(a, 12)
        dec = decompose(m)
        assert sorted(b.shape[0] for b in dec.blocks) == [1, 3]
        res = dirsum_gauwu(dec)
        orc = max_orthonormal_boundary_set(m)
        assert res.k == orc.k_lower

    def test_nearly_normal_3x3_block(self):
        # commutator just above eq_tol * ||B||^2 * n: block_kprime and
        # kprime_relative must agree that the block is normal
        block = np.diag([0.0, 1.0, 1j])
        block[0, 1] = 3e-8
        ambient = SupportFunction(np.diag([0.0, 1.0, 1j, -1 - 1j, 2.0]))
        assert block_kprime(block, ambient) == (1, "normal-spectrum-contact")

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            dirsum_gauwu(decompose(flat_portion_example()))
