import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_matrix, random_unitary, rng_for
from numrange_lab import reduction
from numrange_lab.generators import ALL_FAMILIES, FamilySpec, generate, flat_portion_example
from numrange_lab.linalg import DEFAULT_TOL
from numrange_lab.numrange import SupportFunction
from numrange_lab.oracle import max_orthonormal_boundary_set
from numrange_lab.reduction import (
    block_kprime,
    commutant_dimension,
    decompose,
    dirsum_gauwu,
    reducing_eigenvectors,
)

SIZED_FAMILIES = (
    "dichotomous-arrowhead-diag",
    "dichotomous-arrowhead-coupled",
    "pure-almost-normal",
    "unbalanced-arrowhead",
    "reducible-aligned",
)


def _svd_dimension(a):
    return reduction._commutant_nullspace(a, DEFAULT_TOL)[0]


def _block_sum(blocks):
    n = sum(b.shape[0] for b in blocks)
    a = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        a[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
        pos += b.shape[0]
    return a


def _mixed_blocks(rng, n):
    """2x2 disc blocks, scalars and random 3x3 blocks filling n rows."""
    blocks, size = [], 0
    while size < n:
        m = min(int(rng.integers(1, 4)), n - size)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if m == 2:
            blocks.append(np.array([[c, 2 * rng.uniform(0.2, 1.0)], [0, c]]))
        else:
            blocks.append(c * np.eye(1) if m == 1 else random_matrix(rng, 3))
        size += m
    return blocks


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


class TestPencilRoute:
    def test_agrees_with_svd_on_family_corpora(self):
        cases = [FamilySpec(fam, seed=seed) for fam in ALL_FAMILIES for seed in range(5)]
        cases += [FamilySpec(fam, n=n, seed=seed) for fam in SIZED_FAMILIES for n in (6, 9, 12) for seed in range(2)]
        for spec in cases:
            a = generate(spec)
            assert commutant_dimension(a) == _svd_dimension(a), spec

    def test_unitarily_equivalent_blocks_fall_back(self):
        rng = rng_for(21)
        b = random_matrix(rng, 2)
        a = _block_sum([b, b])
        u = random_unitary(rng, 4)
        m = u.conj().T @ a @ u
        assert reduction._pencil_components(m) is None
        assert commutant_dimension(m) == 4
        dec = decompose(m)
        assert dec.route == "commutant-svd"
        assert [blk.shape[0] for blk in dec.blocks] == [2, 2]
        assert np.linalg.norm(dec.reassemble() - m) < 1e-10 * np.linalg.norm(m)

    def test_scalar_matrix_falls_back(self):
        assert reduction._pencil_components(np.eye(3)) is None
        assert commutant_dimension(np.eye(3)) == 9
        assert decompose(np.eye(3)).route == "commutant-svd"

    @pytest.mark.parametrize("n", [8, 24, 64])
    def test_conjugated_direct_sums(self, n):
        rng = rng_for(100 + n)
        blocks = _mixed_blocks(rng, n)
        u = random_unitary(rng, n)
        a = u.conj().T @ _block_sum(blocks) @ u
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            dec = decompose(a)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0
        # the commutator system alone would take 4n^2 x n^2 doubles (512 MB at n = 64)
        assert peak < 32 * 2**20
        assert dec.route == "pencil-eigenbasis"
        assert sorted(b.shape[0] for b in dec.blocks) == sorted(b.shape[0] for b in blocks)
        assert np.linalg.norm(dec.reassemble() - a, 2) <= 1e-12 * np.linalg.norm(a, 2)
        assert commutant_dimension(a) == len(blocks)

    @pytest.mark.parametrize("coupling, dim", [(1e-6, 1), (1e-10, 2)])
    def test_coupling_on_either_side_of_the_cutoff(self, coupling, dim):
        for seed in range(5):
            rng = rng_for(200 + seed)
            a = _block_sum([random_matrix(rng, 2), random_matrix(rng, 3)])
            e = np.zeros((5, 5), dtype=complex)
            e[:2, 2:] = random_matrix(rng, 2)[:, :1] @ random_matrix(rng, 3)[:1, :]
            a = a + coupling * np.linalg.norm(a, 2) / np.linalg.norm(e, 2) * e
            u = random_unitary(rng, 5)
            m = u.conj().T @ a @ u
            assert commutant_dimension(m) == _svd_dimension(m) == dim, seed
            dec = decompose(m)
            assert len(dec.blocks) == dim
            kept, dropped = dec.margin["kept_min"], dec.margin["dropped_max"]
            assert kept > reduction.RANK_CUTOFF and (dropped is None or dropped <= reduction.RANK_CUTOFF)

    def test_block_order_is_deterministic(self):
        rng = rng_for(31)
        blocks = _mixed_blocks(rng, 12)
        u = random_unitary(rng, 12)
        a = u.conj().T @ _block_sum(blocks) @ u
        first, second = decompose(a), decompose(a.copy())
        assert np.array_equal(first.unitary, second.unitary)
        assert all(np.array_equal(x, y) for x, y in zip(first.blocks, second.blocks))


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

    def test_certificate_records_route_and_margin(self):
        a = generate(FamilySpec("ellipse-with-scalars", seed=1, knobs={"config": "three"}))
        dec = decompose(a)
        res = dirsum_gauwu(dec)
        assert res.certificate["route"] == dec.route == "pencil-eigenbasis"
        assert res.certificate["margin"] == dec.margin
        assert dec.margin["gap"] > reduction.GAP_CUTOFF
        assert "unclamped_total" not in res.certificate

    def test_clamped_total_is_recorded(self, monkeypatch):
        dec = decompose(generate(FamilySpec("ellipse-pair", seed=0, knobs={"config": "nested"})))
        monkeypatch.setattr(reduction, "block_kprime", lambda b, ambient, tol: (0, "patched"))
        res = dirsum_gauwu(dec)
        assert res.k == 2 and res.certificate["unclamped_total"] == 0
        monkeypatch.setattr(reduction, "block_kprime", lambda b, ambient, tol: (3, "patched"))
        res = dirsum_gauwu(dec)
        assert res.k == 4 and res.certificate["unclamped_total"] == 6

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            dirsum_gauwu(decompose(flat_portion_example()))
