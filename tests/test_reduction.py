import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bounded, commutant_dimension_by_commutators, random_matrix, random_unitary, rng_for
from numrange_lab import numrange, reduction
from numrange_lab.classify import classify, classify_any
from numrange_lab.generators import ALL_FAMILIES, FamilySpec, generate, flat_portion_example
from numrange_lab.linalg import reducing_eigenvectors
from numrange_lab.numrange import SupportFunction, dichotomy_scan
from numrange_lab.oracle import max_orthonormal_boundary_set, verify
from numrange_lab.reduction import (
    block_kprime,
    commutant_dimension,
    decompose,
    dirsum_gauwu,
)
from numrange_lab.results import METHOD_DIRECT_SUM

SIZED_FAMILIES = (
    "dichotomous-arrowhead-diag",
    "dichotomous-arrowhead-coupled",
    "pure-almost-normal",
    "unbalanced-arrowhead",
    "reducible-aligned",
)


def _svd_dimension(a):
    return commutant_dimension_by_commutators(a)


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
        assert commutant_dimension(m) == 4
        dec = decompose(m)
        assert [blk.shape[0] for blk in dec.blocks] == [2, 2]
        assert np.linalg.norm(dec.reassemble() - m) < 1e-10 * np.linalg.norm(m)

    def test_scalar_matrix_falls_back(self):
        assert commutant_dimension(np.eye(3)) == 9

    @pytest.mark.parametrize("n", [8, 24, 64])
    def test_conjugated_direct_sums(self, n):
        rng = rng_for(100 + n)
        blocks = _mixed_blocks(rng, n)
        u = random_unitary(rng, n)
        a = u.conj().T @ _block_sum(blocks) @ u
        dec, elapsed, peak = bounded(decompose, a)
        assert elapsed < 2.0
        # the commutator system alone would take 4n^2 x n^2 doubles (512 MB at n = 64)
        assert peak < 32 * 2**20
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


class TestRepeatedAndScalarParts:
    """Inputs where no pencil member separates its eigenvalues."""

    def _conj(self, a, rng):
        u = random_unitary(rng, a.shape[0])
        return u.conj().T @ a @ u

    @pytest.mark.parametrize("n", [32, 64])
    def test_equivalent_pair_at_size(self, n):
        rng = rng_for(400 + n)
        b = random_matrix(rng, n // 2)
        a = self._conj(_block_sum([b, b]), rng)
        dec, elapsed, peak = bounded(decompose, a)
        assert elapsed < 2.0
        assert peak < 64 * 2**20
        assert [blk.shape[0] for blk in dec.blocks] == [n // 2, n // 2]
        assert np.linalg.norm(dec.reassemble() - a, 2) <= 1e-12 * np.linalg.norm(a, 2)
        assert commutant_dimension(a) == 4

    def test_scalar_matrix_at_size(self):
        dec, elapsed, _ = bounded(decompose, np.eye(64))
        assert elapsed < 1.0
        assert [blk.shape[0] for blk in dec.blocks] == [1] * 64
        dim, elapsed, _ = bounded(commutant_dimension, np.eye(64))
        assert elapsed < 1.0 and dim == 64**2

    def test_two_scalar_parts_at_size(self):
        a = self._conj(np.diag([2.0] * 32 + [1j] * 32), rng_for(410))
        dec, elapsed, _ = bounded(decompose, a)
        assert elapsed < 1.0
        assert [blk.shape[0] for blk in dec.blocks] == [1] * 64
        assert np.linalg.norm(dec.reassemble() - a, 2) <= 1e-12 * np.linalg.norm(a, 2)
        dim, elapsed, _ = bounded(commutant_dimension, a)
        assert elapsed < 1.0 and dim == 2 * 32**2

    @pytest.mark.parametrize("scalars, dim, sizes", [(0, 5, [2, 2, 3]), (4, 20, [1, 1, 1, 1, 2, 2])])
    def test_pair_beside_other_parts(self, scalars, dim, sizes):
        rng = rng_for(420 + scalars)
        b = random_matrix(rng, 2)
        parts = [2 * np.eye(scalars), b, b] if scalars else [b, b, random_matrix(rng, 3)]
        a = self._conj(_block_sum(parts), rng)
        assert commutant_dimension(a) == _svd_dimension(a) == dim
        dec = decompose(a)
        assert sorted(blk.shape[0] for blk in dec.blocks) == sizes
        assert np.linalg.norm(dec.reassemble() - a, 2) <= 1e-12 * np.linalg.norm(a, 2)

    @given(
        parts=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4).filter(
            lambda ps: sum(m * r for m, r in ps) <= 12
        ),
        seed=st.integers(0, 2**16),
    )
    def test_repeated_blocks_property(self, parts, seed):
        rng = rng_for(seed)
        blocks = []
        for m, r in parts:
            b = random_matrix(rng, m)
            blocks += [b] * r
        a = self._conj(_block_sum(blocks), rng)
        dim = sum(r * r for _, r in parts)
        assert commutant_dimension(a) == _svd_dimension(a) == dim
        dec = decompose(a)
        assert sorted(blk.shape[0] for blk in dec.blocks) == sorted(b.shape[0] for b in blocks)
        assert np.linalg.norm(dec.reassemble() - a, 2) <= 1e-10 * np.linalg.norm(a, 2)

    def test_classify_equivalent_pair(self):
        rng = rng_for(430)
        b = random_matrix(rng, 2)
        a = self._conj(_block_sum([b, b]), rng)
        res = classify(a)
        assert res.method == "DirectSum" and res.k == 4
        assert verify(a, 4).match

    def test_translated_irreducible(self):
        # every member's spectrum is one cluster, whose spread alone decides
        rng = rng_for(440)
        a = 1e6 * np.eye(4) + random_matrix(rng, 4)
        assert commutant_dimension(a) == 1
        dec = decompose(a)
        assert [blk.shape[0] for blk in dec.blocks] == [4]
        assert np.linalg.norm(dec.reassemble() - a, 2) <= 1e-12 * np.linalg.norm(a, 2)

    def test_pair_shifted_inside_a_cluster(self):
        # the copies' eigenvalues are 1e-7 * scale apart, below GAP_CUTOFF
        rng = rng_for(441)
        b = random_matrix(rng, 2)
        shift = 1e-7 * np.linalg.norm(b, 2)
        a = self._conj(_block_sum([b, b + shift * np.eye(2)]), rng)
        assert commutant_dimension(a) == _svd_dimension(a) == 2
        dec = decompose(a)
        assert [blk.shape[0] for blk in dec.blocks] == [2, 2]
        assert np.linalg.norm(dec.reassemble() - a, 2) <= 1e-12 * np.linalg.norm(a, 2)


def test_separated_dense_cost():
    # Even with every eigenvalue of the member separated the system is
    # n^2 x n: O(n^4) time and 16 n^3 bytes (32 MB at n = 128) held twice
    # while it is factored.
    a = random_matrix(rng_for(450), 128)
    dec, elapsed, peak = bounded(decompose, a)
    assert [blk.shape[0] for blk in dec.blocks] == [128]
    assert elapsed < 5.0
    assert peak < 96 * 2**20


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
        assert block_kprime(block, ambient)[:2] == (1, "normal-spectrum-contact")

    @pytest.mark.parametrize("n", [24, 32])
    def test_dichotomous_block_gets_its_size_without_search(self, n, monkeypatch):
        # every basis adapted to the big block's idempotent lies on two
        # supporting lines of the whole range, so no search is needed
        def refuse(*args, **kwargs):
            raise AssertionError("restricted search called")

        monkeypatch.setattr(reduction, "restricted_max_set", refuse)
        a = generate(FamilySpec("reducible-aligned", n=n, seed=0))
        # classify_any passes on the arrowhead route's dichotomy of the whole;
        # dirsum_gauwu alone has none, so block_kprime's scan decides the block
        for res in (classify_any(a), dirsum_gauwu(decompose(a))):
            assert (res.k, res.method) == (n, METHOD_DIRECT_SUM)
            assert max(res.certificate["blocks"], key=lambda b: b["size"])["method"] == "dichotomy"

    def test_one_normality_test_per_block(self, monkeypatch):
        # block_kprime hands its verdict to relative_share, which would
        # otherwise test the same block again
        calls = []

        def counting(b, tol, _orig=reduction._is_normal):
            calls.append(b.shape[0])
            return _orig(b, tol)

        monkeypatch.setattr(reduction, "_is_normal", counting)
        monkeypatch.setattr(numrange, "_is_normal", counting)
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        dec = decompose(importlib.import_module("workloads").direct_sum(20, 0))
        dirsum_gauwu(dec)
        assert sorted(calls) == sorted(b.shape[0] for b in dec.blocks)

    @pytest.mark.parametrize("seed, beyond", [(0, 2), (1, 3), (2, 2), (3, 2), (4, 2), (5, 2)])
    def test_dichotomy_share_needs_both_ambient_lines(self, seed, beyond):
        # a scalar inside the strip or on the h1 line keeps both lines of the
        # block on the ambient boundary; one beyond the h1 line moves it
        b = generate(FamilySpec("dichotomous-arrowhead-coupled", n=4, seed=seed))
        theta, h0, h1, _ = dichotomy_scan(b)
        e = np.exp(1j * theta)
        for z, share in ((e * (h0 + h1) / 2, 4), (e * (h1 + 5j), 4), (e * (h1 + 0.5), beyond)):
            kp, how, _ = block_kprime(b, SupportFunction(_block_sum([b, np.array([[z]])])))
            assert kp == share, (seed, z)
            assert share == 4 or how != "dichotomy", (seed, z)

    def test_certificate_records_route_and_margin(self):
        a = generate(FamilySpec("ellipse-with-scalars", seed=1, knobs={"config": "three"}))
        dec = decompose(a)
        res = dirsum_gauwu(dec)
        assert res.certificate["margin"] == dec.margin
        assert dec.margin["gap"] > reduction.GAP_CUTOFF

    def test_share_total_outside_the_range_raises(self, monkeypatch):
        # k lies in [2, n]: a total outside it is a wrong share, never clamped
        dec = decompose(generate(FamilySpec("ellipse-pair", seed=0, knobs={"config": "nested"})))
        for share, total in ((0, 0), (3, 6)):
            monkeypatch.setattr(reduction, "block_kprime", lambda b, ambient, tol, s=share: (s, "patched", None))
            with pytest.raises(reduction.ShareTotalError, match=f"add up to {total}, outside \\[2, 4\\]"):
                dirsum_gauwu(dec)

    def test_direct_sum_solves_no_wider_than_its_blocks(self, monkeypatch, solve_widths):
        # the ambient is swept block by block and every share reads its block
        # only, so on the benchmark's n = 64 sum of discs and scalars no
        # eigensolver or SVD call of the shares or their witness is wider than
        # a block; the sweeps of 1x1 and 2x2 blocks need no solver at all
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        dec = decompose(importlib.import_module("workloads").direct_sum(64, 0))
        for counter in solve_widths.values():
            counter.clear()
        res = dirsum_gauwu(dec)
        assert res.k == 9 and not any(solve_widths.values())
        assert res.witness.vectors.shape == (64, 9)
        widths = [w for counter in solve_widths.values() for w in counter]
        assert widths and max(widths) <= max(b.shape[0] for b in dec.blocks) == 2

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            dirsum_gauwu(decompose(flat_portion_example()))
