import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import balanced_arrowhead, random_matrix, random_unitary, rng_for
from numrange_lab import generators, numrange, oracle
from numrange_lab.classify import classify_any
from numrange_lab.generators import FamilySpec, generate, flat_portion_example
from numrange_lab.linalg import _pencil_at, rotate
from numrange_lab.numrange import (
    FLAT_PORTION,
    IDEMPOTENT_TOL,
    REFINE_STEPS,
    SINGULAR_POINT,
    TWO_PI,
    SupportFunction,
    UnsupportedBlockError,
    _dichotomy_split,
    _refined_minima,
    _two_level_form,
    base_polynomial,
    boundary_bound,
    boundary_generating_curve,
    boundary_residuals,
    detect_seeds,
    dichotomy_scan,
    kprime_relative,
    relative_share,
    support,
)


class TestSupport:
    def test_hermitian_segment(self):
        s = support(np.diag([0.0, 1.0]), 0.0)
        assert abs(s.p - 1.0) < 1e-14
        assert abs(s.boundary_points[0] - 1.0) < 1e-12

    def test_worked_example_left_line(self):
        # the support line x = 0 of the worked 4x4 example
        a = flat_portion_example()
        s = support(a, np.pi)
        assert abs(s.p - 0.0) < 1e-12

    def test_dominates_random_rayleigh_values(self):
        rng = rng_for(2)
        a = random_matrix(rng, 4)
        for theta in (0.3, 1.7, 4.0):
            p = support(a, theta).p
            for _ in range(100):
                x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                x /= np.linalg.norm(x)
                val = np.real(np.exp(-1j * theta) * (x.conj() @ a @ x))
                assert val <= p + 1e-12

    def test_unitary_invariance(self):
        rng = rng_for(4)
        a = random_matrix(rng, 4)
        thetas = np.linspace(0, 2 * np.pi, 17)
        base = np.array([support(a, t).p for t in thetas])
        for _ in range(100):
            u = random_unitary(rng, 4)
            b = u.conj().T @ a @ u
            vals = np.array([support(b, t).p for t in thetas])
            assert np.max(np.abs(vals - base)) < 1e-9

    def test_convexity_subadditivity(self):
        # support values of a convex set obey the three-direction inequality
        rng = rng_for(5)
        a = random_matrix(rng, 5)
        sf = SupportFunction(a, grid_size=256)
        p = sf.grid_values
        t = sf.thetas
        for i in range(256):
            j, l = (i + 1) % 256, (i + 2) % 256
            lhs = p[j] * np.sin(t[2] - t[0])
            rhs = p[i] * np.sin(t[2] - t[1]) + p[l] * np.sin(t[1] - t[0])
            assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("grid_size", [65, 101, 1025])
    def test_diameter_on_odd_grids(self, grid_size):
        # the triangle 0, 1, i has diameter sqrt(2), its width in direction
        # 3 pi / 4; widths are pi-periodic, and an odd grid puts a sample
        # within pi / (2 grid_size) of that direction or of its opposite
        d = SupportFunction(np.diag([0.0, 1.0, 1j]), grid_size).diameter()
        assert np.sqrt(2) * np.cos(np.pi / (2 * grid_size)) <= d <= np.sqrt(2) + 1e-12

    # Each sweep, solved at theta + pi or mirrored from theta, lies within about
    # 8 eps * radius of the exact spectrum (against a 40-digit reference at
    # n = 6-8), so two sweeps agree within twice that; a direct eigh's own top
    # vectors reach residuals of 9 eps * radius at n = 8.
    HALF_TURN_TOL = 16 * np.finfo(float).eps

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_half_turn_sweep_matches_a_full_one(self, n, scale):
        for seed, grid_size in enumerate([64, 720, 1024]):
            sf = SupportFunction(scale * random_matrix(rng_for(9000 + 10 * n + seed), n), grid_size)
            full = np.linalg.eigvalsh(_pencil_at(sf.h, sf.k, sf.thetas))
            assert sf.grid_eigvals.shape == (grid_size, n)
            assert np.max(np.abs(sf.grid_eigvals - full)) <= self.HALF_TURN_TOL * sf.radius

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_mirrored_top_vectors_are_top_eigenvectors(self, n, scale):
        # rows at theta_i + pi come from the bottom vectors at theta_i; the
        # residual is taken in units of the radius, which neither over- nor underflows
        sf = SupportFunction(scale * random_matrix(rng_for(9100 + n), n), 720)
        x, p = sf.top_vectors[360:], sf.grid_values[360:] / sf.radius
        b = _pencil_at(sf.h, sf.k, sf.thetas[360:]) / sf.radius
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1)) <= self.HALF_TURN_TOL
        residual = np.linalg.norm(np.einsum("tij,tj->ti", b, x) - p[:, None] * x, axis=1)
        assert np.max(residual) <= self.HALF_TURN_TOL

    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e200])
    def test_block_sweep_matches_a_dense_one(self, c):
        # blocks of sizes 1, 2 and 3, among them c I (which the sweep cuts
        # into two 1x1 blocks) and a normal 2x2 whose eigenvalues cross; values
        # and slopes off the grid are compared with the whole matrix's eigh
        rng = rng_for(9300)
        u = random_unitary(rng, 2)
        blocks = [random_matrix(rng, 1), random_matrix(rng, 2), random_matrix(rng, 3), (0.3 + 0.2j) * np.eye(2),
                  u @ np.diag([1, 1j]) @ u.conj().T, random_matrix(rng, 3), random_matrix(rng, 2)]
        sf = SupportFunction(c * _block_sum(*blocks))
        assert [len(h) for h, _ in sf._groups] == [3, 3, 2]
        tol = 8 * np.finfo(float).eps * sf.radius
        assert np.max(np.abs(sf.grid_eigvals - np.linalg.eigvalsh(_pencil_at(sf.h, sf.k, sf.thetas)))) <= tol
        t = rng.uniform(0, TWO_PI, 64)
        floor = numrange.MIXED_GAP * sf.radius
        dense = numrange._block_eigen(sf.h, sf.k, t, floor)
        assert np.max(np.abs(sf.branches(t)[:2] - dense[:2])) <= tol
        assert np.max(np.abs(sf(t) - dense[0][:, -1])) <= tol and abs(sf(t[0]) - dense[0][0, -1]) <= tol
        # the closed form of a 2x2 block c I itself, whose two eigenvalues coincide
        h, k = c * 0.3 * np.eye(2, dtype=complex), c * 0.2 * np.eye(2, dtype=complex)
        value, slope = c * (0.3 * np.cos(t) + 0.2 * np.sin(t)), c * (0.2 * np.cos(t) - 0.3 * np.sin(t))
        want = np.stack([value, slope, -value])[:, :, None, None]
        assert np.max(np.abs(numrange._block_eigen(h[None], k[None], t, floor) - want)) <= 8 * np.finfo(float).eps * c

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (1, 3), (2, 1, 3)])
    def test_block_sweep_of_no_directions(self, sizes):
        # an empty theta axis gives empty values and branches, as the dense
        # sweep does, and a 0-column witness has no residuals
        a = _block_sum(*(random_matrix(rng_for(9320 + m), m) for m in sizes))
        sf, n, none = SupportFunction(a, 64), sum(sizes), np.zeros(0)
        assert sf._groups is not None
        assert sf(none).shape == (0,) and sf.branches(none).shape == (3, 0, n)
        assert boundary_residuals(a, np.zeros((n, 0), dtype=complex), none, sf).shape == (0,)

    def test_matrix_without_a_cut_keeps_the_dense_sweep(self):
        # a tridiagonal pattern has zero corners but no contiguous cut; its
        # sweep, support values and branches are the whole matrix's, bit for bit
        a = np.triu(np.tril(random_matrix(rng_for(9310), 6), 1), -1)
        sf, t = SupportFunction(a, 64), rng_for(9311).uniform(0, TWO_PI, 16)
        assert sf._groups is None
        w = np.linalg.eigvalsh(_pencil_at(sf.h, sf.k, sf.thetas[:32]))
        assert np.array_equal(sf.grid_eigvals, np.concatenate([w, -w[:, ::-1]]))
        assert np.array_equal(sf(t), np.linalg.eigvalsh(_pencil_at(sf.h, sf.k, t))[:, -1])
        floor = numrange.MIXED_GAP * sf.radius
        w, _, c, r = numrange._pencil_derivatives(sf.h, sf.k, t, floor)
        r[np.abs(r) >= 1 / floor] = 0.0
        ac = np.abs(c)
        dense = np.stack([w, np.diagonal(c, axis1=1, axis2=2).real, 2 * np.sum(ac * (ac * r), axis=2) - w])
        assert np.array_equal(sf.branches(t), dense)

    def test_odd_grid_solves_every_direction(self, stack_sizes):
        sf = SupportFunction(random_matrix(rng_for(9200), 5), 65)
        assert sf.grid_eigvals.shape == (65, 5) and sf.top_vectors.shape == (65, 5)
        assert np.array_equal(sf.grid_eigvals, np.linalg.eigvalsh(_pencil_at(sf.h, sf.k, sf.thetas)))
        assert stack_sizes["eigh"] == {65: 1} and stack_sizes["eigvalsh"][65] == 2


class TestBasePolynomial:
    def test_diag_two_by_two(self):
        # det(x diag(0,1) + tI) = t(x + t) = xt + t^2
        f = base_polynomial(np.diag([0.0, 1.0]))
        assert abs(f.coeffs[0, 0] - 1.0) < 1e-12  # t^2
        assert abs(f.coeffs[1, 0] - 1.0) < 1e-12  # x t
        assert abs(f.coeffs[2, 0]) < 1e-12 and abs(f.coeffs[0, 2]) < 1e-12

    def test_direct_sum_factorizes(self):
        rng = rng_for(6)
        a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2], a[2:, 2:] = a1, a2
        f = base_polynomial(a)
        f12 = base_polynomial(a1).multiply(base_polynomial(a2))
        assert np.max(np.abs(f.coeffs - f12.coeffs)) < 1e-8

    def test_worked_example_double_root(self):
        # the pencil member at (x, y) = (1, 1) has a double root at t = -17/8
        a = flat_portion_example()
        f = base_polynomial(a)
        t0 = -17.0 / 8.0
        val = f.evaluate(1.0, 1.0, t0)
        dt = 1e-6
        deriv = (f.evaluate(1.0, 1.0, t0 + dt) - f.evaluate(1.0, 1.0, t0 - dt)) / (2 * dt)
        assert abs(val) < 1e-9
        assert abs(deriv) < 1e-5

    def test_rotation_covariance(self):
        rng = rng_for(7)
        a = random_matrix(rng, 4)
        theta = 0.83
        fa = base_polynomial(a)
        fr = base_polynomial(rotate(a, theta))
        for _ in range(20):
            x, y, t = rng.uniform(-1, 1, 3)
            lhs = fr.evaluate(x, y, t)
            rhs = fa.evaluate(
                x * np.cos(theta) + y * np.sin(theta),
                -x * np.sin(theta) + y * np.cos(theta),
                t,
            )
            assert abs(lhs - rhs) < 1e-8 * max(1, abs(lhs), abs(rhs))

    def test_degree_and_realness(self):
        a = flat_portion_example()
        f = base_polynomial(a)
        assert f.n == 4
        assert np.isrealobj(f.coeffs)
        assert abs(f.coeffs[0, 0] - 1.0) < 1e-12


class TestBoundaryCurve:
    def test_two_by_two_ellipse_matches_support_boundary(self):
        a = np.array([[0, 1], [0, 1 + 1j]], dtype=complex)
        curve = boundary_generating_curve(a, samples=256)
        # center of the ellipse is tr(A)/2
        center = np.mean(curve.points[1])
        assert abs(center - np.trace(a) / 2) < 1e-2
        # the top branch must coincide with the support-sampled boundary
        sf = SupportFunction(a, grid_size=256)
        for s, theta in enumerate(curve.thetas):
            z = curve.points[1, s]
            assert abs(np.real(np.exp(-1j * theta) * z) - sf.grid_values[s]) < 1e-9

    def test_normal_matrix_degenerates_to_points(self):
        a = np.diag([1.0, 1j, -1.0])
        curve = boundary_generating_curve(a, samples=64)
        for branch in range(3):
            pts = curve.points[branch]
            assert np.max(np.abs(pts - pts[0])) < 1e-9

    def test_dual_curve_incidence(self):
        # every branch point's supporting line lies on the base polynomial zero set
        rng = rng_for(9)
        a = random_matrix(rng, 3)
        f = base_polynomial(a)
        curve = boundary_generating_curve(a, samples=64)
        scale = max(np.max(np.abs(curve.eigvals)), 1.0)
        for s, theta in enumerate(curve.thetas):
            for b in range(3):
                lam = curve.eigvals[b, s]
                val = f.evaluate(np.cos(theta), np.sin(theta), -lam)
                assert abs(val) < 1e-6 * scale**3
                z = curve.points[b, s]
                assert abs(np.real(np.exp(-1j * theta) * z) - lam) < 1e-9

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            boundary_generating_curve(np.eye(2), samples=4)


class TestSeeds:
    def test_triangle_has_three_flat_sides_and_vertices(self):
        seeds = detect_seeds(np.diag([0.0, 1.0, 1j]))
        flats = [s for s in seeds if s.kind == FLAT_PORTION]
        sings = [s for s in seeds if s.kind == SINGULAR_POINT]
        assert len(flats) == 3
        assert len(sings) == 3

    def test_smooth_ellipse_has_none(self):
        seeds = detect_seeds(np.array([[0, 1], [0, 0]], dtype=complex))
        assert seeds == []

    def test_worked_example_single_flat_portion(self):
        a = flat_portion_example()
        seeds = detect_seeds(a)
        assert len(seeds) == 1
        sd = seeds[0]
        assert sd.kind == FLAT_PORTION
        assert abs(sd.theta - np.pi / 4) < 1e-6
        assert sd.witnesses.shape[1] == 2 and sd.independent

    def test_normal_eigenvalue_inside_an_edge_is_not_a_corner(self):
        # 0.5 is a normal eigenvalue on the edge [0, 1], touched by one supporting line
        seeds = detect_seeds(np.diag([0.0, 0.5, 1.0, 1j]))
        corners = sorted((sd.segment[0] for sd in seeds if sd.kind == SINGULAR_POINT), key=lambda z: (z.real, z.imag))
        assert corners == [0, 1j, 1]

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.1, 4.0])
    def test_globally_double_top_eigenvalue_seeds_lie_on_the_boundary(self, phi):
        # the double eigenvalue 0 is top on a quarter of the directions, so
        # the event scan reads a global degeneracy; its seeds must come from
        # those directions, not from a direction whose top eigenvalue is simple
        a = np.exp(1j * phi) * np.diag([0.0, 0.0, 1.0, 1j])
        sf = SupportFunction(a)
        seeds = detect_seeds(a)
        assert seeds
        for sd in seeds:
            for z in sd.segment:
                assert abs(numrange.point_boundary_defect(sf, z)) <= 1e-8 * sf.diameter(), (sd.kind, sd.segment)
        assert oracle.max_orthonormal_boundary_set(a).k_lower == 4

    @pytest.mark.parametrize("index", [100, 300, 777])
    def test_crossing_halfway_between_grid_directions_is_an_event(self, index):
        # the top two eigenvalues of Re(e^{-i t} A) are -+sin(t - theta): they
        # cross at theta, halfway between two grid directions, with the gap's
        # largest slope 2 ||A||, the Lipschitz bound that decides which grid
        # minima are refined
        theta = (index + 0.5) * TWO_PI / 1024
        a = _conjugated_sum(index, np.exp(1j * theta) * np.diag([1j, -1j, -0.5]))
        events = numrange.top_gap_events(SupportFunction(a))
        hits = [ev for ev in events if abs(ev.theta - theta) < 1e-9]
        assert len(hits) == 1 and hits[0].basis.shape[1] == 2

    def test_one_grid_sweep(self, stack_sizes):
        # the event scan and the corner rule read the support function's
        # sweep, which solves the 512 directions of [0, pi) and mirrors the
        # rest; only the event refinement adds stacks, one per Newton step
        detect_seeds(flat_portion_example())
        assert {name: sizes[512] for name, sizes in stack_sizes.items()} == {"eigvalsh": 1, "eigh": 0}
        assert set(stack_sizes["eigvalsh"]) == {512}
        assert sum(stack_sizes["eigh"].values()) <= REFINE_STEPS

    def test_flat_portion_witness_gram(self):
        a = flat_portion_example()
        for sd in detect_seeds(a):
            w = sd.witnesses
            gram = w.conj().T @ w
            assert np.max(np.abs(gram - np.eye(w.shape[1]))) < 1e-6
            # witnesses land on the supporting line
            sf = SupportFunction(a, grid_size=256)
            p = sf(sd.theta)
            for j in range(w.shape[1]):
                z = complex(w[:, j].conj() @ a @ w[:, j])
                assert abs(np.real(np.exp(-1j * sd.theta) * z) - p) < 1e-8


class TestKprime:
    def test_interior_scalar_contributes_nothing(self):
        amb = np.zeros((3, 3), dtype=complex)
        amb[:2, :2] = np.array([[0, 2], [0, 0]])  # disk of radius 1
        amb[2, 2] = 0.1
        sf = SupportFunction(amb)
        assert kprime_relative(np.array([[0.1]]), sf) == 0

    def test_normal_polygon_counts_all_vertices(self):
        a = np.diag([1.0, 1j, -1.0, -1j])
        sf = SupportFunction(a)
        total = sum(kprime_relative(np.array([[z]]), sf) for z in np.diag(a))
        assert total == 4

    def test_two_disks_side_by_side(self):
        # equal disks sharing their horizontal tangents: both blocks keep an
        # antipodal contact pair
        b1 = np.array([[0, 2], [0, 0]], dtype=complex)
        b2 = np.array([[1.2, 2], [0, 1.2]], dtype=complex)
        amb = np.zeros((4, 4), dtype=complex)
        amb[:2, :2], amb[2:, 2:] = b1, b2
        sf = SupportFunction(amb)
        assert kprime_relative(b1, sf) == 2
        assert kprime_relative(b2, sf) == 2

    def test_nested_disks(self):
        b1 = np.array([[0, 2], [0, 0]], dtype=complex)
        b2 = np.array([[0.1, 0.4], [0, 0.1]], dtype=complex)
        amb = np.zeros((4, 4), dtype=complex)
        amb[:2, :2], amb[2:, 2:] = b1, b2
        sf = SupportFunction(amb)
        assert kprime_relative(b1, sf) == 2
        assert kprime_relative(b2, sf) == 0

    def test_unbalanced_overlap_gives_one(self):
        # smaller disk poking out on the right only
        b1 = np.array([[0, 2], [0, 0]], dtype=complex)
        b2 = np.array([[0.9, 1.1], [0, 0.9]], dtype=complex)
        amb = np.zeros((4, 4), dtype=complex)
        amb[:2, :2], amb[2:, 2:] = b1, b2
        sf = SupportFunction(amb)
        assert kprime_relative(b2, sf) == 1

    def test_block_reads_the_ambient_sweep(self, stack_sizes):
        # the block's 512 directions are every other one of the ambient's 1024
        # grid, so the ambient support there is read, not recomputed; the
        # block's own sweep of a 2x2 is in closed form, so no grid-sized stack
        # is solved at all
        b1 = np.array([[0, 2], [0, 0]], dtype=complex)
        b2 = np.array([[0.9, 1.1], [0, 0.9]], dtype=complex)
        amb = np.zeros((4, 4), dtype=complex)
        amb[:2, :2], amb[2:, 2:] = b1, b2
        sf = SupportFunction(amb)
        stack_sizes["eigvalsh"].clear()
        assert kprime_relative(b2, sf) == 1
        assert stack_sizes["eigvalsh"][256] == 0 and stack_sizes["eigvalsh"][512] == 0
        assert np.array_equal(sf.grid_values[512:], -sf.grid_eigvals[:512, 0])
        direct = sf(SupportFunction(b2, 512).thetas)
        assert np.max(np.abs(direct - sf.grid_values[::2])) <= 8 * np.finfo(float).eps * sf.radius

    def test_share_of_a_2x2_block_on_any_ambient_grid(self):
        # the block's grid stays even, so each direction keeps its antipode, and
        # it reads the ambient where the grids do not nest: on 200 sums of a
        # disc and a random 2x2 block, every share is the one of the 1,024 grid
        # and every witness column lies on the ambient boundary
        rng = np.random.default_rng(1)
        grids = (510, 1022, 1023, 1024, 1026, 4096)
        for _ in range(200):
            disc = generators._disk_block(complex(*rng.uniform(-1, 1, 2)), rng.uniform(0.2, 1.0))
            blocks = (disc, rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
            ambient = _block_sum(*blocks)
            expected = [kprime_relative(b, SupportFunction(ambient)) for b in blocks]
            for grid in grids:
                sf = SupportFunction(ambient, grid)
                for i, b in enumerate(blocks):
                    share, build = relative_share(b, sf)
                    assert share == expected[i], grid
                    x = np.zeros((4, share), dtype=complex)
                    x[2 * i : 2 * i + 2] = build().vectors
                    if share:
                        assert np.all(boundary_residuals(ambient, x, build().thetas, sf) <= boundary_bound(sf))

    @staticmethod
    def _shares(blocks, ambient, monkeypatch, masked, on_grid=True):
        """Each block's share, with or without the Lipschitz skip and the
        contacts decided on the grid, the number of grid minima the skip left
        out and the number of contacts the grid decided."""
        skipped, decided = [], []

        def reachable(values, *args, _orig=numrange._reachable):
            keep = _orig(values, *args) if masked else np.ones(np.shape(values), dtype=bool)
            skipped.append(np.count_nonzero(~keep))
            return keep

        def grid_contact(*args, _orig=numrange._grid_contact):
            contact = _orig(*args) if on_grid else None
            decided.append(contact is not None)
            return contact

        with monkeypatch.context() as mp:
            mp.setattr(numrange, "_reachable", reachable)
            mp.setattr(numrange, "_grid_contact", grid_contact)
            sf = SupportFunction(ambient)
            return [kprime_relative(b, sf) for b in blocks], sum(skipped), sum(decided)

    @pytest.mark.parametrize("n", [5, 8, 12, 16, 20])
    def test_skip_keeps_every_share_of_seeded_direct_sums(self, monkeypatch, n):
        # discs, ellipses and scalars as in the benchmark's direct sums: the
        # skip leaves out grid minima and the grid decides some contacts, but
        # neither changes a share
        skipped = decided = 0
        for seed in range(4):
            rng = rng_for(8000 + 10 * n + seed)
            blocks, size = [], 0
            while size < n:
                c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if n - size >= 2 and rng.uniform() < 0.6:
                    d = c if rng.uniform() < 0.5 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    blocks.append(np.array([[c, 2 * rng.uniform(0.2, 1.0)], [0, d]]))
                else:
                    blocks.append(np.array([[2 * c]]))
                size += len(blocks[-1])
            ambient = _block_sum(*blocks)
            got, skips, on_grid = self._shares(blocks, ambient, monkeypatch, masked=True)
            assert got == self._shares(blocks, ambient, monkeypatch, masked=False)[0]
            assert got == self._shares(blocks, ambient, monkeypatch, masked=True, on_grid=False)[0]
            skipped, decided = skipped + skips, decided + on_grid
        assert skipped > 0 and decided > 0

    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e200])
    def test_skip_keeps_contacts_between_grid_directions(self, monkeypatch, c):
        # the long edge of the triangle conv(z1, z2, z3), whose outer normal
        # theta lies halfway between two grid directions (of the 1,024 ambient
        # ones for a scalar, of the block's 512 for a 2x2): a scalar on the edge
        # and a disc tangent to it each count 1, and so does each vertex; the
        # defect rises from 0 at theta about as steeply as the skip allows
        for theta, block in (((100 + 0.5) * TWO_PI / 1024, np.array([[1 + 0.3j]])),
                             ((50 + 0.5) * TWO_PI / 512, np.array([[0.7 + 0.2j, 0.6], [0, 0.7 + 0.2j]]))):
            rot = np.exp(1j * theta)
            blocks = [c * rot * np.array([[z]]) for z in (1 + 4j, 1 - 4j, -1)] + [c * rot * block]
            ambient = _block_sum(*blocks)
            for masked in (True, False):
                assert self._shares(blocks, ambient, monkeypatch, masked)[0] == [1, 1, 1, 1], (theta, masked)

    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e200])
    def test_point_defect_refines_between_grid_directions(self, c):
        # a scalar on the long edge of the triangle above, whose outer normal
        # lies halfway between two of the 1,024 grid directions: the grid
        # misses the contact by about 1e-2 c, and point_boundary_defect, which
        # has no level to decide against, still refines it to rounding
        rot = np.exp(1j * (100 + 0.5) * TWO_PI / 1024)
        z = c * rot * (1 + 0.3j)
        sf = SupportFunction(np.diag(c * rot * np.array([1 + 4j, 1 - 4j, -1, 1 + 0.3j])))
        assert np.min(sf.grid_values - np.real(np.exp(-1j * sf.thetas) * z)) > 1e-3 * c
        assert abs(numrange.point_boundary_defect(sf, z)) <= 8 * np.finfo(float).eps * sf.radius

    def test_pair_model_keeps_only_pieces_near_the_top(self, monkeypatch):
        # two equal discs whose outer common tangents have normals between grid
        # directions, among 28 small discs and scalars inside their hull: each
        # disc's antipodal pair is refined against 2n = 92 ambient pieces, and
        # only the few within 2 L d of the top enter the pairwise kink model
        rng = rng_for(3)
        disc = np.array([[0, 2], [0, 0]], dtype=complex)
        centres = 0.2 * (rng.uniform(-1, 1, 28) + 1j * rng.uniform(-1, 1, 28))
        blocks = [disc, disc + 1.2 * np.exp(0.123j)] + [np.array([[c, 0.3], [0, c]]) for c in centres[:14]]
        blocks += [np.array([[1.5 * c]]) for c in centres[14:]]
        sf = SupportFunction(_block_sum(*blocks))
        widths = []

        def counting(k, *args, _orig=np.triu_indices):
            widths.append(k)
            return _orig(k, *args)

        with monkeypatch.context() as mp:
            mp.setattr(numrange.np, "triu_indices", counting)
            shares = [kprime_relative(b, sf) for b in blocks[:2]]
        assert shares == [2, 2]
        assert widths and max(widths) <= 8 and 2 * sf.a.shape[0] == 92

    def test_rejects_large_non_normal_block(self):
        rng = rng_for(12)
        block = random_matrix(rng, 3)
        sf = SupportFunction(np.kron(np.eye(2), block)[:6, :6])
        with pytest.raises(UnsupportedBlockError):
            kprime_relative(block, sf)


class TestDichotomyScan:
    def test_two_level_hermitian_accepted(self):
        # any direction with cos(theta) != 0 certifies a Hermitian two-level
        # matrix, so check the certificate rather than a particular angle
        a = np.diag([0.0, 0.0, 1.0, 1.0])
        got = dichotomy_scan(a)
        assert got is not None
        theta, h0, h1, proj = got
        assert h1 - h0 > 1e-3
        assert np.linalg.norm(proj @ proj - proj) < 1e-8
        rebuilt = h0 * np.eye(4) + (h1 - h0) * proj
        assert np.allclose(rebuilt, np.cos(theta) * a, atol=1e-8)

    def test_three_level_hermitian_rejected(self):
        assert dichotomy_scan(np.diag([0.0, 0.5, 1.0])) is None

    def test_scalar_like_rejected(self):
        # essentially Hermitian with a single level: no two distinct values
        assert dichotomy_scan(np.eye(3) * (1 + 1j)) is None

    def test_constructed_instance_recovers_theta(self):
        from numrange_lab.generators import generate_with_info

        a, info = generate_with_info(FamilySpec("k4-split-22", seed=3))
        got = dichotomy_scan(a)
        assert got is not None
        dt = abs((got[0] - info["theta"] + np.pi / 2) % np.pi - np.pi / 2)
        assert dt < 1e-6


DICHOTOMOUS_4X4 = ("k4-split-22", "k4-split-31", "dichotomous-arrowhead-diag", "dichotomous-arrowhead-coupled")


@st.composite
def dichotomous_matrices(draw):
    """A member of a dichotomous 4x4 family or a two-level balanced arrowhead, n = 3-6."""
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(DICHOTOMOUS_4X4 + (3, 4, 5, 6)))
    if isinstance(kind, str):
        return generate(FamilySpec(kind, seed=seed))
    return balanced_arrowhead(seed, kind, two_level=True).to_dense()


def _mod_pi_distance(t1, t2):
    return abs(np.angle(np.exp(2j * (t1 - t2)))) / 2


class TestDichotomyExact:
    @given(
        a=dichotomous_matrices(),
        unitary_seed=st.integers(0, 10_000),
        gain=st.floats(0.1, 10.0),
        shift=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        phi=st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=100)
    def test_invariant_under_similarity_affine_and_rotation(self, a, unitary_seed, gain, shift, phi):
        theta, h0, h1, _ = dichotomy_scan(a)
        u = random_unitary(rng_for(unitary_seed), a.shape[0])
        # (transformed matrix, expected turn of theta, factor on the level gap)
        cases = [
            (u @ a @ u.conj().T, 0.0, 1.0),
            (gain * a + shift * np.eye(len(a)), 0.0, gain),
            (np.exp(1j * phi) * a, phi, 1.0),
        ]
        for b, turn, factor in cases:
            got = dichotomy_scan(b)
            assert got is not None
            assert _mod_pi_distance(got[0], theta + turn) < 1e-8
            assert abs((got[2] - got[1]) - factor * (h1 - h0)) < 1e-8 * np.linalg.norm(b, 2)

    @pytest.mark.parametrize("family", ["k4-split-31", "k3-parallel-lines"])
    def test_one_svd_and_at_most_four_eigvalsh(self, family, batched_calls, linalg_calls):
        dichotomy_scan(generate(FamilySpec(family, seed=0)))
        assert batched_calls["eigvalsh"] == 0
        assert linalg_calls["eigvalsh"] <= 4
        assert linalg_calls["svd"] == 1

    def test_every_direction_dichotomous(self):
        # a normal matrix with two eigenvalues is two-valued in every direction
        # but the one where both eigenvalues share a real part
        a = np.diag([1j, 1j, 2 + 1j, 2 + 1j])
        theta, h0, h1, proj = dichotomy_scan(a)
        assert _mod_pi_distance(theta, np.pi / 2) > 1e-3
        assert abs((h1 - h0) - 2 * abs(np.cos(theta))) < 1e-12


def _largest_gap_reference(values, member, accept):
    """Split at the largest gap; both spreads at most accept, levels more than
    4 accept apart, (member - h0) / (h1 - h0) idempotent."""
    v = np.sort(values)
    s = int(np.argmax(np.diff(v))) + 1
    if np.ptp(v[:s]) > accept or np.ptp(v[s:]) > accept:
        return None
    h0, h1 = float(np.mean(v[:s])), float(np.mean(v[s:]))
    if h1 - h0 <= 4 * accept:
        return None
    proj = (member - h0 * np.eye(len(v))) / (h1 - h0)
    if np.linalg.norm(proj @ proj - proj) > IDEMPOTENT_TOL * len(v):
        return None
    return h0, h1


class TestTwoLevelForm:
    def test_same_split_as_largest_gap(self):
        rng = rng_for(5)
        accept = 1e-9
        seen = {True: 0, False: 0}
        for gap in (1.0, 3e-9, 5e-9, 1e-6):
            for jitter in (0.0, 1e-13, 4e-10, 1.5e-9):
                for n in (2, 3, 4, 6):
                    for _ in range(25):
                        s = rng.integers(1, n)
                        values = rng.permutation(np.concatenate([np.zeros(s), np.full(n - s, gap)])
                                                 + jitter * rng.uniform(-1, 1, n))
                        member = np.diag(values)
                        form = _two_level_form(member, values, accept)
                        ref = _largest_gap_reference(values, member, accept)
                        assert (form is None) == (ref is None)
                        seen[form is None] += 1
                        if form is not None:
                            assert form[:2] == ref
                            assert np.array_equal(form[2], (member - ref[0] * np.eye(n)) / (ref[1] - ref[0]))
        assert min(seen.values()) > 300

    def test_known_levels(self):
        member = np.diag([0.5, 2.0, 0.5])
        h0, h1, proj = _two_level_form(member, [2.0, 0.5], 1e-9)
        assert (h0, h1) == (0.5, 2.0)
        assert np.array_equal(proj, np.diag([0.0, 1.0, 0.0]))
        # levels that do not fit the member fail the idempotency bound
        assert _two_level_form(member, [0.5, 1.0], 1e-9) is None


class TestRefinedMinima:
    # three cyclic wells at known directions with distinct depths; the one at
    # 6.2 straddles the wrap of the grid
    WELLS = ((1.0, 0.3), (4.0, -0.5), (6.2, 0.1))

    def f(self, t):
        return min(a + (np.angle(np.exp(1j * (t - c)))) ** 2 for c, a in self.WELLS)

    def pieces(self, t):
        # the lowest well as the one piece, with its derivatives
        d = np.angle(np.exp(1j * (t[:, None] - np.array([c for c, _ in self.WELLS]))))
        vals = np.array([a for _, a in self.WELLS]) + d**2
        low = np.argmin(vals, axis=1)
        rows = np.arange(len(t))
        return np.stack([vals[rows, low], 2 * d[rows, low], np.full(len(t), 2.0)])[:, :, None]

    def grid(self, size=64):
        thetas = np.linspace(0.0, 2 * np.pi, size, endpoint=False)
        return thetas, np.array([self.f(t) for t in thetas]), 2 * np.pi / size

    def test_known_minima_in_grid_order(self):
        thetas, values, step = self.grid()
        got = _refined_minima(self.pieces, thetas, values, step, 1.0)
        assert len(got) == 3
        for (t, val), (c, a) in zip(got, sorted(self.WELLS, key=lambda w: w[1])):
            assert abs(np.angle(np.exp(1j * (t - c)))) < 1e-7
            assert abs(val - a) < 1e-13

    def test_count_then_eligible(self):
        thetas, values, step = self.grid()
        lowest_two = _refined_minima(self.pieces, thetas, values, step, 1.0, count=2)
        assert [round(v, 9) for _, v in lowest_two] == [-0.5, 0.1]
        # the mask filters the count lowest minima; it does not reach past them
        eligible = np.abs(np.angle(np.exp(1j * (thetas - 4.0)))) > 0.5
        got = _refined_minima(self.pieces, thetas, values, step, 1.0, count=2, eligible=eligible)
        assert [round(v, 9) for _, v in got] == [0.1]
        assert _refined_minima(self.pieces, thetas, values, step, 1.0, eligible=np.zeros(64, dtype=bool)) == []


def _block_sum(*blocks):
    """B_1 + ... + B_r as one block-diagonal matrix."""
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        a[pos : pos + len(b), pos : pos + len(b)] = b
        pos += len(b)
    return a


def _conjugated_sum(seed, *blocks):
    """U* (B_1 + ... + B_r) U for a seeded random unitary U."""
    a = _block_sum(*blocks)
    u = random_unitary(rng_for(seed), len(a))
    return u.conj().T @ a @ u


class TestBranches:
    def test_match_central_differences(self):
        a = random_matrix(rng_for(11), 5)
        sf = SupportFunction(a, grid_size=64)
        scale = np.linalg.norm(a, 2)

        def eig(t):
            return np.linalg.eigvalsh(np.cos(t) * sf.h + np.sin(t) * sf.k)

        thetas = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        gaps = np.array([np.min(np.diff(eig(t))) for t in thetas])
        thetas = thetas[gaps > 1e-3 * scale]
        assert len(thetas) >= 8
        lam, d1, d2 = sf.branches(thetas)
        for i, t in enumerate(thetas):
            assert np.allclose(lam[i], eig(t), rtol=0, atol=1e-13 * scale)
            fd1 = (eig(t + 1e-6) - eig(t - 1e-6)) / 2e-6
            fd2 = (eig(t + 1e-4) - 2 * eig(t) + eig(t - 1e-4)) / 1e-8
            assert np.max(np.abs(fd1 - d1[i])) <= 1e-7 * scale
            assert np.max(np.abs(fd2 - d2[i])) <= 1e-5 * scale

    def test_exact_crossing_stays_finite(self):
        # the disc |z| <= 1 has p = 1 in every direction and the point 1 + i has
        # p(t) = cos t + sin t: the two top branches cross at t = 0, where
        # rounding mixes their eigenvectors in the conjugated sum
        a = _conjugated_sum(3, np.array([[0, 2], [0, 0]]), np.array([[1 + 1j]]), np.array([[-2j]]))
        lam, d1, d2 = SupportFunction(a, grid_size=64).branches(np.array([0.0, 1e-14, -1e-14]))
        assert np.all(np.abs(lam[:, -1] - 1) < 1e-14)
        assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
        # each top branch keeps its own modest curvature (0 and -1)
        assert np.max(np.abs(d2[:, -2:])) <= 4


def _golden(f, lo, hi, iters=80):
    """Golden-section minimum of a scalar f on [lo, hi]; (argmin, fmin)."""
    r = (np.sqrt(5.0) - 1) / 2
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - r * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + r * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def _reference_minima(objective, thetas, values, step, fine=65536):
    """Per grid minimum, in ``_refined_minima``'s order: the best of ``fine``
    uniform directions inside its bracket, golden-refined within one sample
    step.  ``objective`` maps a 1-d array of directions to values."""
    grid = np.linspace(0, 2 * np.pi, fine, endpoint=False)
    sampled = objective(grid)
    idxs = np.nonzero((values <= np.roll(values, 1)) & (values <= np.roll(values, -1)))[0]
    out = []
    for i in idxs[np.argsort(values[idxs])]:
        d = np.angle(np.exp(1j * (grid - thetas[i])))
        t0 = thetas[i] + d[np.argmin(np.where(np.abs(d) <= step, sampled, np.inf))]
        lo, hi = max(t0 - 2 * np.pi / fine, thetas[i] - step), min(t0 + 2 * np.pi / fine, thetas[i] + step)
        out.append(_golden(lambda t: float(objective(np.array([t]))[0]), lo, hi))
    return out


class TestRefinerAgainstGolden:
    """Every refined minimum matches a 65,536-direction sample of its grid
    bracket followed by golden-section search, to 1e-12 ||A||."""

    INPUTS = {
        # kinks where the blocks' support functions cross
        "direct-sum": lambda: _conjugated_sum(
            5, np.array([[0, 2], [0, 0]]), np.array([[0.8 + 0.5j, 1.2], [0, 0.8 + 0.5j]]), np.array([[1.5 - 0.3j]])
        ),
        # flat arcs: p - Re(e^{-it} z) vanishes on the normal cone of a vertex z
        "square": lambda: np.diag([1, 1j, -1, -1j]).astype(complex),
        # a smooth boundary
        "k3-parallel-lines": lambda: generate(FamilySpec("k3-parallel-lines", seed=0)),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_support_gap_and_point_defects(self, name):
        a = self.INPUTS[name]()
        sf = SupportFunction(a, grid_size=256)
        step, scale = 2 * np.pi / sf.grid_size, np.linalg.norm(a, 2)

        def eigs(t):
            return np.linalg.eigvalsh(np.cos(t)[:, None, None] * sf.h + np.sin(t)[:, None, None] * sf.k)

        def line(t, z):
            return np.real((-1j) ** np.arange(3)[:, None] * np.exp(-1j * t) * z)

        def gap_pieces(t):
            gap = np.diff(sf.branches(t)[:, :, -2:], axis=2)
            return np.concatenate([gap, -gap], axis=2)

        x = np.linalg.eigh(np.cos(0.7) * sf.h + np.sin(0.7) * sf.k)[1][:, -1]
        points = [*np.linalg.eigvals(a), np.trace(a) / len(a), complex(x.conj() @ a @ x), (1 + 1j) / 2]
        cases = [(gap_pieces, lambda t: np.diff(eigs(t)[:, -2:], axis=1)[:, 0], np.diff(sf.grid_eigvals[:, -2:], axis=1)[:, 0],
                  2 * scale)]
        for z in points:
            cases.append((lambda t, z=z: sf.branches(t) - line(t, z)[:, :, None],
                          lambda t, z=z: eigs(t)[:, -1] - line(t, z)[0], sf.grid_values - line(sf.thetas, z)[0],
                          2 * (sf.radius + abs(z))))
        for pieces, objective, values, lipschitz in cases:
            want = _reference_minima(objective, sf.thetas, values, step)
            # with the pieces' Lipschitz bound, those far below the top are left out of the model
            for bound in (np.inf, lipschitz):
                got = _refined_minima(pieces, sf.thetas, values, step, sf.radius, lipschitz=bound)
                assert len(got) == len(want) > 0
                for (_, f_got), (_, f_want) in zip(got, want):
                    assert abs(f_got - f_want) <= 1e-12 * scale


class TestRefinerCost:
    def test_at_most_sixteen_stacked_eighs_per_call(self, monkeypatch, stack_sizes):
        # a direct sum whose blocks reach the refiner by every route: the event
        # scan, the ambient contacts of a restricted search (3x3), an antipodal
        # pair (2x2, two matrices per step) and a point contact (1x1)
        b3 = np.array([[0.3, 1.0, 0.4], [0, -0.2 + 0.4j, 0.9], [0, 0, 0.5 - 0.3j]])
        a = _conjugated_sum(7, b3, np.array([[0.8 + 0.5j, 1.2], [0, 0.8 + 0.5j]]), np.array([[1.5 - 0.3j]]))
        worst = {}

        def counting(*args, **kwargs):
            before = sum(stack_sizes["eigh"].values())
            out = _refined_minima(*args, **kwargs)
            caller = sys._getframe(1).f_code.co_name
            worst[caller] = max(worst.get(caller, 0), sum(stack_sizes["eigh"].values()) - before)
            return out

        for module in (numrange, oracle):
            monkeypatch.setattr(module, "_refined_minima", counting)
        # the 3x3 block's contact arc spans more than pi, so x(theta) and
        # x(theta + pi) both land on the boundary: its share is 2
        k = classify_any(a).k
        assert k == 4
        assert set(worst) == {"top_gap_events", "boundary_vector_field", "_refined_min"}
        assert max(worst.values()) <= 16
        assert k == oracle.max_orthonormal_boundary_set(a).k_lower


def _split_reference(w):
    """Per-split loop: the qualifying split with the smallest defect (first on
    ties) as (defect, h0, h1), (inf, None, None) when none qualifies."""
    best = (np.inf, None, None)
    for s in range(1, len(w)):
        d = max(w[s - 1] - w[0], w[-1] - w[s])
        if w[s] - w[s - 1] > 2 * d and d < best[0]:
            best = (d, np.mean(w[:s]), np.mean(w[s:]))
    return best


class TestDichotomySplit:
    def rows(self):
        rng = rng_for(11)
        rows = [np.sort(rng.standard_normal(n)) for n in (2, 3, 4, 7) for _ in range(200)]
        # two tight levels: a qualifying split exists
        for n in (3, 4, 6):
            for _ in range(200):
                s = rng.integers(1, n)
                lo = rng.uniform(-1, 0) + 1e-3 * rng.standard_normal(s)
                hi = rng.uniform(1, 2) + 1e-3 * rng.standard_normal(n - s)
                rows.append(np.sort(np.concatenate([lo, hi])))
        # repeated values (ties in the row and between splits), evenly spaced
        # and constant rows, where no split qualifies
        rows += [np.sort(rng.choice([0.0, 1.0, 3.0], size=5)) for _ in range(200)]
        rows += [np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 5.0, 6.0]), np.array([0.0, 1.0, 2.0, 3.0]),
                 np.zeros(4), np.array([2.0, 2.0])]
        return rows

    def test_matches_per_split_reference(self):
        rows = self.rows()
        by_size = {}
        for w in rows:
            by_size.setdefault(len(w), []).append(w)
        seen_none = seen_split = 0
        for n, group in by_size.items():
            defects, splits = _dichotomy_split(np.array(group))
            for w, d, s in zip(group, defects, splits):
                ref = _split_reference(w)
                assert d == ref[0]
                if ref[1] is None:
                    seen_none += 1
                    continue
                seen_split += 1
                assert (np.mean(w[:s]), np.mean(w[s:])) == (ref[1], ref[2])
        assert seen_none > 50 and seen_split > 500

    def test_one_row_matches_grid(self):
        rows = np.array([[0.0, 0.001, 1.0, 1.002], [0.0, 1.0, 2.0, 3.0]])
        grid = _dichotomy_split(rows)
        for i, w in enumerate(rows):
            d, s = _dichotomy_split(w)
            assert d == grid[0][i] and s == grid[1][i]
        assert grid[1][0] == 2 and grid[0][1] == np.inf
