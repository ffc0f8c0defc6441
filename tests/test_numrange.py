import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import balanced_arrowhead, random_matrix, random_unitary, rng_for
from numrange_lab.generators import FamilySpec, generate, flat_portion_example
from numrange_lab.linalg import rotate
from numrange_lab.numrange import (
    FLAT_PORTION,
    IDEMPOTENT_TOL,
    SINGULAR_POINT,
    SupportFunction,
    UnsupportedBlockError,
    _dichotomy_split,
    _refined_minima,
    _two_level_form,
    base_polynomial,
    boundary_generating_curve,
    detect_seeds,
    dichotomy_scan,
    kprime_relative,
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

    def test_one_grid_sweep(self, batched_calls):
        # the event scan and the corner detector read the support function's sweep
        detect_seeds(flat_portion_example())
        assert batched_calls == {"eigvalsh": 1, "eigh": 1}

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

    def grid(self, size=64):
        thetas = np.linspace(0.0, 2 * np.pi, size, endpoint=False)
        return thetas, np.array([self.f(t) for t in thetas]), 2 * np.pi / size

    def test_known_minima_in_grid_order(self):
        thetas, values, step = self.grid()
        got = _refined_minima(self.f, thetas, values, step)
        assert len(got) == 3
        for (t, val), (c, a) in zip(got, sorted(self.WELLS, key=lambda w: w[1])):
            assert abs(np.angle(np.exp(1j * (t - c)))) < 1e-7
            assert abs(val - a) < 1e-13

    def test_count_then_eligible(self):
        thetas, values, step = self.grid()
        lowest_two = _refined_minima(self.f, thetas, values, step, count=2)
        assert [round(v, 9) for _, v in lowest_two] == [-0.5, 0.1]
        # the mask filters the count lowest minima; it does not reach past them
        eligible = np.abs(np.angle(np.exp(1j * (thetas - 4.0)))) > 0.5
        got = _refined_minima(self.f, thetas, values, step, count=2, eligible=eligible)
        assert [round(v, 9) for _, v in got] == [0.1]
        assert _refined_minima(self.f, thetas, values, step, eligible=np.zeros(64, dtype=bool)) == []


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
