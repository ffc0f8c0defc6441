from dataclasses import replace

import numpy as np
import pytest

from conftest import balanced_arrowhead, random_matrix, random_unitary, rng_for
from numrange_lab.generators import FamilySpec, generate, flat_portion_example
from numrange_lab.linalg import DimensionError, _pencil_at, hermitian_parts, normalise
from numrange_lab.numrange import REFINE_STEPS, SupportFunction
from numrange_lab import oracle
from numrange_lab.oracle import (
    ARC_ROUNDS,
    COVER_RADIUS,
    COVER_START,
    TOP_GAP_FLOOR,
    SearchParams,
    _top_vectors,
    boundary_cover,
    boundary_vector_field,
    max_orthonormal_boundary_set,
    restricted_max_set,
    verify,
)
from numrange_lab.classify import classify_any
from numrange_lab.reduction import block_kprime, decompose


class TestField:
    def test_two_by_two_traces_ellipse(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        field = boundary_vector_field(a, grid_size=128)
        assert field.candidates
        for c in field.candidates:
            # every candidate realizes the support value in its direction
            z = complex(c.vec.conj() @ a @ c.vec)
            p = SupportFunction(a)(float(c.theta))
            assert abs(np.real(np.exp(-1j * c.theta) * z) - p) < 1e-10

    def test_one_grid_sweep(self, stack_sizes):
        # beyond the two half-turn sweeps of 512 members, only the event
        # refinement's Newton steps
        boundary_vector_field(flat_portion_example())
        assert {name: sizes[512] for name, sizes in stack_sizes.items()} == {"eigvalsh": 1, "eigh": 1}
        assert set(stack_sizes["eigvalsh"]) == {512}
        assert sum(stack_sizes["eigh"].values()) - 1 <= REFINE_STEPS

    def test_restricted_field_reads_the_ambient_sweep(self, monkeypatch, stack_sizes):
        # the field's 512 directions are every other one of the ambient's 1024,
        # so until it is searched its only eigvalsh stack is its own half-turn
        # sweep of 256
        rng = rng_for(41)
        b = random_matrix(rng, 3)
        amb = np.zeros((5, 5), dtype=complex)
        amb[:3, :3], amb[3:, 3:] = b, random_matrix(rng, 2)
        ambient = SupportFunction(amb)
        stack_sizes["eigvalsh"].clear()
        field_ = restricted_field(monkeypatch, b, ambient, lambda: dict(stack_sizes["eigvalsh"]))
        assert field_.candidates and field_.seen == {256: 1}

    def test_hermitian_extreme_vectors(self):
        a = np.diag([0.1, 0.4, 0.7, 1.0]).astype(complex)
        field = boundary_vector_field(a, grid_size=128)
        vecs = np.column_stack([c.vec for c in field.candidates])
        # both extreme eigenvectors appear somewhere in the pool
        assert np.max(np.abs(vecs[3, :])) > 1 - 1e-9
        assert np.max(np.abs(vecs[0, :])) > 1 - 1e-9
        # the numerical range of a Hermitian matrix is a segment: k = n
        assert max_orthonormal_boundary_set(a).k_lower == 4

    def test_worked_example_flat_direction_multiplicity(self):
        a = flat_portion_example()
        field = boundary_vector_field(a, grid_size=512)
        hits = [e for e in field.events if abs(e.theta - np.pi / 4) < 1e-6]
        assert hits and hits[0].basis.shape[1] == 2

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            boundary_vector_field(np.eye(2), grid_size=32)


def near_normal(seed):
    # U* diag(d) U plus a 1e-6..1e-9 perturbation; seed 5011 has the double
    # eigenvalue 3 at a vertex of W, split by the perturbation
    rng = rng_for(seed)
    n = 4 + (seed - 5000) % 3
    if (seed - 5000) % 4 == 0:
        d = np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, n)))
    elif (seed - 5000) % 4 == 1:
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif (seed - 5000) % 4 == 2:
        d = rng.standard_normal(n).astype(complex)
    else:
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d[1] = d[0] = 3
    u = random_unitary(rng, n)
    return u.conj().T @ np.diag(d) @ u + 10.0 ** -rng.integers(6, 10) * random_matrix(rng, n)


class TestArcGraph:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_matrix(rng_for(5), 5),
            lambda: generate(FamilySpec("k3-parallel-lines", seed=4000)),
            lambda: near_normal(5011),
        ],
        ids=["dense-5", "k3-parallel-lines-4000", "near-normal-5011"],
    )
    def test_free_nodes_cover_the_curve(self, make):
        # the edges rest on it: every point of x(theta) outside an event's
        # grid step and outside the turns too narrow for the bisection lies
        # within the radius of some free node
        a = make()
        field = boundary_vector_field(a)
        free = [c for c in field.candidates if not c.pinned]
        assert len(free) >= 256 or field.turns
        nodes, radii = np.column_stack([c.vec for c in free]), np.array([c.radius for c in free])
        h, k = hermitian_parts(a)
        thetas = np.linspace(0, 2 * np.pi, 65536, endpoint=False)
        event_steps = [np.floor(ev.theta * 1024 / (2 * np.pi)) for ev in field.events]
        thetas = thetas[~np.isin(np.floor(thetas * 1024 / (2 * np.pi)), event_steps)]
        for lo, hi in field.turns:
            assert 0 < np.mod(hi - lo, 2 * np.pi) <= (1 + 1e-9) * 2 * np.pi / (1024 * 2**ARC_ROUNDS)
            thetas = thetas[np.mod(thetas - lo, 2 * np.pi) > np.mod(hi - lo, 2 * np.pi)]
        for chunk in np.array_split(thetas, 16):
            x = np.linalg.eigh(np.cos(chunk)[:, None, None] * h + np.sin(chunk)[:, None, None] * k)[1][:, :, -1]
            chord = np.sqrt(np.maximum(2 - 2 * np.abs(x.conj() @ nodes), 0.0))
            assert np.all(np.min(chord - radii, axis=1) <= 1e-12)

    @pytest.mark.parametrize(
        "make, count",
        [
            (lambda: generate(FamilySpec("pure-almost-normal", n=5, seed=1)), 256),
            (lambda: generate(FamilySpec("k4-split-31", seed=1)), 260),
            (lambda: balanced_arrowhead(3, 5).to_dense(), 261),
        ],
        ids=["pure-almost-normal-5", "k4-split-31", "balanced-arrowhead-5"],
    )
    def test_node_count_is_scale_free(self, make, count):
        # the spacing and the arc lengths come from one cumulative sum, so a
        # closed curve's node count cannot hinge on rounding at any scale
        a = make()
        assert [len(boundary_vector_field(c * a).candidates) for c in (1e-200, 1.0, 1e20, 1e200)] == [count] * 4

    def test_reports_capped_sizes(self, monkeypatch):
        a = generate(FamilySpec("k3-parallel-lines", seed=4000))
        assert max_orthonormal_boundary_set(a).capped == []
        monkeypatch.setattr(oracle, "MAX_CLIQUES", 8)
        res = max_orthonormal_boundary_set(a)
        assert res.capped == [2]
        assert res.to_dict()["capped"] == [2]
        assert res.k_lower >= 2 and res.gram_residual <= 1e-6
        # the nodes themselves are never cut
        field = boundary_vector_field(a)
        levels, capped = field.cliques(4)
        assert len(levels[0]) == len(field.candidates) and capped == [2]

    def test_cap_keeps_every_clique_below_the_cut(self, monkeypatch):
        # a clique's measure bounds its subcliques', so every clique below the
        # largest measure kept at each cut size survives, in order, at the head
        # of its size (here more than the 24 attempts); each table is built
        # fresh on a copy of the field, since the field keeps its first one
        field = boundary_vector_field(near_normal(5032))
        vecs = np.column_stack([c.vec for c in field.candidates])
        overlap = np.abs(vecs.conj().T @ vecs)

        def measure(level):
            i, j = np.triu_indices(level.shape[1], 1)
            return overlap[level[:, i], level[:, j]].max(axis=1, initial=0.0)

        monkeypatch.setattr(oracle, "MAX_CLIQUES", 10**6)
        full, _ = replace(field).cliques(6)
        monkeypatch.setattr(oracle, "MAX_CLIQUES", 4000)
        cut, capped = replace(field).cliques(6)
        assert capped == [3, 4] and len(cut) == len(full)
        below = np.inf
        for size, (a, b) in enumerate(zip(full, cut), start=1):
            if size in capped:
                below = min(below, measure(b).max())
            head = a[measure(a) < below]
            assert len(head) >= 24 and np.array_equal(b[: len(head)], head)
        # extension in chunks of a few rows, merged and cut as it goes
        monkeypatch.setattr(oracle, "CLIQUE_CHUNK", 500)
        chunked, capped_chunked = replace(field).cliques(6)
        assert capped_chunked == capped
        assert all(np.array_equal(a, b) for a, b in zip(chunked, cut))

    def test_extended_table_matches_a_fresh_build(self, monkeypatch):
        # a table built to triples and then extended to 4 gives the levels and
        # cut sizes of one built straight to 4, here with levels 3 and 4 cut
        monkeypatch.setattr(oracle, "MAX_CLIQUES", 4000)
        grown = boundary_vector_field(near_normal(5032))
        fresh, fresh_capped = replace(grown).cliques(4)
        three, three_capped = grown.cliques(3)
        assert three_capped == [3] and len(three) == 3
        four, four_capped = grown.cliques(4)
        assert four_capped == fresh_capped == [3, 4]
        assert len(four) == len(fresh) == 4
        assert all(np.array_equal(a, b) for a, b in zip(four, fresh))
        assert all(a is b for a, b in zip(three, four))  # the first three levels are the ones built before
        # asking for fewer sizes afterwards reads the same prefix
        again, again_capped = grown.cliques(3)
        assert again_capped == [3] and all(a is b for a, b in zip(again, three))

    def test_split_double_vertex_keeps_five(self):
        # the family needs 5-cliques built from triangles that a cap of 4,000
        # per size cut (k_lower fell to 4)
        res = max_orthonormal_boundary_set(near_normal(5011))
        assert res.k_lower >= 5 and res.capped == []

    @pytest.mark.parametrize("seed", [5009, 5021, 5029, 5032])
    def test_near_normal_refinement_count(self, seed, refinements):
        # the top sizes fail on these, and every clique of a size holds the
        # same plateau vectors: node-disjoint starts keep the search to fewer
        # refinements than one size's attempts (48-72 when every clique was tried)
        res = max_orthonormal_boundary_set(near_normal(seed))
        assert res.k_lower >= 2 and sum(refinements.values()) <= SearchParams().attempts_per_size


class TestTopVectorDerivative:
    def test_matches_central_difference(self):
        a = random_matrix(rng_for(11), 5)
        h, k = hermitian_parts(a)
        scale = np.linalg.norm(a, 2)

        def top(t):
            return np.linalg.eigh(np.cos(t) * h + np.sin(t) * k)[1][:, -1]

        def phased(v, ref):
            ph = np.vdot(ref, v)
            return v * np.conj(ph) / abs(ph)

        thetas = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        w = np.array([np.linalg.eigvalsh(np.cos(t) * h + np.sin(t) * k) for t in thetas])
        thetas = thetas[w[:, -1] - w[:, -2] > 1e-3 * scale]
        assert len(thetas) >= 8
        x, dx = _top_vectors(h, k, thetas, np.ones((5, len(thetas))), TOP_GAP_FLOOR * scale)
        step = 1e-6
        for i, t in enumerate(thetas):
            assert np.allclose(phased(top(t), x[:, i]), x[:, i], atol=1e-12)
            fd = (phased(top(t + step), x[:, i]) - phased(top(t - step), x[:, i])) / (2 * step)
            assert np.linalg.norm(fd - dx[:, i]) <= 1e-6 * np.linalg.norm(dx[:, i])

    def test_multiple_top_eigenvalue_stays_finite(self):
        h, k = np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 2.0]).astype(complex)
        x, dx = _top_vectors(h, k, np.array([0.0]), np.ones((3, 1)), TOP_GAP_FLOOR)
        assert np.all(np.isfinite(dx))
        assert abs(np.linalg.norm(x) - 1) < 1e-12


class TestMaxSet:
    def test_always_at_least_two(self):
        rng = rng_for(1)
        for _ in range(5):
            a = random_matrix(rng, 4)
            res = max_orthonormal_boundary_set(a)
            assert res.k_lower >= 2
            assert res.gram_residual <= 1e-6

    def test_scalar_matrix_gives_n(self):
        res = max_orthonormal_boundary_set((2 + 1j) * np.eye(3))
        assert res.k_lower == 3

    def test_segment_gives_n(self):
        # essentially Hermitian: the range is a segment, every vector works
        a = np.exp(0.4j) * (np.diag([0.0, 0.3, 1.0]) + 0.5j * np.eye(3))
        res = max_orthonormal_boundary_set(a)
        assert res.k_lower == 3

    def test_dichotomous_family_reaches_four(self):
        for fam in ("k4-split-22", "k4-split-31"):
            a = generate(FamilySpec(fam, seed=4))
            res = max_orthonormal_boundary_set(a)
            assert res.k_lower == 4
            assert res.gram_residual < 1e-8
            assert np.max(res.boundary_residuals) < 1e-8

    def test_double_top_multiplicity_family(self):
        # skew part with a double extreme: the proof's L+ / L- structure
        ah = balanced_arrowhead(17, 4, two_level=False)
        res = max_orthonormal_boundary_set(ah.to_dense())
        from numrange_lab.arrowhead import gauwu_balanced

        assert res.k_lower == gauwu_balanced(ah).k
        # vectors live in the extremal eigenspaces of the diagonal direction
        theta = gauwu_balanced(ah).certificate["theta"]
        d = np.real(np.exp(-1j * theta) * np.append(ah.diag, ah.corner))
        top = set(np.nonzero(d >= d.max() - 1e-9)[0])
        bot = set(np.nonzero(d <= d.min() + 1e-9)[0])
        for j in range(res.k_lower):
            x = np.abs(res.vectors[:, j]) > 1e-6
            support = set(np.nonzero(x)[0])
            assert support <= top or support <= bot

    def test_worked_example_exactly_three(self):
        res = max_orthonormal_boundary_set(flat_portion_example())
        assert res.k_lower == 3
        assert res.gram_residual < 1e-8

    def test_determinism(self):
        a = generate(FamilySpec("k3-parallel-lines", seed=5))
        r1 = max_orthonormal_boundary_set(a)
        r2 = max_orthonormal_boundary_set(a)
        assert r1.k_lower == r2.k_lower
        assert np.array_equal(r1.thetas, r2.thetas)
        assert np.array_equal(r1.vectors, r2.vectors)

    def test_monotone_in_grid(self):
        a = generate(FamilySpec("k3-nonparallel-lines", seed=6))
        small = max_orthonormal_boundary_set(a, params=SearchParams(grid_size=256))
        big = max_orthonormal_boundary_set(a, params=SearchParams(grid_size=1024))
        assert big.k_lower >= small.k_lower


class TestVerify:
    def test_worked_example_claim_three_matches(self):
        rep = verify(flat_portion_example(), 3)
        assert rep.match and rep.status == "match"

    def test_pure_almost_normal_claim_two(self):
        # the cover proves k <= 2, so the pair matches with no search; the
        # search of the sizes above 2, run on its own, finds no triple either
        a = generate(FamilySpec("pure-almost-normal", seed=2))
        rep = verify(a, 2)
        assert rep.match and rep.oracle.k_upper == 2 and rep.searched_sizes == ()
        sf = SupportFunction(normalise(a).m)
        found = oracle._search(boundary_vector_field(sf), sf, SearchParams(), (4, 3))
        assert found.k_lower == 0 and found.floors.get(3, np.inf) > 1e-4

    def test_wrong_high_claim_escalates_then_mismatch(self):
        rep = verify(flat_portion_example(), 4)
        assert not rep.match
        assert rep.status == "search-below-claim"
        assert rep.escalations >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_vertex_eigenspace_plus_block_claim_four(self, seed):
        # U*(c I_2 + B)U with c = 2||B|| a vertex of W: two orthonormal
        # vectors at the vertex and an antipodal pair of B give k = 4
        rng = rng_for(300 + seed)
        b = random_matrix(rng, 2)
        u = random_unitary(rng, 4)
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2], m[2:, 2:] = 2 * np.linalg.norm(b, 2) * np.eye(2), b
        rep = verify(u.conj().T @ m @ u, 4)
        assert rep.match, rep.status

    def test_wrong_low_claim_is_soundness_flag(self):
        a = generate(FamilySpec("k4-split-31", seed=1))
        rep = verify(a, 3)
        assert not rep.match
        assert rep.status == "oracle-exceeds-claim"


class TestRestricted:
    def _block(self):
        dec = decompose(generate(FamilySpec("reducible-aligned", seed=0)))
        block = next(b for b in dec.blocks if b.shape[0] == 3)
        return dec, block

    def test_block_on_ambient_boundary(self):
        dec, block = self._block()
        k, vecs, thetas = restricted_max_set(block, SupportFunction(dec.assembled()))
        assert k == 3
        assert vecs.shape == (3, 3) and thetas.shape == (3,)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(3)) < 1e-6

    def test_buried_block_contributes_nothing(self):
        _, block = self._block()
        center = np.trace(block) / 3 * np.eye(3)
        shrunk = center + (block - center) / 20
        ambient = np.zeros((6, 6), dtype=complex)
        ambient[:3, :3], ambient[3:, 3:] = block, shrunk
        k, vecs, thetas = restricted_max_set(shrunk, SupportFunction(ambient))
        assert k == 0
        assert vecs.shape == (3, 0) and thetas.shape == (0,)

    @pytest.mark.parametrize("grid_size", [128, 512])
    def test_contact_arc_wider_than_pi_gives_a_pair(self, grid_size):
        # the 3x3 block touches the ambient boundary for theta in about
        # [1.87, 5.07], so x(theta) and x(theta + pi) both land on it; the
        # refiner moves two arc nodes onto such a pair on any grid
        b3 = np.array([[0.3, 1.0, 0.4], [0, -0.2 + 0.4j, 0.9], [0, 0, 0.5 - 0.3j]])
        ambient = np.zeros((6, 6), dtype=complex)
        ambient[:3, :3], ambient[3:5, 3:5], ambient[5, 5] = b3, [[0.8 + 0.5j, 1.2], [0, 0.8 + 0.5j]], 1.5 - 0.3j
        u = random_unitary(rng_for(0), 3)
        k, vecs, _ = restricted_max_set(u.conj().T @ b3 @ u, SupportFunction(ambient), params=SearchParams(grid_size))
        assert k == 2
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(2)) < 1e-6

    def test_free_vector_not_thinned_by_copy_at_other_direction(self):
        # e3 maps onto the ambient vertex i for theta near pi/2; its pinned
        # copies at the block's events (theta = pi/4, pi) touch nothing
        block = np.diag([0.0, 1.0, 1j])
        block[0, 1] = 3e-8
        ambient = SupportFunction(np.diag([0.0, 1.0, 1j, -1 - 1j, 2.0]))
        k, vecs, _ = restricted_max_set(block, ambient)
        assert k == 1
        assert abs(vecs[2, 0]) > 1 - 1e-6


    @pytest.mark.parametrize("z, count", [(1.0, 1), (0.2j, 0)])
    def test_one_by_one_block_counts_its_point(self, z, count):
        # the ambient is the unit square's corners; 1 is one of them, 0.2i is inside
        ambient = SupportFunction(np.diag([1.0, 1j, -1.0, -1j]))
        k, vecs, thetas = restricted_max_set(np.array([[z]], dtype=complex), ambient)
        assert k == count and vecs.shape == (1, count) and thetas.shape == (count,)
        with pytest.raises(DimensionError):
            boundary_vector_field(np.array([[z]], dtype=complex))


class TestCover:
    """The certified cover proves k <= 2 on k = 2 inputs and never on k >= 3."""

    @pytest.mark.parametrize("fam", ["pure-almost-normal", "unbalanced-arrowhead"])
    def test_proves_two_on_the_fallback_families(self, fam):
        for seed in range(5):
            sf = SupportFunction(normalise(generate(FamilySpec(fam, seed=seed))).m)
            cover = boundary_cover(sf)
            assert cover.status == "proved" and cover.k_upper == 2, (fam, seed)
            assert len(cover.thetas) >= 2 * COVER_START and np.all(cover.radii <= COVER_RADIUS)
            assert boundary_cover(sf) is cover  # memoised on the SupportFunction

    @pytest.mark.parametrize("fam", ["k3-parallel-lines", "k3-nonparallel-lines", "k4-split-22", "k4-split-31",
                                     "dichotomous-arrowhead-diag", "dichotomous-arrowhead-coupled",
                                     "reducible-aligned", "reducible-mixed"])
    def test_never_proves_two_above_two(self, fam):
        for seed in range(5):
            a = generate(FamilySpec(fam, seed=seed))
            cover = boundary_cover(a)
            assert cover.k_upper is None and cover.status in ("event", "triangle", "budget"), (fam, seed)

    def test_cells_tile_the_circle_and_radii_hold_inside_them(self):
        sf = SupportFunction(normalise(generate(FamilySpec("unbalanced-arrowhead", seed=1))).m)
        cover = boundary_cover(sf)
        starts, ends = cover.thetas - cover.widths, cover.thetas + cover.widths
        assert np.allclose(ends, np.append(starts[1:], starts[0] + 2 * np.pi), rtol=0, atol=1e-14)
        # every top vector of a cell lies within its node's chordal radius
        h, k = hermitian_parts(sf.a)
        fractions = np.linspace(-1, 1, 9)
        inside = (cover.thetas[:, None] + fractions * cover.widths[:, None]).ravel()
        x = np.linalg.eigh(_pencil_at(h, k, inside))[1][:, :, -1]
        node = np.repeat(np.linalg.eigh(_pencil_at(h, k, cover.thetas))[1][:, :, -1], len(fractions), axis=0)
        chord = np.sqrt(np.maximum(2 - 2 * np.abs(np.sum(node.conj() * x, axis=1)), 0))
        assert np.all(chord <= np.repeat(cover.radii, len(fractions)) + 1e-12)

    def test_declines_at_an_event_and_small_sizes_are_exact(self):
        assert boundary_cover(flat_portion_example()).status == "event"
        for n in (1, 2):
            cover = boundary_cover(random_matrix(rng_for(n), n))
            assert (cover.status, cover.k_upper) == ("proved", n)

    def test_budget_declines(self, monkeypatch):
        monkeypatch.setattr(oracle, "COVER_NODES", 130)
        cover = boundary_cover(generate(FamilySpec("pure-almost-normal", seed=0)))
        assert cover.status == "budget" and cover.k_upper is None

    def test_depths_are_one_base36_digit_per_cell(self):
        """Every depth the bisection rounds can reach encodes as np.base_repr's lower-case digit."""
        depths = np.arange(oracle.COVER_ROUNDS + 1)
        cover = oracle.Cover(n=3, status="proved", thetas=np.zeros(depths.size), depths=depths,
                             radii=np.zeros(depths.size))
        assert cover.to_dict()["depths"] == "".join(np.base_repr(d, 36) for d in depths).lower()

    def test_search_route_is_exact_when_proved(self, refinements):
        a = generate(FamilySpec("pure-almost-normal", seed=3))
        res = max_orthonormal_boundary_set(a)
        assert (res.k_lower, res.k_upper, res.floors, res.capped) == (2, 2, {}, [])
        assert refinements == {}
        assert res.to_dict()["k_upper"] == 2 and res.to_dict()["cover"]["status"] == "proved"
        x = res.vectors
        assert np.max(np.abs(x.conj().T @ x - np.eye(2))) < 1e-12


def restricted_field(monkeypatch, block, ambient, observe=lambda: None):
    """The field that ``restricted_max_set(block, ambient)`` searches, with
    ``observe()`` as it stood when the search began in ``seen``."""
    fields, search = [], oracle._search

    def recording(field_, *args):
        field_.seen = observe()
        fields.append(field_)
        return search(field_, *args)

    monkeypatch.setattr(oracle, "_search", recording)
    restricted_max_set(block, ambient)
    return fields[0]


def tangent_contact(seed, theta0=0.7371):
    """(B, A): a random 3x3 B and A = B + diag(z0 + 3r iu, z0 - 3r iu, z0 - 8r u)
    with u = e^{i theta0}, z0 the boundary point of W(B) in direction theta0
    and r = ||B||.  Two far points on B's supporting line there and one far
    behind it make W(A) touch W(B) at z0 alone, in a direction off the grid."""
    b = random_matrix(rng_for(seed), 3)
    u = np.exp(1j * theta0)
    x = np.linalg.eigh((b / u + u * b.conj().T) / 2)[1][:, -1]
    z0, r = x.conj() @ b @ x, np.linalg.norm(b, 2)
    a = np.zeros((6, 6), dtype=complex)
    a[:3, :3] = b
    a[3:, 3:] = np.diag([z0 + 3j * r * u, z0 - 3j * r * u, z0 - 8 * r * u])
    return b, a


class TestAmbientContact:
    """The field refines the contacts with the ambient boundary that the grid
    straddles and pins the block's top vector there."""

    def test_contact_pinned_off_the_grid(self, monkeypatch):
        b, a = tangent_contact(0)
        field_ = restricted_field(monkeypatch, b, SupportFunction(a))
        pinned = [c.theta for c in field_.candidates if c.pinned]
        assert len(pinned) == 1 and abs(pinned[0] - 0.7371) < 1e-9

    def test_block_owning_an_arc_still_pins_its_contact(self, monkeypatch):
        # without the point behind B, W(B) also owns an arc of the ambient
        # boundary, where its gap is exactly 0 (on 47 of its 512 grid
        # directions); those samples take no contact slot, so the tangency at
        # theta0 is pinned beside the arc's two refined ends, and the share is 2
        b, a = tangent_contact(0)
        ambient = SupportFunction(a[:5, :5])
        field_ = restricted_field(monkeypatch, b, ambient)
        pinned = sorted(c.theta for c in field_.candidates if c.pinned)
        assert len(pinned) == 3 and abs(pinned[0] - 0.7371) < 1e-9
        assert restricted_max_set(b, ambient)[0] == 2

    def test_contact_counts_for_the_block(self):
        b, a = tangent_contact(0)
        assert block_kprime(b, SupportFunction(a))[:2] == (1, "restricted-search")
        assert classify_any(a).k == 4 == max_orthonormal_boundary_set(a).k_lower

    def test_grid_alone_misses_the_contact(self, monkeypatch):
        monkeypatch.setattr(oracle, "_refined_minima", lambda *args, **kwargs: [])
        b, a = tangent_contact(0)
        assert block_kprime(b, SupportFunction(a))[:2] == (0, "restricted-search")
        assert classify_any(a).k == 3
