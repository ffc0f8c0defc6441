import numpy as np
import pytest

from conftest import balanced_arrowhead, random_matrix, rng_for
from numrange_lab.generators import FamilySpec, generate, flat_portion_example
from numrange_lab.numrange import SupportFunction
from numrange_lab.oracle import (
    SearchParams,
    boundary_vector_field,
    max_orthonormal_boundary_set,
    restricted_max_set,
    verify,
)
from numrange_lab.reduction import decompose


class TestField:
    def test_two_by_two_traces_ellipse(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        field = boundary_vector_field(a, grid_size=128)
        assert field.candidates
        for c in field.candidates:
            # every candidate realizes the support value in its direction
            z = complex(c.vec.conj() @ a @ c.vec)
            p = field.support(float(c.theta))
            assert abs(np.real(np.exp(-1j * c.theta) * z) - p) < 1e-10

    def test_one_grid_sweep(self, batched_calls):
        boundary_vector_field(flat_portion_example())
        assert batched_calls == {"eigvalsh": 1, "eigh": 1}

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
        a = generate(FamilySpec("pure-almost-normal", seed=2))
        rep = verify(a, 2)
        assert rep.match
        floor = rep.oracle.floors.get(3, np.inf)
        assert floor > 1e-4

    def test_wrong_high_claim_escalates_then_mismatch(self):
        rep = verify(flat_portion_example(), 4)
        assert not rep.match
        assert rep.status == "search-below-claim"
        assert rep.escalations >= 1

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

    def test_free_vector_not_thinned_by_copy_at_other_direction(self):
        # e3 maps onto the ambient vertex i for theta near pi/2; its pinned
        # copies at the block's events (theta = pi/4, pi) touch nothing
        block = np.diag([0.0, 1.0, 1j])
        block[0, 1] = 3e-8
        ambient = SupportFunction(np.diag([0.0, 1.0, 1j, -1 - 1j, 2.0]))
        k, vecs, _ = restricted_max_set(block, ambient)
        assert k == 1
        assert abs(vecs[2, 0]) > 1 - 1e-6
