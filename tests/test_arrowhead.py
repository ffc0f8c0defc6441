import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from conftest import balanced_arrowhead, bounded, random_matrix, rng_for, secular_test_arrowhead
import numrange_lab
from numrange_lab import reduction
from numrange_lab.arrowhead import (
    ArrowheadMatrix,
    CertificateMismatchError,
    _aberth_secular_roots,
    _row_norms,
    _hull_boundary_indices,
    NotApplicableError,
    NotArrowheadError,
    arrowhead_from_dense,
    dichotomy_check,
    gauwu_balanced,
    gauwu_unbalanced_two,
    gauwu_with_zero_pairs,
    irreducible_dichotomous_check,
    normal_eigenvalue_check,
    projection_recognize,
    secular_eigen,
    secular_function,
)
from numrange_lab.classify import classify_any
from numrange_lab.generators import FamilySpec, generate
from numrange_lab.linalg import DEFAULT_TOL, herm_part_at, matrix_scale, reducing_eigenvectors, safe_norm
from numrange_lab.oracle import check_witness, max_orthonormal_boundary_set
from numrange_lab.reduction import commutant_dimension, decompose, dirsum_gauwu
from numrange_lab.results import METHOD_ARROWHEAD


def _count_restricted_searches(monkeypatch) -> list:
    """A list that gains one entry per ``restricted_max_set`` call of a share."""
    calls, search = [], reduction.restricted_max_set
    monkeypatch.setattr(reduction, "restricted_max_set", lambda *a, **k: calls.append(1) or search(*a, **k))
    return calls


class TestFromDense:
    def test_any_2x2_is_arrowhead(self):
        a = random_matrix(rng_for(0), 2)
        ah = arrowhead_from_dense(a)
        assert np.allclose(ah.to_dense(), a)

    def test_diagonal_accepted(self):
        ah = arrowhead_from_dense(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(ah.col, 0) and np.allclose(ah.row, 0)

    def test_dense_random_rejected(self):
        rng = rng_for(1)
        rejected = 0
        for _ in range(10):
            a = random_matrix(rng, 4)
            mask = np.zeros((4, 4), dtype=bool)
            mask[np.arange(4), np.arange(4)] = True
            mask[:, 3] = mask[3, :] = True
            try:
                arrowhead_from_dense(a)
            except NotArrowheadError:
                assert np.max(np.abs(a[~mask])) > 1e-8
                rejected += 1
        assert rejected == 10

    def test_round_trip(self):
        rng = rng_for(2)
        ah = ArrowheadMatrix(
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
            1.5 - 0.5j,
        )
        back = arrowhead_from_dense(ah.to_dense())
        assert np.allclose(back.to_dense(), ah.to_dense())


class TestSecular:
    def test_interlacing_two_poles(self):
        ah = ArrowheadMatrix([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], 0.0)
        res = secular_eigen(ah)
        roots = np.sort([p.value.real for p in res.eigen])
        inside = [r for r in roots if 0 < r < 1]
        assert len(inside) == 1
        assert roots[0] < 0 and roots[-1] > 1

    def test_degenerate_pole_root(self):
        # secular equation reduces to 1 - lambda = 0; the other eigenvalue
        # sits exactly on the pole and comes back through the nullspace
        ah = ArrowheadMatrix([0.0], [1.0], [0.0], 1.0)
        res = secular_eigen(ah)
        vals = sorted(v.real for v in res.values())
        assert np.allclose(vals, [0.0, 1.0], atol=1e-10)
        assert len(res.eigen) == 1 and abs(res.eigen[0].value - 1.0) < 1e-12
        assert len(res.degenerate) == 1 and abs(res.degenerate[0].value) < 1e-10

    def test_matches_dense_eigensolver(self):
        rng = rng_for(3)
        for trial in range(5):
            n = 6
            ah = ArrowheadMatrix(
                rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1),
                rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
                rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
                rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
            )
            res = secular_eigen(ah)
            mine = np.array([p.value for p in res.eigen] + [p.value for p in res.degenerate])
            dense = np.linalg.eigvals(ah.to_dense())
            # match by nearest pairing
            for lam in mine:
                assert np.min(np.abs(dense - lam)) < 1e-8

    def test_residuals_and_vectors(self):
        rng = rng_for(4)
        n = 20
        ah = ArrowheadMatrix(
            rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1),
            rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
            rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
            0.2,
        )
        res = secular_eigen(ah)
        scale = matrix_scale(ah.to_dense())
        assert len(res.eigen) == n
        for p in res.eigen:
            assert p.residual <= 1e-9 * scale
            assert abs(secular_function(ah, p.value)) < 1e-8 * scale

    def test_hermitian_interlaces_poles(self):
        rng = rng_for(5)
        n = 12
        d = np.linspace(-1, 1, n - 1) + rng.uniform(-0.03, 0.03, n - 1)
        b = rng.uniform(0.1, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
        ah = ArrowheadMatrix(d, b, np.conj(b), 0.3)
        res = secular_eigen(ah)
        roots = np.sort([p.value.real for p in res.eigen])
        assert len(roots) == n
        for i, pole in enumerate(np.sort(d)):
            assert roots[i] < pole < roots[i + 1]

    def test_repeated_pole_gets_orthonormal_vectors(self):
        # the eigenvalue 0.5 is double; its two nullspace vectors span e_1, e_2
        ah = ArrowheadMatrix([0.5, 0.5, -0.3], [0, 0, 1], [0, 0, 0.7], 0.2)
        res = secular_eigen(ah)
        dense = ah.to_dense()
        assert len(res.degenerate) == 2
        vecs = np.array([p.vector for p in res.degenerate]).T
        assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-12)
        for p in res.degenerate:
            assert np.linalg.norm(dense @ p.vector - p.value * p.vector) <= 1e-9 * matrix_scale(dense)

    @pytest.mark.parametrize("n", [2, 5])
    def test_zero_arrowhead_gets_an_orthonormal_basis(self, n):
        # the zero matrix has no unit to measure a pole collision in; its
        # n-fold eigenvalue 0 gets n orthonormal vectors
        res = secular_eigen(ArrowheadMatrix(np.zeros(n - 1), np.zeros(n - 1), np.zeros(n - 1), 0))
        pairs = res.eigen + res.degenerate
        vecs = np.array([p.vector for p in pairs]).T
        assert len(pairs) == n and all(p.value == 0 and p.residual == 0 for p in pairs)
        assert np.array_equal(vecs.conj().T @ vecs, np.eye(n))

    @pytest.mark.parametrize("n", [10, 60, 250])
    @pytest.mark.parametrize("kind", ["clustered", "weak", "triples"])
    def test_hermitian_hard_poles(self, kind, n):
        """Poles in pairs or threes 1e-7 apart, or couplings from 1e-6 to 1:
        every value is found once, with a small residual, strictly
        interlacing the poles.  At clustered poles the offset polish keeps
        the worst residual at 1e-12 ||A||."""
        self._check_secular(secular_test_arrowhead(rng_for(600 + n), n, kind), True, 1e-9 if kind == "weak" else 1e-12)

    def test_clustered_poles_reported_input(self):
        """Pole pairs 1e-7 apart from rng_for(2010): the secular vectors
        x_j = col_j / (lam - a_j) left a residual of 1.2e-9 ||A|| before the
        roots were carried as offsets from their nearest pole."""
        self._check_secular(secular_test_arrowhead(rng_for(2010), 10, "clustered"), True, 1e-12)

    @staticmethod
    def _check_secular(ah, hermitian, worst_bound=1e-9):
        """n values, every residual below worst_bound ||A|| (and 1e-9 ||A||),
        a one-to-one match with the dense eigenvalues within 1e-8 ||A||, and
        strict interlacing of the poles on Hermitian input."""
        n = ah.n
        res = secular_eigen(ah)
        scale = matrix_scale(ah.to_dense())
        got = res.values()
        assert len(got) == n
        worst = max(p.residual for p in res.eigen + res.degenerate)
        assert worst < 1e-9 * scale and worst <= worst_bound * scale, worst / scale
        if hermitian:
            d = np.sort(ah.diag.real)
            roots = np.sort(got.real)
            assert np.all(roots[:-1] < d) and np.all(d < roots[1:])
        dense = np.linalg.eigvals(ah.to_dense())
        for lam in got:
            j = int(np.argmin(np.abs(dense - lam)))
            assert abs(dense[j] - lam) < 1e-8 * scale
            dense = np.delete(dense, j)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stress_corpus(self):
        """The checks of ``_check_secular`` on Hermitian inputs with separated
        poles, poles in threes 1e-7 apart or couplings log-uniform in
        [1e-6, 1], and on general inputs with a third of their poles within
        1e-3 of another, at scales 1 and 1e+-150."""
        rng = rng_for(12345)
        kinds = ("separated", "triples", "weak", "general")
        for i in range(300):
            kind, c = kinds[i % 4], (1.0, 1e-150, 1e150)[i // 4 % 3]
            n = int(rng.choice([100, 130])) if i % 30 == 29 else int(rng.integers(3, 60))
            self._check_secular(secular_test_arrowhead(rng, n, kind, c), kind != "general")

    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("case", ["plain", "zero-coupling", "repeated-pole"])
    def test_hermitian_roots_are_real_and_interlace(self, case, c):
        """On exactly Hermitian input the roots come out of real arithmetic:
        imaginary parts exactly 0, one root in each gap of the sorted poles
        and one beyond each end.  A pole with zero coupling, or a repeated
        pole, is a root itself and sits on the edge of its gap."""
        rng = rng_for(7)
        n = 12
        d = np.sort(np.linspace(-1, 1, n - 1) + rng.uniform(-0.05, 0.05, n - 1))
        b = rng.uniform(0.1, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
        if case == "zero-coupling":
            b[4] = 0
        if case == "repeated-pole":
            d[5] = d[6]
        ah = ArrowheadMatrix(c * d, c * b, c * np.conj(b), c * 0.3)
        roots = _aberth_secular_roots(ah)
        assert len(roots) == n and not np.any(np.imag(roots))
        r, poles = np.sort(np.real(roots)), np.sort(np.real(ah.diag))
        lo, hi = np.concatenate([[-np.inf], poles]), np.concatenate([poles, [np.inf]])
        on_pole = np.zeros(n, dtype=bool)
        if case != "plain":
            special = ah.diag[4 if case == "zero-coupling" else 5].real
            on_pole = np.abs(r - special) <= 4 * np.finfo(float).eps * abs(special)
        assert on_pole.sum() == (case != "plain")
        assert np.all(np.where(on_pole, (lo <= r) & (r <= hi), (lo < r) & (r < hi)))

    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("n", [50, 400])
    def test_structured_residual_is_the_dense_one(self, n, hermitian, c):
        """The residual read off the arrow pattern is ||Ax - lam x|| of the
        dense product to within 16 eps ||A||, so it never under-reports."""
        rng = rng_for(4100 + n + hermitian)
        if hermitian:
            d = np.sort(np.linspace(-1, 1, n - 1) + rng.uniform(-0.3, 0.3, n - 1) / n)
            b = rng.uniform(0.1, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
            ah = ArrowheadMatrix(c * d, c * b, c * np.conj(b), c * rng.uniform(-1, 1))
        else:
            ah = ArrowheadMatrix(
                c * (rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1)),
                c * rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
                c * rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
                c * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)),
            )
        res = secular_eigen(ah)
        dense = ah.to_dense()
        scale = matrix_scale(dense)
        assert len(res.eigen) == n
        for p in res.eigen:
            assert abs(np.linalg.norm(p.vector) - 1) <= 1e-14
            assert abs(p.residual - safe_norm(dense @ p.vector - p.value * p.vector)) <= 16 * np.finfo(float).eps * scale
            assert p.residual < 1e-9 * scale

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_cost_at_n_400(self, hermitian):
        """Built as in acceptance criterion 10; a sweep over the live roots
        only keeps the time and the traced memory bounded."""
        rng = rng_for(4000 + hermitian)
        n = 400
        if hermitian:
            d = np.sort(np.linspace(-1, 1, n - 1) + rng.uniform(-0.3, 0.3, n - 1) / n)
            b = rng.uniform(0.1, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
            ah = ArrowheadMatrix(d, b, np.conj(b), rng.uniform(-1, 1))
        else:
            ah = ArrowheadMatrix(
                rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1),
                rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
                rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1)),
                rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
            )
        res, elapsed, peak = bounded(secular_eigen, ah)
        assert len(res.values()) == n
        assert elapsed < 1.0, elapsed
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_row_norms_match_safe_norm(self, dtype):
        """One pass of squares, and the scaled path where squares over- or
        underflow: every row agrees with ``safe_norm`` to rounding."""
        rng = rng_for(27)
        rows = rng.standard_normal((40, 9)) * 10.0 ** rng.uniform(-300, 300, (40, 1))
        rows[:8] = rng.standard_normal((8, 9)) * 10.0 ** rng.uniform(-300, 300, (8, 9))  # mixed within a row
        v = rows + 1j * rows[::-1] if dtype is complex else rows
        v[8] = 0.0
        v[9, :4] = 0.0
        got = _row_norms(v)
        want = np.array([safe_norm(row) for row in v])
        assert got[8] == 0.0
        assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_on_a_pole_and_points_that_meet(self):
        """A pole of multiplicity three leaves two gaps of width 0, so two
        starts sit on that pole and on each other.  Only those rows take the
        clamped path; the double eigenvalue there comes back twice with
        orthonormal vectors from one SVD."""
        rng = rng_for(11)
        d = np.sort(np.linspace(-1, 1, 9) + rng.uniform(-0.05, 0.05, 9))
        d[4] = d[5] = d[3]
        b = rng.uniform(0.1, 1, 9) * np.exp(1j * rng.uniform(0, 7, 9))
        ah = ArrowheadMatrix(d, b, np.conj(b), 0.3)
        roots = np.sort(_aberth_secular_roots(ah))
        assert not np.any(np.imag(roots)) and np.count_nonzero(roots == d[3]) == 2
        res = secular_eigen(ah)
        dense = ah.to_dense()
        assert len(res.degenerate) == 2 and len(res.values()) == 10
        vecs = np.array([p.vector for p in res.degenerate]).T
        assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-12)
        assert np.allclose(np.sort(res.values().real), np.linalg.eigvalsh(dense), rtol=0, atol=1e-12)

    def test_poles_a_few_ulps_apart(self):
        """Poles in threes 1e-15 apart, couplings down to 1e-6: a root that
        lands on a pole gets that pole as its nearest (mu = 0) and goes to
        the dense matrix, never a zero gap in its secular vector."""
        rng = rng_for(1515)
        for i in range(24):
            n, c = int(rng.integers(4, 80)), (1.0, 1e-150, 1e150)[i % 3]
            centres = np.linspace(-1, 1, -(-(n - 1) // 3)) + rng.uniform(-0.2, 0.2, -(-(n - 1) // 3)) / n
            d = np.sort(np.concatenate([centres + 1e-15 * k * rng.uniform(0.5, 1.5) for k in range(3)]))[: n - 1]
            b = 10.0 ** rng.uniform(-6, 0, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
            self._check_secular(ArrowheadMatrix(c * d, c * b, c * np.conj(b), c * rng.uniform(-1, 1)), False)

    @pytest.mark.parametrize("n, seed", [(6, 39), (6, 74), (6, 691), (6, 2995), (12, 39), (12, 40)])
    def test_weakly_coupled_general_roots(self, n, seed):
        """General arrowheads with couplings scaled by 10^U(-10, 0): a root
        off the poles whose secular vector leaves a residual above 1e-9 s
        goes to the dense matrix, so every residual stays below 1e-9 ||A||
        (these inputs gave up to 4.1e-9 ||A|| when such a root kept its
        vector)."""
        rng = np.random.default_rng(seed)
        diag = rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1)
        col, row = (rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
                    * 10 ** rng.uniform(-10, 0, n - 1) for _ in range(2))
        self._check_secular(ArrowheadMatrix(diag, col, row, rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)), False)

    @pytest.mark.parametrize("case", ["weak-hermitian", "general-zero-pairs"])
    def test_secular_vectors_need_no_svd(self, case, monkeypatch):
        """A Hermitian root next to a weakly coupled pole keeps its offset
        vector, and a zero pair gives e_j, so neither builds the dense
        matrix: no SVD on weak-250 (91 roots within eq_tol * s of a pole) or
        on a general arrowhead with 49 of its 199 pairs zero."""
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        if case == "weak-hermitian":
            ah = secular_test_arrowhead(np.random.default_rng(250), 250, "weak")
        else:
            ah = secular_test_arrowhead(rng_for(24), 200, "general")
            zero = rng_for(25).choice(199, size=49, replace=False)
            ah.col[zero] = ah.row[zero] = 0
        res = secular_eigen(ah)
        assert calls == []
        self._check_secular(ah, case == "weak-hermitian", 1e-12)
        assert len(res.degenerate) == (0 if case == "weak-hermitian" else 49)
        assert all(p.residual == 0 and np.count_nonzero(p.vector) == 1 for p in res.degenerate)


class TestNormalEigenvalue:
    def test_zero_pair_condition(self):
        ah = ArrowheadMatrix([0.5, -0.5], [1.0, 0.0], [0.5j, 0.0], 0.1)
        certs = normal_eigenvalue_check(ah)
        assert any(c.condition == "i" and c.indices == (1,) for c in certs)

    def test_repeated_diagonal_condition(self):
        ah = ArrowheadMatrix([0.3, 0.3, -1.0], [1.0, 1.0, 0.5], [1.0, 1.0, 0.2], 0.0)
        certs = normal_eigenvalue_check(ah)
        assert any(c.condition == "ii" for c in certs)

    def test_triple_repeat_condition(self):
        ah = ArrowheadMatrix([0.3, 0.3, 0.3], [1.0, 2.0, 0.5], [1.0, 0.7, 0.2], 0.0)
        certs = normal_eigenvalue_check(ah)
        assert any(c.condition == "iii" for c in certs)

    def test_essentially_hermitian_rotation_fires_iv(self):
        rng = rng_for(6)
        n = 4
        d = rng.uniform(-1, 1, n - 1)
        b = rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
        herm = ArrowheadMatrix(d, b, np.conj(b), 0.4).to_dense()
        a = np.exp(1j * 0.9) * herm
        certs = normal_eigenvalue_check(arrowhead_from_dense(a))
        assert any(c.condition == "iv" for c in certs)

    def test_concurrent_lines_fire_iv(self):
        # reverse-engineer: pick a target eigenvalue and couplings so all
        # coupling-direction lines pass through it
        rng = rng_for(7)
        lam = 0.3 + 0.2j
        d = np.array([lam + 1.0 * np.exp(1j * 0.2), lam + 0.8 * np.exp(1j * 1.4), lam + 1.3 * np.exp(1j * 2.9)])
        phis = np.angle(lam - d)
        mod = rng.uniform(0.3, 0.8, 3)
        beta = rng.uniform(0, 7, 3)
        col = mod * np.exp(1j * beta)
        row = mod * np.exp(1j * (2 * phis - beta))
        # corner fixed by the secular identity at lam
        corner = lam - np.sum(col * row / (lam - d))
        ah = ArrowheadMatrix(d, col, row, corner)
        certs = normal_eigenvalue_check(ah)
        assert any(c.condition == "iv" for c in certs)
        cert = [c for c in certs if c.condition == "iv"][0]
        assert abs(cert.witness_lambda - lam) < 1e-8

    def test_generic_has_none(self):
        ah = ArrowheadMatrix([0.5, -0.3 + 0.7j], [1.0, 0.5], [0.3j, 0.8], 0.1)
        assert normal_eigenvalue_check(ah) == []

    @staticmethod
    def _structured(seed):
        """A random arrowhead with structure built in: an equal diagonal pair
        with proportional couplings (a normal eigenvalue) or generic ones
        (none), an equal triple, zero pairs (at least one pair stays live) or
        balanced lines concurrent at a secular root."""
        rng = rng_for(9000 + seed)
        kind = ("pair-proportional", "pair-generic", "triple", "zero", "lines")[seed % 5]
        m = int(rng.integers(3, 8))
        diag = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        col = rng.uniform(0.2, 1, m) * np.exp(1j * rng.uniform(0, 7, m))
        row = rng.uniform(0.2, 1, m) * np.exp(1j * rng.uniform(0, 7, m))
        corner = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        i, j, k = rng.permutation(m)[:3]
        if kind == "zero":
            zeroed = rng.permutation(m)[: rng.integers(1, m)]
            col[zeroed] = row[zeroed] = 0
        elif kind == "lines":
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            diag = lam + rng.uniform(0.3, 1.5, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            beta = rng.uniform(0, 7, m)
            col = rng.uniform(0.3, 0.8, m) * np.exp(1j * beta)
            row = np.abs(col) * np.exp(1j * (2 * np.angle(lam - diag) - beta))
            corner = lam - np.sum(col * row / (lam - diag))
        else:
            diag[[j, k] if kind == "triple" else [j]] = diag[i]
            if kind == "pair-proportional":
                c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                col[j], row[j] = c * col[i], np.conj(c) * row[i]
        return ArrowheadMatrix(diag, col, row, corner)

    @pytest.mark.parametrize("block", range(4))
    def test_certifies_every_joint_eigenvalue(self, block):
        # the criteria find exactly the eigenvalues that have a joint
        # eigenvector of A and A*, with orthonormal witnesses per eigenvalue;
        # 160 of these 200 inputs have one
        for seed in range(50 * block, 50 * block + 50):
            ah = self._structured(seed)
            certs = normal_eigenvalue_check(ah)
            joint = reducing_eigenvectors(ah.to_dense())
            found = {np.round(c.witness_lambda, 6) for c in certs}
            assert found == {np.round(lam, 6) for lam, _ in joint}, seed
            for lam in found:
                x = np.column_stack([c.witness_vector for c in certs if np.round(c.witness_lambda, 6) == lam])
                assert np.allclose(x.conj().T @ x, np.eye(x.shape[1]), atol=1e-10), seed

    @pytest.mark.parametrize("n", range(3, 7))
    def test_all_zero_pairs_certify_the_corner(self, n):
        # with every pair zero, e_n is a joint eigenvector of A and A* for the
        # corner; first a corner of its own value, then one shared with a_1
        rng = rng_for(9300 + n)
        diag = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        for corner in (diag[-1], diag[0]):
            ah = ArrowheadMatrix(diag[:-1], np.zeros(n - 1), np.zeros(n - 1), corner)
            certs = normal_eigenvalue_check(ah)
            joint = reducing_eigenvectors(ah.to_dense())
            assert {np.round(c.witness_lambda, 6) for c in certs} == {np.round(lam, 6) for lam, _ in joint}
            assert len(certs) == len(joint) == n


class TestProjectionRecognize:
    def test_diagonal_01(self):
        ah = arrowhead_from_dense(np.diag([1.0, 0.0, 1.0]))
        assert projection_recognize(ah).kind == "Diagonal01"

    def test_rank_structured_block(self):
        t, alpha = 0.25, np.sqrt(3) / 4
        dense = np.zeros((4, 4))
        dense[2, 2] = t
        dense[3, 3] = 1 - t
        dense[2, 3] = dense[3, 2] = alpha
        form = projection_recognize(arrowhead_from_dense(dense))
        assert form.kind == "RankStructured"
        assert form.index == 2
        assert abs(form.t - t) < 1e-12
        assert abs(form.alpha - alpha) < 1e-12

    def test_random_involution_not_arrowhead(self):
        # a Hermitian idempotent without arrow structure never reaches the
        # recognizer: the dense reader rejects it first
        rng = rng_for(8)
        for _ in range(5):
            z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            q, _ = np.linalg.qr(z)
            p = q @ q.conj().T
            with pytest.raises(NotArrowheadError):
                arrowhead_from_dense(p)

    def test_not_projection(self):
        ah = arrowhead_from_dense(np.diag([0.5, 0.5, 0.5]))
        assert projection_recognize(ah).kind == "NotProjection"


class TestDichotomy:
    def test_case_a_instance(self):
        ah = ArrowheadMatrix(
            [1j, 1 + 1j], [0.4j, 0.9j], [0.4j, 0.9j], 1 + 0.5j
        )
        cert = dichotomy_check(ah)
        assert cert is not None and cert.case == "a"
        assert abs(cert.theta % np.pi) < 1e-9
        assert abs(cert.h0 - 0) < 1e-9 and abs(cert.h1 - 1) < 1e-9

    def test_essentially_hermitian_rejected(self):
        d = np.array([0.1, 0.5, 0.9])
        b = np.array([0.3, 0.4, 0.5]) * np.exp(1j * np.array([0.1, 1.0, 2.0]))
        ah = ArrowheadMatrix(d, b, np.conj(b), 0.7)
        assert dichotomy_check(ah) is None

    def test_case_b_round_trip(self):
        # build from the coupled projection shape with t = 1/3 and recover it
        t, h0, h1 = 1.0 / 3.0, 0.0, 1.0
        alpha = np.sqrt(t * (1 - t)) * np.exp(1j * 0.6)
        n, i = 4, 1
        p = np.zeros((n, n), dtype=complex)
        p[0, 0], p[2, 2] = 1.0, 0.0
        p[i, i], p[n - 1, n - 1] = t, 1 - t
        p[i, n - 1], p[n - 1, i] = alpha, np.conj(alpha)
        k = np.zeros((n, n), dtype=complex)
        k[np.arange(n), np.arange(n)] = [0.2, -0.4, 0.9, 0.1]
        m = np.array([0.5 * np.exp(0.2j), 0.7 * np.exp(-1.1j), 0.3 * np.exp(2.0j)])
        k[: n - 1, n - 1] = m
        k[n - 1, : n - 1] = np.conj(m)
        a = (h0 * np.eye(n) + (h1 - h0) * p) + 1j * k
        cert = dichotomy_check(arrowhead_from_dense(a))
        assert cert is not None and cert.case == "b"
        assert cert.exceptional_index == i
        assert abs(cert.t - t) < 1e-9
        assert abs(abs(cert.alpha) - abs(alpha)) < 1e-9

    def test_reconstruction_invariant(self):
        for seed in range(5):
            a = generate(FamilySpec("dichotomous-arrowhead-coupled", seed=seed))
            ah = arrowhead_from_dense(a)
            cert = dichotomy_check(ah)
            assert cert is not None
            n = ah.n
            proj = (herm_part_at(a, cert.theta) - cert.h0 * np.eye(n)) / (cert.h1 - cert.h0)
            assert np.linalg.norm(proj @ proj - proj) < 1e-8 * n


def _dichotomous(kdiag, m, kcorner, p, exceptional=None, t=0.3, theta=0.4, h0=-0.5, h1=0.8):
    """e^{i theta} (h0 I + (h1 - h0) P + i K): P the projection with 0/1
    diagonal ``p`` (corner last) or, at an ``exceptional`` index i, P[i, i] =
    t coupled to the corner; K the Hermitian arrowhead (kdiag, m, kcorner)."""
    n = len(kdiag) + 1
    proj = np.diag(np.asarray(p, dtype=complex))
    if exceptional is not None:
        proj[exceptional, exceptional], proj[-1, -1] = t, 1 - t
        proj[exceptional, -1] = proj[-1, exceptional] = np.sqrt(t * (1 - t))
    k = np.diag(np.append(np.asarray(kdiag, dtype=complex), kcorner))
    k[:-1, -1] = m
    k[-1, :-1] = np.conj(m)
    return np.exp(1j * theta) * (h0 * np.eye(n) + (h1 - h0) * proj + 1j * k)


_ALPHA = np.sqrt(0.3 * 0.7)  # the coupling of P at t = 0.3
# (label, matrix, verdict text) for the branches no family reaches; in the
# coupled inputs index 0 is exceptional with real ratio m_0 / alpha
_BRANCH_INPUTS = [
    ("distinct", _dichotomous([0.1, -0.4, 0.6], [0.5, 0.3j, -0.7], 0.2, [0, 1, 0, 1]), "distinct couplings"),
    ("repeated-diagonal", _dichotomous([0.1, 0.1, 0.6], [0.5, 0.3j, -0.7], 0.2, [0, 0, 1, 1]), "repeated diagonal"),
    ("zero-pair", _dichotomous([0.1, -0.4, 0.6], [0.5, 0, -0.7], 0.2, [0, 1, 0, 1]), "zero off-diagonal pair"),
    # the others share p = 1, and lam = k_0 + (1 - t) ratio lands on k_1
    ("aligned-collision", _dichotomous([0.1, 0.1 + 0.7 * 0.6, -0.5], [0.6 * _ALPHA, 0.4, 0.5j], 0.2, [0, 1, 1, 0], 0),
     "resonance value collides"),
    ("aligned", _dichotomous([0.1, 0.7, -0.5], [0.6 * _ALPHA, 0.4, 0.5j], 0.2, [0, 1, 1, 0], 0), "no resonance"),
    ("mixed-n5", _dichotomous([0.1, 0.7, -0.5, 0.3], [0.6 * _ALPHA, 0.4, 0.5j, 0.3], 0.2, [0, 0, 1, 0, 0], 0),
     "reducible only at n = 4"),
    ("mixed-level", _dichotomous([0.1, 0.7, -0.5], [0.6 * _ALPHA, 0.4, 0.5j], 0.2, [0, 0, 1, 0], 0),
     "level interpolation fails"),
    # k_0 = (1 - t) k_1 + t k_2, and m_0 = (k_2 - k_1) alpha cancels m_comb
    ("mixed-degenerate", _dichotomous([0.7 * 0.7 - 0.3 * 0.5, 0.7, -0.5], [-1.2 * _ALPHA, 0.4, 0.5j], 0.2,
                                      [0, 0, 1, 0], 0), "degenerate branch balance fails"),
    ("mixed-nonsingular", _dichotomous([0.7 * 0.7 - 0.3 * 0.5, 0.7, -0.5], [0.6 * _ALPHA, 0.4, 0.5j], 0.2,
                                       [0, 0, 1, 0], 0), "bordered block nonsingular"),
]


class TestIrreducibleDichotomous:
    def test_case_a_irreducible(self):
        for seed in range(5):
            a = generate(FamilySpec("dichotomous-arrowhead-diag", seed=seed))
            ah = arrowhead_from_dense(a)
            cert = dichotomy_check(ah)
            assert cert is not None and cert.case == "a"
            irr, reason = irreducible_dichotomous_check(ah, cert)
            assert irr, reason
            assert commutant_dimension(a) == 1

    def test_aligned_resonance_reducible(self):
        for seed in range(5):
            a = generate(FamilySpec("reducible-aligned", seed=seed))
            ah = arrowhead_from_dense(a)
            cert = dichotomy_check(ah)
            assert cert is not None and cert.case == "b"
            irr, reason = irreducible_dichotomous_check(ah, cert)
            assert not irr
            assert commutant_dimension(a) >= 2

    def test_aligned_reducing_eigenvector_shape(self):
        # the reducing eigenvector pairs the projection's kernel direction
        # with a full secular eigenvector of the skew part
        a = generate(FamilySpec("reducible-aligned", seed=1))
        red = reducing_eigenvectors(a)
        assert red, "expected a reducing eigenvector"

    def test_mixed_case_reducible(self):
        for seed in range(5):
            a = generate(FamilySpec("reducible-mixed", seed=seed))
            ah = arrowhead_from_dense(a)
            cert = dichotomy_check(ah)
            assert cert is not None and cert.case == "b"
            irr, reason = irreducible_dichotomous_check(ah, cert)
            assert not irr
            assert commutant_dimension(a) >= 2

    def test_generic_coupled_irreducible(self):
        for seed in range(5):
            a = generate(FamilySpec("dichotomous-arrowhead-coupled", seed=seed))
            ah = arrowhead_from_dense(a)
            cert = dichotomy_check(ah)
            irr, reason = irreducible_dichotomous_check(ah, cert)
            assert irr, reason
            assert commutant_dimension(a) == 1

    @pytest.mark.parametrize("label, a, branch", _BRANCH_INPUTS, ids=[c[0] for c in _BRANCH_INPUTS])
    def test_branch_verdict_matches_commutant(self, label, a, branch):
        # one input per verdict branch; the verdict is irreducibility, which
        # the commutant decides independently
        ah = arrowhead_from_dense(a)
        cert = dichotomy_check(ah)
        irr, reason = irreducible_dichotomous_check(ah, cert)
        assert branch in reason
        assert irr == (commutant_dimension(a) == 1), reason

    def test_wrong_certificate_raises(self):
        ah = arrowhead_from_dense(_BRANCH_INPUTS[0][1])
        cert = dichotomy_check(ah)
        with pytest.raises(CertificateMismatchError, match="fails to reconstruct"):
            irreducible_dichotomous_check(ah, dataclasses.replace(cert, h1=cert.h1 + 0.5))


class TestGauwuBalanced:
    def test_simple_extremes_give_two(self):
        # three distinct levels: simple max and min, so exactly a pair
        ah = ArrowheadMatrix(
            [0.0 + 0.2j, 1.0 - 0.4j], [0.5j, 0.8j], [0.5j, 0.8j], 0.5 + 0.9j
        )
        res = gauwu_balanced(ah)
        assert res.k == 2
        assert res.certificate["top_indices"] == [1]
        assert res.certificate["bottom_indices"] == [0]

    def test_split_three_one_gives_four(self):
        from numrange_lab.generators import generate_with_info

        a, info = generate_with_info(FamilySpec("k4-split-31", seed=2, knobs={"conjugate": False, "theta": 0.0}))
        res = gauwu_balanced(arrowhead_from_dense(a))
        assert res.k == 4

    def test_matches_search_oracle(self):
        for seed in range(8):
            n = 3 + seed % 4
            ah = balanced_arrowhead(seed, n)
            res = gauwu_balanced(ah)
            orc = max_orthonormal_boundary_set(ah.to_dense())
            assert res.k == orc.k_lower, (seed, n, res.k, orc.k_lower)

    def test_invariances(self):
        ah = balanced_arrowhead(33, 4)
        base = gauwu_balanced(ah).k
        rng = rng_for(34)
        # diagonal unitary similarity preserves the arrow and the value
        phases = np.exp(1j * rng.uniform(0, 7, 4))
        d = np.diag(phases)
        conj = d.conj().T @ ah.to_dense() @ d
        assert gauwu_balanced(arrowhead_from_dense(conj)).k == base
        # permutation of the first n-1 indices
        perm = np.eye(4)[:, [2, 0, 1, 3]]
        permuted = perm.T @ ah.to_dense() @ perm
        assert gauwu_balanced(arrowhead_from_dense(permuted)).k == base
        # scalar rotation
        rotated = np.exp(1j * 0.77) * ah.to_dense()
        assert gauwu_balanced(arrowhead_from_dense(rotated)).k == base

    def test_helper_returns_at_large_n(self):
        # the test helper caps its level count, so its redraw ends at any n
        ah = balanced_arrowhead(1, 16)
        assert ah.n == 16 and gauwu_balanced(ah).k >= 2

    def test_unbalanced_rejected(self):
        a = generate(FamilySpec("pure-almost-normal", seed=0))
        with pytest.raises(NotApplicableError):
            gauwu_balanced(arrowhead_from_dense(a))


class TestGauwuZeroPairs:
    def _with_zero_pair(self, seed, z0):
        ah = balanced_arrowhead(seed, 3)
        diag = np.concatenate([[z0], ah.diag])
        col = np.concatenate([[0.0], ah.col])
        row = np.concatenate([[0.0], ah.row])
        return ArrowheadMatrix(diag, col, row, ah.corner)

    def test_no_zero_pairs_delegates(self):
        ah = balanced_arrowhead(40, 4)
        assert gauwu_with_zero_pairs(ah).k == gauwu_balanced(ah).k

    def test_interior_scalar_contributes_zero(self):
        ah = balanced_arrowhead(41, 3)
        center = np.mean(np.concatenate([ah.diag, [ah.corner]]))
        big = self._with_zero_pair(41, center)
        res = gauwu_with_zero_pairs(big)
        orc = max_orthonormal_boundary_set(big.to_dense())
        assert res.k == orc.k_lower

    def test_exterior_scalar_certified_against_oracle(self):
        ah = balanced_arrowhead(42, 3)
        far = np.max(np.abs(np.concatenate([ah.diag, [ah.corner]]))) * 3.0
        big = self._with_zero_pair(42, far + 0j)
        res = gauwu_with_zero_pairs(big)
        orc = max_orthonormal_boundary_set(big.to_dense())
        assert res.k == orc.k_lower
        assert 0 in res.certificate["scalars_on_boundary"]

    @pytest.mark.parametrize("n, seed", [(5, 2), (5, 6), (6, 26), (6, 38)])
    def test_one_live_pair_matches_the_direct_sum(self, n, seed, monkeypatch):
        # the live 2x2 sub-arrowhead takes its share from the direct-sum rule,
        # which counts the antipodal pair that a restricted search missed
        ah = balanced_arrowhead(seed, n)
        col, row = ah.col.copy(), ah.row.copy()
        col[1:] = row[1:] = 0
        a = ArrowheadMatrix(ah.diag, col, row, ah.corner).to_dense()
        searches = _count_restricted_searches(monkeypatch)
        res = classify_any(a)
        assert res.method == METHOD_ARROWHEAD
        assert searches == [] and res.certificate["sub_method"] == "antipodal-contact"
        assert res.k == dirsum_gauwu(decompose(a)).k
        if (n, seed) == (5, 2):
            assert res.k == 5

    def test_sub_witness_decides_the_share(self, monkeypatch):
        """The live sub-arrowhead's share is its own balanced k whenever that
        witness lands on the whole range's boundary: of the benchmark's
        zero-pair arrowheads at n = 5-8, only two run the restricted search
        (before, 26 of these 48 ran it)."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        searches = _count_restricted_searches(monkeypatch)
        searched = set()
        for n in range(5, 9):
            for i in range(12):
                before = len(searches)
                res = classify_any(workloads.zero_pair_arrowhead(numrange_lab, n, i))
                assert res.certificate["route"] == "balanced-with-zero-pairs"
                assert (res.certificate["sub_method"] == "restricted-search") == (len(searches) > before)
                if len(searches) > before:
                    searched.add((n, i))
        assert searched == {(5, 9), (6, 8)}

    @pytest.mark.parametrize("n", [12, 24, 32])
    def test_route_solves_no_wider_than_the_live_sub_arrowhead(self, n, monkeypatch, solve_widths):
        # the split is a direct sum swept block by block: the zero-pair
        # scalars in closed form, the sub-arrowhead whole
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        ah = arrowhead_from_dense(importlib.import_module("workloads").zero_pair_arrowhead(numrange_lab, n, 0))
        live = n - len(gauwu_with_zero_pairs(ah).certificate["zero_pair_indices"])
        for counter in solve_widths.values():
            counter.clear()
        res = gauwu_with_zero_pairs(ah)
        assert res.witness.vectors.shape == (n, res.k)
        widths = [w for counter in solve_widths.values() for w in counter]
        assert live < n and max(widths) <= live

    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e200])
    def test_split_moves_with_a_permutation_of_the_indices(self, c, monkeypatch):
        # conjugating by a permutation of the first n - 1 indices keeps the
        # arrowhead form: k and the sub-arrowhead's share stay, the zero pairs
        # and the scalars on the boundary move with it, and the witness holds
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        a = c * importlib.import_module("workloads").zero_pair_arrowhead(numrange_lab, 13, 1)
        base = classify_any(a)
        assert base.certificate["scalars_on_boundary"] == [1, 3]
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(12)
            x = a[np.ix_(np.append(perm, 12), np.append(perm, 12))]
            res = classify_any(x)
            moved = {key: sorted(np.argsort(perm)[base.certificate[key]].tolist())
                     for key in ("zero_pair_indices", "scalars_on_boundary")}
            assert res.method == METHOD_ARROWHEAD and res.k == base.k == 8
            assert {key: res.certificate[key] for key in moved} == moved
            assert [res.certificate[key] for key in ("sub_share", "sub_method")] == [6, "balanced"]
            assert check_witness(x, res.witness, res.k) is not None


class TestGauwuUnbalanced:
    def test_pure_almost_normal(self):
        for seed in range(4):
            a = generate(FamilySpec("pure-almost-normal", seed=seed))
            res = gauwu_unbalanced_two(arrowhead_from_dense(a))
            assert res.k == 2
            assert res.certificate["direction"] == "column"

    def test_strictness_violation_rejected(self):
        # balanced pair on a hull index breaks the hypothesis
        ah = balanced_arrowhead(50, 4)
        with pytest.raises(NotApplicableError):
            gauwu_unbalanced_two(ah)

    def test_oracle_agrees(self):
        for seed in range(4):
            a = generate(FamilySpec("unbalanced-arrowhead", seed=seed))
            res = gauwu_unbalanced_two(arrowhead_from_dense(a))
            orc = max_orthonormal_boundary_set(a)
            assert res.k == 2 == orc.k_lower

    def test_row_dominant_direction(self):
        a = generate(FamilySpec("unbalanced-arrowhead", seed=3, knobs={"direction": "row"}))
        res = gauwu_unbalanced_two(arrowhead_from_dense(a))
        assert res.k == 2
        assert res.certificate["direction"] == "row"


def _hull_reference(points, atol):
    """Support-gap minimum over 4096 uniform directions plus the normals of
    every pair of points (which include every hull edge normal, where the
    minimum is attained); indices within atol of zero."""
    pts = np.asarray(points, dtype=complex)
    diffs = (pts[:, None] - pts[None, :])[~np.eye(len(pts), dtype=bool)]
    normals = np.angle(diffs[np.abs(diffs) > 0]) + np.pi / 2
    thetas = np.concatenate([np.linspace(0, 2 * np.pi, 4096, endpoint=False), normals])
    proj = np.real(np.exp(-1j * thetas)[:, None] * pts[None, :])
    gap = np.min(np.max(proj, axis=1)[:, None] - proj, axis=0)
    return np.nonzero(gap <= atol)[0].tolist()


class TestHullBoundary:
    def atol(self, pts):
        pts = np.asarray(pts)
        return 10 * DEFAULT_TOL.eq_tol * np.max(np.abs(pts[:, None] - pts[None, :]))

    def test_random_sets_match_dense_reference(self):
        rng = rng_for(21)
        for trial in range(200):
            m = int(rng.integers(3, 25))
            pts = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if trial % 4 == 0:
                # a convex polygon with a repeated vertex, two edge midpoints
                # and interior points
                poly = np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, m))) * (2 + 0.5j)
                pts = np.concatenate([poly, poly[:1], (poly[:2] + poly[1:3]) / 2, 0.3 * pts])
            assert _hull_boundary_indices(pts, DEFAULT_TOL) == _hull_reference(pts, self.atol(pts))

    def test_collinear_set_is_all_boundary(self):
        rng = rng_for(22)
        for _ in range(20):
            t = rng.uniform(-1, 1, 9)
            pts = (0.3 - 2j) + t * np.exp(1j * rng.uniform(0, 7))
            assert _hull_boundary_indices(pts, DEFAULT_TOL) == list(range(9))
            assert _hull_reference(pts, self.atol(pts)) == list(range(9))
        assert _hull_boundary_indices(np.full(4, 1 + 1j), DEFAULT_TOL) == [0, 1, 2, 3]

    @pytest.mark.parametrize("depth, counts", [(1e-10, True), (1e-6, False)])
    def test_point_inside_an_edge(self, depth, counts):
        square = np.array([0, 1, 1 + 1j, 1j]) * np.exp(0.4j) + (2 - 1j)
        diam = np.sqrt(2)
        inward = 1j * (square[1] - square[0]) / abs(square[1] - square[0])
        probe = square[0] + 0.37 * (square[1] - square[0]) + depth * diam * inward
        pts = np.concatenate([square, [probe, np.mean(square)]])
        expect = [0, 1, 2, 3, 4] if counts else [0, 1, 2, 3]
        assert _hull_boundary_indices(pts, DEFAULT_TOL) == expect
        assert _hull_reference(pts, self.atol(pts)) == expect


class TestSecularZeroPair:
    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_values_match_dense(self, n, hermitian):
        rng = rng_for(100 + n)
        d = rng.uniform(-1, 1, n - 1) + (0 if hermitian else 1j * rng.uniform(-1, 1, n - 1))
        col = rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
        row = np.conj(col) if hermitian else rng.uniform(0.2, 1, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
        zero = int(rng.integers(0, n - 1))
        col[zero] = row[zero] = 0.0
        ah = ArrowheadMatrix(d, col, row, 0.3 if hermitian else 0.3 - 0.2j)
        res = secular_eigen(ah)
        got = res.values()
        dense = np.linalg.eigvals(ah.to_dense())
        assert len(got) == n
        scale = matrix_scale(ah.to_dense())
        # a one-to-one pairing: each dense eigenvalue is matched once
        for lam in got:
            j = int(np.argmin(np.abs(dense - lam)))
            assert abs(dense[j] - lam) < 1e-8 * scale
            dense = np.delete(dense, j)
        assert any(abs(p.value - d[zero]) < 1e-10 for p in res.eigen + res.degenerate)
