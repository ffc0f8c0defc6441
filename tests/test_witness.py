"""Every route returns the family that reaches its k, and ``verify`` checks that
family before it searches."""

import numpy as np
import pytest

from conftest import balanced_arrowhead, near_normal4, random_matrix, random_unitary, rng_for
from numrange_lab import oracle
from numrange_lab.arrowhead import ArrowheadMatrix
from numrange_lab.classify import classify_any
from numrange_lab.generators import FamilySpec, flat_portion_example, generate
from numrange_lab.linalg import DEFAULT_TOL, normalise
from numrange_lab.numrange import SupportFunction, dichotomy_scan, relative_share
from numrange_lab.oracle import check_witness, verify
from numrange_lab.results import (
    METHOD_ARROWHEAD,
    METHOD_DICHOTOMY,
    METHOD_DICHOTOMY4,
    METHOD_DIRECT_SUM,
    METHOD_FALLBACK2,
    METHOD_KA3,
    METHOD_ORACLE,
    METHOD_SEED3,
    Witness,
)


def _block_sum(*blocks):
    n = sum(b.shape[0] for b in blocks)
    a = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        a[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
        pos += b.shape[0]
    return a


def _zero_pairs(seed, n, zeroed):
    ah = balanced_arrowhead(seed, n)
    col, row = ah.col.copy(), ah.row.copy()
    col[zeroed] = row[zeroed] = 0
    return ArrowheadMatrix(ah.diag, col, row, ah.corner).to_dense()


def _hidden_dichotomy():
    a = generate(FamilySpec("dichotomous-arrowhead-coupled", n=5, seed=0))
    u = random_unitary(rng_for(5), 5)
    return u.conj().T @ a @ u


def _dichotomous_block_in_strip():
    b = generate(FamilySpec("dichotomous-arrowhead-coupled", n=4, seed=0))
    theta, h0, h1, _ = dichotomy_scan(b)
    return _block_sum(b, np.array([[np.exp(1j * theta) * (h0 + h1) / 2]]))


def _tangent_contact():
    # a random 3x3 block whose range touches the whole range at one point off
    # the grid (as ``tangent_contact`` in test_oracle)
    b = random_matrix(rng_for(0), 3)
    u = np.exp(0.7371j)
    x = np.linalg.eigh((b / u + u * b.conj().T) / 2)[1][:, -1]
    z0, r = x.conj() @ b @ x, np.linalg.norm(b, 2)
    return _block_sum(b, np.diag([z0 + 3j * r * u, z0 - 3j * r * u, z0 - 8 * r * u]))


DISC = np.array([[0, 2], [0, 0]], dtype=complex)

# id -> (matrix, classify_any kwargs, method, route or the block share kinds that must occur)
ROUTES = {
    "point-1": (lambda: np.array([[2 + 1j]]), {}, METHOD_ORACLE, None),
    "pair-2": (lambda: random_matrix(rng_for(2), 2), {}, METHOD_FALLBACK2, None),
    "scalar-3": (lambda: (2 - 1j) * np.eye(3), {}, METHOD_DIRECT_SUM, None),
    "dichotomy4": (lambda: generate(FamilySpec("k4-split-22", seed=3000)), {}, METHOD_DICHOTOMY4, "dichotomy-scan"),
    "dichotomy-5": (_hidden_dichotomy, {}, METHOD_DICHOTOMY, "dichotomy-scan"),
    "seed": (flat_portion_example, {}, METHOD_SEED3, None),
    "ka3": (lambda: generate(FamilySpec("k3-parallel-lines", seed=4000)), {}, METHOD_KA3, None),
    "fallback2": (lambda: generate(FamilySpec("pure-almost-normal", seed=0)), {}, METHOD_FALLBACK2, None),
    "search-5": (lambda: random_matrix(rng_for(1), 5), {"allow_oracle_only": True}, METHOD_ORACLE, None),
    "balanced": (lambda: balanced_arrowhead(21, 5).to_dense(), {}, METHOD_ARROWHEAD, "balanced"),
    "zero-pairs": (lambda: _zero_pairs(3, 7, [1, 4]), {}, METHOD_ARROWHEAD, "balanced-with-zero-pairs"),
    "unbalanced": (lambda: generate(FamilySpec("unbalanced-arrowhead", n=6, seed=0)), {}, METHOD_ARROWHEAD,
                   "unbalanced"),
    "dichotomous-irreducible": (lambda: generate(FamilySpec("dichotomous-arrowhead-coupled", n=5, seed=0)), {},
                                METHOD_ARROWHEAD, "dichotomous-irreducible"),
    "share-normal": (lambda: generate(FamilySpec("ellipse-with-scalars", seed=0, knobs={"config": "three"})), {},
                     METHOD_DIRECT_SUM, {"normal-spectrum-contact"}),
    "share-antipodal": (lambda: _block_sum(DISC, DISC + 1.2), {}, METHOD_DIRECT_SUM, {"antipodal-contact"}),
    "share-single-contact": (lambda: _block_sum(DISC, np.array([[0.9, 1.1], [0, 0.9]])), {}, METHOD_DIRECT_SUM,
                             {"antipodal-contact"}),
    "share-dichotomy": (_dichotomous_block_in_strip, {}, METHOD_DIRECT_SUM, {"dichotomy"}),
    "share-restricted-search": (_tangent_contact, {}, METHOD_DIRECT_SUM, {"restricted-search"}),
    "dichotomous-sum": (lambda: generate(FamilySpec("reducible-aligned", n=8, seed=0)), {}, METHOD_DIRECT_SUM,
                        {"dichotomy"}),
}

VARIANTS = {
    "plain": lambda a: a,
    "tiny": lambda a: 1e-200 * a,
    "huge": lambda a: 1e200 * a,
    "rotated": lambda a: np.exp(0.7j) * a + (0.3 - 0.2j) * np.eye(a.shape[0]),
}


class TestEveryRouteWitness:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_passes_its_own_check(self, route, variant):
        make, kwargs, method, kind = ROUTES[route]
        a = VARIANTS[variant](make())
        res = classify_any(a, **kwargs)
        assert res.method == method
        if isinstance(kind, str):
            assert res.certificate["route"] == kind
        elif kind is not None:
            assert kind <= {b["method"] for b in res.certificate["blocks"]}
        w = res.witness
        assert w.vectors.shape == (a.shape[0], res.k) and w.thetas.shape == (res.k,)
        found = check_witness(a, w, res.k)
        assert found is not None and found.k_lower == res.k
        assert found.gram_residual <= 1e-12
        # in the units of the input: 1e-200 A has residuals near 1e-216
        assert np.max(found.boundary_residuals) <= 1e-12 * normalise(a).scale

    def test_share_kinds_are_exact(self):
        # one antipodal pair each for two equal discs; one contact for the small one
        assert [b["kprime"] for b in classify_any(_block_sum(DISC, DISC + 1.2)).certificate["blocks"]] == [2, 2]
        single = classify_any(_block_sum(DISC, np.array([[0.9, 1.1], [0, 0.9]])))
        assert sorted(b["kprime"] for b in single.certificate["blocks"]) == [1, 2]

    def test_built_only_on_request(self):
        res = classify_any(generate(FamilySpec("k4-split-22", seed=3000)))
        assert "witness" not in vars(res)
        assert res.witness is res.witness  # built once
        confirmed = classify_any(generate(FamilySpec("k4-split-22", seed=3000)), confirm_with_oracle=True)
        assert "witness" in vars(confirmed)


def _seed_case():
    a = flat_portion_example()
    res = classify_any(a)
    return a, res.witness


def _rotated_off(w: Witness, angle: float) -> Witness:
    # column 0 turned by ``angle`` towards the direction orthogonal to every
    # column: the family stays orthonormal, so only its boundary residual moves
    x = w.vectors.copy()
    y = np.linalg.svd(x)[0][:, -1]
    x[:, 0] = np.cos(angle) * x[:, 0] + np.sin(angle) * y
    return Witness(x, w.thetas)


def _interior(a, w: Witness, j: int) -> Witness:
    # column j swapped for the normalised sum of the top and bottom
    # eigenvectors of its own pencil member, whose image is inside W(A)
    h, k = (a + a.conj().T) / 2, (a - a.conj().T) / 2j
    v = np.linalg.eigh(np.cos(w.thetas[j]) * h + np.sin(w.thetas[j]) * k)[1]
    x = w.vectors.copy()
    x[:, j] = (v[:, -1] + v[:, 0]) / np.sqrt(2)
    return Witness(x, w.thetas)


class TestVerifyWithWitness:
    def test_k_equal_n_needs_no_search(self, monkeypatch):
        a = generate(FamilySpec("k4-split-22", seed=3000))
        w = classify_any(a).witness

        def refuse(*args, **kwargs):
            raise AssertionError("search called")

        monkeypatch.setattr(oracle, "boundary_vector_field", refuse)
        monkeypatch.setattr(oracle, "max_orthonormal_boundary_set", refuse)
        rep = verify(a, 4, witness=w)
        assert (rep.match, rep.status, rep.escalations, rep.witness_check) == (True, "match", 0, "passed")
        assert rep.searched_sizes == () and rep.source == "witness"
        assert np.array_equal(rep.oracle.vectors, w.vectors)

    def test_searches_only_above_the_claim(self, monkeypatch):
        # k = 2, but the cover keeps a triangle: it proves nothing, so the search runs
        a = near_normal4(7100, 1e-3)
        w = classify_any(a).witness
        assert oracle.boundary_cover(SupportFunction(normalise(a).m)).status == "triangle"
        sizes = []
        search = oracle._search

        def recording(field, support, params, sizes_asked, accept=None):
            sizes.append(tuple(sizes_asked))
            return search(field, support, params, sizes_asked, accept)

        monkeypatch.setattr(oracle, "_search", recording)
        rep = verify(a, 2, witness=w)
        assert rep.match and rep.source == "witness" and rep.escalations == 0
        assert sizes == [(4, 3)] == [rep.searched_sizes]
        assert rep.to_dict()["searched_sizes"] == [4, 3] and rep.to_dict()["k_lower_source"] == "witness"
        assert rep.oracle.k_upper is None and rep.to_dict()["oracle"]["k_upper"] is None

    def test_a_proved_cover_ends_the_search(self, monkeypatch):
        # the cover proves k <= 2, so a passing witness of 2 is exact and nothing is searched
        a = generate(FamilySpec("pure-almost-normal", seed=0))
        w = classify_any(a).witness

        def refuse(*args, **kwargs):
            raise AssertionError("search called")

        monkeypatch.setattr(oracle, "_search", refuse)
        monkeypatch.setattr(oracle, "boundary_vector_field", refuse)
        rep = verify(a, 2, witness=w)
        assert (rep.match, rep.status, rep.escalations, rep.source) == (True, "match", 0, "witness")
        assert rep.searched_sizes == () and rep.oracle.k_upper == 2 == rep.oracle.k_lower
        assert rep.to_dict()["oracle"]["cover"]["status"] == "proved"
        # without a witness the cover's pair is the family, and a claim above 2 is not escalated
        rep = verify(a, 2)
        assert (rep.match, rep.source, rep.searched_sizes, rep.oracle.k_upper) == (True, "cover", (), 2)
        rep = verify(a, 3)
        assert (rep.match, rep.status, rep.escalations, rep.oracle.k_upper) == (False, "claim-above-bound", 0, 2)

    def test_larger_family_above_a_passed_witness(self):
        # three of the four vectors of a k = 4 matrix pass for a claim of 3,
        # and the search above it finds the fourth
        a = generate(FamilySpec("k4-split-31", seed=1))
        w = classify_any(a).witness
        rep = verify(a, 3, witness=Witness(w.vectors[:, :3], w.thetas[:3]))
        assert (rep.match, rep.status, rep.witness_check) == (False, "oracle-exceeds-claim", "passed")
        assert rep.oracle.k_lower == 4 and rep.source == "search" and rep.escalations == 0

    def test_without_witness_the_search_decides(self):
        rep = verify(flat_portion_example(), 3)
        assert rep.match and rep.witness_check is None and rep.source == "search"
        assert rep.searched_sizes == (4, 3, 2)

    @pytest.mark.parametrize("damage", ["rotated", "interior"])
    def test_damaged_witness_falls_back_to_the_search(self, damage):
        a, w = _seed_case()
        bad = _rotated_off(w, 1e-3) if damage == "rotated" else _interior(a, w, 2)
        if damage == "rotated":
            assert np.max(np.abs(bad.vectors.conj().T @ bad.vectors - np.eye(3))) <= 1e-12
        assert check_witness(a, w, 3) is not None and check_witness(a, bad, 3) is None
        rep = verify(a, 3, witness=bad)
        assert rep.witness_check == "failed" and rep.source == "search"
        assert rep.searched_sizes == (4, 3, 2)
        assert rep.match and rep.oracle.k_lower == 3  # the search still confirms the claim
        assert rep.to_dict()["witness_check"] == "failed"

    def test_wrong_size_is_rejected(self):
        a, w = _seed_case()
        assert check_witness(a, w, 2) is None and check_witness(a, w, 4) is None

    @pytest.mark.parametrize("depth, on", [(0.5, True), (5.0, False)])
    def test_one_bound_for_shares_and_witnesses(self, depth, on):
        """A scalar block ``depth`` boundary_tol times the diameter inside an
        edge of the square W(diag(1, i, -1, -i)): its share and its witness
        e_5 at the edge's direction are both read against the one bound, so
        they agree (the witness check once accepted 10 times the bound)."""
        normal = np.array([np.exp(0.25j * np.pi)])
        z = (1 + 1j) / 2 - depth * DEFAULT_TOL.boundary_tol * 2 * normal[0]
        a = np.diag([1, 1j, -1, -1j, z])
        sf = SupportFunction(a)
        assert sf.diameter() == pytest.approx(2)
        share = relative_share(np.array([[z]]), sf)[0]
        checked = check_witness(a, Witness(np.eye(5)[:, 4:], np.angle(normal)), 1)
        assert share == int(on) and (checked is not None) == on

    def test_forged_witness_cannot_raise_the_claim(self):
        # the true triple plus the orthonormal completion, claimed on the line of
        # the first vector: orthonormal, but off the boundary
        a, w = _seed_case()
        x = np.column_stack([w.vectors, np.linalg.svd(w.vectors)[0][:, -1]])
        forged = Witness(x, np.append(w.thetas, w.thetas[0]))
        assert check_witness(a, forged, 4) is None
        rep = verify(a, 4, witness=forged)
        assert not rep.match and rep.status == "search-below-claim" and rep.witness_check == "failed"
        assert rep.oracle.k_lower == 3
