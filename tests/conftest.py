"""Shared helpers: deterministic matrix builders and independent oracles."""

import numpy as np
import pytest
from hypothesis import settings

from numrange_lab.arrowhead import ArrowheadMatrix

# property tests replay the same examples on every run and have no per-example
# deadline: a slow phase of a shared host must not fail or change them
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def rng_for(seed):
    return np.random.default_rng(seed)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :].conj()


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _count_calls(monkeypatch, names, counted):
    counts = dict.fromkeys(names, 0)
    for name in names:

        def counting(a, *args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += counted(a)
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


@pytest.fixture
def batched_calls(monkeypatch):
    """Counts of batched (stacked-matrix) np.linalg.eigvalsh and eigh calls."""
    return _count_calls(monkeypatch, ("eigvalsh", "eigh"), lambda a: np.ndim(a) > 2)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of all np.linalg.eigvalsh, eigh and svd calls, batched or not."""
    return _count_calls(monkeypatch, ("eigvalsh", "eigh", "svd"), lambda a: 1)


def balanced_arrowhead(seed, n, two_level=False):
    """Arrowhead whose off-diagonal pairs share the coupling angle and moduli.

    The rotated Hermitian part is then diagonal; with two_level=True its
    diagonal takes exactly two values (a dichotomous instance).
    """
    rng = rng_for(seed)
    theta = rng.uniform(0, np.pi)
    if two_level:
        levels = np.array([rng.uniform(-1, -0.3), rng.uniform(0.3, 1)])
    else:
        count = rng.integers(2, max(3, n))
        levels = np.sort(rng.uniform(-1, 1, size=count))
        while len(levels) > 1 and np.min(np.diff(levels)) < 0.15:
            levels = np.sort(rng.uniform(-1, 1, size=count))
    r = levels[rng.integers(0, len(levels), size=n)]
    r[0], r[1] = levels[0], levels[-1]
    kv = rng.uniform(-1, 1, size=n)
    while np.min(np.diff(np.sort(kv))) < 1e-2:
        kv = rng.uniform(-1, 1, size=n)
    vals = np.exp(1j * theta) * (r + 1j * kv)
    rho = rng.uniform(0.3, 1, size=n - 1)
    beta = rng.uniform(0, 2 * np.pi, size=n - 1)
    col = rho * np.exp(1j * beta)
    row = rho * np.exp(1j * (2 * theta + np.pi - beta))
    return ArrowheadMatrix(vals[: n - 1], col, row, vals[n - 1])


def hermitian_eigenvalues_by_bisection(h, tol=1e-12):
    """Independent eigenvalue oracle: sign changes of det(H - x I).

    Brackets each root by scanning the determinant sign on a fine grid, then
    bisects.  Only suitable for matrices with well-separated eigenvalues.
    """
    h = np.asarray(h)
    n = h.shape[0]
    bound = float(np.linalg.norm(h, np.inf)) + 1.0

    def detsign(x):
        sign, logdet = np.linalg.slogdet(h - x * np.eye(n))
        return sign.real

    grid = np.linspace(-bound, bound, 4001)
    signs = np.array([detsign(x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        if signs[i] == 0:
            roots.append(grid[i])
            continue
        if signs[i] * signs[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if detsign(mid) * signs[i] > 0:
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots))
