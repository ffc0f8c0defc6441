"""Shared helpers: deterministic matrix builders and independent oracles."""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from numrange_lab import oracle
from numrange_lab.arrowhead import ArrowheadMatrix
from numrange_lab.numrange import SupportFunction

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


def near_normal4(seed, eps):
    """U (diag(d) + eps N) U* with N strictly upper triangular: near-normal
    and, for generic data, irreducible."""
    rng = rng_for(seed)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u = random_unitary(rng, 4)
    return u @ (np.diag(d) + eps * np.triu(random_matrix(rng, 4), 1)) @ u.conj().T


def bounded(fn, *args):
    """(fn(*args), wall seconds, peak bytes traced by tracemalloc)."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, elapsed, peak


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
def stack_sizes(monkeypatch):
    """Per function, a Counter of the stack lengths of batched np.linalg.eigvalsh
    and eigh calls: a grid sweep has the grid's length, a refinement step one
    matrix per bracket."""
    sizes = {"eigvalsh": Counter(), "eigh": Counter()}
    for name, counter in sizes.items():

        def counting(a, *args, _orig=getattr(np.linalg, name), _counter=counter, **kwargs):
            if np.ndim(a) > 2:
                _counter[len(a)] += 1
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return sizes


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of all np.linalg.eigvalsh, eigh and svd calls, batched or not."""
    return _count_calls(monkeypatch, ("eigvalsh", "eigh", "svd"), lambda a: 1)


@pytest.fixture
def solve_widths(monkeypatch):
    """Per function, a Counter of the matrix widths of np.linalg.eigh, eigvalsh
    and svd calls, stacked or not; svd counts the wider of its two sides."""
    widths = {"eigh": Counter(), "eigvalsh": Counter(), "svd": Counter()}
    for name, counter in widths.items():

        def counting(a, *args, _orig=getattr(np.linalg, name), _counter=counter, **kwargs):
            _counter[max(np.shape(a)[-2:])] += 1
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return widths


@pytest.fixture
def support_builds(monkeypatch):
    """Counts of SupportFunction constructions, by grid size."""
    counts = Counter()

    def counting(self, a, grid_size=1024, _orig=SupportFunction.__init__):
        counts[int(grid_size)] += 1
        _orig(self, a, grid_size)

    monkeypatch.setattr(SupportFunction, "__init__", counting)
    return counts


@pytest.fixture
def refinements(monkeypatch):
    """Counts of the oracle's refinements (``_refine_set`` calls), by the size
    of the starting set."""
    counts = Counter()

    def counting(m, members, *args, _orig=oracle._refine_set):
        counts[len(members)] += 1
        return _orig(m, members, *args)

    monkeypatch.setattr(oracle, "_refine_set", counting)
    return counts


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
        # at most 6 levels, so that a draw with levels 0.15 apart comes soon at every n
        count = min(rng.integers(2, max(3, n)), 6)
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


def secular_test_arrowhead(rng, n, kind, c=1.0):
    """A secular-solver test input, times c.

    Hermitian kinds: well-separated poles with couplings 0.1-1 ("separated"),
    poles in pairs or threes 1e-7 apart with couplings 0.1-1 ("clustered",
    "triples"), or separated poles with couplings log-uniform in [1e-6, 1]
    ("weak").  "general": complex poles, a third of them placed within 1e-3
    of another, and unrelated column and row.
    """
    m = n - 1
    if kind == "general":
        d = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        close, k = rng.choice(m, size=m // 3, replace=False), m // 3
        d[close] = d[rng.integers(0, m, k)] + 1e-3 * rng.uniform(-1, 1, k) * np.exp(1j * rng.uniform(0, 7, k))
        col = rng.uniform(0.2, 1, m) * np.exp(1j * rng.uniform(0, 7, m))
        row = rng.uniform(0.2, 1, m) * np.exp(1j * rng.uniform(0, 7, m))
        return ArrowheadMatrix(c * d, c * col, c * row, c * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)))
    if kind in ("clustered", "triples"):
        size = 2 if kind == "clustered" else 3
        k = n // 2 if kind == "clustered" else -(-m // 3)
        centres = np.linspace(-1, 1, k) + rng.uniform(-0.2, 0.2, k) / n
        d = np.sort(np.concatenate([centres + 1e-7 * i for i in range(size)]))[:m]
    else:
        d = np.sort(np.linspace(-1, 1, m) + rng.uniform(-0.3, 0.3, m) / n)
    moduli = 10.0 ** rng.uniform(-6, 0, m) if kind == "weak" else rng.uniform(0.1, 1, m)
    b = moduli * np.exp(1j * rng.uniform(0, 7, m))
    return ArrowheadMatrix(c * d, c * b, c * np.conj(b), c * rng.uniform(-1, 1))


def commutant_dimension_by_commutators(a, cutoff=1e-8):
    """Independent commutant oracle: the real nullspace dimension of the
    stacked system [X, H] = [X, K] = 0 over all n x n Hermitian X.

    One SVD of a 4n^2 x n^2 matrix, with H and K divided by the larger of
    their spectral norms, so that the cutoff is absolute; only for small n.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    h, k = (a + a.conj().T) / 2, (a - a.conj().T) / 2j
    s = max(np.linalg.norm(h, 2), np.linalg.norm(k, 2), 1e-12)
    h, k = h / s, k / s
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
        for j in range(i + 1, n):
            for w in (1.0, 1j):
                e = np.zeros((n, n), dtype=complex)
                e[i, j], e[j, i] = w / np.sqrt(2), np.conj(w) / np.sqrt(2)
                basis.append(e)
    rows = []
    for e in basis:
        ch, ck = (h @ e - e @ h).ravel(), (k @ e - e @ k).ravel()
        rows.append(np.concatenate([ch.real, ch.imag, ck.real, ck.imag]))
    sv = np.linalg.svd(np.array(rows).T, compute_uv=False)
    return int(np.sum(sv <= cutoff))
