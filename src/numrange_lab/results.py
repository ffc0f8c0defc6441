"""Result containers shared by the classification and arrowhead routes."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

METHOD_DICHOTOMY4 = "Dichotomy4"
METHOD_SEED3 = "SeedPresent3"
METHOD_KA3 = "KA3Form3"
METHOD_FALLBACK2 = "Fallback2"
METHOD_DIRECT_SUM = "DirectSum"
METHOD_ARROWHEAD = "ArrowheadTheorem"
METHOD_ORACLE = "OracleOnly"
METHOD_DICHOTOMY = "Dichotomy"

ALL_METHODS = (
    METHOD_DICHOTOMY4,
    METHOD_SEED3,
    METHOD_KA3,
    METHOD_FALLBACK2,
    METHOD_DIRECT_SUM,
    METHOD_ARROWHEAD,
    METHOD_ORACLE,
    METHOD_DICHOTOMY,
)


@dataclass
class Witness:
    """An orthonormal family reaching k: column i of ``vectors`` (n x k) is a
    top eigenvector of Re(e^{-i thetas[i]} A), so that its Rayleigh value lies
    on the supporting line of W(A) in direction thetas[i]."""

    vectors: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=complex)
        self.thetas = np.asarray(self.thetas, dtype=float)


def joined(parts) -> Witness:
    """The union of block witnesses: each (isometry, witness) pair maps its
    witness into C^n by the n x n_b isometry that embeds its block."""
    return Witness(np.column_stack([q @ w.vectors for q, w in parts]), np.concatenate([w.thetas for _, w in parts]))


@dataclass
class GauWuResult:
    """Value of the Gau-Wu number together with the route that produced it.

    ``certificate`` is a method-specific payload (angles, cluster index sets,
    canonical-form parameters, per-block contributions, ...) sufficient to
    re-validate the claim against the matrix.  ``work`` keeps, for reports and
    not in ``to_dict``, what the stages that ran computed on the way.
    ``witness`` is the route's family reaching k (``Witness``), in the
    coordinates of the input; ``build_witness`` makes it from what the route
    kept, on first access only, so a result nobody checks costs nothing more.
    """

    k: int
    n: int
    method: str
    certificate: dict = field(default_factory=dict)
    oracle_confirmed: Optional[bool] = None
    work: dict = field(default_factory=dict, repr=False, compare=False)
    build_witness: Optional[Callable[[], Witness]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        lo = 2 if self.n >= 2 else 1
        if not (lo <= self.k <= self.n):
            raise ValueError(f"k={self.k} outside [{lo}, {self.n}]")

    @cached_property
    def witness(self) -> Optional[Witness]:
        return None if self.build_witness is None else self.build_witness()

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "method": self.method,
            "certificate": _jsonable(self.certificate),
            "oracle_confirmed": self.oracle_confirmed,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [_jsonable(v) for v in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    return obj
