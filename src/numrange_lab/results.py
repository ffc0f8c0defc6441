"""Result containers shared by the classification and arrowhead routes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
class GauWuResult:
    """Value of the Gau-Wu number together with the route that produced it.

    ``certificate`` is a method-specific payload (angles, cluster index sets,
    canonical-form parameters, per-block contributions, ...) sufficient to
    re-validate the claim against the matrix.  ``work`` keeps, for reports and
    not in ``to_dict``, what the stages that ran computed on the way.
    """

    k: int
    n: int
    method: str
    certificate: dict = field(default_factory=dict)
    oracle_confirmed: Optional[bool] = None
    work: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        lo = 2 if self.n >= 2 else 1
        if not (lo <= self.k <= self.n):
            raise ValueError(f"k={self.k} outside [{lo}, {self.n}]")

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
