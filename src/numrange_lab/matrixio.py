"""Matrix files.

The canonical matrix format is JSON: {"n": n, "entries": [[re, im], ...]} in
row-major order.  Entry components may be numbers or exact rational strings
("3/8", "0.125"); strings are parsed exactly and the rounding incurred by the
conversion to binary floats is recorded in the returned metadata.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional

import numpy as np


class MatrixParseError(ValueError):
    pass


def _component(value):
    """One real component: number, or exact decimal / fraction string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value), 0.0
    if isinstance(value, str):
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixParseError(f"bad numeric string {value!r}") from exc
        try:
            approx = float(exact)
        except OverflowError:
            raise MatrixParseError(f"numeric string {value!r} is not finite as a float") from None
        return approx, abs(float(Fraction(approx) - exact))
    raise MatrixParseError(f"entry component {value!r} is neither number nor string")


def load_matrix(path):
    """Read a matrix file; returns (matrix, metadata, conversion_error)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixParseError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise MatrixParseError("matrix file needs 'n' and 'entries'")
    n, entries = doc["n"], doc["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixParseError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(entries, list):
        raise MatrixParseError(f"'entries' must be a list, got {entries!r}")
    if len(entries) != n * n:
        raise MatrixParseError(f"expected {n * n} entries, found {len(entries)}")
    a = np.zeros((n, n), dtype=complex)
    err = 0.0
    for idx, ent in enumerate(entries):
        if not isinstance(ent, (list, tuple)) or len(ent) != 2:
            raise MatrixParseError(f"entry {idx} must be an [re, im] pair")
        re, e1 = _component(ent[0])
        im, e2 = _component(ent[1])
        if not (np.isfinite(re) and np.isfinite(im)):
            raise MatrixParseError(f"entry {idx} is not finite")
        a[idx // n, idx % n] = re + 1j * im
        err = max(err, e1, e2)
    meta = doc.get("metadata", {})
    return a, meta, err


def save_matrix(path, a, metadata: Optional[dict] = None):
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    entries = []
    for i in range(n):
        for j in range(n):
            entries.append([float(a[i, j].real), float(a[i, j].imag)])
    doc = {"n": n, "entries": entries}
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
