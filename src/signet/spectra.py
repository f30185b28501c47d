"""Dense symmetric eigenvalues and the invariants read off a spectrum.

A spectrum is a sorted float64 array.  Eigenvalues come from LAPACK through
:func:`numpy.linalg.eigvalsh`; a LAPACK failure is raised as
:class:`EigensolverError`.  The pure-Python Householder + QL solver in
:mod:`signet.oracle` is the independent referee the tests pit against it.
Energies are computed from a spectrum, so a caller that already holds one
does not solve again.  Built graphs reach this module through
:func:`signet.structured.dense_node`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EigensolverError",
    "eigenvalues",
    "energy_from_spectrum",
    "laplacian_energy_from_spectrum",
    "multiplicity_of",
]


class EigensolverError(RuntimeError):
    """Raised when an eigenvalue computation fails to converge."""


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigvalsh failed: {exc}") from exc


def energy_from_spectrum(spectrum: Iterable[float]) -> float:
    """Sum of absolute values of an adjacency spectrum."""
    return float(sum(abs(v) for v in spectrum))


def laplacian_energy_from_spectrum(spectrum: Sequence[float], m: int) -> float:
    """Sum of |mu - d_bar| over the Laplacian spectrum of a graph with m
    edges, d_bar = 2m/n its average degree; 0 when n = 0."""
    n = len(spectrum)
    d_bar = 2.0 * m / n if n else 0.0
    return float(sum(abs(v - d_bar) for v in spectrum))


def multiplicity_of(values: Iterable[float], x: float, tol: float) -> int:
    """Count eigenvalues within tol of x."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return sum(1 for v in values if abs(v - x) <= tol)
