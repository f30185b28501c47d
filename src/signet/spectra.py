"""Dense symmetric eigenvalues and the invariants read off a spectrum.

A spectrum is a sorted float64 array.  Eigenvalues come from LAPACK through
:func:`numpy.linalg.eigvalsh`; a LAPACK failure is raised as
:class:`EigensolverError`.  A stack of matrices of one order, shape
(..., n, n), is solved in one call, one sorted row per matrix; each row
equals the matrix solved alone, bit for bit, as the tests check.  The
tests also pit the solver against an independent pure-Python Householder +
QL solver, which is not part of the package.
Energies are computed from a spectrum, so a caller that already holds one
does not solve again.  They are added with ``math.fsum``, which rounds the
same on every Python version, where ``sum`` compensates only from 3.12 on.
Built graphs reach this module through :class:`signet.structured.DenseNode`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EigensolverError",
    "eigenvalues",
    "energy_from_spectrum",
    "laplacian_energy_from_spectrum",
]


class EigensolverError(RuntimeError):
    """Raised when an eigenvalue computation fails to converge."""


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending; of a
    stack (..., n, n), one sorted row per matrix."""
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigvalsh failed: {exc}") from exc


def energy_from_spectrum(spectrum: Iterable[float]) -> float:
    """Sum of absolute values of an adjacency spectrum, correctly rounded
    (``math.fsum``), so the same on every Python version."""
    return math.fsum(map(abs, spectrum))


def laplacian_energy_from_spectrum(spectrum: Sequence[float], m: int) -> float:
    """Sum of |mu - d_bar| over the Laplacian spectrum of a graph with m
    edges, d_bar = 2m/n its average degree; 0 when n = 0.  Correctly
    rounded, like :func:`energy_from_spectrum`."""
    n = len(spectrum)
    d_bar = 2.0 * m / n if n else 0.0
    return math.fsum(abs(v - d_bar) for v in spectrum)
