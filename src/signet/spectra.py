"""Dense symmetric eigenvalues and spectral invariants.

Eigenvalues come from LAPACK through :func:`numpy.linalg.eigvalsh`; a LAPACK
failure is raised as :class:`EigensolverError`.  The pure-Python
Householder + QL solver in :mod:`signet.oracle` is the independent referee
the tests pit against it.  Energies are computed from a spectrum, so a
caller that already holds one does not solve again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import SignedGraph, adjacency, laplacian

__all__ = [
    "EigensolverError",
    "Spectrum",
    "eigenvalues",
    "adjacency_spectrum",
    "laplacian_spectrum",
    "energy",
    "laplacian_energy",
    "energy_from_spectrum",
    "laplacian_energy_from_spectrum",
    "multiplicity_of",
]

DEFAULT_MULTIPLICITY_TOL = 1e-6


class EigensolverError(RuntimeError):
    """Raised when an eigenvalue computation fails to converge."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending, with a tolerance for grouping repeats."""

    values: tuple[float, ...]
    tol: float = DEFAULT_MULTIPLICITY_TOL

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _solve_symmetric(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigvalsh failed: {exc}") from exc


def eigenvalues(matrix, tol: float = DEFAULT_MULTIPLICITY_TOL) -> Spectrum:
    """All eigenvalues of a real symmetric matrix, sorted ascending."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    vals = _solve_symmetric(a)
    return Spectrum(tuple(float(v) for v in vals), tol)


def adjacency_spectrum(g: SignedGraph, tol: float = DEFAULT_MULTIPLICITY_TOL) -> Spectrum:
    return eigenvalues(adjacency(g), tol)


def laplacian_spectrum(g: SignedGraph, tol: float = DEFAULT_MULTIPLICITY_TOL) -> Spectrum:
    return eigenvalues(laplacian(g), tol)


def energy_from_spectrum(spectrum: Spectrum | Iterable[float]) -> float:
    """Sum of absolute values of an adjacency spectrum."""
    return float(sum(abs(v) for v in spectrum))


def laplacian_energy_from_spectrum(spectrum: Spectrum | Iterable[float], d_bar: float) -> float:
    """Sum of |mu - d_bar| over a Laplacian spectrum, d_bar the average degree."""
    return float(sum(abs(v - d_bar) for v in spectrum))


def energy(g: SignedGraph) -> float:
    """Sum of absolute adjacency eigenvalues."""
    return energy_from_spectrum(adjacency_spectrum(g))


def laplacian_energy(g: SignedGraph) -> float:
    """Sum of |mu - average degree| over Laplacian eigenvalues mu."""
    d_bar = 2.0 * g.m / g.n if g.n else 0.0
    return laplacian_energy_from_spectrum(laplacian_spectrum(g), d_bar)


def multiplicity_of(spectrum: Spectrum | Iterable[float], x: float, tol: float | None = None) -> int:
    """Count eigenvalues within tol of x."""
    if tol is None:
        tol = spectrum.tol if isinstance(spectrum, Spectrum) else DEFAULT_MULTIPLICITY_TOL
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    values = spectrum.values if isinstance(spectrum, Spectrum) else tuple(spectrum)
    return sum(1 for v in values if abs(v - x) <= tol)
