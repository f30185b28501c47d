"""Closed-form spectra of the leaf families and the generic spectral rules.

Nothing in this module calls an eigensolver; every value comes from an
explicit cosine or integer expression, so these functions and the dense
solver can cross-validate each other.  The leaf forms (the adjacency
spectra of paths, cycles and complete graphs, and the path Laplacian), the
NEPS sum rule and the line-graph rule are what :mod:`signet.structured`
composes into the spectra of products, grids, cylinders, tori and line
graphs.  The Laplacians of cycles and complete graphs are not here: they are
k - lambda of a k-regular graph, a law the structured nodes state once.  The
tests state the paper's displays over those composed nodes.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

__all__ = [
    "parity",
    "path_spectrum",
    "path_laplacian_spectrum",
    "cycle_spectrum",
    "complete_spectrum",
    "neps_sum",
    "line_spectrum_general",
]


def parity(r: int) -> int:
    """0 for even r, 1 for odd r; spectra of signed cycles depend only on this."""
    return operator.index(r) % 2


# ---------------------------------------------------------------------------
# paths and cycles
# ---------------------------------------------------------------------------


def path_spectrum(n: int) -> list[float]:
    """Adjacency eigenvalues 2 cos(j pi / (n+1)), j = 1..n (any signature)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return [2.0 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)]


def path_laplacian_spectrum(n: int) -> list[float]:
    """Laplacian eigenvalues 2(1 + cos(j pi / n)), j = 1..n; the last is 0."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return [2.0 * (1.0 + math.cos(math.pi * j / n)) for j in range(1, n + 1)]


def cycle_spectrum(n: int, r: int) -> list[float]:
    """Adjacency eigenvalues 2 cos((2j - [r]) pi / n), j = 1..n."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    t = parity(r)
    return [2.0 * math.cos((2 * j - t) * math.pi / n) for j in range(1, n + 1)]


def complete_spectrum(n: int, sign: int) -> list[float]:
    """Adjacency eigenvalues of sign * K_n: (n-1) sign once, -sign n-1 times."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return [float((n - 1) * sign)] + [float(-sign)] * (n - 1)


# ---------------------------------------------------------------------------
# NEPS products
# ---------------------------------------------------------------------------


def neps_sum(spectra: Sequence[Sequence[float]], vectors: Sequence[Sequence[int]]) -> np.ndarray:
    """Spectrum of a NEPS product from its factors' spectra.

    The product adjacency is sum_beta (x)_i A_i^beta_i over the basis
    vectors beta, and the A_i are simultaneously diagonalised by their
    eigenvector Kronecker products, so its eigenvalues are
    sum_beta prod_i lambda_{i,j_i}^beta_i over every index tuple
    (Cvetkovic-Doob-Sachs), enumerated with the first factor's index slowest
    (Kronecker order).  The terms are added in basis order; for the
    Cartesian basis each value is the plain sum of one value per factor,
    which is also the Laplacian rule of a Cartesian product.
    """
    nu = len(spectra)
    # Factor i's values along axis i; every axis is in some pattern's support,
    # so the sum of the terms broadcasts to the whole grid.
    axes = [np.asarray(v, dtype=float).reshape([-1 if i == axis else 1 for i in range(nu)]) for axis, v in enumerate(spectra)]
    total = np.zeros(())
    for vec in vectors:
        term = None
        for a, bit in zip(axes, vec):
            if bit:
                term = a if term is None else term * a
        total = total + term
    return total.ravel()


# ---------------------------------------------------------------------------
# line graphs
# ---------------------------------------------------------------------------


# The b-th Laplacian value is zero within _ZERO_SCALE * n * eps * max(1, max |mu|): a solver's
# rounding grows with the order and the norm, and a structured Laplacian's zeros are exact.
_ZERO_SCALE = 64


def line_spectrum_general(lap_values: Sequence[float], m: int, n: int, b: int) -> list[float]:
    """Line-graph adjacency eigenvalues from the source Laplacian spectrum.

    They are 2 - mu over the n - b positive Laplacian eigenvalues mu,
    together with 2 repeated m - n + b times, in ascending order.  The count
    m - n + b is never negative: a tree component is balanced and adds
    (n_i - 1) - n_i + 1 = 0, and a component with a cycle has m_i >= n_i.
    """
    lap = sorted(float(v) for v in lap_values)
    if len(lap) != n:
        raise ValueError(f"expected {n} Laplacian eigenvalues, got {len(lap)}")
    if not 0 <= b <= n:
        raise ValueError(f"balanced component count b={b} out of range")
    if b and abs(lap[b - 1]) > _ZERO_SCALE * n * np.finfo(float).eps * max(1.0, -lap[0], lap[-1]):
        raise ValueError("Laplacian zero multiplicity does not match b")
    return sorted([2.0 - v for v in lap[b:]] + [2.0] * (m - n + b))
