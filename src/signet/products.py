"""Basis-parameterised (NEPS) products of signed graphs.

A product basis is a set of distinct nonzero 0/1 vectors of length nu whose
supports jointly cover every coordinate.  Two product vertices are adjacent
when their coordinatewise difference pattern lies in the basis, and the edge
sign is the product of the factor edge signs over the pattern's support.
The unit-vector basis gives the Cartesian product, the all-ones singleton
the tensor (strong) product, and the weight-p vectors the symmetric p-sum.
:func:`kron_sum_over_basis` builds the product adjacency as a matrix, the
referee :func:`neps` is checked against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import SignedGraph

__all__ = [
    "Basis",
    "cartesian_basis",
    "strong_basis",
    "p_sum_basis",
    "kron_sum_over_basis",
    "neps",
    "cartesian",
    "strong",
    "symmetric_p",
]


@dataclass(frozen=True)
class Basis:
    """Sorted set of 0/1 pattern vectors defining a graph product."""

    nu: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        nu = operator.index(self.nu)
        if nu < 1:
            raise ValueError("basis arity must be at least 1")
        cleaned = []
        for vec in self.vectors:
            tup = tuple(operator.index(x) for x in vec)
            if len(tup) != nu:
                raise ValueError(f"pattern {tup} has length {len(tup)}, expected {nu}")
            if any(x not in (0, 1) for x in tup):
                raise ValueError(f"pattern entries must be 0 or 1: {tup}")
            if not any(tup):
                raise ValueError("the zero pattern is not allowed")
            cleaned.append(tup)
        if len(set(cleaned)) != len(cleaned):
            raise ValueError("duplicate basis patterns")
        if not cleaned:
            raise ValueError("basis must contain at least one pattern")
        for i in range(nu):
            if all(vec[i] == 0 for vec in cleaned):
                raise ValueError(f"basis support misses coordinate {i}")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "vectors", tuple(sorted(cleaned)))


def cartesian_basis(nu: int) -> Basis:
    """Unit vectors e_1 .. e_nu."""
    return Basis(nu, tuple(tuple(int(i == j) for j in range(nu)) for i in range(nu)))


def strong_basis(nu: int) -> Basis:
    """The single all-ones pattern (tensor product)."""
    return Basis(nu, ((1,) * nu,))


def p_sum_basis(nu: int, p: int) -> Basis:
    """All patterns of weight exactly p, 1 <= p <= nu."""
    p = operator.index(p)
    if not 1 <= p <= operator.index(nu):
        raise ValueError(f"weight p={p} out of range 1..{nu}")
    vectors = []
    for support in itertools.combinations(range(nu), p):
        vec = [0] * nu
        for i in support:
            vec[i] = 1
        vectors.append(tuple(vec))
    return Basis(nu, tuple(vectors))


# ---------------------------------------------------------------------------
# matrix side
# ---------------------------------------------------------------------------


def kron_sum_over_basis(mats: Sequence, patterns: Basis | Iterable[Sequence[int]]) -> np.ndarray:
    """Sum over patterns of Kronecker products of matrix powers (M**0 = I).

    Patterns are usually the 0/1 vectors of a :class:`Basis`, but arbitrary
    nonnegative integer exponent vectors are accepted, which lets the same
    routine check the general power identity for Kronecker chains.
    """
    arrays = [np.asarray(m) for m in mats]
    if not arrays:
        raise ValueError("need at least one matrix")
    for a in arrays:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("all matrices must be square")
    vecs = patterns.vectors if isinstance(patterns, Basis) else [tuple(p) for p in patterns]
    total = None
    for vec in vecs:
        if len(vec) != len(arrays):
            raise ValueError(
                f"pattern arity {len(vec)} does not match {len(arrays)} matrices"
            )
        term = None
        for a, k in zip(arrays, vec):
            k = operator.index(k)
            if k < 0:
                raise ValueError("exponents must be nonnegative")
            factor = np.eye(a.shape[0], dtype=a.dtype) if k == 0 else np.linalg.matrix_power(a, k)
            term = factor if term is None else np.kron(term, factor)
        total = term if total is None else total + term
    if total is None:
        raise ValueError("need at least one pattern")
    return total


# ---------------------------------------------------------------------------
# graph side
# ---------------------------------------------------------------------------


def _coordinate_moves(g: SignedGraph):
    """A factor's moves as ``(src, dst, sign)`` arrays.

    Three moves: every edge once with ``src < dst``, every edge in both
    directions, and the identity ``(w, w, +1)``.
    """
    src, dst, sign = g.edge_array.T
    stay = np.arange(g.n, dtype=np.int64)
    return (
        (src, dst, sign),
        (np.concatenate((src, dst)), np.concatenate((dst, src)), np.concatenate((sign, sign))),
        (stay, stay, np.ones(g.n, dtype=np.int64)),
    )


def neps(factors: Sequence[SignedGraph], basis: Basis) -> SignedGraph:
    """General basis-parameterised product of signed graphs.

    Product vertex (j_1, .., j_nu) has the row-major flat index
    ((j_1 * n_2 + j_2) * n_3 + ...) * n_nu + j_nu, the index order of
    chained Kronecker products, so the edges of one pattern are the nonzero
    upper-triangle entries of its Kronecker term.  They are generated by
    index arithmetic, one broadcast per factor extending the flat endpoints
    and the sign product: a factor outside the pattern's support contributes
    the identity ``(w, w, +1)``, a factor inside it its edges.  The first support
    coordinate is the first where the endpoints differ, so it alone decides
    which flat index is smaller; that factor contributes each edge once with
    ``src < dst`` and the later ones each edge in both directions, which
    yields every product edge once with ``u < v``.  Distinct patterns
    produce disjoint edge sets, so the patterns are concatenated without
    deduplication (the graph constructor would reject any collision),
    sorted once into canonical order and handed to the constructor as one
    (m, 3) int64 array.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if basis.nu != len(factors):
        raise ValueError(f"basis arity {basis.nu} does not match {len(factors)} factors")
    n = math.prod(f.n for f in factors)
    if n > np.iinfo(np.int64).max:
        raise ValueError(f"product order {n} exceeds the int64 range of flat vertex indices")
    moves = [_coordinate_moves(f) for f in factors]
    us, vs, signs = [], [], []
    for pattern in basis.vectors:
        if not all(f.m for f, bit in zip(factors, pattern) if bit):
            continue  # an edgeless factor in the support: no edges, and no arrays to build
        lead = pattern.index(1)
        fu = fv = np.zeros(1, dtype=np.int64)
        sg = np.ones(1, dtype=np.int64)
        for i, (f, (forward, both, stay), bit) in enumerate(zip(factors, moves, pattern)):
            src, dst, sign = stay if not bit else forward if i == lead else both
            fu = (fu[:, None] * f.n + src).reshape(-1)
            fv = (fv[:, None] * f.n + dst).reshape(-1)
            sg = (sg[:, None] * sign).reshape(-1)
        us.append(fu)
        vs.append(fv)
        signs.append(sg)
    if not us:
        return SignedGraph(n)
    u, v, s = np.concatenate(us), np.concatenate(vs), np.concatenate(signs)
    order = np.lexsort((v, u))
    return SignedGraph(n, np.array((u[order], v[order], s[order])).T)


def cartesian(factors: Sequence[SignedGraph]) -> SignedGraph:
    return neps(factors, cartesian_basis(len(list(factors))))


def strong(factors: Sequence[SignedGraph]) -> SignedGraph:
    return neps(factors, strong_basis(len(list(factors))))


def symmetric_p(factors: Sequence[SignedGraph], p: int) -> SignedGraph:
    return neps(factors, p_sum_basis(len(list(factors)), p))
