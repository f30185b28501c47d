"""Basis-parameterised (NEPS) products of signed graphs.

A product basis is a set of distinct nonzero 0/1 vectors of length nu whose
supports jointly cover every coordinate.  Two product vertices are adjacent
when their coordinatewise difference pattern lies in the basis, and the edge
sign is the product of the factor edge signs over the pattern's support.
The unit-vector basis gives the Cartesian product, the all-ones singleton
the tensor product (which ``--basis strong`` still names), and the weight-p
vectors the symmetric p-sum.
:func:`kron_sum_over_basis` builds the product adjacency as a matrix, the
referee :func:`neps` is checked against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import _INT64_MAX, SignedGraph

__all__ = [
    "Basis",
    "cartesian_basis",
    "tensor_basis",
    "p_sum_basis",
    "kron_sum_over_basis",
    "neps",
    "cartesian",
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


def tensor_basis(nu: int) -> Basis:
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


def kron_sum_over_basis(mats: Sequence, basis: Basis) -> np.ndarray:
    """Sum over the patterns of ``basis`` of the Kronecker product of the
    matrices, each replaced by the identity where the pattern has a 0."""
    arrays = [np.asarray(m) for m in mats]
    if len(arrays) != basis.nu:
        raise ValueError(f"basis arity {basis.nu} does not match {len(arrays)} matrices")
    if any(a.ndim != 2 or a.shape[0] != a.shape[1] for a in arrays):
        raise ValueError("all matrices must be square")
    return sum(
        _kron([a if bit else np.eye(len(a), dtype=a.dtype) for a, bit in zip(arrays, vec)]) for vec in basis.vectors
    )


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """``np.kron`` of the square matrices in order, each step one broadcast
    product (a fraction of ``np.kron``'s cost on small factors)."""
    out = factors[0]
    for b in factors[1:]:
        size = len(out) * len(b)
        out = (out[:, None, :, None] * b[None, :, None, :]).reshape(size, size)
    return out


# ---------------------------------------------------------------------------
# graph side
# ---------------------------------------------------------------------------


def neps(factors: Sequence[SignedGraph], basis: Basis) -> SignedGraph:
    """General basis-parameterised product of signed graphs.

    Product vertex (j_1, .., j_nu) has the row-major flat index
    sum_i j_i * stride_i, with stride_i = n_{i+1} * .. * n_nu, the index
    order of chained Kronecker products, so the edges of one pattern are the
    nonzero upper-triangle entries of its Kronecker term.  They are generated
    by index arithmetic on each factor's moves, scaled by its stride and
    built once, when a pattern first uses them: the identity
    ``arange(n_i) * stride_i`` for a factor outside the pattern's support,
    its edges for a factor inside it.  The first support coordinate is the
    first where the endpoints differ, so it alone decides which flat index
    is smaller; that factor contributes each edge once with ``src < dst``
    and the later ones each edge in both directions, which yields every
    product edge once with ``u < v``.  Per pattern, the factors before the
    lead give one flat prefix shared by both endpoints, the lead's edges and
    signs are laid over it (signs tiled), and each later factor takes one
    ``np.add.outer`` per endpoint and one ``np.multiply.outer`` (an edge
    factor) or ``np.repeat`` (an identity) for the signs.  Distinct patterns
    produce disjoint edge sets, so the patterns are concatenated without
    deduplication (the graph constructor would reject any collision), sorted
    once into canonical order and handed to the constructor as one (m, 3)
    int64 array, the transpose of a (3, m) buffer, so that each column is
    contiguous.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if basis.nu != len(factors):
        raise ValueError(f"basis arity {basis.nu} does not match {len(factors)} factors")
    n = math.prod(f.n for f in factors)
    if n > _INT64_MAX:
        raise ValueError(f"product order {n} exceeds the int64 range of flat vertex indices")
    edges = [f.edge_array.T for f in factors]
    built = {}

    def moves(i: int, kind: str):
        """Factor i's (src, dst, sign) scaled by its stride: "stay" the
        identity (sign None, all +1), "once" each edge with src < dst,
        "both" each edge in both directions."""
        if (i, kind) not in built:
            stride = math.prod(f.n for f in factors[i + 1 :])
            src, dst, sign = edges[i]
            if kind == "stay":
                src = dst = np.arange(factors[i].n, dtype=np.int64) * stride
                sign = None
            elif kind == "both":
                src, dst, sign = np.concatenate((src, dst)), np.concatenate((dst, src)), np.tile(sign, 2)
            if kind != "stay":
                src, dst = src * stride, dst * stride
            built[i, kind] = src, dst, sign
        return built[i, kind]

    us, vs, signs = [], [], []
    for pattern in basis.vectors:
        if not all(f.m for f, bit in zip(factors, pattern) if bit):
            continue  # an edgeless factor in the support: no edges, and no arrays to build
        lead = pattern.index(1)
        u, v, sg = moves(lead, "once")
        if lead:
            prefix = moves(0, "stay")[0]
            for i in range(1, lead):
                prefix = np.add.outer(prefix, moves(i, "stay")[0]).ravel()
            u, v = np.add.outer(prefix, u).ravel(), np.add.outer(prefix, v).ravel()
            sg = np.repeat(sg[None], len(prefix), axis=0).ravel()
        for i in range(lead + 1, len(factors)):
            src, dst, sign = moves(i, "both" if pattern[i] else "stay")
            u, v = np.add.outer(u, src).ravel(), np.add.outer(v, dst).ravel()
            sg = np.repeat(sg, len(src)) if sign is None else np.multiply.outer(sg, sign).ravel()
        us.append(u)
        vs.append(v)
        signs.append(sg)
    if not us:
        return SignedGraph(n)
    uvs = np.empty((3, sum(map(len, us))), dtype=np.int64)
    for row, parts in zip(uvs, (us, vs, signs)):
        np.concatenate(parts, out=row)
    return SignedGraph(n, np.take(uvs, np.lexsort((uvs[1], uvs[0])), axis=1).T)


def cartesian(factors: Sequence[SignedGraph]) -> SignedGraph:
    return neps(factors, cartesian_basis(len(list(factors))))
