"""Signed line graphs.

The line graph of a signed graph has one vertex per edge, in input edge
order.  Two edges meeting at exactly one endpoint w are adjacent, with sign
minus the product of their incidence entries at w, which makes the line
graph adjacency matrix equal 2I - H.T @ H for the incidence matrix H.  With
this convention the line graph of an all-negative graph is the negation of
the classical unsigned line graph, and every eigenvalue is at most 2.

The line graph is built in whole-array steps from the base's int64 edge
array and handed to :class:`~signet.graphs.SignedGraph` as one int64 edge
array, so it stays an array through :func:`~signet.graphs.dumps`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import SignedGraph

__all__ = ["LineGraphResult", "line_graph"]


@dataclass(frozen=True)
class LineGraphResult:
    """The line graph built by :func:`line_graph`."""

    graph: SignedGraph


def line_graph(g: SignedGraph) -> LineGraphResult:
    """Construct the signed line graph of g, as an edge-array graph.

    Vertices are edge indices of g in stored order.  For source edge
    (u, v, s) the incidence entry is +1 at u and -s at v; adjacent edge
    pairs get sign -eta_w(e) * eta_w(f) at their shared endpoint w.  In a
    simple graph two distinct edges share at most one endpoint, so each
    pair is met once.

    Incidence 2e is edge e at its lower endpoint u, 2e + 1 at its upper
    endpoint v.  A stable sort by vertex puts each vertex's edges in
    increasing order, so an incidence's partners f > e are the positions
    after it in its vertex's run, formed with ``np.repeat`` over the
    counts.  Taken incidence by incidence, the pairs come out in canonical
    order: g's edges are sorted, so the partners at u are the edges (u, v')
    with v' > v, and every partner at v has a lower endpoint above u.  No
    step loops over edges or pairs in Python, and the work is
    O(m log m + sum C(d, 2)), independent of the order of g, so isolated
    vertices cost nothing.
    """
    a = g.edge_array
    ends = a[:, :2].ravel()
    order = ends.argsort(kind="stable")
    at = np.arange(len(ends))
    pos = np.empty_like(order)
    pos[order] = at  # the sorted position of each incidence
    stop = ends[order].searchsorted(ends, side="right")  # the end of its vertex's run
    count = stop - pos - 1  # its partners
    by = np.repeat(at, count)  # the incidence of each pair, in increasing order
    # Pair p, the j-th of incidence q, is numbered p = cum[q] - count[q] + j
    # and takes sorted position pos[q] + 1 + j = p + stop[q] - cum[q].
    cum = count.cumsum()
    partner = order[np.arange(len(by)) + np.repeat(stop - cum, count)]
    eta = np.empty((len(a), 2), dtype=np.int64)
    eta[:, 0] = 1
    eta[:, 1] = -a[:, 2]
    eta = eta.ravel()  # the entry of each incidence: +1 at u, -s at v
    pairs = np.empty((len(by), 3), dtype=np.int64)
    pairs[:, 0] = by >> 1
    pairs[:, 1] = partner >> 1
    pairs[:, 2] = -eta[by] * eta[partner]
    return LineGraphResult(SignedGraph(g.m, pairs))
