"""Signed line graphs.

The line graph of a signed graph has one vertex per edge, in input edge
order.  Two edges meeting at exactly one endpoint w are adjacent, with sign
minus the product of their incidence entries at w, which makes the line
graph adjacency matrix equal 2I - H.T @ H for the incidence matrix H.  With
this convention the line graph of an all-negative graph is the negation of
the classical unsigned line graph, and every eigenvalue is at most 2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .graphs import SignedGraph

__all__ = ["LineGraphResult", "line_graph"]


@dataclass(frozen=True)
class LineGraphResult:
    """The line graph built by :func:`line_graph`."""

    graph: SignedGraph


def line_graph(g: SignedGraph) -> LineGraphResult:
    """Construct the signed line graph of g.

    Vertices are edge indices of g in stored order.  For source edge
    (u, v, s) the incidence entry is +1 at u and -s at v; adjacent edge
    pairs get sign -eta_w(e) * eta_w(f) at their shared endpoint w.  In a
    simple graph two distinct edges share at most one endpoint, so each
    pair is met once.  Incidences are collected at edge endpoints only, so
    the work does not grow with isolated vertices.
    """
    incident: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for k, (u, v, s) in enumerate(g.edges):
        incident[u].append((k, 1))
        incident[v].append((k, -s))

    edges = []
    for here in incident.values():
        # Edge indices were appended in increasing order, so e < f.
        for a, (e, eta_e) in enumerate(here):
            for f, eta_f in here[a + 1 :]:
                edges.append((e, f, -eta_e * eta_f))
    return LineGraphResult(SignedGraph(g.m, tuple(edges)))
