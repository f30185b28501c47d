"""Spectral theory of signed graphs: matrices, products, line graphs, balance.

The package is organised around a small immutable :class:`SignedGraph` value
type.  Matrix views (adjacency, Laplacian, incidence), NEPS-style products,
signed line graphs, closed-form spectra for the standard families and dense
symmetric eigenvalues (LAPACK) are layered on top, with brute-force oracles,
among them a pure-Python eigensolver, available for cross-checking.  Spectra
and energies of a graph come from :mod:`signet.structured`; a built graph is
answered by ``structured.dense_node``.
"""

from __future__ import annotations

from .families import (
    FamilySpec,
    build_family,
    complete,
    cycle,
    cylinder,
    from_family_string,
    grid,
    parse_family,
    path,
    random_signed_graph,
    torus,
)
from .graphs import (
    BalanceReport,
    ComponentReport,
    SignedGraph,
    adjacency,
    balance_report,
    degree_matrix,
    degrees,
    dumps,
    from_json_dict,
    incidence,
    laplacian,
    loads,
    negate,
    switch,
    to_json_dict,
    underlying,
)
from .linegraph import LineGraphResult, line_graph
from .products import (
    Basis,
    cartesian,
    cartesian_basis,
    kron_sum_over_basis,
    neps,
    p_sum_basis,
    strong,
    strong_basis,
    symmetric_p,
)
from .spectra import (
    EigensolverError,
    eigenvalues,
    multiplicity_of,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "Basis",
    "ComponentReport",
    "EigensolverError",
    "FamilySpec",
    "LineGraphResult",
    "SignedGraph",
    "adjacency",
    "balance_report",
    "build_family",
    "cartesian",
    "cartesian_basis",
    "complete",
    "cycle",
    "cylinder",
    "degree_matrix",
    "degrees",
    "dumps",
    "eigenvalues",
    "from_family_string",
    "from_json_dict",
    "grid",
    "incidence",
    "kron_sum_over_basis",
    "laplacian",
    "line_graph",
    "loads",
    "multiplicity_of",
    "negate",
    "neps",
    "p_sum_basis",
    "parse_family",
    "path",
    "random_signed_graph",
    "strong",
    "strong_basis",
    "switch",
    "symmetric_p",
    "to_json_dict",
    "torus",
    "underlying",
    "__version__",
]
