"""Spectral theory of signed graphs: matrices, products, line graphs, balance.

The package is organised around a small immutable value type,
:class:`signet.graphs.SignedGraph`.  Matrix views (adjacency, Laplacian, incidence), NEPS-style products,
signed line graphs, closed-form spectra for the standard families and dense
symmetric eigenvalues (LAPACK) are layered on top, with an exact rational
rank (:mod:`signet.oracle`) for the rank law.  Spectra and energies of a
graph or a family come from :func:`signet.structured.spectral_node`.

Each name is imported from the submodule that defines it, e.g.
``from signet.graphs import SignedGraph``; the package root exports only
``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
