"""Closed-form spectra and energies for standard families and their line graphs.

Nothing in this module calls an eigensolver; every value comes from an
explicit cosine or integer expression, so these functions and the dense
solver can cross-validate each other.  The general line-graph transforms
(from a Laplacian spectrum, from Cartesian factor spectra, from a regular
adjacency spectrum) are the normative constructions; each family-specific
form below is an instantiation of them and is pinned against the solver in
the test suite.  Where a commonly printed display disagrees with the
matrix construction (wrong cosine index, wrong sign on an average-degree
offset, or complete-graph values based on a wrong K_n spectrum), the
function notes say so and implement the validated form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import complete
from .graphs import SignedGraph, balance_report, degrees
from .spectra import _laplacian_energy, energy_from_spectrum

__all__ = [
    "parity",
    "path_spectrum",
    "path_laplacian_spectrum",
    "cycle_spectrum",
    "cycle_laplacian_spectrum",
    "complete_spectrum",
    "complete_laplacian_spectrum",
    "cartesian_sum",
    "ClosedFormSpectra",
    "grid_spectra",
    "cylinder_spectra",
    "torus_spectra",
    "line_spectrum_general",
    "line_energy_general",
    "CartesianLineSpectra",
    "line_spectrum_cartesian",
    "line_energy_cartesian",
    "RegularLineSpectra",
    "line_spectrum_regular",
    "grid_line_spectra",
    "cylinder_line_spectra",
    "torus_line_spectra",
    "HomogeneousLineSpectra",
    "homogeneous_line_spectra",
    "complete_line_spectra",
]

_ZERO_TOL = 1e-8


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


def cycle_laplacian_spectrum(n: int, r: int) -> list[float]:
    """Laplacian eigenvalues 2(1 - cos((2j - [r]) pi / n)); 0 occurs iff r even."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    t = parity(r)
    return [2.0 * (1.0 - math.cos((2 * j - t) * math.pi / n)) for j in range(1, n + 1)]


def complete_spectrum(n: int, sign: int) -> list[float]:
    """Adjacency eigenvalues of sign * K_n: (n-1) sign once, -sign n-1 times."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return [float((n - 1) * sign)] + [float(-sign)] * (n - 1)


def complete_laplacian_spectrum(n: int, sign: int) -> list[float]:
    """Laplacian eigenvalues of sign * K_n: {0, n x (n-1)} for +K_n and the
    signless {2n-2, n-2 x (n-1)} for -K_n."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    if sign == 1:
        return [0.0] + [float(n)] * (n - 1)
    if sign == -1:
        return [float(2 * n - 2)] + [float(n - 2)] * (n - 1)
    raise ValueError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# Cartesian products
# ---------------------------------------------------------------------------


def cartesian_sum(spectra: Sequence[Sequence[float]]) -> np.ndarray:
    """Spectrum of a Cartesian product from its factors' spectra.

    Adjacency and Laplacian matrices of a Cartesian product are Kronecker
    sums, so its eigenvalues are every sum of one eigenvalue per factor,
    enumerated with the first factor's index slowest (Kronecker order).
    """
    total = np.zeros(1)
    for values in spectra:
        total = (total[:, None] + np.asarray(values, dtype=float)[None, :]).ravel()
    return total


@dataclass(frozen=True)
class ClosedFormSpectra:
    """Adjacency and Laplacian eigenvalues (enumeration order) plus energies."""

    adjacency: tuple[float, ...]
    laplacian: tuple[float, ...]
    energy: float
    laplacian_energy: float
    average_degree: float


def _pack(adj: np.ndarray, lap: np.ndarray, d_bar: float) -> ClosedFormSpectra:
    adj, lap = adj.tolist(), lap.tolist()
    return ClosedFormSpectra(
        adjacency=tuple(adj),
        laplacian=tuple(lap),
        energy=energy_from_spectrum(adj),
        laplacian_energy=_laplacian_energy(lap, d_bar),
        average_degree=d_bar,
    )


def grid_spectra(m: int, n: int) -> ClosedFormSpectra:
    """Spectra of the m x n path grid (signature-independent: grids are balanced).

    Adjacency 2(cos(i pi/(m+1)) + cos(j pi/(n+1))), Laplacian
    2(2 + cos(i pi/m) + cos(j pi/n)), average degree 4 - 2/m - 2/n.  The
    Laplacian energy therefore expands to
    2 * sum |cos(i pi/m) + cos(j pi/n) + 1/m + 1/n|; displays subtracting
    the 1/m + 1/n offset do not match the matrices.
    """
    if m < 1 or n < 1:
        raise ValueError("grid needs m, n >= 1")
    adj = cartesian_sum([path_spectrum(m), path_spectrum(n)])
    lap = cartesian_sum([path_laplacian_spectrum(m), path_laplacian_spectrum(n)])
    return _pack(adj, lap, 4.0 - 2.0 / m - 2.0 / n)


def cylinder_spectra(m: int, r1: int, n: int) -> ClosedFormSpectra:
    """Spectra of cycle(m, r1) x path(n); only the parity of r1 matters.

    Adjacency 2(cos((2i - [r1]) pi/m) + cos(j pi/(n+1))), Laplacian
    2(2 - cos((2i - [r1]) pi/m) + cos(j pi/n)), average degree 4 - 2/n.
    The path-factor cosine index is j, not 2j; displays doubling it fail
    cross-validation against the solver.
    """
    if m < 3:
        raise ValueError("cylinder needs m >= 3")
    if n < 1:
        raise ValueError("cylinder needs n >= 1")
    adj = cartesian_sum([cycle_spectrum(m, r1), path_spectrum(n)])
    lap = cartesian_sum([cycle_laplacian_spectrum(m, r1), path_laplacian_spectrum(n)])
    return _pack(adj, lap, 4.0 - 2.0 / n)


def torus_spectra(m: int, r1: int, n: int, r2: int) -> ClosedFormSpectra:
    """Spectra of cycle(m, r1) x cycle(n, r2); 4-regular, so Laplacian
    eigenvalues are 4 minus adjacency eigenvalues and both energies agree.
    The Laplacian has a zero eigenvalue iff r1 and r2 are both even."""
    if m < 3 or n < 3:
        raise ValueError("torus needs m, n >= 3")
    adj = cartesian_sum([cycle_spectrum(m, r1), cycle_spectrum(n, r2)])
    lap = cartesian_sum([cycle_laplacian_spectrum(m, r1), cycle_laplacian_spectrum(n, r2)])
    return _pack(adj, lap, 4.0)


# ---------------------------------------------------------------------------
# line-graph transforms (normative constructions)
# ---------------------------------------------------------------------------


def _with_repeats(values: list[float], extras: int, value: float, tol: float = _ZERO_TOL) -> list[float]:
    """Append extras copies of value, or for negative extras remove |extras|
    existing copies (the tree-component deduction)."""
    vals = sorted(values)
    if extras >= 0:
        return sorted(vals + [value] * extras)
    hits = [i for i, v in enumerate(vals) if abs(v - value) <= tol]
    if len(hits) < -extras:
        raise ValueError(
            f"cannot remove {-extras} copies of {value}, only {len(hits)} present"
        )
    drop = set(hits[extras:])  # the last |extras| hits
    return [v for i, v in enumerate(vals) if i not in drop]


def line_spectrum_general(lap_values: Sequence[float], m: int, n: int, b: int) -> list[float]:
    """Line-graph adjacency eigenvalues from the source Laplacian spectrum.

    They are 2 - mu over the n - b positive Laplacian eigenvalues mu,
    together with 2 repeated m - n + b times.
    """
    lap = sorted(float(v) for v in lap_values)
    if len(lap) != n:
        raise ValueError(f"expected {n} Laplacian eigenvalues, got {len(lap)}")
    if not 0 <= b <= n:
        raise ValueError(f"balanced component count b={b} out of range")
    if b and abs(lap[b - 1]) > 1e-6:
        raise ValueError("Laplacian zero multiplicity does not match b")
    vals = [2.0 - v for v in lap[b:]]
    return _with_repeats(vals, m - n + b, 2.0)


def line_energy_general(lap_values: Sequence[float], m: int, n: int, b: int) -> float:
    """Line-graph energy sum |mu - 2| over positive mu, plus 2(m - n + b)."""
    lap = sorted(float(v) for v in lap_values)
    if len(lap) != n:
        raise ValueError(f"expected {n} Laplacian eigenvalues, got {len(lap)}")
    return sum(abs(v - 2.0) for v in lap[b:]) + 2.0 * (m - n + b)


def _edge_count(order: int, avg_degree: float) -> int:
    m_edges = order * avg_degree / 2.0
    rounded = round(m_edges)
    if abs(m_edges - rounded) > 1e-9:
        raise ValueError(f"order {order} and average degree {avg_degree} give a non-integer edge count")
    return rounded


@dataclass(frozen=True)
class CartesianLineSpectra:
    values: tuple[float, ...]
    energy: float


def line_spectrum_cartesian(
    factor_lap_spectra: Sequence[Sequence[float]],
    factor_balanced_counts: Sequence[int],
    avg_degree: float,
    order: int,
) -> list[float]:
    """Line-graph eigenvalues of a Cartesian product from factor Laplacians.

    Values are 2 minus each sum of one Laplacian eigenvalue per factor,
    plus m - n extra copies of 2 where m = n * avg_degree / 2 (negative
    extras remove copies; that happens when the product is a forest).
    """
    spectra = [list(map(float, s)) for s in factor_lap_spectra]
    if math.prod(len(s) for s in spectra) != order:
        raise ValueError("factor spectra sizes do not multiply to the product order")
    vals = (2.0 - cartesian_sum(spectra)).tolist()
    b = math.prod(int(x) for x in factor_balanced_counts)
    exact_twos = sum(1 for v in vals if abs(v - 2.0) <= _ZERO_TOL)
    if exact_twos != b:
        raise ValueError(
            f"product of balanced-component counts is {b} but the factor "
            f"spectra produce {exact_twos} zero Laplacian sums"
        )
    return _with_repeats(vals, _edge_count(order, avg_degree) - order, 2.0)


def line_energy_cartesian(
    factor_lap_spectra: Sequence[Sequence[float]], avg_degree: float, order: int
) -> float:
    spectra = [list(map(float, s)) for s in factor_lap_spectra]
    if math.prod(len(s) for s in spectra) != order:
        raise ValueError("factor spectra sizes do not multiply to the product order")
    total = float(np.abs(cartesian_sum(spectra) - 2.0).sum())
    return total + 2.0 * (_edge_count(order, avg_degree) - order)


@dataclass(frozen=True)
class RegularLineSpectra:
    adjacency: tuple[float, ...]
    laplacian: tuple[float, ...]
    energy: float


def line_spectrum_regular(
    adj_values: Sequence[float], k: int, m: int, n: int, b_plus: int, b_minus: int
) -> RegularLineSpectra:
    """Line-graph spectra of a k-regular signed graph from its adjacency
    eigenvalues.

    Adjacency values are lambda + 2 - k plus m - n extra 2s; Laplacian
    values are 3k - 4 - lambda plus m - n extra (2k - 4)s; the energy is
    sum |lambda - (k - 2)| + 2(m - n) and equals the Laplacian energy.
    b_plus and b_minus are the balanced-component counts of the graph and
    its negation; they must match the multiplicities of k and -k.
    """
    adj = sorted(float(v) for v in adj_values)
    if len(adj) != n:
        raise ValueError(f"expected {n} adjacency eigenvalues, got {len(adj)}")
    if adj and (adj[-1] > k + _ZERO_TOL or adj[0] < -k - _ZERO_TOL):
        raise ValueError("eigenvalues exceed the k-regular range [-k, k]")
    if sum(1 for v in adj if abs(v - k) <= _ZERO_TOL) != b_plus:
        raise ValueError("multiplicity of k does not match b_plus")
    if sum(1 for v in adj if abs(v + k) <= _ZERO_TOL) != b_minus:
        raise ValueError("multiplicity of -k does not match b_minus")
    extras = m - n
    values = _with_repeats([v + 2.0 - k for v in adj], extras, 2.0)
    lap = _with_repeats([3.0 * k - 4.0 - v for v in adj], extras, 2.0 * k - 4.0)
    en = sum(abs(v - (k - 2.0)) for v in adj) + 2.0 * extras
    return RegularLineSpectra(tuple(values), tuple(lap), en)


# ---------------------------------------------------------------------------
# line graphs of the standard families
# ---------------------------------------------------------------------------


def grid_line_spectra(m: int, n: int) -> CartesianLineSpectra:
    """Line graph of the m x n grid: values -2 - 2(cos(i pi/m) + cos(j pi/n))
    plus 2 repeated (m-1)(n-1) - 1 times.  Note the leading -2: the grid
    Laplacian eigenvalues are 2(2 + cos + cos), so 2 minus them cannot have
    a positive constant term."""
    laps = [path_laplacian_spectrum(m), path_laplacian_spectrum(n)]
    avg = 4.0 - 2.0 / m - 2.0 / n
    values = line_spectrum_cartesian(laps, (1, 1), avg, m * n)
    return CartesianLineSpectra(tuple(values), line_energy_cartesian(laps, avg, m * n))


def cylinder_line_spectra(m: int, r1: int, n: int) -> CartesianLineSpectra:
    """Line graph of cycle(m, r1) x path(n): values
    2(cos((2i - [r1]) pi/m) - cos(j pi/n) - 1) plus 2 repeated m(n-1) times
    (path-factor index j, not 2j)."""
    laps = [cycle_laplacian_spectrum(m, r1), path_laplacian_spectrum(n)]
    avg = 4.0 - 2.0 / n
    b = (1 - parity(r1), 1)
    values = line_spectrum_cartesian(laps, b, avg, m * n)
    return CartesianLineSpectra(tuple(values), line_energy_cartesian(laps, avg, m * n))


def torus_line_spectra(m: int, r1: int, n: int, r2: int) -> RegularLineSpectra:
    """Line graph of the (m, n) torus: values 2(cos + cos - 1) plus 2
    repeated mn times; Laplacian 8 - 2(cos + cos) plus 4 repeated mn times.
    The energy is 2 * sum |cos + cos - 1| + 2mn (the extra eigenvalues
    contribute 2mn, i.e. 2 per extra value, not 4)."""
    adj = torus_spectra(m, r1, n, r2).adjacency
    b_plus = 1 if parity(r1) == 0 and parity(r2) == 0 else 0
    b_minus = 1 if parity(m - r1) == 0 and parity(n - r2) == 0 else 0
    return line_spectrum_regular(adj, 4, 2 * m * n, m * n, b_plus, b_minus)


@dataclass(frozen=True)
class HomogeneousLineSpectra:
    """Line spectra of an all-positive or all-negative signature.

    For the all-negative case the line graph of the unsigned graph is the
    negation, so its spectrum is included as ``unsigned_values``.  The
    Laplacian fields are filled only when the source graph is regular.
    """

    values: tuple[float, ...]
    energy: float
    laplacian_values: tuple[float, ...] | None
    unsigned_values: tuple[float, ...] | None
    unsigned_laplacian_values: tuple[float, ...] | None


def homogeneous_line_spectra(
    g: SignedGraph, sign: int, lap_values: Sequence[float]
) -> HomogeneousLineSpectra:
    """Line spectra of sign * underlying(g) from the Laplacian spectrum of
    that signature (for sign -1 this is the signless Laplacian of g).

    The balanced-component count is c(g) for the all-positive signature and
    the bipartite-component count c_b(g) for the all-negative one.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rep = balance_report(g)
    b = rep.c if sign == 1 else rep.c_b
    values = line_spectrum_general(lap_values, g.m, g.n, b)
    en = line_energy_general(lap_values, g.m, g.n, b)
    degs = degrees(g)
    regular = g.n > 0 and int(degs.max()) == int(degs.min())
    lap_line = None
    unsigned = None
    unsigned_lap = None
    if regular:
        k = int(degs[0])
        lap_line = tuple(sorted(2.0 * (k - 1) - v for v in values))
    if sign == -1:
        unsigned = tuple(sorted(-v for v in values))
        if regular:
            unsigned_lap = tuple(sorted(2.0 * (k - 1) + v for v in values))
    return HomogeneousLineSpectra(
        values=tuple(values),
        energy=en,
        laplacian_values=lap_line,
        unsigned_values=unsigned,
        unsigned_laplacian_values=unsigned_lap,
    )


def complete_line_spectra(n: int, sign: int) -> HomogeneousLineSpectra:
    """Line spectra of +K_n or -K_n, fully closed form.

    Uses the K_n Laplacian spectrum {0, n x (n-1)} and signless Laplacian
    spectrum {n-2 x (n-1), 2n-2}.  For n >= 3 this yields for +K_n the
    eigenvalues 2-n (n-1 times) and 2 (C(n-1,2) times), energy
    2(n-1)(n-2); and for -K_n the eigenvalues 4-2n, 4-n (n-1 times) and 2
    (n(n-3)/2 times), energy 2(n-2) + (n-1)|n-4| + n(n-3).  Displays
    quoting middle eigenvalue 3-n and energies (n-1)(2n-5) and
    (n-1)(2n-5) + 2(n-3) rest on a wrong K_n adjacency spectrum
    ({0 x (n-1)} instead of {-1 x (n-1)}) and violate the zero-trace
    identity; the values here are the ones the matrices reproduce.
    """
    n = operator.index(n)
    lap = complete_laplacian_spectrum(n, sign)
    return homogeneous_line_spectra(complete(n, sign), sign, lap)
