"""Exact matrix rank, the referee of the rank law.

:func:`rank_exact` computes the rank over the rationals in exact Python
integers, independently of any eigensolver; ``signet verify rank`` checks
rank L = n - b with it.  The brute-force referees of balance and the
pure-Python eigensolver live with the tests, in ``tests/referees.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank_exact"]


def rank_exact(matrix) -> int:
    """Matrix rank over the rationals by fraction-free Gaussian elimination.

    Input must have integer entries; all arithmetic stays in exact Python
    integers (Bareiss updates), so there is no pivot tolerance to tune.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("rank_exact expects a 2-d matrix")
    if a.size and not np.issubdtype(a.dtype, np.integer):
        rounded = np.rint(a)
        if not np.array_equal(a, rounded):
            raise ValueError("rank_exact expects integer entries")
        a = rounded.astype(np.int64)
    rows = [[int(x) for x in row] for row in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    prev = 1
    r = 0
    for col in range(nc):
        pivot_row = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][col]
        for i in range(r + 1, nr):
            f = rows[i][col]
            for j in range(col + 1, nc):
                num = rows[i][j] * p - f * rows[r][j]
                q, rem = divmod(num, prev)
                if rem:
                    # Bareiss divisions are exact; a remainder means a bug.
                    raise AssertionError("non-exact division in fraction-free elimination")
                rows[i][j] = q
            rows[i][col] = 0
        prev = p
        rank += 1
        r += 1
        if r == nr:
            break
    return rank
