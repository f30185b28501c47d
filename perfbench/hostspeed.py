"""Host-speed probe: fixed work, timed between requests, to take the host's
drift out of the end-to-end timings.

The 2-vCPU VM this benchmark was built on runs the same code up to 1.8x
slower for minutes at a time while other tenants are busy: the latency of
one signet request varied by 14-23% (coefficient of variation of 10-s
window means), so ten runs of the same code spread past any usable bound.
The probe here slows down with the host: the same latency divided by the
probe's time in the same window varied by 5-9% (NOTES.md, "Host speed").

``probe()`` never calls ``signet``: it does a fixed amount of the two kinds
of work signet does, small-object churn (tuples, a sort, a dict) and numpy
row updates on a 200x200 matrix.  A run times it every
``PROBE_EVERY_S`` seconds of timed requests, and ``scale`` multiplies each
request's latency by ``REFERENCE_S`` over the probe time around it, which
gives the latency at the host speed where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import time

import numpy as np

PROBE_EVERY_S = 1.0
# About the probe's median time on the VM above (2.0 GHz Xeon vCPU, Python 3.11.7,
# numpy 2.4.6, one BLAS thread); a constant, so that scaled timings of two
# commits stay comparable.
REFERENCE_S = 0.030
_ROWS = 20000
_PARTS = 10
_ORDER = 200
# symmetric and fixed; built without numpy.random, which signet never loads
_MATRIX = np.cos(0.37 * np.add.outer(np.arange(_ORDER), np.arange(_ORDER)) ** 1.5)


def probe() -> float:
    """Seconds for one fixed piece of work, after a collection outside the clock."""
    gc.collect()
    start = time.perf_counter()
    for part in range(_PARTS):  # in parts, so that the probe sets no new peak of memory
        rows = [(i * 7919 % 5003, i * 104729 % 4999, (i & 1) * 2 - 1) for i in range(part, _ROWS, _PARTS)]
        rows.sort()
        {(u, v): s for u, v, s in rows}
    a = _MATRIX.copy()
    for k in range(_ORDER - 2):
        x = a[k + 1 :, k]
        v = x / (np.sqrt(x @ x) + 1.0)
        a[k + 1 :, k + 1 :] -= 2e-3 * np.outer(v, a[k + 1 :, k + 1 :] @ v)
    return time.perf_counter() - start


def scale(latencies: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Latencies at the reference host speed.

    ``probes`` are ``(index, seconds)``: a probe timed just before request
    ``index`` (``len(latencies)`` for the one after the last request), the
    first at index 0.  Each request is scaled by the mean of the probes
    before and after it.
    """
    scaled = []
    for (first, before), (stop, after) in zip(probes, probes[1:]):
        factor = REFERENCE_S / ((before + after) / 2)
        scaled.extend(latency * factor for latency in latencies[first:stop])
    if len(scaled) != len(latencies):
        raise ValueError(f"probes cover {len(scaled)} of {len(latencies)} requests")
    return scaled
