"""A fixed piece of work that measures how fast the machine runs right now.

The machine the benchmark runs on is shared: its speed drifts by tens of
percent over seconds and minutes, with the load of other tenants, and that
drift moves every timed step of a run together.  ``gauge()`` times the same
work every time and runs no code of the program, so only the machine's
speed moves it.  ``run.py`` brackets each timed step with a gauge reading and
scales the step's time by ``REFERENCE_S / gauge``: the time the step would
take on a machine on which the gauge takes ``REFERENCE_S``.  A change to the
program moves the step and not the gauge, so it still shows in full.

The work mixes what the labeling loop does: a dict of grid cells built in
the interpreter, small-array neighbour distances as in DBSCAN, text
formatting as in the label writers, and sorts of an array as in load and
merge.
"""

from __future__ import annotations

import time

import numpy as np

# Gauge seconds on the reference machine, about the median reading on the
# 2-vCPU VM of README.md.  It only fixes the scale of the metrics.
REFERENCE_S = 0.08

_rng = np.random.default_rng(12345)
_POINTS = _rng.uniform(0.0, 10.0, (2500, 3))
_VALUES = _rng.standard_normal(50_000)
_BUFFER = np.empty_like(_VALUES)  # the work allocates little, so it leaves peak RSS alone


def gauge() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    cells: dict[tuple, list[int]] = {}
    for i, key in enumerate(map(tuple, np.floor(_POINTS / 0.7).astype(np.int64).tolist())):
        cells.setdefault(key, []).append(i)
    pairs = 0
    for (kx, ky, kz), members in cells.items():
        near = [j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                for j in cells.get((kx + dx, ky + dy, kz + dz), ())]
        diff = _POINTS[members][:, None, :] - _POINTS[near][None, :, :]
        pairs += int(np.count_nonzero((diff * diff).sum(axis=2) <= 0.49))
    text = "".join(f"{x:.4f} {y:.4f} {z:.4f}\n" for x, y, z in _POINTS.tolist())
    for _ in range(60):
        np.abs(_VALUES, out=_BUFFER)
        np.add(_BUFFER, 0.5, out=_BUFFER)
        _BUFFER.sort()
    seconds = time.perf_counter() - start
    if pairs < len(_POINTS) or len(text) < len(_POINTS) or not _BUFFER[-1] > 0.5:
        raise RuntimeError("gauge work went wrong")
    return seconds
