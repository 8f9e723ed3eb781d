"""The one columnar kernel left: ski-rental thresholds over cost columns.

Two rules govern it:

1. **Bit-identity.**  The kernel's float results must match the scalar
   reference fold exactly.  That restricts the numpy surface to
   elementwise ufuncs (one IEEE operation per lane, identical to the
   scalar expression; ``add.reduce``/``sum`` use pairwise summation
   and therefore round differently).  Results are converted back to
   Python floats with ``tolist()`` so downstream accounting and JSON
   export never see ``np.float64``.
2. **Graceful fallback.**  numpy is an optional accelerator; the
   kernel has a pure-python columnar path producing the same values.

``_NUMPY_MIN`` is the batch length below which the scalar fallback is
used even when numpy is present — array construction costs more than
it saves on tiny batches.
"""

from __future__ import annotations

from typing import Sequence

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy ships with the package
    _np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Minimum column length for the numpy path; shorter columns use the
#: scalar fold (identical results, less overhead).
_NUMPY_MIN = 32

_INF = float("inf")


def ski_rental_lanes(
    rents: Sequence[float],
    buys: Sequence[float],
    rec_mems: Sequence[float],
    rec_disks: Sequence[float],
    min_weight: float,
) -> tuple[list[float], list[float], list[float]]:
    """Benefit weights and ski-rental thresholds over cost columns.

    For each lane ``i`` computes exactly what the scalar router does
    per key:

    * ``weight[i] = rent - rec_mem`` clamped up to ``min_weight``
      whenever ``not weight > min_weight`` (the LFU-DA floor),
    * ``mem_threshold[i] = inf`` if ``rent <= rec_mem`` else
      ``buy / (rent - rec_mem)``,
    * ``disk_threshold[i]`` — same with ``rec_disk``.

    Every step is one elementwise IEEE operation per lane, so the
    numpy path is bit-identical to the scalar fallback (the divide is
    masked by the *same* ``rent <= rec`` comparison the scalar branch
    uses, so non-finite inputs follow identical paths).
    """
    n = len(rents)
    if HAVE_NUMPY and n >= _NUMPY_MIN:
        rent = _np.asarray(rents, dtype=_np.float64)
        buy = _np.asarray(buys, dtype=_np.float64)
        rec_mem = _np.asarray(rec_mems, dtype=_np.float64)
        rec_disk = _np.asarray(rec_disks, dtype=_np.float64)
        weight = rent - rec_mem
        clamp = ~(weight > min_weight)
        if clamp.any():
            weight[clamp] = _np.maximum(weight[clamp], min_weight)
        mem_free = rent <= rec_mem
        mem_t = _np.divide(
            buy,
            rent - rec_mem,
            out=_np.full(n, _INF, dtype=_np.float64),
            where=~mem_free,
        )
        disk_free = rent <= rec_disk
        disk_t = _np.divide(
            buy,
            rent - rec_disk,
            out=_np.full(n, _INF, dtype=_np.float64),
            where=~disk_free,
        )
        return weight.tolist(), mem_t.tolist(), disk_t.tolist()
    weights: list[float] = []
    mem_thresholds: list[float] = []
    disk_thresholds: list[float] = []
    for i in range(n):
        rent_i = rents[i]
        buy_i = buys[i]
        rec_mem_i = rec_mems[i]
        rec_disk_i = rec_disks[i]
        w = rent_i - rec_mem_i
        if not w > min_weight:
            w = max(w, min_weight)
        weights.append(w)
        if rent_i <= rec_mem_i:
            mem_thresholds.append(_INF)
        else:
            mem_thresholds.append(buy_i / (rent_i - rec_mem_i))
        if rent_i <= rec_disk_i:
            disk_thresholds.append(_INF)
        else:
            disk_thresholds.append(buy_i / (rent_i - rec_disk_i))
    return weights, mem_thresholds, disk_thresholds
