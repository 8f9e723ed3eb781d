"""Exponential smoothing of runtime cost measurements (Section 3.2).

Disk, CPU and network costs change over time; the framework initializes
an estimate from the first observation and then updates it with

    value_{t+1} = alpha * value_measured + (1 - alpha) * value_t

which damps temporary spikes (e.g. transient system load) while still
tracking genuine drift.
"""

from __future__ import annotations


class SmoothedValue:
    """Exponentially smoothed scalar estimate.

    Parameters
    ----------
    alpha:
        Smoothing weight in ``(0, 1]``.  Higher alpha reacts faster to
        new measurements; lower alpha damps spikes harder.
    initial:
        Optional prior value; if omitted, the first observation becomes
        the estimate.

    Examples
    --------
    >>> s = SmoothedValue(alpha=0.5)
    >>> s.observe(10.0)
    10.0
    >>> s.observe(20.0)
    15.0
    >>> s.value
    15.0
    """

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float = 0.3, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self._value = initial

    @property
    def value(self) -> float:
        """Current estimate.

        Raises
        ------
        ValueError
            If nothing has been observed and no prior was supplied.
        """
        if self._value is None:
            raise ValueError("no observations yet")
        return self._value

    @property
    def initialized(self) -> bool:
        """Whether at least one value (or a prior) is available."""
        return self._value is not None

    def observe(self, measured: float) -> float:
        """Fold one measurement into the estimate; returns the new value."""
        if self._value is None:
            self._value = measured
        else:
            self._value = self.alpha * measured + (1.0 - self.alpha) * self._value
        return self._value

    def value_or(self, default: float) -> float:
        """Current estimate, or ``default`` when uninitialized."""
        return self._value if self._value is not None else default

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        val = "uninitialized" if self._value is None else f"{self._value:.6g}"
        return f"SmoothedValue(alpha={self.alpha}, value={val})"
