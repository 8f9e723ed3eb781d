"""Open-loop traffic: seeded arrival processes and data-update waves.

The paper evaluates join-location decisions under streaming arrival
rates; this module generates those arrivals as *values* — a list of
timestamps — so the same trace can drive the simulated engines and the
real-process cluster unchanged.

The base process is Poisson (exponential inter-arrivals).  Two
modulations compose multiplicatively on top:

* **diurnal** — a sinusoid over :attr:`ArrivalProcess.diurnal_period`
  seconds, amplitude in ``[0, 1]``, modelling the day/night swing of a
  user-facing tenant;
* **flash crowds** — :class:`FlashCrowd` windows multiplying the rate
  (a product launch, a retry storm, an abusive tenant).

Non-homogeneous sampling uses Lewis–Shedler thinning against the
process's peak rate, so the output is an exact draw from the modulated
intensity, deterministic under a fixed seed.

:class:`UpdateWave` generates rolling data-store update batches — the
paper's Section 4.2.3 dynamic-data scenario — as ``(time, key,
new_value)`` triples that plug straight into ``JoinJob.run(updates=)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlashCrowd:
    """A transient rate multiplier: ``rate *= multiplier`` in the window."""

    start: float
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError("need start >= 0 and duration > 0")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration


@dataclass(frozen=True)
class ArrivalProcess:
    """A seeded, modulated Poisson arrival process.

    Examples
    --------
    >>> process = ArrivalProcess(rate=100.0)
    >>> rng = np.random.default_rng(7)
    >>> times = process.arrivals(10.0, rng)
    >>> bool((times[:-1] <= times[1:]).all())
    True
    >>> 800 < len(times) < 1200
    True
    """

    #: Base arrivals per second.
    rate: float
    #: Sinusoid amplitude in ``[0, 1)`` — 0 disables the diurnal curve.
    diurnal_amplitude: float = 0.0
    #: Seconds per diurnal cycle (default scaled down from 24 h so short
    #: simulated horizons still see the swing).
    diurnal_period: float = 60.0
    #: Phase offset in radians (lets tenants peak at different times).
    diurnal_phase: float = 0.0
    flash_crowds: tuple[FlashCrowd, ...] = ()

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")

    # ------------------------------------------------------------------
    # Intensity
    # ------------------------------------------------------------------
    def rate_at(self, t: float) -> float:
        """Instantaneous intensity at simulated time ``t``."""
        rate = self.rate
        if self.diurnal_amplitude:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / self.diurnal_period + self.diurnal_phase
            )
        for crowd in self.flash_crowds:
            if crowd.active_at(t):
                rate *= crowd.multiplier
        return rate

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` (the thinning envelope)."""
        peak = self.rate * (1.0 + self.diurnal_amplitude)
        boost = 1.0
        for crowd in self.flash_crowds:
            boost *= max(1.0, crowd.multiplier)
        return peak * boost

    def expected_count(self, horizon: float, resolution: int = 512) -> float:
        """Numerical ``∫ rate_at`` over ``[0, horizon)`` (for tests)."""
        if horizon <= 0:
            return 0.0
        step = horizon / resolution
        return step * sum(
            self.rate_at((i + 0.5) * step) for i in range(resolution)
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def arrivals(
        self, horizon: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one arrival-time array over ``[0, horizon)``.

        Lewis–Shedler thinning: candidate arrivals are drawn from a
        homogeneous Poisson process at :meth:`peak_rate` and kept with
        probability ``rate_at(t) / peak``.  Deterministic for a fixed
        ``rng`` state.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        peak = self.peak_rate()
        times: list[float] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / peak)
            if t >= horizon:
                break
            if rng.random() * peak <= self.rate_at(t):
                times.append(t)
        return np.asarray(times, dtype=np.float64)


@dataclass(frozen=True)
class UpdateWave:
    """Rolling data-store updates sweeping through the keyspace.

    Wave ``w`` (at ``start + w * interval``) rewrites a contiguous
    ``fraction`` of the key universe, starting where wave ``w - 1``
    stopped — after ``1 / fraction`` waves every key has been touched
    once, the adversarial pattern for any cached copy.
    """

    start: float
    interval: float
    waves: int
    #: Fraction of the key universe rewritten per wave.
    fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.start < 0 or self.interval <= 0 or self.waves < 1:
            raise ValueError(
                "need start >= 0, interval > 0 and waves >= 1"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def updates(self, n_keys: int) -> list[tuple[float, int, str]]:
        """``(time, key, new_value)`` triples for ``JoinJob.run(updates=)``."""
        if n_keys < 1:
            raise ValueError("n_keys must be >= 1")
        per_wave = max(1, int(n_keys * self.fraction))
        out: list[tuple[float, int, str]] = []
        cursor = 0
        for wave in range(self.waves):
            at = self.start + wave * self.interval
            for offset in range(per_wave):
                key = (cursor + offset) % n_keys
                out.append((at, key, f"v{key}@w{wave}"))
            cursor = (cursor + per_wave) % n_keys
        return out
