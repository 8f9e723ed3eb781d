"""repro.perf — the reference-mode switch for the hot-path optimizations.

:func:`reference_mode` / :data:`REFERENCE_ENV` route the hot paths
through their pre-optimization reference implementations (see
:mod:`repro.perf.mode`).  Wall-clock measurement lives in
``benchmarks/joinbench``; the simulated results of pinned runs are held
by ``tests/test_perf_equivalence.py::TestGoldenRuns``.
"""

from __future__ import annotations

from repro.perf.mode import REFERENCE_ENV, reference_mode

__all__ = ["REFERENCE_ENV", "reference_mode"]
