"""Experiment tables and text chart rendering.

Usage collection lives in :mod:`repro.obs.usage`.
"""

from repro.metrics.report import ExperimentTable
from repro.metrics.charts import render_bars, render_series

__all__ = [
    "ExperimentTable",
    "render_bars",
    "render_series",
]
