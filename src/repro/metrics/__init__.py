"""Experiment tables and text chart rendering.

Usage collection lives in :mod:`repro.obs.usage` (which absorbed the
old ``repro.metrics.collector``); the re-exports below keep the
``repro.metrics`` spelling working.
"""

from repro.obs.usage import (
    ClusterUsage,
    FaultStats,
    collect_fault_stats,
    collect_usage,
    skew_ratio,
)
from repro.metrics.report import ExperimentTable
from repro.metrics.charts import render_bars, render_series

__all__ = [
    "ClusterUsage",
    "FaultStats",
    "collect_fault_stats",
    "collect_usage",
    "skew_ratio",
    "ExperimentTable",
    "render_bars",
    "render_series",
]
