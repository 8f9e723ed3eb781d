"""Per-layer attribution, measured from outside the program.

A *layer* is a group of this repo's modules (``LAYER_RULES``).  One
``cProfile`` run of the timed region is bucketed by source file: a
function defined under ``src/repro`` charges its self time and call
count to its file's layer; builtin, stdlib, numpy and benchmark-file
time is charged to the layer that called it, through the profile's
caller table (walking up through foreign callers, split by their
cumulative-time shares).  Frames nothing in repro called — a pool
thread's bootstrap — are charged to the layer they call into; time
with neither a repro ancestor nor a repro descendant is ``other``.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
from pathlib import PurePosixPath
from typing import Any

#: ``(path prefix relative to src/repro, layer)``; first match wins, so
#: single files come before the directories that contain them.
LAYER_RULES: tuple[tuple[str, str], ...] = (
    ("api.py", "api"),
    ("__init__.py", "api"),
    ("__main__.py", "api"),
    ("runtime/backend.py", "api"),
    ("runtime/__init__.py", "api"),
    ("workloads/", "api"),
    ("experiments/", "api"),
    ("engine/job.py", "engine.job"),
    ("engine/prefetch.py", "engine.job"),
    ("engine/elastic.py", "engine.job"),
    ("engine/multi_join.py", "engine.job"),
    ("engine/__init__.py", "engine.job"),
    ("streaming/", "engine.job"),
    ("core/optimizer.py", "core.optimizer"),
    ("core/ski_rental.py", "core.optimizer"),
    ("core/update_tracker.py", "core.optimizer"),
    ("core/analysis.py", "core.optimizer"),
    ("core/__init__.py", "core.optimizer"),
    ("engine/strategies.py", "core.optimizer"),
    ("cache/", "cache"),
    ("core/cost_model.py", "core.cost_model"),
    ("core/smoothing.py", "core.cost_model"),
    ("core/frequency.py", "core.frequency"),
    ("engine/compute_node.py", "engine.compute_node"),
    ("engine/batching.py", "engine.batching"),
    ("placement/batch.py", "engine.batching"),
    ("core/load_balancer.py", "engine.batching"),
    ("runtime/transport.py", "runtime.transport"),
    ("store/messages.py", "runtime.transport"),
    ("engine/requests.py", "runtime.transport"),
    ("store/", "store"),
    ("placement/", "store"),
    ("vector/", "vector"),
    ("sim/", "sim"),
    ("mapreduce/", "shuffle"),
    ("sparklite/", "shuffle"),
    ("cluster/codec.py", "cluster.codec"),
    ("cluster/rpc.py", "cluster.rpc"),
    ("cluster/", "cluster.driver"),
    ("faults/", "faults"),
    ("resilience/", "faults"),
    ("memory/", "faults"),
    ("tenancy/", "faults"),
    ("obs/", "obs"),
    ("metrics/", "obs"),
    ("runtime/metrics.py", "obs"),
    ("perf/", "obs"),
)

OTHER = "other"
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_RULES)
) + (OTHER,)

_PACKAGE_MARK = "/src/repro/"


def layer_of_relpath(relpath: str) -> str | None:
    """Layer of a file given relative to ``src/repro`` (``None``: unmapped)."""
    for prefix, layer in LAYER_RULES:
        if relpath == prefix or (
            prefix.endswith("/") and relpath.startswith(prefix)
        ):
            return layer
    return None


def layer_of_file(filename: str) -> str | None:
    """Layer of an absolute profile filename; ``None`` if not in repro."""
    at = filename.rfind(_PACKAGE_MARK)
    if at < 0:
        return None
    relpath = filename[at + len(_PACKAGE_MARK):]
    # A new module no rule covers is still the program's time, not a
    # caller's: it shows up as ``other`` (and fails test_joinbench).
    return layer_of_relpath(relpath) or OTHER


class ThreadedProfile:
    """``cProfile`` over the calling thread and every thread it starts.

    ``cProfile.Profile.enable`` hooks one thread only, and the cluster
    driver dispatches from pool threads: each new thread's first
    profile event swaps in a profiler of its own.
    """

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._threads: list[cProfile.Profile] = []

    def _bootstrap(self, frame: Any, event: str, arg: Any) -> None:
        profile = cProfile.Profile()
        self._threads.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadedProfile":
        threading.setprofile(self._bootstrap)
        self._main.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._main.disable()
        threading.setprofile(None)

    def stats(self) -> dict:
        """The merged ``pstats`` table (threads must have finished)."""
        merged = pstats.Stats(self._main)
        for profile in self._threads:
            merged.add(profile)
        return merged.stats  # type: ignore[attr-defined]


def attribute(stats: dict, top: int = 25) -> dict[str, Any]:
    """Bucket a ``pstats`` table into per-layer self time and calls."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    home = {func: layer_of_file(func[0]) for func in stats}
    # Caller tables flipped: who each function called, by cumulative time.
    callees: dict[tuple, dict[tuple, float]] = {}
    for func, entry in stats.items():
        for caller, weights in entry[4].items():
            callees.setdefault(caller, {})[func] = weights[3] or weights[2]
    memo: dict[tuple[bool, tuple], dict[str, float]] = {}

    def owners(func: tuple, up: bool, trail: frozenset) -> dict[str, float]:
        """Layer shares of a foreign function's time.

        Walks ``up`` the callers to the nearest repro frames, split by
        cumulative time; a function nothing in repro called (a pool
        thread's bootstrap) walks down its callees instead, since it
        only exists to run that layer's code.
        """
        if home.get(func) is not None:
            return {home[func]: 1.0}
        if (up, func) in memo:
            return memo[up, func]
        if up:
            edges = {
                c: (w[3] or w[2] or 1e-12)
                for c, w in stats[func][4].items() if c not in trail
            } if func in stats else {}
        else:
            edges = {
                c: w or 1e-12
                for c, w in callees.get(func, {}).items() if c not in trail
            }
        total = sum(edges.values())
        out: dict[str, float] = {}
        for neighbour, weight in edges.items():
            for layer, share in owners(neighbour, up, trail | {func}).items():
                out[layer] = out.get(layer, 0.0) + share * weight / total
        if not out or set(out) == {OTHER}:
            out = owners(func, False, frozenset()) if up else {OTHER: 1.0}
        # Memoised per function: on a call cycle the first path to
        # reach it decides the split, which is as good as any other.
        memo[up, func] = out
        return out

    ranked = []
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = home[func]
        ranked.append((tt, nc, layer or "(callers)", func))
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        if not callers:
            for target, share in owners(func, False, frozenset()).items():
                self_s[target] += tt * share
            continue
        for caller, (_cnc, _ccc, ctt, _cct) in callers.items():
            for target, share in owners(caller, True, frozenset((func,))).items():
                self_s[target] += ctt * share
    ranked.sort(key=lambda r: -r[0])
    return {
        "self_s": self_s,
        "calls": calls,
        "top": [
            {
                "layer": layer,
                "function": f"{PurePosixPath(func[0]).name}:{func[1]}({func[2]})",
                "self_s": tt,
                "calls": nc,
            }
            for tt, nc, layer, func in ranked[:top]
        ],
    }
