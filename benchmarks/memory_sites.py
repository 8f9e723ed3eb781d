"""Where a joinbench ``sim_*`` run holds its memory.

Builds one joinbench workload at one seed (``workloads.build``, the
benchmark's own inputs), runs it through ``repro.api.run_join`` twice,
and prints:

* ``ru_maxrss`` at three points of the first, untraced run: inputs
  built, end of ``Simulator.run`` (the event loop), end of
  ``run_join``;
* the top ``tracemalloc`` allocation sites live at the end of the
  event loop of the second run, by size.

The traced run comes second because tracemalloc's own bookkeeping
inflates the process's resident set; ``ru_maxrss`` is a high-water
mark, so the first run's three readings are not touched by it.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/memory_sites.py --workload sim_hot
    PYTHONPATH=src python benchmarks/memory_sites.py \\
        --workload sim_update --seed 3 --scale 0.1 --top 15
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import tracemalloc
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "joinbench"))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

from repro.api import run_join  # noqa: E402
from repro.sim.events import Simulator  # noqa: E402


def _rss_mb() -> float:
    """Peak resident set of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(
    workload: str, seed: int, scale: float,
    at_loop_end: Callable[[], None], at_inputs: Callable[[], None],
) -> None:
    """Build the inputs, then ``run_join`` them with hooks at the two
    points inside the run (the caller reads the third after it)."""
    inputs = workloads.build(workload, seed, scale)
    at_inputs()
    original = Simulator.run

    def run(self: Simulator, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        at_loop_end()

    Simulator.run = run  # type: ignore[method-assign]
    try:
        run_join(inputs.spec, inputs.config)
    finally:
        Simulator.run = original  # type: ignore[method-assign]


def measure_rss(workload: str, seed: int, scale: float) -> dict[str, float]:
    """``ru_maxrss`` (MB) at the three points of one untraced run."""
    marks: dict[str, float] = {}
    _run(
        workload, seed, scale,
        at_loop_end=lambda: marks.setdefault("loop_end", _rss_mb()),
        at_inputs=lambda: marks.setdefault("inputs_built", _rss_mb()),
    )
    marks["run_join_end"] = _rss_mb()
    return marks


def top_sites(
    workload: str, seed: int, scale: float, top: int,
) -> list[tuple[str, float, int]]:
    """``(file:line, MB, blocks)`` of the largest sites at loop end."""
    snapshots: list[tracemalloc.Snapshot] = []
    gc.collect()
    tracemalloc.start()
    try:
        _run(
            workload, seed, scale,
            at_loop_end=lambda: snapshots.append(tracemalloc.take_snapshot()),
            at_inputs=lambda: None,
        )
    finally:
        tracemalloc.stop()
    snapshot = snapshots[0].filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    sites = []
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        where = _short(frame.filename)
        sites.append((f"{where}:{frame.lineno}", stat.size / 1e6, stat.count))
    return sites


def _short(filename: str) -> str:
    """A path relative to ``src/`` or ``benchmarks/``, else the basename."""
    parts = Path(filename).parts
    for anchor in ("src", "benchmarks"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor) + 1:])
    return Path(filename).name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="sim_hot",
                        choices=[w for w in workloads.BY_NAME
                                 if workloads.BY_NAME[w].backend == "sim"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)

    print(f"{args.workload} seed {args.seed} scale {args.scale}")
    marks = measure_rss(args.workload, args.seed, args.scale)
    print("ru_maxrss (MB, untraced run):")
    for name in ("inputs_built", "loop_end", "run_join_end"):
        print(f"  {name:<14} {marks[name]:8.1f}")
    print(f"top {args.top} tracemalloc sites at the end of Simulator.run:")
    print(f"  {'MB':>7} {'blocks':>9}  site")
    for where, mb, blocks in top_sites(
        args.workload, args.seed, args.scale, args.top
    ):
        print(f"  {mb:7.2f} {blocks:9d}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
