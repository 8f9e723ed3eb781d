"""joinbench: the repo's benchmark.

Three ways in, one measurement underneath (``child.py``, one fresh
process per repetition):

``run.py [--seed 7] [--reps 5] [--workloads a,b] [--scale F] [--out FILE]``
    A full *set*: every workload, repetitions interleaved round-robin,
    one warm-up round discarded, then one traced child and one
    layers-alone child per workload.  Prints every metric by name with
    its unit and writes the results file.

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload for the harness described by ``BENCHMARK.json``:
    repetitions for ``S`` seconds, set-up included (``--trace 0``:
    end-to-end metrics), or one plain, one traced and one layers-alone
    child (``--trace 1``: per-layer metrics).  The last line of
    standard output is the result object.

``run.py compare A.json B.json [--exact]``
    Row per (end-to-end metric, workload): both values with the
    quartiles of their repetitions, the ratio B/A, the bound, and
    ``ok`` / ``worse`` / ``unresolved``.
    Exits non-zero on any ``worse``.

Exit status of the first two is non-zero on any wrong output, any
child crash, or a ``sim_*`` workload whose simulated makespan or slice
count differs between repetitions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Seconds one child may take before it is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
#: Harness mode: every child of one invocation has ended by then, well
#: inside the harness's own limit.
INVOCATION_BUDGET_S = 160.0

#: name -> (unit, better).  ``failed_share`` is part of every results
#: file but not of BENCHMARK.json, whose harness takes failures from
#: the ``failed`` / ``attempted`` fields of the result object instead.
END_TO_END: dict[str, tuple[str, str]] = {
    "cost_vs_hash_join": ("x", "lower"),
    "tuples_per_s": ("1/s", "higher"),
    "cpu_us_per_tuple": ("us", "lower"),
    "makespan_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_share": ("ratio", "lower"),
}

#: The benchmark's own regression bounds: share of the base median by
#: which a metric may worsen.  ``*`` is the default; a workload name or
#: backend prefix overrides it.
BOUNDS: dict[str, dict[str, float]] = {
    "cost_vs_hash_join": {"*": 0.05},
    "tuples_per_s": {"*": 0.10, "cluster_chaos": 0.05},
    "cpu_us_per_tuple": {"*": 0.10, "cluster_chaos": 0.25},
    "makespan_s": {"sim_": 0.01, "cluster_": 0.10},
    "setup_s": {"*": 0.25},
    "peak_rss_mb": {"*": 0.10},
    "failed_share": {"*": 0.0},
}
#: ``setup_s`` may also worsen by this much in absolute terms.
SETUP_SLACK_S = 0.05

COUNT_UNITS: dict[str, str] = {
    "core.optimizer.local_mem_share": "ratio",
    "core.optimizer.local_disk_share": "ratio",
    "core.optimizer.compute_request_share": "ratio",
    "core.optimizer.data_request_share": "ratio",
    "cache.hit_ratio": "ratio",
    "runtime.transport.requests_sent": "count",
    "runtime.transport.tuples_per_request": "count",
    "runtime.transport.retries": "count",
    "runtime.transport.timeouts": "count",
    "runtime.transport.sim_request_mean_s": "s",
    "store.udfs_at_data_nodes_share": "ratio",
    "engine.batching.lb_kept_fraction": "ratio",
    "sim.events_per_tuple": "count",
    "sim.bytes_moved_per_tuple": "B",
    "sim.cpu_skew": "ratio",
    "sim.disk_skew": "ratio",
    "shuffle.sends": "count",
    "cluster.driver.start_s": "s",
    "cluster.driver.run_s": "s",
    "cluster.driver.collect_s": "s",
    "cluster.driver.close_s": "s",
    "cluster.driver.cpu_s": "s",
    "cluster.driver.wait_s": "s",
    "cluster.workers.cpu_s": "s",
    "cluster.rpc.requests_sent": "count",
    "cluster.rpc.retries": "count",
    "cluster.rpc.timeouts": "count",
    "cluster.rpc.call_samples": "count",
    "cluster.rpc.call_p50_ms": "ms",
    "cluster.rpc.call_p99_ms": "ms",
    "cluster.worker.peer_requests": "count",
    "cluster.worker.serve_run_batch": "count",
    "cluster.worker.serve_get_values": "count",
    "cluster.worker.values_served": "count",
    "cluster.worker.udf_applied": "count",
    "cluster.wire_faults": "count",
    "cluster.dispatch_retries": "count",
}
ALONE_UNITS: dict[str, str] = {
    "core.optimizer.route_fast_us": "us",
    "core.optimizer.route_batch_us_per_key": "us",
    "core.frequency.add_us": "us",
    "cache.churn_us": "us",
    "sim.event_us": "us",
    "cluster.codec.roundtrip_us_per_frame": "us",
    "cluster.codec.bytes_per_tuple": "B",
}
OVERHEAD = "bench.trace_overhead_ratio"
#: The end-to-end metrics ``BENCHMARK.json`` lists, each with a bound
#: its harness also holds two runs of one commit to.  Raw throughput and
#: CPU follow the host (runs minutes apart differ by 20-80%), so the
#: harness gets them without a bound, among the per-layer metrics.
HARNESS_END_TO_END = ("cost_vs_hash_join", "makespan_s", "setup_s", "peak_rss_mb")
HARNESS_UNBOUNDED = {
    "bench.tuples_per_s": "tuples_per_s",
    "bench.cpu_us_per_tuple": "cpu_us_per_tuple",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in catalogue order."""
    units: dict[str, str] = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(COUNT_UNITS)
    units.update(ALONE_UNITS)
    units[OVERHEAD] = "ratio"
    for name, metric in HARNESS_UNBOUNDED.items():
        units[name] = END_TO_END[metric][0]
    return units


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def prepare() -> None:
    """Check the program is there and byte-compile it (the build step)."""
    if not (SRC / "repro" / "api.py").is_file():
        sys.exit(f"joinbench: no program to measure under {SRC}")
    OUT.mkdir(parents=True, exist_ok=True)
    for tree in (SRC, HERE):
        compileall.compile_dir(str(tree), quiet=2)


def spawn_child(
    workload: str, seed: int, scale: float, mode: str,
    timeout: float = CHILD_TIMEOUT_S,
) -> dict[str, Any] | None:
    """Run one child to completion; ``None`` if it crashed or hung."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--mode", mode, "--out-dir", str(OUT), "--t0", repr(time.time()),
    ]
    # Own session: a hung cluster child is killed with its workers.
    process = subprocess.Popen(
        command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0 or not stdout.strip():
        print(
            f"joinbench: {workload} ({mode}, seed {seed}) child failed "
            f"with status {process.returncode}", file=sys.stderr,
        )
        return None
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict[str, Any]:
    out: dict[str, Any] = {
        "value": statistics.median(values), "n": len(values), "raw": values,
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def quiet_sum(readings: list[list[float]]) -> float:
    """Sum over slices of the fastest repetition's reading of that slice.

    ``readings[i][k]`` is repetition i's time for slice k.  A ``sim_*``
    child cuts its timed region at every n-th UDF call, and the program
    is deterministic, so slice k is the same work in every repetition
    of one seed.  The shared host only ever adds time, much of it in
    bursts of tenths of a second that slow whole repetitions by up to
    1.7x but rarely hit one slice in every repetition; the fastest
    reading of each slice is the one the host disturbed least.
    ``cluster_*`` repetitions are one slice each (nothing of the
    benchmark's runs inside the workers), so this is their fastest
    repetition.
    """
    return sum(min(slice_k) for slice_k in zip(*readings))


def end_to_end(
    definition: workloads.WorkloadDef, reps: list[dict[str, Any] | None],
    scale: float,
) -> dict[str, Any]:
    """One workload's metrics over its reps, with quartiles and raw values.

    The times of the timed region are ``quiet_sum``s, ``makespan_s`` is
    the fastest repetition's (on ``sim_*`` they are all equal), set-up
    time and peak memory are medians.  ``cost_vs_hash_join`` (``sim_*``
    only) divides the region's wall time per tuple by that of the
    reference join each child ran chunk by chunk between the region's
    slices: minutes of uniform slowdown (+20% to +80% here) move both
    alike.
    """
    done = [r for r in reps if r is not None]
    tuples = workloads.scaled_tuples(definition, scale)
    attempted = tuples * len(reps)
    failed = sum(r["failed"] for r in done) + tuples * (len(reps) - len(done))
    metrics: dict[str, Any] = {}
    if done:
        per_rep = {
            "tuples_per_s": [r["tuples"] / r["wall_s"] for r in done],
            "cpu_us_per_tuple": [r["cpu_s"] / r["tuples"] * 1e6 for r in done],
            "makespan_s": [r["makespan_s"] for r in done],
            "setup_s": [r["setup_s"] for r in done],
            "peak_rss_mb": [r["peak_rss_mb"] for r in done],
        }
        if definition.backend == "sim":
            per_rep["cost_vs_hash_join"] = [
                (r["wall_s"] / tuples)
                / (sum(r["reference_s"]) / r["reference_tuples"])
                for r in done
            ]
        metrics = {name: summarize(vals) for name, vals in per_rep.items()}
        wall_s = quiet_sum([[wall for wall, _ in r["slices"]] for r in done])
        cpu_s = quiet_sum([[cpu for _, cpu in r["slices"]] for r in done])
        metrics["tuples_per_s"]["value"] = tuples / wall_s
        metrics["cpu_us_per_tuple"]["value"] = cpu_s / tuples * 1e6
        metrics["makespan_s"]["value"] = min(per_rep["makespan_s"])
        if definition.backend == "sim":
            reference_s = quiet_sum([r["reference_s"] for r in done])
            metrics["cost_vs_hash_join"]["value"] = (wall_s / tuples) / (
                reference_s / done[0]["reference_tuples"]
            )
    metrics["failed_share"] = {
        "value": failed / attempted, "n": len(reps),
        "raw": [r["failed"] / tuples if r else 1.0 for r in reps],
    }
    for name, entry in metrics.items():
        entry["unit"] = END_TO_END[name][0]
    problems = []
    if len(done) < len(reps):
        problems.append(f"{len(reps) - len(done)} child(ren) crashed")
    if failed:
        problems.append(f"{failed} of {attempted} tuples wrong")
    if definition.backend == "sim" and len(
        {(r["makespan_s"], len(r["slices"])) for r in done}
    ) > 1:
        problems.append(
            "simulated makespan or slice count differs between repetitions"
        )
    return {
        "tuples": tuples, "attempted": attempted, "failed": failed,
        "end_to_end": metrics, "problems": problems,
    }


def per_layer(
    traced: dict[str, Any] | None, alone: dict[str, Any] | None,
    plain: dict[str, Any],
) -> dict[str, dict[str, Any]]:
    """Every per-layer metric of one workload (0 where a child is missing).

    ``plain`` is ``end_to_end``'s summary of the untraced repetitions.
    """
    units = per_layer_units()
    values: dict[str, float] = dict.fromkeys(units, 0.0)
    untraced_wall_s = None
    if "tuples_per_s" in plain["end_to_end"]:
        for name, metric in HARNESS_UNBOUNDED.items():
            values[name] = plain["end_to_end"][metric]["value"]
        untraced_wall_s = plain["tuples"] / values["bench.tuples_per_s"]
    if traced is not None:
        for layer in layers.LAYERS:
            values[f"{layer}.self_s"] = traced["profile"]["self_s"][layer]
            values[f"{layer}.calls"] = traced["profile"]["calls"][layer]
        values.update(traced["counts"])
        if untraced_wall_s:
            values[OVERHEAD] = traced["wall_s"] / untraced_wall_s
    if alone is not None:
        values.update(alone["alone"])
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}


def write_trace(workload: str, children: Iterable[dict[str, Any] | None]) -> None:
    """Spans of the traced and alone children, then the top functions."""
    lines: list[dict[str, Any]] = []
    for child in children:
        if child is None:
            continue
        for span in child["spans"]:
            lines.append(dict(span, process=child["mode"]))
        for rank, entry in enumerate(child.get("profile", {}).get("top", ())):
            lines.append(dict(entry, type="function", rank=rank + 1,
                              workload=workload))
    path = OUT / f"trace-{workload}.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


# ----------------------------------------------------------------------
# Harness mode: one workload, one result object
# ----------------------------------------------------------------------
def run_harness(args: argparse.Namespace) -> int:
    prepare()
    definition = workloads.BY_NAME[args.workload]
    deadline = time.monotonic() + INVOCATION_BUDGET_S

    def child(mode: str) -> dict[str, Any] | None:
        left = max(deadline - time.monotonic(), 1.0)
        return spawn_child(args.workload, args.seed, args.scale, mode, left)

    # Plain repetitions for as long as another one still ends within
    # --seconds of the first one's start.  A traced invocation needs one
    # only, as the base of the tracing overhead ratio; its length is the
    # workload's, not --seconds.
    reps: list[dict[str, Any] | None] = []
    stop = time.monotonic() + (0.0 if args.trace else args.seconds)
    while True:
        rep_started = time.monotonic()
        reps.append(child("plain"))
        now = time.monotonic()
        if reps[-1] is None or now + (now - rep_started) > stop:
            break
    summary = end_to_end(definition, reps, args.scale)
    done = [r for r in reps if r is not None]
    if not done:
        return 1
    if args.trace:
        traced, alone = child("traced"), child("alone")
        if traced is None or alone is None:
            return 1
        write_trace(args.workload, (traced, alone))
        summary["failed"] += traced["failed"]
        summary["attempted"] += traced["tuples"]
        metrics = per_layer(traced, alone, summary)
    else:
        metrics = {
            name: {
                "value": summary["end_to_end"][name]["value"],
                "unit": END_TO_END[name][0],
            }
            for name in HARNESS_END_TO_END
        }
    for problem in summary["problems"]:
        print(f"joinbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not summary["problems"] and not summary["failed"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# Set mode: every workload, interleaved
# ----------------------------------------------------------------------
def run_set(args: argparse.Namespace) -> int:
    prepare()
    names = (
        args.workloads.split(",") if args.workloads
        else [w.name for w in workloads.WORKLOADS]
    )
    chosen = [workloads.BY_NAME[name] for name in names]
    reps_of = {
        w.name: min(w.reps, args.reps) if args.reps else w.reps for w in chosen
    }
    timed: dict[str, list] = {w.name: [] for w in chosen}
    # Interleaved workloads first (machine drift lands on all of them
    # alike), round -1 being the discarded warm-up; then the rest.
    for group in (
        [w for w in chosen if w.interleave],
        [w for w in chosen if not w.interleave],
    ):
        rounds = max((reps_of[w.name] for w in group), default=0)
        for round_no in range(-1, rounds):
            for w in group:
                if round_no >= reps_of[w.name]:
                    continue
                rep = spawn_child(w.name, args.seed, args.scale, "plain")
                if round_no >= 0:
                    timed[w.name].append(rep)
            label = "warm-up" if round_no < 0 else f"round {round_no + 1}/{rounds}"
            print(f"joinbench: {label} of {','.join(w.name for w in group)} "
                  "done", file=sys.stderr)
    results: dict[str, Any] = {}
    problems: list[str] = []
    for w in chosen:
        summary = end_to_end(w, timed[w.name], args.scale)
        traced = spawn_child(w.name, args.seed, args.scale, "traced")
        alone = spawn_child(w.name, args.seed, args.scale, "alone")
        if traced is None or alone is None:
            summary["problems"].append("traced or alone child crashed")
        elif traced["failed"]:
            summary["problems"].append("traced run produced wrong outputs")
        write_trace(w.name, (traced, alone))
        summary["per_layer"] = per_layer(traced, alone, summary)
        summary["why"] = w.why
        summary["top_functions"] = (
            traced["profile"]["top"] if traced is not None else []
        )
        problems += [f"{w.name}: {p}" for p in summary["problems"]]
        results[w.name] = summary
    document = {
        "benchmark": "joinbench",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "reps": reps_of,
        "scale": args.scale,
        "workloads": results,
    }
    out = Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print_set(document)
    print(f"results: {out}")
    for problem in problems:
        print(f"joinbench: FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def print_set(document: dict[str, Any]) -> None:
    for name, summary in document["workloads"].items():
        print(f"\n== {name}  ({summary['tuples']} tuples; {summary['why']})")
        for metric, entry in summary["end_to_end"].items():
            spread = (
                f"  reps q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                if "q1" in entry else ""
            )
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']:<6}"
                  f" n={entry['n']}{spread}")
        for metric, entry in summary["per_layer"].items():
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def bound_for(metric: str, workload: str) -> float:
    table = BOUNDS[metric]
    for key, bound in table.items():
        if key != "*" and workload.startswith(key):
            return bound
    return table["*"]


def _spread(entry: dict[str, Any]) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def judge(metric: str, workload: str, a: dict[str, Any], b: dict[str, Any]):
    """``(ratio, bound, verdict)`` for one (metric, workload) row."""
    better = END_TO_END[metric][1]
    bound = bound_for(metric, workload)
    base, new = a["value"], b["value"]
    ratio = new / base if base else (1.0 if not new else float("inf"))
    worsening = (new - base) if better == "lower" else (base - new)
    allowed = bound * abs(base)
    if metric == "setup_s":
        allowed = max(allowed, SETUP_SLACK_S)
    if worsening > allowed:
        return ratio, bound, "worse"
    sign = 1.0 if better == "lower" else -1.0
    all_better = max(sign * v for v in b["raw"]) < min(sign * v for v in a["raw"])
    if bound and max(_spread(a), _spread(b)) > bound and not all_better:
        return ratio, bound, "unresolved"
    return ratio, bound, "ok"


def _cell(entry: dict[str, Any]) -> str:
    if "q1" not in entry:
        return f"{entry['value']:.6g}"
    return f"{entry['value']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}]"


def run_compare(args: argparse.Namespace) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    print(f"base A = {args.a} (seed {a['seed']}), B = {args.b} "
          f"(seed {b['seed']}); ratio = B/A")
    header = (f"{'workload':<15} {'metric':<17} {'A value [reps q1, q3]':<34} "
              f"{'B value [reps q1, q3]':<34} {'B/A':>7} {'bound':>6}  verdict")
    print(header)
    verdicts: list[str] = []
    differing: list[str] = []
    compared_exact = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for metric in END_TO_END:
            ea, eb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ea is None or eb is None:
                continue
            ratio, bound, verdict = judge(metric, workload, ea, eb)
            verdicts.append(verdict)
            print(f"{workload:<15} {metric:<17} {_cell(ea):<34} {_cell(eb):<34} "
                  f"{ratio:>7.3f} {bound:>6.2f}  {verdict}")
        if workload.startswith("sim_"):
            exact = {"makespan_s": (wa["end_to_end"]["makespan_s"]["value"],
                                    wb["end_to_end"]["makespan_s"]["value"])}
            for metric, entry in wa["per_layer"].items():
                if metric.endswith(".calls"):
                    exact[metric] = (
                        entry["value"], wb["per_layer"][metric]["value"]
                    )
            compared_exact += len(exact)
            differing += [
                f"{workload} {m}: {x!r} != {y!r}"
                for m, (x, y) in exact.items() if x != y
            ]
    print(f"\nexact counts on sim_* (makespan_s and every .calls): "
          f"{compared_exact - len(differing)} of {compared_exact} bit-equal")
    for line in differing:
        print(f"  differs: {line}")
    for verdict in ("ok", "unresolved", "worse"):
        print(f"{verdict}: {verdicts.count(verdict)}")
    if "worse" in verdicts or (args.exact and differing):
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        parser.add_argument(
            "--exact", action="store_true",
            help="also fail if sim_* makespans or call counts differ "
                 "(two sets of one commit at one seed)",
        )
        return run_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink tuple counts (never keys, caches, skew)")
    parser.add_argument("--reps", type=int, default=0,
                        help="cap on timed rounds per workload (set mode)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (set mode)")
    parser.add_argument("--out", default="", help="results file (set mode)")
    parser.add_argument(
        "--workload",
        choices=[w.name for w in workloads.WORKLOADS if w.harness],
        help="harness mode: the one workload to run",
    )
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="harness mode: seconds to spend on repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="harness mode: 1 reports per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload:
        return run_harness(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
