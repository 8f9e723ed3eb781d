"""Self-check of the benchmark: catalogue, layer map, one tiny set.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/joinbench/test_joinbench.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_source_file_maps_to_one_layer():
    package = ROOT / "src" / "repro"
    unmapped = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if layers.layer_of_relpath(path.relative_to(package).as_posix()) is None
    ]
    assert not unmapped, f"add these to layers.LAYER_RULES: {unmapped}"
    assert len(layers.LAYERS) == 19


def test_catalogue_matches_the_code():
    assert CATALOGUE["paths"] == ["benchmarks/joinbench"]
    assert [w["name"] for w in CATALOGUE["workloads"]] == [
        w.name for w in workloads.WORKLOADS if w.harness
    ]
    units = {m["name"]: m["unit"] for m in CATALOGUE["per_layer"]}
    assert units == run.per_layer_units()
    assert tuple(m["name"] for m in CATALOGUE["end_to_end"]) == (
        run.HARNESS_END_TO_END
    )
    for metric in CATALOGUE["end_to_end"]:
        unit, better = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
    for name in [w["name"] for w in CATALOGUE["workloads"]] + list(units):
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.fixture(scope="module")
def tiny_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("joinbench") / "results.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.01",
         "--reps", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


def test_tiny_set_reports_every_metric_on_every_workload(tiny_set):
    document, printed = tiny_set
    assert set(document["workloads"]) == {w.name for w in workloads.WORKLOADS}
    for name, summary in document["workloads"].items():
        assert summary["failed"] == 0, name
        for metric, (unit, _) in run.END_TO_END.items():
            if metric == "failed_share" or (
                metric == "cost_vs_hash_join" and name.startswith("cluster_")
            ):
                continue  # no reference join runs beside the workers
            entry = summary["end_to_end"][metric]
            assert entry["unit"] == unit and entry["value"] > 0, (name, metric)
        assert summary["end_to_end"]["failed_share"]["value"] == 0
        for metric in CATALOGUE["per_layer"]:
            assert summary["per_layer"][metric["name"]]["unit"] == metric["unit"]
            assert metric["name"] in printed
        self_s = {
            layer: summary["per_layer"][f"{layer}.self_s"]["value"]
            for layer in layers.LAYERS
        }
        assert self_s["other"] < 0.03 * sum(self_s.values()), (name, self_s)
    chaos = document["workloads"]["cluster_chaos"]["per_layer"]
    assert chaos["cluster.wire_faults"]["value"] > 0
    assert document["workloads"]["sim_shuffle"]["per_layer"][
        "core.optimizer.calls"]["value"] == 0


def test_compare_passes_equal_sets_and_flags_a_slower_one(tiny_set, tmp_path):
    document, _ = tiny_set
    path = tmp_path / "a.json"
    path.write_text(json.dumps(document))
    assert run.main(["compare", str(path), str(path), "--exact"]) == 0
    slower = json.loads(json.dumps(document))
    entry = slower["workloads"]["sim_hot"]["end_to_end"]["tuples_per_s"]
    entry["value"] *= 0.5
    entry["raw"] = [v * 0.5 for v in entry["raw"]]
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert run.main(["compare", str(path), str(worse)]) == 1
