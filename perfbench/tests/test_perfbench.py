"""Tests of the benchmark itself: metric declarations, printed output,
seed handling and failure accounting."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
from interepi import graphs_equal  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import LISTED, WORKLOADS, Run, rep_seed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def test_metric_names_are_well_formed_and_match_the_code():
    spec = declared()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert e2e == bench_run.END_TO_END
    assert layer == bench_run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(LISTED)
    assert set(LISTED) <= set(WORKLOADS)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    code, result = run_bench("--workload", "run-cli", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    code, result = run_bench("--workload", "run-cli", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert result["metrics"]["cli.main.calls"]["value"] >= 2


def setup_graph(workload: str, seed: int, tmp_path: Path):
    run = Run(workload, seed, Tracer(enabled=False), tmp_path)
    return WORKLOADS[workload]().setup(run).graph


def test_workload_seed_changes_the_generated_inputs(tmp_path):
    g1 = setup_graph("sweep-full", 1, tmp_path)
    assert graphs_equal(g1, setup_graph("sweep-full", 1, tmp_path))
    assert not graphs_equal(g1, setup_graph("sweep-full", 2, tmp_path))
    assert rep_seed(1, 0) != rep_seed(2, 0)


def test_failing_powerlaw_seed_is_counted_not_retried():
    # sf-desk.cfg's power-law wiring emits a duplicate edge at master seed 1
    code, result = run_bench("--workload", "run-sf-desk", "--seed", "1", "--seconds", "1")
    assert code == 0
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
