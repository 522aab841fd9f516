"""A traced benchmark run reports every per-layer metric it declares.

`BENCHMARK.json` names the per-layer metrics that each run's last line must
hold, and `perfbench/run.py --trace 1` derives them from spans that it
records around stairwalk functions, by name.  When a change stops a
workload from calling a traced function, its metric drops out of the last
line and the run is malformed, although it still exits 0.  A change to
which layers a workload loads, or when, can do the same, since the tracer
patches the names bound at the moment it is installed.  So this runs each
workload once, traced (about 6, 11 and 6 s), and checks that line.  The
runs write only under `perfbench/out/`, which git ignores.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _check_traced_run(workload):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in contract["per_layer"]}
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True, last
    assert set(last["metrics"]) == declared


def test_traced_mc_short_paths_reports_every_declared_layer_metric():
    _check_traced_run("mc-short-paths")


def test_traced_mc_long_paths_reports_every_declared_layer_metric():
    _check_traced_run("mc-long-paths")


def test_traced_certify_reports_every_declared_layer_metric():
    _check_traced_run("certify")
