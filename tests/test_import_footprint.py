"""No command loads scipy, and each loads only the layers and libraries it
runs.

scipy is not a runtime dependency: `find_M0` searches in integers and
`wilson_interval` takes its z from a port of Cephes `ndtri`.  `scipy.special`
alone costs about 0.2 s and 20 MB to import, and `scipy.stats` about a second
and 70 MB.  These checks keep an import from quietly bringing either cost
back to a command, `simulate` included, or to a rule-schedule build.

The same holds for what a command does not run.  `import stairwalk.cli`
loads only `cli` and `core`, and no numpy: each handler imports its own
layers.  Building a rule schedule and writing it as JSON load no numpy
either, from the library or from `stairwalk schedule` with or without
`--metadata`, and nor do the two
gain-schedule families, `steady_drift_schedule` and `log_growth_schedule`,
which reach `domination` but not the numpy kernel.  mpmath is loaded
only by a caller that passes an mpf, and `multiprocessing` and
`concurrent.futures` only by a run that may fork, so one-thread Monte Carlo
loads no pool and forks no worker.  The checks run in a fresh
interpreter, since the test process has loaded all of these long before.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stairwalk
from stairwalk import build_paper_schedule, scaled_profile

WATCHED = ("scipy", "numpy", "mpmath", "multiprocessing", "concurrent", "stairwalk")

SCRIPT = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in %r)

def kept():
    workers = sys.modules.get("stairwalk.workers")
    return len(workers._workers) if workers else 0

schedule, profile, out = sys.argv[1:4]
steps = {}
import stairwalk, stairwalk.cli
steps["import"] = loaded()
import stairwalk.domination
steps["domination"] = loaded()

from fractions import Fraction
from stairwalk.cli import main
stairwalk.build_paper_schedule(Fraction(1, 2)).to_json()
stairwalk.build_paper_schedule(0.5, stairwalk.scaled_profile()).to_json()
assert main(["schedule", "--sigma", "0.5", "--profile", profile, "--out", out]) == 0
steps["rule_schedules"] = loaded()

stairwalk.steady_drift_schedule(10, sigma=0.01).to_json()
stairwalk.log_growth_schedule(50).to_json()
steps["gain_schedules"] = loaded()

assert main(["schedule", "--sigma", "0.5", "--profile", profile, "--metadata",
             "--out", out]) == 0
steps["schedule_metadata"] = loaded()

from stairwalk.simulator import wilson_interval
for argv in (
    ["audit", "--schedule", schedule, "--i-max", "20", "--x-depth", "10"],
    ["feasibility", "--schedule", schedule, "--i-max", "20"],
    ["dp", "--schedule", schedule, "--horizon", "50", "--threshold", "10"],
    ["bound", "--sigma", "0.5", "--M", "146"],
    ["control", "--mode", "constant", "--horizon", "50", "--reps", "20",
     "--threads", "1"],
):
    before = kept()
    assert main(argv + ["--out", out]) == 0, argv
    steps["kept_workers_" + argv[0]] = [before, kept()]
try:
    wilson_interval(5, 10, 1.5)
except ValueError:
    pass
steps["commands"] = loaded()

stairwalk.build_paper_schedule(0.5, stairwalk.scaled_profile())
steps["build"] = loaded()
assert main(["schedule", "--sigma", "0.5", "--profile", profile, "--out", out]) == 0
steps["schedule"] = loaded()

before = kept()
assert main(["simulate", "--schedule", schedule, "--phases", "2", "--reps", "20",
             "--threads", "1", "--out", out]) == 0
steps["simulate"] = loaded()
steps["kept_workers_simulate"] = [before, kept()]

# bounds was imported before mpmath, and still evaluates an mpf in mpmath
import mpmath
from stairwalk import hoeffding_tail
tail = hoeffding_tail(100, mpmath.mpf(30))
steps["mpf_tail"] = [type(tail).__name__, tail == 2 * mpmath.exp(mpmath.mpf(-9) / 2)]
print(json.dumps(steps))
""" % (WATCHED,)


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    """The watched modules loaded after each step of SCRIPT, in one fresh
    interpreter."""
    tmp_path = tmp_path_factory.mktemp("footprint")
    schedule = tmp_path / "scaled.json"
    schedule.write_text(build_paper_schedule(0.5, scaled_profile()).to_json())
    profile = tmp_path / "scaled_profile.json"
    profile.write_text(scaled_profile().to_json())
    src = str(Path(stairwalk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(schedule), str(profile), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def _of(modules, *packages):
    return [m for m in modules if m.split(".")[0] in packages]


def test_no_command_loads_scipy(steps):
    # import; audit, feasibility, dp, bound and control, and a rejected
    # confidence; a scaled rule schedule (M = 146, exact M0), from the
    # library and the CLI; simulate, whose Wilson intervals need a z
    for step in ("import", "commands", "build", "schedule", "simulate"):
        assert _of(steps[step], "scipy") == [], step


def test_importing_the_cli_loads_no_layer_or_library(steps):
    assert steps["import"] == ["stairwalk", "stairwalk.cli", "stairwalk.core"]


def test_building_and_writing_rule_schedules_loads_no_numpy(steps):
    # the paper and scaled schedules built and written as JSON, and
    # `stairwalk schedule --out`, before any command has loaded numpy
    assert _of(steps["rule_schedules"], "numpy") == []


def test_schedule_metadata_loads_neither_numpy_nor_the_simulator(steps):
    # `stairwalk schedule --metadata` reports the generator's name, which
    # lives in `core`
    loaded = steps["schedule_metadata"]
    assert _of(loaded, "numpy") == []
    assert "stairwalk.simulator" not in loaded


def test_importing_domination_loads_neither_numpy_nor_the_kernel(steps):
    assert steps["domination"] == sorted(steps["import"] + ["stairwalk.domination"])


def test_building_and_writing_gain_schedules_loads_no_numpy(steps):
    # steady_drift_schedule(10, sigma=0.01), with its exact-binomial phase 1,
    # and log_growth_schedule(50), each built and written as JSON
    loaded = steps["gain_schedules"]
    assert "stairwalk.domination" in loaded
    assert _of(loaded, "numpy") == []
    assert "stairwalk.kernel" not in loaded


def test_commands_load_neither_mpmath_nor_a_pool(steps):
    # audit, feasibility, dp, bound, and control and simulate at --threads 1;
    # dp may keep a worker for its law writer, which needs multiprocessing
    # but no pool
    for step in ("commands", "build", "schedule", "simulate"):
        assert _of(steps[step], "mpmath", "concurrent") == [], step
    assert "numpy" in steps["commands"]
    for command in ("control", "simulate"):   # neither forked a worker
        before, after = steps["kept_workers_" + command]
        assert after == before, command


def test_hoeffding_tail_takes_an_mpf_imported_after_the_package(steps):
    assert steps["mpf_tail"] == ["mpf", True]


def test_src_imports_exactly_the_declared_dependencies():
    # every third-party module that src/stairwalk imports, at any depth, is a
    # runtime dependency in pyproject.toml, and every dependency is imported
    tomllib = pytest.importorskip("tomllib")
    package = Path(stairwalk.__file__).resolve().parent
    pyproject = package.parents[1] / "pyproject.toml"
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "stairwalk":
                    imported.setdefault(top, path.name)
    assert set(imported) == declared, imported
