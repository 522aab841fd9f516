"""No command loads scipy.

scipy is not a runtime dependency: `find_M0` searches in integers and
`wilson_interval` takes its z from a port of Cephes `ndtri`.  `scipy.special`
alone costs about 0.2 s and 20 MB to import, and `scipy.stats` about a second
and 70 MB.  These checks keep an import from quietly bringing either cost
back to a command, `simulate` included, or to a rule-schedule build.  They
run in a fresh interpreter, since the test process has loaded scipy, its
oracle, long before.
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

SCRIPT = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

schedule, profile, out = sys.argv[1:4]
steps = {}
import stairwalk, stairwalk.cli
steps["import"] = loaded()

from stairwalk.cli import main
from stairwalk.simulator import wilson_interval
for argv in (
    ["audit", "--schedule", schedule, "--i-max", "20", "--x-depth", "10"],
    ["feasibility", "--schedule", schedule, "--i-max", "20"],
    ["dp", "--schedule", schedule, "--horizon", "50", "--threshold", "10"],
    ["bound", "--sigma", "0.5", "--M", "146"],
    ["control", "--mode", "constant", "--horizon", "50", "--reps", "20",
     "--threads", "1"],
):
    assert main(argv + ["--out", out]) == 0, argv
try:
    wilson_interval(5, 10, 1.5)
except ValueError:
    pass
steps["commands"] = loaded()

stairwalk.build_paper_schedule(0.5, stairwalk.scaled_profile())
steps["build"] = loaded()
assert main(["schedule", "--sigma", "0.5", "--profile", profile, "--out", out]) == 0
steps["schedule"] = loaded()

assert main(["simulate", "--schedule", schedule, "--phases", "2", "--reps", "20",
             "--threads", "1", "--out", out]) == 0
steps["simulate"] = loaded()
print(json.dumps(steps))
"""


def test_no_command_loads_scipy(tmp_path):
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
    steps = json.loads(run.stdout.splitlines()[-1])
    # import; audit, feasibility, dp, bound and control, and a rejected
    # confidence; a scaled rule schedule (M = 146, exact M0), from the
    # library and the CLI; simulate, whose Wilson intervals need a z
    assert steps == {step: [] for step in ("import", "commands", "build", "schedule",
                                           "simulate")}


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
