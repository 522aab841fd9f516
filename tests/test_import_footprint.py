"""Which commands load scipy: only the ones that evaluate with it.

`scipy.stats` takes about a second and 70 MB to import, and nothing needs
it: `find_M0` searches in integers.  Only `wilson_interval` needs scipy, and
only `scipy.special`.  These checks keep a top-level import from quietly
bringing the cost back to every command, or to a rule-schedule build.  They
run in a fresh interpreter, since the test process has loaded scipy long
before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stairwalk
from stairwalk import build_paper_schedule, scaled_profile

SCRIPT = r"""
import json, sys

def loaded():
    return {m: m in sys.modules for m in ("scipy.stats", "scipy.special")}

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


def test_scipy_is_imported_on_first_use(tmp_path):
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
    none = {"scipy.stats": False, "scipy.special": False}
    assert steps["import"] == none
    # audit, feasibility, dp, bound and control, and a rejected confidence
    assert steps["commands"] == none
    # a scaled rule schedule (M = 146, exact M0), from the library and the CLI
    assert steps["build"] == none
    assert steps["schedule"] == none
    assert steps["simulate"] == {"scipy.stats": False, "scipy.special": True}
