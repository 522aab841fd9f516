"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from stairwalk import (
    build_paper_schedule,
    law_at,
    oracle,
    scaled_profile,
    serialize,
    steady_drift_schedule,
    user_schedule,
)
from stairwalk.cli import main
from stairwalk.verifier import CLAIM_IDS


@pytest.fixture(scope="module")
def scaled_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sched") / "scaled.json"
    path.write_text(build_paper_schedule(0.5, scaled_profile()).to_json())
    return str(path)


@pytest.fixture(scope="module")
def user_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sched") / "user.json"
    path.write_text(steady_drift_schedule(4, sigma=0.01).to_json())
    return str(path)


def test_schedule_command_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    profile = tmp_path / "prof.json"
    profile.write_text(scaled_profile().to_json())
    for out in (out1, out2):
        code = main([
            "schedule", "--sigma", "0.5", "--profile", str(profile),
            "--out", str(out),
        ])
        assert code == 0
    assert out1.read_text() == out2.read_text()
    doc = json.loads(out1.read_text())
    assert doc["M"] == 146 and doc["M0"] == 771
    captured = capsys.readouterr().out
    assert "M  = 146" in captured
    assert "a = 8.000000" in captured


def test_schedule_zero_phase1_floor_is_one_error_line(tmp_path, capsys):
    profile = tmp_path / "prof.json"
    doc = json.loads(scaled_profile().to_json())
    profile.write_text(json.dumps(dict(doc, phase1_up_floor=0)))
    capsys.readouterr()
    assert main(["schedule", "--sigma", "0.5", "--profile", str(profile)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "phase1_up_floor" in lines[0] and "unsatisfiable" in lines[0]


def test_schedule_user_mode_requires_phases():
    assert main(["schedule", "--mode", "user-designed"]) == 1


def test_schedule_user_mode_roundtrip(user_file, tmp_path):
    out = tmp_path / "u.json"
    code = main([
        "schedule", "--mode", "user-designed", "--phases", user_file,
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["mode"] == "user-designed"


def test_audit_command_exit_zero_despite_findings(scaled_file, tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = main([
        "audit", "--schedule", scaled_file, "--i-max", "50",
        "--x-depth", "20", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdicts"]["C2"] == "fails"  # findings do not change the exit code
    table = capsys.readouterr().out
    assert "C2" in table and "fails" in table and "verdict" in table


def test_audit_huge_x_depth(scaled_file, tmp_path):
    """C5's cost does not depend on the depth: at 2**31 - 1 it gives the
    verdict and margins of depth 1000."""
    c5 = {}
    for depth in ("1000", "2147483647"):
        out = tmp_path / f"audit-{depth}.json"
        assert main(["audit", "--schedule", scaled_file, "--i-max", "5",
                     "--x-depth", depth, "--out", str(out)]) == 0
        claim = json.loads(out.read_text())["claims"][CLAIM_IDS.index("C5")]
        c5[depth] = (claim["verdict"], claim["witness"], claim["details"])
    assert c5["2147483647"] == c5["1000"]


def test_simulate_command(user_file, tmp_path):
    out, csv_path = tmp_path / "exp.json", tmp_path / "exp.csv"
    traj_csv = tmp_path / "traj.csv"
    code = main([
        "simulate", "--schedule", user_file, "--phases", "2",
        "--reps", "500", "--seed", "7", "--out", str(out),
        "--csv", str(csv_path), "--traj-csv", str(traj_csv),
        "--traj-count", "3", "--metadata",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["replications"] == 500
    assert doc["metadata"]["generator"].startswith("philox4x64")
    assert doc["metadata"]["base_seed"] == 7
    assert "run_metadata" in doc
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("i,attempts,successes")
    traj_lines = traj_csv.read_text().splitlines()
    assert traj_lines[0] == "replication,n,s"
    assert len(traj_lines) == 1 + 3 * 2  # two checkpoints per replication


# sha256 of the checkpoint CSV that `stairwalk simulate --traj-csv` writes at
# seed 11: the default 10 replications of a ten-phase user schedule, a count
# of 0 (the header alone), and 40 replications of the scaled rule schedule.
GOLDEN_TRAJ_CSV = {
    "steady_10": "c88eaccd63a5829b43784f97008ee7dddef75946977318a8ab4b15244fb468c7",
    "steady_0": "4c135908eb1370e80fec787da7f1f15e04e0cd07429813e9135ec4610b02143e",
    "scaled_40": "4bcb9a0d8e63f97d80f48efb0abc3c35802efc26b3cba561d6373adb87597af5",
}


def test_golden_trajectory_csv(scaled_file, tmp_path):
    steady = tmp_path / "steady.json"
    steady.write_text(steady_drift_schedule(10, sigma=0.01).to_json())
    runs = {"steady_10": (steady, "10", []),
            "steady_0": (steady, "10", ["--traj-count", "0"]),
            "scaled_40": (scaled_file, "2", ["--traj-count", "40"])}
    got = {}
    for name, (path, phases, extra) in runs.items():
        csv_path = tmp_path / f"{name}.csv"
        assert main(["simulate", "--schedule", str(path), "--phases", phases,
                     "--reps", "20", "--seed", "11", "--traj-csv", str(csv_path),
                     *extra]) == 0
        got[name] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert got == GOLDEN_TRAJ_CSV


def test_negative_traj_count_is_one_error_line(user_file, tmp_path, capsys):
    out, traj_csv = tmp_path / "exp.json", tmp_path / "traj.csv"
    capsys.readouterr()
    assert main(["simulate", "--schedule", user_file, "--phases", "2", "--reps", "20",
                 "--out", str(out), "--traj-csv", str(traj_csv),
                 "--traj-count", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --traj-count must be >= 0, got -3"]
    assert captured.out == ""
    assert not out.exists() and not traj_csv.exists()


def test_simulate_threads_env_invariance(user_file, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["simulate", "--schedule", user_file, "--phases", "1", "--reps", "300",
          "--seed", "3", "--threads", "2", "--out", str(out1)])
    monkeypatch.setenv("STAIRWALK_THREADS", "5")
    main(["simulate", "--schedule", user_file, "--phases", "1", "--reps", "300",
          "--seed", "3", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_bound_command_single_and_sweep(tmp_path, capsys):
    out, csv_path = tmp_path / "b.json", tmp_path / "b.csv"
    assert main(["bound", "--sigma", "0.5", "--M", "100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0.74 < doc["lo"] <= doc["hi"] < 0.7425
    assert main([
        "bound", "--sigma", "0.5", "--M", "100", "--M", "1000",
        "--out", str(out), "--csv", str(csv_path),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["least_M_exceeding"] == 100
    assert "monotone in M: True" in capsys.readouterr().out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "M,lo,hi,exceeds_sigma"
    assert len(lines) == 3
    # reals carry 17 significant digits
    assert len(lines[1].split(",")[1].replace("0.", "")) >= 16


@pytest.mark.filterwarnings("error")
def test_bound_and_simulate_where_the_power_overflows(tmp_path, capsys):
    # at M = 146 the bound's powers overflow a float from K = 71, the first
    # factor's from K = 72; an overflowing power is a zero term, not an error
    out = tmp_path / "b.json"
    for K in ("71", "72"):
        assert main(["bound", "--sigma", "0.5", "--M", "146", "--K", K,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["hi"] == 0.75 and 0.75 - 1e-11 < doc["lo"] < 0.75
    path = tmp_path / "k100.json"
    path.write_text(build_paper_schedule(0.5, scaled_profile(hoeffding_K=100)).to_json())
    assert main(["simulate", "--schedule", str(path), "--phases", "2", "--reps", "20",
                 "--threads", "1", "--out", str(out)]) == 0
    assert [p["bound_paper"] for p in json.loads(out.read_text())["per_phase"]] == [None, 1.0]
    assert capsys.readouterr().err == ""


@pytest.mark.usefixtures("child_deadline")
def test_dp_command(scaled_file, tmp_path, capsys):
    law_csv = tmp_path / "law.csv"
    out_json = tmp_path / "event.json"
    code = main([
        "dp", "--schedule", scaled_file, "--horizon", "40",
        "--threshold", "10", "--out", str(law_csv), "--json", str(out_json),
    ])
    assert code == 0
    assert law_csv.read_text().startswith("n,s,mass")
    doc = json.loads(out_json.read_text())
    assert 0 < doc["probability"] < 1
    assert "run_metadata" not in doc
    assert "P(S_40 > 10)" in capsys.readouterr().out
    # --metadata reaches the event-probability JSON, as in every command
    assert main(["dp", "--schedule", scaled_file, "--horizon", "40", "--threshold", "10",
                 "--json", str(out_json), "--metadata"]) == 0
    meta = json.loads(out_json.read_text())
    assert meta.pop("run_metadata")["profile"] == scaled_profile().to_json()
    assert meta == doc


def test_dp_rational_mode(scaled_file, capsys):
    code = main([
        "dp", "--schedule", scaled_file, "--horizon", "2",
        "--threshold", "1", "--arithmetic", "rational",
    ])
    assert code == 0
    # P(S_2 > 1) = 1/10 at a = 8
    assert "1/10" in capsys.readouterr().out


def test_dp_exit_codes(scaled_file, tmp_path):
    assert main(["dp", "--schedule", scaled_file, "--horizon", "30000",
                 "--threshold", "1"]) == 2
    assert main(["dp", "--schedule", scaled_file, "--horizon", "10"]) == 1
    # --json writes the event probability, so it needs --threshold
    law_csv, p_json = tmp_path / "law.csv", tmp_path / "p.json"
    assert main(["dp", "--schedule", scaled_file, "--horizon", "10",
                 "--out", str(law_csv), "--json", str(p_json)]) == 1
    assert not law_csv.exists() and not p_json.exists()


def test_dp_mass_defect_is_one_error_line(scaled_file, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_FLOAT_DEFECT_TOL", -1.0)  # below any defect
    capsys.readouterr()
    assert main(["dp", "--schedule", scaled_file, "--horizon", "40",
                 "--threshold", "10"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "drifted" in lines[0]


def test_dp_horizon_past_last_phase(tmp_path, capsys):
    # a 3 + 4 step schedule defines steps 0..6, so laws up to S_7
    sched = user_schedule(scaled_profile(), [3, 4], [8.0, 10.0], [1, 2])
    assert law_at(7, sched).n == 7
    with pytest.raises(ValueError, match="horizon 9 .* step 7"):
        oracle.transient_law(9, sched)  # raised before any law is drawn
    path, law_csv = tmp_path / "short.json", tmp_path / "law.csv"
    path.write_text(sched.to_json())
    capsys.readouterr()
    assert main(["dp", "--schedule", str(path), "--horizon", "9",
                 "--out", str(law_csv), "--threshold", "1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "horizon 9" in lines[0]
    assert not law_csv.exists()
    # the rational budget is checked before the schedule's end
    assert main(["dp", "--schedule", str(path), "--horizon", "70", "--arithmetic",
                 "rational", "--boundaries-only", "--out", str(law_csv)]) == 2
    assert not law_csv.exists()


@pytest.mark.usefixtures("child_deadline")
def test_dp_runs_one_pass(scaled_file, tmp_path, monkeypatch):
    """The CSV and the event probability come from one pass over the laws,
    so adding --out builds no further step table."""
    built = []
    real = oracle.step_prob_tables

    def counted(s_max, a):
        built.append(a)
        return real(s_max, a)

    monkeypatch.setattr(oracle, "step_prob_tables", counted)

    def tables(*argv):
        built.clear()
        assert main(["dp", "--schedule", scaled_file, "--horizon", "900",
                     "--threshold", "150", *argv]) == 0
        return len(built)

    alone = tables()
    assert alone == 2  # phase 1 ends at step 771, inside the horizon
    assert tables("--out", str(tmp_path / "law.csv"), "--boundaries-only") == alone
    assert tables("--out", str(tmp_path / "law.csv"), "--json",
                  str(tmp_path / "p.json"), "--non-strict", "--boundaries-only") == alone


@pytest.fixture
def law_writer(monkeypatch, child_deadline):
    """Route the law CSV through the forked writer, whatever the CPU count,
    under the child-process deadline: a writer which never sees EOF fails
    the suite instead of hanging it."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the law writer needs the fork start method")
    monkeypatch.setattr(serialize, "usable_cpus", lambda: 2)


def _one_error_line(capfd, no_stray_children) -> str:
    """The one line on stderr, read at the file descriptor, so that a
    traceback from the forked writer would show; and no process left."""
    lines = capfd.readouterr().err.splitlines()
    no_stray_children()
    assert len(lines) == 1, lines
    return lines[0]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("horizon", ["10", "1000"])  # fails on close / mid-stream
def test_dp_write_error_is_one_line(scaled_file, law_writer, capfd, horizon,
                                    no_stray_children):
    capfd.readouterr()
    assert main(["dp", "--schedule", scaled_file, "--horizon", horizon,
                 "--out", "/dev/full"]) == 1
    assert _one_error_line(capfd, no_stray_children) == "error: [Errno 28] No space left on device"


def test_dp_bad_out_path_fails_before_the_dp(scaled_file, law_writer, tmp_path,
                                             monkeypatch, capfd, no_stray_children):
    built = []
    real = oracle.step_prob_tables
    monkeypatch.setattr(oracle, "step_prob_tables",
                        lambda s_max, a: built.append(a) or real(s_max, a))
    path = tmp_path / "missing" / "law.csv"
    capfd.readouterr()
    assert main(["dp", "--schedule", scaled_file, "--horizon", "900",
                 "--threshold", "150", "--out", str(path)]) == 1
    assert _one_error_line(capfd, no_stray_children) == f"error: [Errno 2] No such file or directory: {str(path)!r}"
    assert built == []


def test_law_writer_passes_on_the_laws_error(law_writer, tmp_path, capfd, no_stray_children):
    def laws():
        yield from oracle.transient_law(1, user_schedule(scaled_profile(), [5], [8.0], [3]))
        raise RuntimeError("after two laws")

    capfd.readouterr()
    with pytest.raises(RuntimeError, match="after two laws"):
        serialize.dump_law_csv(laws(), tmp_path / "law.csv")
    no_stray_children()
    assert capfd.readouterr().err == ""


def test_feasibility_command(user_file, scaled_file, tmp_path, capsys):
    out, csv_path = tmp_path / "f.json", tmp_path / "f.csv"
    code = main([
        "feasibility", "--schedule", user_file, "--i-max", "4",
        "--out", str(out), "--csv", str(csv_path),
    ])
    assert code == 0
    assert json.loads(out.read_text())["ok"] is True
    assert csv_path.read_text().splitlines()[0].startswith("i,drift")
    code = main(["feasibility", "--schedule", scaled_file, "--i-max", "4",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["first_violation"]["i"] == 2
    assert "first violation at phase 2" in capsys.readouterr().out


def test_feasibility_i_max_past_the_last_phase(tmp_path, capsys):
    """A range past a user schedule's last phase is one error line that
    names i_max and the phase count, given before any per-phase work."""
    path = tmp_path / "cond.json"
    path.write_text(steady_drift_schedule(10, sigma=0.01).to_json())
    capsys.readouterr()
    for i_max in (11, 50):
        assert main(["feasibility", "--schedule", str(path), "--i-max", str(i_max)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: i_max = {i_max} is past the schedule's last phase: it defines 10 phases"]
    assert main(["feasibility", "--schedule", str(path), "--i-max", "10"]) == 0


# sha256 of the JSON and CSV that `stairwalk feasibility` writes for the
# exact paper schedule, the float scaled one and a user-designed one.
GOLDEN_FEASIBILITY = {
    "paper_300": "083d664ea3a65f34ecee2f521bae31e993d8542cfee540a29306debf0d014f08",
    "scaled_300": "fa658df79b53089fa45024cf11f2fe25178ca70348d2b6ef781047d8069cc1e0",
    "steady_10": "3cfa366e80431052388156ce3c0e9c9bef5aa7cda0276d6327e6b6de8048875a",
}


def test_golden_feasibility(paper_schedule, scaled_file, tmp_path):
    paper, steady = tmp_path / "paper.json", tmp_path / "steady.json"
    paper.write_text(paper_schedule.to_json())
    steady.write_text(steady_drift_schedule(10, sigma=0.01).to_json())
    runs = {"paper_300": (paper, 300), "scaled_300": (scaled_file, 300),
            "steady_10": (steady, 10)}
    got = {}
    for name, (path, i_max) in runs.items():
        out, csv_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert main(["feasibility", "--schedule", str(path), "--i-max", str(i_max),
                     "--out", str(out), "--csv", str(csv_path)]) == 0
        got[name] = hashlib.sha256(out.read_bytes() + csv_path.read_bytes()).hexdigest()
    assert got == GOLDEN_FEASIBILITY


def test_control_command(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(["control", "--mode", "constant", "--horizon", "500",
                 "--reps", "50", "--seed", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["nondecreasing_fraction"] == 1.0
    assert "drift" in capsys.readouterr().out


def test_walks_too_long_for_memory_are_one_resource_line(scaled_file, tmp_path, capsys,
                                                         no_stray_children):
    """A walk whose step tables or histogram cannot be allocated ends as one
    `resource budget exceeded:` line and exit 2, with no output file.  A
    10**15-step table is larger than the address space, so it fails at
    once; so does the DP's horizon budget."""
    huge = 10**15
    path = tmp_path / "long.json"
    path.write_text(user_schedule(scaled_profile(), [771, huge], [8.0, 9.0], [146, 200])
                    .to_json())
    out = tmp_path / "out.json"
    runs = [
        ["control", "--mode", "constant", "--horizon", str(huge), "--reps", "1",
         "--threads", "1", "--out", str(out)],
        ["control", "--mode", "fast-growth", "--horizon", str(huge), "--reps", "1",
         "--threads", "1", "--out", str(out)],
        ["control", "--mode", "fast-growth", "--horizon", str(huge), "--reps", "4097",
         "--threads", "2", "--out", str(out)],
        ["simulate", "--schedule", str(path), "--phases", "2", "--reps", "1",
         "--threads", "1", "--out", str(out), "--csv", str(tmp_path / "out.csv"),
         "--traj-csv", str(tmp_path / "traj.csv")],
        ["dp", "--schedule", scaled_file, "--horizon", "30000", "--threshold", "1",
         "--json", str(out)],
    ]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("resource budget exceeded:"), argv
        assert list(tmp_path.iterdir()) == [path], argv
    no_stray_children()


def test_reports_are_not_encoded_without_out(user_file, scaled_file, monkeypatch):
    def refuse(*_):
        raise AssertionError("dump_json called without --out")

    monkeypatch.setattr("stairwalk.serialize.dump_json", refuse)
    for argv in (["audit", "--schedule", scaled_file, "--i-max", "5", "--x-depth", "5"],
                 ["simulate", "--schedule", user_file, "--phases", "1", "--reps", "10"],
                 ["bound", "--sigma", "0.5", "--M", "146"],
                 ["feasibility", "--schedule", scaled_file, "--i-max", "4"],
                 ["control", "--mode", "constant", "--horizon", "50", "--reps", "5"]):
        assert main(argv) == 0


def test_nan_adaptation_values_are_one_error_line(user_file, tmp_path, capsys):
    doc = json.loads(Path(user_file).read_text())
    doc["phases"][1]["a"] = float("nan")
    nan_file = tmp_path / "nan.json"
    nan_file.write_text(json.dumps(doc))
    control = ["control", "--mode", "constant", "--horizon", "50"]
    cases = [
        (control + ["--a", "nan", "--reps", "5"], "a >= 8"),
        (control + ["--reps", "0"], "replications must be >= 1"),
        (["dp", "--schedule", str(nan_file), "--horizon", "12", "--threshold", "3"], ">= 8"),
        (["simulate", "--schedule", str(nan_file), "--phases", "2", "--reps", "10"], ">= 8"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


def test_usage_errors(user_file, scaled_file, tmp_path, capsys, monkeypatch):
    assert main(["schedule", "--sigma", "1.5"]) == 1       # invalid sigma
    assert main(["audit", "--schedule", "/nonexistent.json"]) == 1
    # audit ranges: one error line naming the field
    capsys.readouterr()
    for flag, value in [("--x-depth", "-1"), ("--i-max", "1")]:
        assert main(["audit", "--schedule", scaled_file, "--i-max", "5", flag, value]) == 1
        lines = capsys.readouterr().err.splitlines()
        field = flag[2:].replace("-", "_")
        assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]
    # malformed schedule files: one error line naming the bad key, no traceback
    good = json.loads(Path(user_file).read_text())
    bad_row = dict(good, phases=[dict(good["phases"][0], length="60")])

    def bad_profile(**fields):
        return json.dumps(dict(good, profile=dict(good["profile"], **fields)))

    cases = {
        "{}": "'mode'",
        '{"mode": "paper-literal"}': "'profile'",
        '{"mode": "user-designed"}': "'profile'",
        "[1, 2]": "JSON object",
        json.dumps(dict(good, mode="paper-literal")): "'M'",
        json.dumps({k: v for k, v in good.items() if k != "phases"}): "'phases'",
        json.dumps(bad_row): "'length'",
        json.dumps(dict(good, phases=[1])): "phases[0]",
        bad_profile(hoeffding_K=[1, 2]): "'hoeffding_K'",
        bad_profile(slack={"p": 1}): "'slack'",
        bad_profile(drift_floor="x"): "'drift_floor'",
        bad_profile(a_offset="1/0"): "'a_offset'",
        bad_profile(phase1_a=float("nan")): "'phase1_a'",
        bad_profile(a_offset=float("inf")): "'a_offset'",
        bad_profile(a_offset=float("-inf")): "'a_offset'",
        bad_profile(overshoot=float("inf")): "'overshoot'",
    }
    capsys.readouterr()
    for text, key in cases.items():
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["simulate", "--schedule", str(path), "--phases", "1", "--reps", "10"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]
    # worker counts below one or not integers: one error line naming threads
    simulate = ["simulate", "--schedule", user_file, "--phases", "1", "--reps", "10"]
    for argv, env in [(["--threads", "0"], None), (["--threads", "-1"], None), ([], "0"),
                      ([], "2.5"), ([], "two")]:
        if env is not None:
            monkeypatch.setenv("STAIRWALK_THREADS", env)
        assert main(simulate + argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "threads" in lines[0]
    # --threads belongs to the Monte Carlo commands only
    for argv in (["audit", "--schedule", scaled_file], ["bound", "--sigma", "0.5", "--M", "146"],
                 ["dp", "--schedule", scaled_file, "--horizon", "5", "--threshold", "1"],
                 ["feasibility", "--schedule", scaled_file, "--i-max", "3"],
                 ["schedule", "--sigma", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == 1
        assert "--threads" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
