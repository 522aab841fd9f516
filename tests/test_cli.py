"""Command-line interface: outputs, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from stairwalk import build_paper_schedule, oracle, scaled_profile, steady_drift_schedule
from stairwalk.cli import main


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
    assert "P(S_40 > 10)" in capsys.readouterr().out


def test_dp_rational_mode(scaled_file, capsys):
    code = main([
        "dp", "--schedule", scaled_file, "--horizon", "2",
        "--threshold", "1", "--arithmetic", "rational",
    ])
    assert code == 0
    # P(S_2 > 1) = 1/10 at a = 8
    assert "1/10" in capsys.readouterr().out


def test_dp_exit_codes(scaled_file):
    assert main(["dp", "--schedule", scaled_file, "--horizon", "30000",
                 "--threshold", "1"]) == 2
    assert main(["dp", "--schedule", scaled_file, "--horizon", "10"]) == 1


def test_dp_mass_defect_is_one_error_line(scaled_file, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_FLOAT_DEFECT_TOL", -1.0)  # below any defect
    capsys.readouterr()
    assert main(["dp", "--schedule", scaled_file, "--horizon", "40",
                 "--threshold", "10"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "drifted" in lines[0]


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


def test_control_command(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(["control", "--mode", "constant", "--horizon", "500",
                 "--reps", "50", "--seed", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["nondecreasing_fraction"] == 1.0
    assert "drift" in capsys.readouterr().out


def test_usage_errors(user_file, tmp_path, capsys):
    assert main(["schedule", "--sigma", "1.5"]) == 1       # invalid sigma
    assert main(["audit", "--schedule", "/nonexistent.json"]) == 1
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
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
