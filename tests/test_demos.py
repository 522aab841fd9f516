"""Smoke test of the demos through the public API."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_claim_audit_demo_prints_c2_verdict(capsys):
    runpy.run_path(str(DEMOS / "03_claim_audit.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "  C2: fails        per-phase drift inequality" in out
