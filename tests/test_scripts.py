"""Smoke test: every script under scripts/ starts and prints its help; unit
tests of the helpers a script defines."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()


def test_scripts_found():
    assert len(SCRIPTS) >= 3


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refcheck_compare_names_each_difference(tmp_path):
    refcheck = _load_script("refcheck")
    report = {"config": {"out": "x", "seed": 1}, "results": {"min": 1.5, "max": 2.0}}
    # value column: 1e-10 -> 3e-10 is the largest change (2), 4 -> 5 gives
    # 0.25, the text row none, the extra row is counted without a value
    drift = {"a": 'k,v\n"0,1",4\n1,1e-10\n2,x\n3,inf\n',
             "b": 'k,v\n"0,1",5\n1,3e-10\n2,y\n3,inf\n4,0\n'}
    for side, (row, value, out) in {"a": ("1,2.5", 2.0, "a/x"),
                                    "b": ("1,2.75", 3.0, "b/x")}.items():
        bundle = tmp_path / side / "x"
        bundle.mkdir(parents=True)
        (bundle / "report.csv").write_text(f"k,v\n0,1\n{row}\n")
        (bundle / "same.csv").write_text("k,v\n0,1\n")
        (bundle / "drift.csv").write_text(drift[side])
        (bundle / "eol.csv").write_bytes(b"k,v\r\n0,1" if side == "a" else b"k,v\n0,1\n")
        doc = json.loads(json.dumps(report))
        doc["config"]["out"] = out
        doc["results"]["max"] = value
        (bundle / "report.json").write_text(json.dumps(doc))
    lines = refcheck.compare(tmp_path / "a", tmp_path / "b")
    assert lines == ["x/drift.csv: 4 of 6 rows differ, first row 2: '\"0,1\",4' != "
                     "'\"0,1\",5'; largest value change 2 relative (row 3)",
                     "x/eol.csv: bytes differ",
                     "x/report.csv: 1 of 3 rows differ, first row 3: '1,2.5' != '1,2.75'; "
                     "largest value change 0.1 relative (row 3)",
                     "x/report.json: differs at results.max"]
