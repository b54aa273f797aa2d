"""Smoke test: every script under scripts/ starts and prints its help; unit
tests of the helpers a script defines."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mwlab import auxmetric, pde

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
    # JSON leaves: max 2 -> 3 (0.5) beats count 4 -> 5 (0.25); a text leaf
    # and a key on one side only are named without a value
    for side, (row, value, count, label, out) in {
            "a": ("1,2.5", 2.0, 4, "p", "a/x"),
            "b": ("1,2.75", 3.0, 5, "q", "b/x")}.items():
        bundle = tmp_path / side / "x"
        bundle.mkdir(parents=True)
        (bundle / "report.csv").write_text(f"k,v\n0,1\n{row}\n")
        (bundle / "same.csv").write_text("k,v\n0,1\n")
        (bundle / "drift.csv").write_text(drift[side])
        (bundle / "eol.csv").write_bytes(b"k,v\r\n0,1" if side == "a" else b"k,v\n0,1\n")
        doc = json.loads(json.dumps(report))
        doc["config"]["out"] = out
        doc["results"].update(max=value, count=count, label=label)
        if side == "b":
            doc["results"]["extra"] = True
        (bundle / "report.json").write_text(json.dumps(doc))
        # fields: one aux value 2 -> 2.5 and one Green block 4 -> 6 move
        grid = auxmetric.BoxGrid(L=1.0, m=2)
        aux = np.full(grid.size, 2.0)
        aux[5] += 0.5 * (side == "b")
        auxmetric.save_field_binary(bundle / "aux_lower.field",
                                    auxmetric.AuxField(grid=grid, values=aux, kind="lower"))
        blocks = np.full((9 ** 3, 1, 1), -4.0)
        blocks[7] -= 2.0 * (side == "b")
        pde.save_green_binary(bundle / "green.field", pde.GreenField(
            grid=pde.Grid3(L=1.0, N=9), d=1, pole=0, blocks=blocks, residual=0.0))
    lines = refcheck.compare(tmp_path / "a", tmp_path / "b")
    assert lines == ["x/aux_lower.field: bytes differ, max|b - a| / max|a| = 0.25",
                     "x/drift.csv: 4 of 6 rows differ, first row 2: '\"0,1\",4' != "
                     "'\"0,1\",5'; largest value change 2 relative (row 3)",
                     "x/eol.csv: bytes differ",
                     "x/green.field: bytes differ, max|b - a| / max|a| = 0.5",
                     "x/report.csv: 1 of 3 rows differ, first row 3: '1,2.5' != '1,2.75'; "
                     "largest value change 0.1 relative (row 3)",
                     "x/report.json: differs at results.count, results.extra, results.label, "
                     "results.max; largest value change 0.5 relative (results.max)"]
