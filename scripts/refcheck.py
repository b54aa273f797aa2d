#!/usr/bin/env python3
"""Run the reference invocations of the lab and check that their outputs
stay byte for byte the same.

The reference set is the 18 CLI bundles below and two ``cross_checks``
dumps (power-13 and rank-one on the fixed families of the ``certify-quad``
benchmark workload).  Every run is its own subprocess with BLAS at one
thread, started inside the output root with a relative ``--out``.

    python3 scripts/refcheck.py                 # sha256 per output file
    python3 scripts/refcheck.py --against REV   # compare with revision REV

With ``--against``, REV is exported with ``git archive`` into a temporary
directory and both trees run the same set.  Each differing file is named on
one line: for a CSV with its number of differing rows, its first differing
row and the largest relative change |b - a| / |a| of the value column (the
last one), or as bytes when only its line endings differ; for a JSON file
with the differing key paths (``config.out`` aside) and the largest relative
change over its numeric leaves, with that leaf's path; for a ``.field``
binary with max |b - a| / max |a| over its values (read with
``pde.load_green_binary`` for ``green*.field``, ``auxmetric.load_field_binary``
otherwise); and as bytes otherwise.  The exit status is 0 only when nothing
differs.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_RANDOM_FAMILY = '{"generator": "random", "box": 4, "count": 2, "r_min": 1, "r_max": 2}'
_DYADIC_FAMILY = '{"generator": "dyadic", "box": 4, "count": 9, "r_min": 1, "r_max": 2}'

INVOCATIONS = (
    ("all_quick", ["all", "--scale", "quick", "--seed", "3"]),
    ("certify_nd_rank_one", ["certify", "--class", "nd", "--weight", "rank-one-radial"]),
    ("certify_bp_rank_one", ["certify", "--class", "bp", "--p", "2",
                             "--weight", "rank-one-radial", "--seed", "11"]),
    ("aux_diag_poly_upper", ["aux", "--weight", "diag-poly", "--grid", "1.0,6",
                             "--kind", "upper"]),
    ("aux_diag_ordered", ["aux", "--weight", "diag-ordered", "--grid", "1.5,6"]),
    ("aux_power13", ["aux", "--weight", "power-13", "--grid", "1.0,4"]),
    ("agmon_diag_poly", ["agmon", "--weight", "diag-poly", "--grid", "1.0,6",
                         "--source", "3,3,3", "--norm", "l2"]),
    ("green_diag_poly", ["green", "--weight", "diag-poly", "--grid", "13,2.0"]),
    ("decay_diag_poly", ["decay", "--weight", "diag-poly", "--grid", "13,2.0"]),
    ("landscape_diag_poly", ["landscape", "--weight", "diag-poly", "--grid", "13,2.0",
                             "--probes", "2"]),
    ("fp_identity", ["fp", "--weight", "identity", "--grid", "1.0,6", "--form", "norm",
                     "--count", "2"]),
    ("poincare_identity", ["poincare", "--weight", "identity", "--cube", "0,0,0,1"]),
    ("poincare_power13", ["poincare", "--weight", "power-13", "--cube", "1,0.5,0,1"]),
    ("counterexample", ["counterexample", "--R", "5,10"]),
    *((f"cross_{w}", ["certify", "--class", "cross", "--weight", w,
                      "--family", _RANDOM_FAMILY])
      for w in ("diag-poly", "diag-ordered", "power-13")),
    ("cross_identity", ["certify", "--class", "cross", "--weight", "identity",
                        "--family", _DYADIC_FAMILY]),
)

# cross_checks(W, 2.0, family) on the families of the certify-quad workload
CROSS_DUMPS = (
    ("cross_checks_power13.json", "power-13",
     {"generator": "random", "box": 4.0, "count": 2, "r_min": 1.0, "r_max": 2.0}),
    ("cross_checks_rank_one.json", "rank-one-radial",
     {"generator": "random", "box": 8.0, "count": 4, "r_min": 1.0, "r_max": 4.0}),
)

_DUMP = """
import json, sys
from mwlab import certify, cli, cubature, weights
W = weights.from_config(cli.BUILTIN_WEIGHTS[sys.argv[2]])
res = certify.cross_checks(W, 2.0, cubature.CubeFamily(**json.loads(sys.argv[3])))
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(res, fh, indent=1, sort_keys=True)
"""


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_tree(tree: Path, out: Path) -> None:
    """Write every reference output of the source tree ``tree`` under ``out``.

    A run's exit status goes into ``<name>.exit``, so a run that starts
    failing on one side shows up as a difference too.
    """
    out.mkdir(parents=True, exist_ok=True)
    env = _env(tree / "src")
    jobs = [(name, [sys.executable, "-m", "mwlab.cli", *argv, "--out", name])
            for name, argv in INVOCATIONS]
    jobs += [(name, [sys.executable, "-c", _DUMP, name, weight, json.dumps(fam)])
             for name, weight, fam in CROSS_DUMPS]
    for name, cmd in jobs:
        proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n", encoding="utf-8")
        if proc.returncode:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            print(f"{tree.name}: {name} exited {proc.returncode}: {last}", file=sys.stderr)


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _json_diffs(a, b, path: str = "") -> list:
    """(key path, relative change) at each leaf where two parsed JSON
    documents differ; the change is nan unless both leaves are numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            sub = f"{path}.{k}" if path else str(k)
            out += _json_diffs(a[k], b[k], sub) if k in a and k in b else [(sub, math.nan)]
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _json_diffs(x, y, f"{path}[{i}]")]
    if json.dumps(a) == json.dumps(b):
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return [(path or "$", _relative_change(a, b) if numbers else math.nan)]


def _drop_out(doc):
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        doc["config"].pop("out", None)
    return doc


def _largest(changes) -> str:
    """'; largest value change ...' over (relative change, where) pairs whose
    change is a number, or '' when none is."""
    numeric = [(c, where) for c, where in changes if not math.isnan(c)]
    if not numeric:
        return ""
    c, where = max(numeric, key=lambda t: t[0])
    return f"; largest value change {c:.3g} relative ({where})"


def _field_values(path: Path) -> np.ndarray:
    """The values of a lab ``.field`` binary, read with this tree's readers."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if path.name.startswith("green"):
        from mwlab.pde import load_green_binary
        return load_green_binary(path).blocks
    from mwlab.auxmetric import load_field_binary
    return load_field_binary(path).values


def _field_drift(a: Path, b: Path) -> str:
    va, vb = _field_values(a), _field_values(b)
    if va.shape != vb.shape:
        return f"bytes differ, shapes {va.shape} != {vb.shape}"
    ref = float(np.max(np.abs(va)))
    drift = float(np.max(np.abs(vb - va)))
    return f"bytes differ, max|b - a| / max|a| = {drift / ref if ref else math.inf:.3g}"


def _describe(rel: str, a: Path, b: Path):
    """One line on how two versions of a file differ, or None when they agree."""
    if rel.endswith(".json"):
        diffs = _json_diffs(*(_drop_out(json.loads(p.read_text(encoding="utf-8")))
                              for p in (a, b)))
        if not diffs:
            return None
        return (f"{rel}: differs at {', '.join(path for path, _ in diffs)}"
                + _largest((c, path) for path, c in diffs))
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return None
    if rel.endswith(".csv"):
        return f"{rel}: {_csv_drift(da.decode(), db.decode())}"
    if rel.endswith(".field"):
        return f"{rel}: {_field_drift(a, b)}"
    return f"{rel}: bytes differ"


def _relative_change(a, b) -> float:
    """|b - a| / |a| of two numbers or value cells; nan when either is not a
    number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.nan
    if x == y:
        return 0.0
    return abs(y - x) / abs(x) if x != 0.0 else math.inf


def _csv_drift(ta: str, tb: str) -> str:
    """How two CSV texts differ: the differing rows, the first of them, and
    the largest relative change of the value column over those rows."""
    la, lb = ta.splitlines(), tb.splitlines()
    n = max(len(la), len(lb))
    ra = la + ["<none>"] * (n - len(la))
    rb = lb + ["<none>"] * (n - len(lb))
    diff = [i for i in range(n) if ra[i] != rb[i]]
    if not diff:  # only line endings or a trailing newline differ
        return "bytes differ"
    first = diff[0]
    line = f"{len(diff)} of {n} rows differ, first row {first + 1}: {ra[first]!r} != {rb[first]!r}"
    return line + _largest((_relative_change(next(csv.reader([ra[i]]))[-1],
                                             next(csv.reader([rb[i]]))[-1]), f"row {i + 1}")
                           for i in diff)


def compare(dir_a: Path, dir_b: Path) -> list:
    """One line per file that differs between two output roots."""
    fa, fb = _files(Path(dir_a)), _files(Path(dir_b))
    lines = [f"{rel}: only in {dir_a if rel in fa else dir_b}"
             for rel in sorted(fa ^ fb)]
    for rel in sorted(fa & fb):
        line = _describe(rel, Path(dir_a) / rel, Path(dir_b) / rel)
        if line:
            lines.append(line)
    return lines


def _export(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", metavar="REV",
                    help="git revision to compare this tree with")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="refcheck-") as tmp:
        tmp = Path(tmp)
        run_tree(ROOT, tmp / "this")
        if args.against is None:
            for rel in sorted(_files(tmp / "this")):
                digest = hashlib.sha256((tmp / "this" / rel).read_bytes()).hexdigest()
                print(f"{digest}  {rel}")
            return 0
        _export(args.against, tmp / "tree")
        run_tree(tmp / "tree", tmp / "other")
        lines = compare(tmp / "other", tmp / "this")
    for line in lines:
        print(line)
    print(f"{len(lines)} differing file(s) against {args.against}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
