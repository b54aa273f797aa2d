#!/usr/bin/env python3
"""mwlab benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload aux-closed --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (wall_s, cpu_s, setup_s, peak_rss_mib, ok_frac); with ``--trace 1``
it carries the per-layer metrics of perfbench/tracing.py instead, and the
spans are written under ``.perfbench_out/``.  Earlier lines hold the machine
block and the per-pass details.  The benchmark imports mwlab from ``src/`` of
the checkout and exits with code 2 when it is not there.
"""

from __future__ import annotations

import os
import sys

# one process with no added threads: pin the BLAS/OpenMP pools before numpy loads
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3
WORKLOAD_NAMES = ("aux-closed", "certify-quad", "pde-green", "cli-all")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB", "ok_frac": "frac"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and build the inputs, then exit (times set-up)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import mwlab, numpy and
    scipy and build this workload's inputs: what a CLI user pays per run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def machine_block() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    try:
        import threadpoolctl  # noqa: F401
        has_tpc = True
    except ImportError:
        has_tpc = False
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threadpoolctl": has_tpc,
        "thread_env": {k: os.environ[k] for k in sorted(THREAD_ENV)},
    }


class Tally:
    """Operations and gates attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {why}" if why else name)


def run_pass(wl, inputs: dict, tally: Tally, recorder=None) -> dict:
    """One pass of the workload's tasks; returns outputs and timings."""
    outputs: dict = {}
    errors: dict = {}
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if recorder is not None:
        recorder.active = True
        root = recorder.begin(tracing.ROOT_SPAN)
    for name, fn in wl.tasks:
        try:
            outputs[name] = fn(inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    if recorder is not None:
        recorder.end(root)
        recorder.active = False
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    for name, _fn in wl.tasks:
        tally.record(f"task {name}", name not in errors, errors.get(name, ""))
    return {"outputs": outputs, "wall": wall, "cpu": cpu}


def check_pass(wl, inputs: dict, outputs: dict, state: dict, tally: Tally) -> None:
    for name, gate in wl.gates(inputs, outputs, state):
        try:
            ok, why = bool(gate()), ""
        except Exception as exc:  # a gate whose inputs are missing fails
            ok, why = False, f"{type(exc).__name__}: {exc}"
        tally.record(f"gate {name}", ok, why)


def measure(wl, inputs: dict, seconds: int, tally: Tally, tracer=None) -> dict:
    """Run passes until the next one would overrun ``seconds``.

    Traced runs alternate untraced and traced passes.
    """
    state: dict = {}
    walls, cpus, traced_walls, span_lists, bundle_bytes = [], [], [], [], []
    min_passes = max(wl.min_passes, 2 if tracer is not None else 1)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        res = run_pass(wl, inputs, tally, tracer.recorder if traced else None)
        check_pass(wl, inputs, res["outputs"], state, tally)
        if traced:
            traced_walls.append(res["wall"])
            span_lists.append(tracer.recorder.drain())
            bundle_bytes.append(res["outputs"].get("bundle_bytes", 0))
        else:
            walls.append(res["wall"])
            cpus.append(res["cpu"])
        done = len(walls) + len(traced_walls)
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls)
        if done >= min_passes and elapsed + typical > seconds:
            break
    return {"walls": walls, "cpus": cpus, "traced_walls": traced_walls,
            "spans": span_lists, "bundle_bytes": bundle_bytes}


def trace_metrics(m: dict, tracer, tally: Tally) -> dict:
    per_layer = tracing.layer_metrics(m["spans"])
    roots = [s[2] - s[1] for spans in m["spans"] for s in spans
             if s[0] == tracing.ROOT_SPAN and s[3] < 0]
    traced_wall = statistics.fmean(roots)
    self_sum = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
    tally.record("trace.self_times_sum_to_wall",
                 abs(self_sum - traced_wall) <= 1e-6 * max(traced_wall, 1.0),
                 f"sum {self_sum!r} vs wall {traced_wall!r}")
    untraced = statistics.median(m["walls"])
    per_layer.update({
        "cli.bundle_bytes": statistics.fmean(m["bundle_bytes"]),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_frac": statistics.median(m["traced_walls"]) / untraced - 1.0,
        "trace.missing": float(len(tracer.missing)),
    })
    return per_layer


def write_spans(path: str, m: dict, missing: list, metrics: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"missing": missing, "metrics": metrics,
           "passes": [[s[:4] for s in spans] for spans in m["spans"]]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "mwlab", "__init__.py")):
        print(f"perfbench: no mwlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        import workloads
        workloads.WORKLOADS[args.workload].build(args.seed)
        return 0

    setup_s = None if args.trace else setup_seconds(args)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs["scratch"] = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    print("machine " + json.dumps(machine_block(), sort_keys=True))

    tally = Tally()
    tracer = None
    try:
        if args.trace:
            tracer = tracing.Tracer(tracing.Recorder())
            tracer.install()
        m = measure(wl, inputs, args.seconds, tally, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(inputs["scratch"], ignore_errors=True)

    if args.trace:
        values = trace_metrics(m, tracer, tally)
        units = tracing.metric_units()
        spans_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
        write_spans(spans_path, m, tracer.missing, values)
        print("trace " + json.dumps({"missing": tracer.missing, "spans": spans_path,
                                     "traced_passes": len(m["traced_walls"])}))
    else:
        values = {
            "wall_s": statistics.median(m["walls"]),
            "cpu_s": statistics.median(m["cpus"]),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
        units = END_TO_END_UNITS
    print("passes " + json.dumps({
        "workload": wl.name, "seed": args.seed, "walls": m["walls"],
        "cpus": m["cpus"], "traced_walls": m["traced_walls"], "setup_s": setup_s,
        "fail_frac": tally.failed / tally.attempted, "errors": tally.errors}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
