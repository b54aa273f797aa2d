"""Tests of the benchmark itself (not of mwlab).

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import math
import os
import re

import numpy as np
import pytest

import run
import tracing
import workloads
from mwlab import auxmetric as am
from mwlab import certify as cf
from mwlab import cubature as cb
from mwlab import pde

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _span(name, t0, t1, parent):
    return [name, t0, t1, parent, True, None]


def test_self_time_on_nested_span_tree():
    spans = [
        _span("bench.pass", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
        _span("d", 8.0, 9.5, 0),     # overlaps c: the union is counted once
        _span("e", 5.5, 6.0, 3),
    ]
    st = tracing.self_times(spans)
    assert st.tolist() == pytest.approx([10.0 - 3.0 - 4.5, 2.0, 1.0, 3.5, 1.5, 0.5])


def test_layer_self_times_add_up_to_the_pass():
    spans = [
        _span("bench.pass", 0.0, 10.0, -1),
        _span("pde.assemble", 1.0, 4.0, 0),
        _span("pde.solve", 2.0, 3.0, 1),
        _span("pde.solve", 5.0, 9.0, 0),
    ]
    spans[1][5] = {"n": 8}
    spans[2][5] = {"n": 8}
    spans[3][5] = {"n": 8}
    spans.append(_span("cubature.adaptive_integrate", 9.2, 9.6, 0))  # raised: no attrs
    metrics = tracing.layer_metrics([spans])
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(10.0)
    assert metrics["cubature.adaptive_integrate.unconverged_frac"] == 1.0
    assert metrics["pde.solve.calls"] == 2
    assert metrics["pde.solve.self_s"] == pytest.approx(5.0)
    assert metrics["pde.assemble.self_s"] == pytest.approx(2.0)
    assert metrics["pde.solve.dof"] == 16


def test_distinct_ratio_counts_repeats_within_a_pass():
    def one_pass():
        spans = [_span("bench.pass", 0.0, 4.0, -1)]
        for i, key in enumerate(["a", "a", "b"]):
            spans.append(_span("certify.reducing_matrix_qform", i, i + 0.5, 0))
            spans[-1][5] = {"key": key}
        return spans

    metrics = tracing.layer_metrics([one_pass(), one_pass()])
    assert metrics["certify.reducing_matrix_qform.calls"] == 3
    assert metrics["certify.reducing_matrix_qform.distinct_ratio"] == pytest.approx(2 / 3)


def _snapshot():
    owners = tracing._mwlab_modules()
    owners += [v for m in tracing._mwlab_modules() for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _tiny_workload(gates=None):
    fam = cb.CubeFamily(generator="dyadic", box=2.0, count=2, r_min=1.0, r_max=2.0)

    def task(inp):
        W = workloads.identity()
        vals = am.aux_values_many(W, np.array([[0.1, 0.2, 0.3], [0.5, 0.0, -0.2]]))
        op = pde.assemble(W, None, pde.Grid3(L=1.0, N=9))
        gf = pde.green_field(op, (4, 4, 4))
        return {"aux": vals, "nd": cf.nd_check(W, fam).passed, "res": gf.residual}

    return workloads.Workload(
        name="tiny", why="test", build=lambda seed: {}, tasks=(("task", task),),
        gates=gates or (lambda inp, out, state: [
            ("m", lambda: np.allclose(out["task"]["aux"], workloads.SQRT8)),
            ("nd", lambda: out["task"]["nd"])]))


def test_traced_run_restores_every_wrapped_name():
    before = _snapshot()
    tracer = tracing.Tracer(tracing.Recorder())
    tracer.install()
    try:
        patched = tracer._patches
        assert tracer.missing == []
        # names bound by import into other modules are wrapped there too
        assert any(o is cf and a == "adaptive_integrate" for o, a, _ in patched)
        assert any(o is am and a == "psi_many" for o, a, _ in patched)
        assert any(o is cf and a == "khachiyan_mvee_centered" for o, a, _ in patched)
        tally = run.Tally()
        m = run.measure(_tiny_workload(), {}, 1, tally, tracer)
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert tally.failed == 0
    metrics = run.trace_metrics(m, tracer, tally)
    assert tally.failed == 0, tally.errors
    assert metrics["auxmetric.aux_values_many.exact.calls"] == 1
    assert metrics["pde.green_field.calls"] == 1
    assert metrics["pde.solve.calls"] == 2          # one CG solve per column
    assert metrics["certify.nd_check.calls"] == 1


def test_missing_layer_is_reported_not_fatal():
    targets = tracing.TARGETS + (tracing.Target("pde.gone", "mwlab.pde", "no_such_fn"),)
    tracer = tracing.Tracer(tracing.Recorder(), targets)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["pde.gone"]


def test_gate_failure_and_raising_task_count_against_fail_frac():
    inp = workloads.build_aux_closed(3)
    inp.update(grid=am.BoxGrid(L=1.5, m=2), source=(1, 1, 1),
               id_grid=am.BoxGrid(L=1.5, m=2), id_source=(0, 1, 2),
               fp_R=[10.0], fp_samples=64)   # one radius: no slope to fit
    wl = workloads.WORKLOADS["aux-closed"]
    tally = run.Tally()
    run.measure(wl, inp, 1, tally)
    assert tally.failed / tally.attempted > 0
    assert any(e.startswith("gate counterexample.slope") for e in tally.errors)
    assert not any(e.startswith("gate identity") for e in tally.errors)

    inp["source"] = (9, 9, 9)                  # off the grid: agmon_field raises
    tally = run.Tally()
    run.measure(wl, inp, 1, tally)
    assert any(e.startswith("task diag_poly") for e in tally.errors)
    assert any(e.startswith("gate diag_poly.lower_le_upper") for e in tally.errors)


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_are_valid_and_have_units(trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "aux-closed", _tiny_workload())
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    rc = run.main(["--workload", "aux-closed", "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)])
    assert rc == 0
    doc = _last_json(capsys.readouterr().out)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = doc["metrics"][m["name"]]
        assert NAME_RE.fullmatch(m["name"]), m["name"]
        assert UNIT_RE.fullmatch(got["unit"]) and got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_benchmark_json_matches_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == \
        [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in bench[k]]
    assert len(names) == len(set(names))


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "cli-all", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
