"""The benchmark's four workloads: inputs from a seed, one pass, and gates.

A pass runs a workload's tasks in order; each task calls the public
functions of one route through the lab.  A task that raises counts as one
failed operation and the pass goes on.  Gates check a pass's outputs with
the tolerances of the acceptance criteria; a gate whose task failed fails.

The workload seed picks only inputs (grid extents, source nodes, poles,
probe points).  Algorithm seeds, such as the ``seed=11`` direction seed of
``cross_checks``, stay at library defaults.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mwlab import auxmetric as am
from mwlab import certify as cf
from mwlab import cli
from mwlab import cubature as cb
from mwlab import ineqlab as il
from mwlab import pde
from mwlab import weights as mw

SQRT8 = 2.0 * math.sqrt(2.0)


def identity():
    return mw.identity_weight(n=3, d=2)


def diag_poly():
    # diag(|x|^2, |x|^4)
    return mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                        mw.PolyScalar((0.0, 0.0, 1.0))))


def power13():
    return mw.PowerWeight(A=np.array([[2.0, 0.5], [0.5, 1.0]]), gamma=np.array([1.0, 3.0]))


def rank_one():
    return mw.RankOneRadialWeight(n=3)


def _node(rng, lo: int, hi: int) -> tuple:
    """A random grid multi-index with every coordinate in [lo, hi]."""
    return tuple(int(v) for v in rng.integers(lo, hi + 1, size=3))


@dataclass(frozen=True)
class Workload:
    """A named workload; the runner adds a scratch directory as inputs["scratch"]."""

    name: str
    why: str
    build: Callable[[int], dict]                       # seed -> inputs
    tasks: tuple                                       # ((name, fn(inputs)), ...)
    gates: Callable[[dict, dict, dict], list]          # inputs, outputs, state -> [(name, fn)]
    min_passes: int = 1


# ---------------------------------------------------------------------------
# aux-closed: the closed-form route of the auxiliary-function scan
# ---------------------------------------------------------------------------

def build_aux_closed(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    m = 8
    id_m = 6
    return {
        "W": diag_poly(),
        "I": identity(),
        "grid": am.BoxGrid(L=float(rng.uniform(1.2, 1.8)), m=m),
        "source": _node(rng, 0, m),
        "id_point": rng.uniform(-2.0, 2.0, size=3),
        "id_grid": am.BoxGrid(L=float(rng.uniform(1.0, 2.0)), m=id_m),
        "id_source": _node(rng, 0, id_m),
        "fp_R": [10.0, 20.0, 40.0, 80.0],
        "fp_samples": 1024,
    }


def _aux_diag_poly(inp):
    lo = am.aux_field(inp["W"], inp["grid"], kind="lower")
    up = am.aux_field(inp["W"], inp["grid"], kind="upper")
    return {"lower": lo.values, "upper": up.values,
            "linf": am.agmon_field(lo, inp["source"], norm="linf").values,
            "l2": am.agmon_field(lo, inp["source"], norm="l2").values}


def _aux_identity(inp):
    I = inp["I"]
    fld = am.aux_field(I, inp["id_grid"], kind="lower")
    return {"m_lower": am.aux_value(I, inp["id_point"], "lower"),
            "m_upper": am.aux_value(I, inp["id_point"], "upper"),
            "dist": am.agmon_field(fld, inp["id_source"], norm="linf")}


def _aux_counterexample(inp):
    return il.counterexample_fp_failure(inp["fp_R"], samples=inp["fp_samples"])


def gates_aux_closed(inp, out, state):
    def identity_distance():
        grid, dist = inp["id_grid"], out["identity"]["dist"]
        nodes = grid.nodes()
        expect = SQRT8 * np.max(np.abs(nodes - nodes[dist.source][None, :]), axis=1)
        return float(np.max(np.abs(dist.values - expect))) <= 1e-8

    ident = lambda k: abs(out["identity"][k] - SQRT8) <= 1e-6 * SQRT8  # noqa: E731
    dp = lambda: out["diag_poly"]  # noqa: E731
    return [
        ("identity.m_lower", lambda: ident("m_lower")),
        ("identity.m_upper", lambda: ident("m_upper")),
        ("identity.agmon_exact", identity_distance),
        ("diag_poly.lower_le_upper",
         lambda: bool(np.all(dp()["lower"] <= dp()["upper"] * (1 + 1e-7)))),
        ("diag_poly.agmon_finite",
         lambda: all(np.all(np.isfinite(dp()[k])) and dp()[k].min() >= 0.0
                     for k in ("linf", "l2"))),
        ("counterexample.slope",
         lambda: 0.7 <= out["counterexample"]["slope"] <= 1.3),
    ]


# ---------------------------------------------------------------------------
# certify-quad: certifier sweeps and the quadrature route of the scan
# ---------------------------------------------------------------------------

# Per-cube MVEE cost spreads over two orders of magnitude (coefficient of
# variation about 1.7 over random cubes on power-13), so seeded families would
# make run-to-run spread exceed any usable bound.  Both families are therefore
# fixed (the random generator at its default seed); the seed picks the
# quadrature-route aux points.
POWER13_FAMILY = {"generator": "random", "box": 4.0, "count": 2,
                  "r_min": 1.0, "r_max": 2.0}
RANK_ONE_FAMILY = {"generator": "random", "box": 8.0, "count": 4,
                   "r_min": 1.0, "r_max": 4.0}
POWER13_PASS = ("bp", "nd", "ainf", "a2inf", "rbm", "nc")
RANK_ONE_PASS = ("bp", "nd")
RANK_ONE_FAIL = ("nc", "ainf", "a2inf", "rbm")


def build_certify_quad(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "P": power13(),
        "R1": rank_one(),
        "p13_family": cb.CubeFamily(**POWER13_FAMILY),
        "r1_family": cb.CubeFamily(**RANK_ONE_FAMILY),
        "points": rng.uniform(-3.5, 3.5, size=(6, 3)),
    }


def _cross_power13(inp):
    return cf.cross_checks(inp["P"], 2.0, inp["p13_family"])


def _cross_rank_one(inp):
    return cf.cross_checks(inp["R1"], 2.0, inp["r1_family"])


def _aux_quad(inp):
    return {k: am.aux_values_many(inp["P"], inp["points"], kind=k)
            for k in ("lower", "upper")}


def _passed(res: dict, key: str) -> bool:
    rep = res["reports"].get(key)
    return bool(rep and rep["passed"])


def gates_certify_quad(inp, out, state):
    p13 = lambda: out["cross_power13"]  # noqa: E731
    r1 = lambda: out["cross_rank_one"]  # noqa: E731
    aux = lambda: out["aux_quad"]  # noqa: E731
    gates = [("power13.no_disagreements", lambda: p13()["disagreements"] == []),
             ("rank_one.no_disagreements", lambda: r1()["disagreements"] == [])]
    gates += [(f"power13.{k}.passes", lambda k=k: _passed(p13(), k)) for k in POWER13_PASS]
    gates += [(f"rank_one.{k}.passes", lambda k=k: _passed(r1(), k)) for k in RANK_ONE_PASS]
    gates += [(f"rank_one.{k}.fails", lambda k=k: not _passed(r1(), k))
              for k in RANK_ONE_FAIL]
    gates += [("power13.aux_lower_le_upper",
               lambda: bool(np.all(aux()["lower"] <= aux()["upper"] * (1 + 1e-7)))),
              ("power13.aux_positive_finite",
               lambda: all(np.all(np.isfinite(v)) and v.min() > 0 for v in aux().values()))]
    return gates


# ---------------------------------------------------------------------------
# pde-green: assembly, CG and sparse LU
# ---------------------------------------------------------------------------

def build_pde_green(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n_cg, n_lu, n_land = 40, 20, 32
    mid = n_cg // 2
    x_list = []
    while len(x_list) < 2:
        x = _node(rng, 2, 10)
        if x != (6, 6, 6) and x not in x_list:
            x_list.append(x)
    step = n_land // 8
    return {
        "W": diag_poly(),
        "catalog": {"identity": identity(), "power13": power13(),
                    "diag_poly": diag_poly(), "rank_one": rank_one()},
        "cg_grid": pde.Grid3(L=3.0, N=n_cg),
        "cg_poles": [_node(rng, mid - 3, mid + 3) for _ in range(2)],
        "kernel_grid": pde.Grid3(L=2.0, N=48),
        "resolvent_grid": pde.Grid3(L=2.0, N=13),
        "resolvent_x": x_list,
        "lu_grid": pde.Grid3(L=2.0, N=n_lu),
        "lu_pole": _node(rng, n_lu // 2 - 3, n_lu // 2 + 3),
        "land_grid": pde.Grid3(L=4.0, N=n_land),
        "land_probes": [_node(rng, n_land // 2 - step, n_land // 2 + step)
                        for _ in range(2)],
    }


def _green_cg(inp):
    g = inp["cg_grid"]
    op_v = pde.assemble(inp["W"], None, g)
    op_0 = pde.assemble(None, None, g, d=2)
    return {"diag_poly": pde.green_field(op_v, inp["cg_poles"][0]).residual,
            "free": pde.green_field(op_0, inp["cg_poles"][1]).residual}


def _free_kernel(inp):
    g = inp["kernel_grid"]
    op = pde.assemble(None, None, g, d=1)
    mid = (g.N // 2,) * 3
    y0 = g.node(g.index(mid))
    return pde.green_field(op, mid, boundary_data=pde.free_space_kernel(y0, 1))


def _resolvent(inp):
    return {name: pde.resolvent_identity_check(W, inp["resolvent_grid"], (6, 6, 6),
                                               x_list=inp["resolvent_x"])
            for name, W in inp["catalog"].items()}


def _direct(inp):
    op = pde.assemble(inp["W"], None, inp["lu_grid"])
    return pde.green_field(op, inp["lu_pole"], solver=pde.DirectSolver(op)).residual


def _landscape(inp):
    op = pde.assemble(inp["W"], None, inp["land_grid"])
    return [pde.landscape(op, pr) for pr in inp["land_probes"]]


def kernel_deviation(gf) -> float:
    """Max relative deviation from 1/(4 pi r) on nodes with 5h <= r <= L/4."""
    g = gf.grid
    y0 = g.node(gf.pole)
    r = np.linalg.norm(g.nodes() - y0[None, :], axis=1)
    mask = (r >= 5 * g.h) & (r <= g.L / 4)
    if not mask.any():
        return math.inf
    kern = 1.0 / (4.0 * math.pi * r[mask])
    return float(np.max(np.abs(gf.blocks[mask, 0, 0] - kern) / kern))


def gates_pde_green(inp, out, state):
    gates = [(f"green.{k}.residual", lambda k=k: out["green_cg"][k] <= pde.SOLVE_TOL)
             for k in ("diag_poly", "free")]
    gates.append(("direct.residual", lambda: out["direct"] <= pde.SOLVE_TOL))
    gates.append(("free_kernel.deviation",
                  lambda: kernel_deviation(out["free_kernel"]) <= 0.05))
    gates += [(f"resolvent.{k}", lambda k=k: out["resolvent"][k] <= 1e-7)
              for k in inp["catalog"]]
    gates.append(("landscape.constants",
                  lambda: all(0 < r[k] < math.inf for r in out["landscape"]
                              for k in ("c_lower", "c_upper"))))
    return gates


# ---------------------------------------------------------------------------
# cli-all: the ROADMAP's end-to-end run through cli orchestration
# ---------------------------------------------------------------------------

def build_cli_all(seed: int) -> dict:
    return {"seed": seed}


def _cli_all(inp):
    out = tempfile.mkdtemp(prefix="cli-all-", dir=inp["scratch"])
    rc = cli.run(["all", "--scale", "quick", "--seed", str(inp["seed"]), "--out", out])
    return {"rc": rc, "out": out}


def bundle_digest(out_dir: str) -> tuple:
    """(sha256 per determinism-covered file, total bundle bytes); removes the bundle."""
    digests = {}
    total = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        total += len(data)
        if name == "report.csv" or name.endswith(".field"):
            digests[name] = hashlib.sha256(data).hexdigest()
    shutil.rmtree(out_dir)
    return digests, total


def gates_cli_all(inp, out, state):
    res = out.get("cli_all")
    digests = None
    if res is not None and os.path.isdir(res["out"]):
        digests, out["bundle_bytes"] = bundle_digest(res["out"])
        state.setdefault("first", digests)
    return [
        ("cli.rc", lambda: res["rc"] == 0),
        ("cli.bundle_complete",
         lambda: "report.csv" in digests and any(k.endswith(".field") for k in digests)),
        ("cli.bytes_match_first_pass", lambda: digests == state["first"]),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("aux-closed",
             "closed-form aux scan (weight moments, psi_many, ladder scan), the hottest "
             "layer; quadrature, MVEE and PDE solvers stay idle",
             build_aux_closed,
             (("diag_poly", _aux_diag_poly), ("identity", _aux_identity),
              ("counterexample", _aux_counterexample)),
             gates_aux_closed),
    Workload("certify-quad",
             "certifier sweeps: adaptive tensor quadrature, eval_many and the Khachiyan "
             "MVEE, plus the aux scan through quadrature instead of closed forms",
             build_certify_quad,
             (("cross_power13", _cross_power13), ("cross_rank_one", _cross_rank_one),
              ("aux_quad", _aux_quad)),
             gates_certify_quad),
    Workload("pde-green",
             "operator assembly, CG and sparse LU Green solves on both sides of the "
             "LU-vs-CG choice; the scan runs only inside landscape",
             build_pde_green,
             (("green_cg", _green_cg), ("free_kernel", _free_kernel),
              ("resolvent", _resolvent), ("direct", _direct), ("landscape", _landscape)),
             gates_pde_green),
    Workload("cli-all",
             "mwlab all --scale quick: the only route through cli orchestration and "
             "bundle writing (binary fields, CSV, JSON, manifest)",
             build_cli_all,
             (("cli_all", _cli_all),),
             gates_cli_all,
             min_passes=2),
)}
