"""Single entry point: wires JSON experiment configs to module operations.

Every run writes a deterministic bundle into --out: report.json + report.csv
(long format), any binary fields, and a sha256 manifest.  Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical failures (the message
names the operation and the offending input).

Each subcommand is one ``STAGES`` entry: a ``(cfg, bundle)`` function, whose
docstring is its help, registered by ``@stage`` with its flags; a flag's
argparse ``dest`` names the config field it sets.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import Callable, Optional

import numpy as np

from . import auxmetric, certify, cubature, ineqlab, pde, weights
from .errors import ConfigError, InsufficientSamples, MWLabError

BUILTIN_WEIGHTS = {
    "identity": {"kind": "constant", "n": 3, "d": 2, "mat": [[1.0, 0.0], [0.0, 1.0]]},
    "rank-one-radial": {"kind": "rank_one_radial", "n": 3, "d": 2},
    "diag-poly": {"kind": "scalar_diag", "n": 3, "d": 2, "entries": [
        {"kind": "poly_scalar", "n": 3, "coeffs": [0.0, 1.0]},
        {"kind": "poly_scalar", "n": 3, "coeffs": [0.0, 0.0, 1.0]}]},
    "diag-ordered": {"kind": "scalar_diag", "n": 3, "d": 2, "entries": [
        {"kind": "poly_scalar", "n": 3, "coeffs": [0.0, 1.0]},
        {"kind": "poly_scalar", "n": 3, "coeffs": [0.0, 1.0, 1.0]}]},
    "power-13": {"kind": "power", "n": 3, "d": 2,
                 "A": [[2.0, 0.5], [0.5, 1.0]], "gamma": [1.0, 3.0]},
}


@dataclasses.dataclass
class ExperimentConfig:
    """Resolved configuration of one run; embedded verbatim in every output."""

    subcommand: str
    weight: Optional[dict] = None
    family: Optional[dict] = None
    grid: Optional[dict] = None
    seed: int = 1
    out: str = "out"
    params: dict = dataclasses.field(default_factory=dict)

    @property
    def weight_name(self) -> str:
        return self.weight.get("kind", "weight")


def _weight_cfg(spec: str) -> dict:
    if spec in BUILTIN_WEIGHTS:
        return BUILTIN_WEIGHTS[spec]
    if not os.path.exists(spec):
        raise ConfigError(f"weight descriptor {spec!r} is neither a builtin "
                          f"({', '.join(sorted(BUILTIN_WEIGHTS))}) nor a file")
    with open(spec, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"weight descriptor {spec!r} is not a JSON object")
    return cfg


def load_family(spec: str) -> cubature.CubeFamily:
    text = spec
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    try:
        return cubature.CubeFamily.from_config(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"family spec {spec!r} is neither a file nor inline JSON") from exc


def write_manifest(out_dir: str, paths: list) -> str:
    lines = []
    for p in sorted(paths):
        with open(p, "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {os.path.basename(p)}")
    mpath = os.path.join(out_dir, "manifest.txt")
    with open(mpath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return mpath


class Bundle(ineqlab.Report):
    """The report of one run plus the artifact files saved next to it."""

    def __init__(self, out: str):
        super().__init__(config={})
        self.out = out
        self.artifacts: list = []

    def save(self, name: str, saver: Callable, obj) -> None:
        path = os.path.join(self.out, name)
        saver(path, obj)
        self.artifacts.append(path)

    def add_samples(self, experiment: str, weight: str, quantity: str,
                    grid: auxmetric.BoxGrid, values: np.ndarray) -> None:
        """Rows for about 64 evenly strided nodes of a box-grid field."""
        nodes = grid.nodes()
        for i in range(0, grid.size, max(1, grid.size // 64)):
            self.add_row(experiment, weight, quantity, nodes[i], values[i])


STAGES: dict = {}   # subcommand -> stage function (cfg, bundle) -> None


def stage(name: str, *flags: tuple) -> Callable:
    """Register the decorated function as subcommand ``name`` with its flags."""
    def register(fn: Callable) -> Callable:
        fn.flags = flags
        STAGES[name] = fn
        return fn
    return register


def _list(kind: type) -> Callable:
    return lambda text: [kind(v) for v in text.split(",")]


def _grid(default: str, keys: str) -> tuple:
    """``--grid`` as comma-separated values of ``keys`` ("L,m" or "N,L")."""
    types = {"L": float, "m": int, "N": int}
    names = keys.split(",")

    def parse(text: str) -> dict:
        values = text.split(",")
        if len(values) != len(names):
            raise ConfigError(f"--grid {text!r}: expected {len(names)} values ({keys})")
        return {k: types[k](v) for k, v in zip(names, values)}
    return "--grid", dict(default=default, help=keys, type=parse)


COMMON_FLAGS = (
    ("--weight", dict(type=_weight_cfg, default="identity",
                      help="builtin name or weight-descriptor JSON file")),
    ("--out", dict(default="out")),
    ("--seed", dict(type=int, default=1)),
)
P_FLAG = ("--p", dict(dest="params.p", type=float, default=2.0))
KIND_FLAG = ("--kind", dict(dest="params.kind", default="lower", choices=["lower", "upper"]))
POLE_HELP = "i,j,k (defaults to the grid center)"
POLE_FLAG = ("--pole", dict(dest="params.pole", type=_list(int), help=POLE_HELP))


@stage("certify",
       ("--class", dict(dest="params.class", required=True,
                        choices=["bp", "bp-det", "nd", "ainf", "a2inf", "apinf", "nc",
                                 "rbm", "cross"])),
       P_FLAG,
       ("--family", dict(type=lambda spec: load_family(spec).to_config(),
                         help="cube-family JSON (file or inline)")))
def stage_certify(cfg: ExperimentConfig, out: Bundle) -> None:
    """run a class certifier over a cube family"""
    W = weights.from_config(cfg.weight)
    fam = cubature.CubeFamily.from_config(cfg.family or {"count": 16})
    cfg.family = fam.to_config()
    cls = cfg.params.get("class")
    p = float(cfg.params.get("p", 2.0))
    wname = cfg.weight_name
    if cls == "cross":
        res = certify.cross_checks(W, p, fam, seed=cfg.seed)
        out.add_result("cross", res)
        for name, rep in res["reports"].items():
            if rep is not None:
                out.add_row("certify", wname, f"{name}_estimate", "-",
                            rep["constant_estimate"])
                out.add_row("certify", wname, f"{name}_passed", "-", float(rep["passed"]))
        out.add_result("disagreements", res["disagreements"])
        return
    runner = {
        "bp": lambda: certify.bp_constant(W, p, fam, seed=cfg.seed, stability=True),
        "bp-det": lambda: certify.bp_det_check(W, p, fam, seed=cfg.seed, stability=True),
        "nd": lambda: certify.nd_check(W, fam),
        "ainf": lambda: certify.ainf_profile(W, cfg.params.get("eps", (0.1, 0.25, 0.5)),
                                             fam, seed=cfg.seed, stability=True),
        "a2inf": lambda: certify.a2inf_constant(W, fam, stability=True),
        "apinf": lambda: certify.apinf_constant(W, p, fam, seed=cfg.seed, stability=True),
        "nc": lambda: certify.nc_constant(
            W, cfg.params.get("centers") or [c.center for c in fam.cubes()[:4]]),
        "rbm": lambda: certify.rbm_constant(W, fam, stability=True),
    }.get(cls)
    if runner is None:
        raise ConfigError(f"unknown certifier class {cls!r}")
    rep = runner()
    out.add_result(cls, rep.to_jsonable())
    per_cube = rep.details.get("per_cube", [])
    cubes = fam.cubes() if len(per_cube) == len(fam.cubes()) else None
    for i, v in enumerate(per_cube):
        where = list(cubes[i].center) + [cubes[i].r] if cubes else i
        out.add_row("certify", wname, f"{cls}_per_cube", where, v)
    out.add_row("certify", wname, f"{cls}_estimate", "-", rep.constant_estimate)
    out.add_row("certify", wname, f"{cls}_passed", "-", float(rep.passed))


def _boxgrid(cfg: ExperimentConfig) -> auxmetric.BoxGrid:
    g = cfg.grid or {}
    return auxmetric.BoxGrid(L=float(g.get("L", 2.0)), m=int(g.get("m", 12)))


def _grid3(cfg: ExperimentConfig) -> pde.Grid3:
    g = cfg.grid or {}
    return pde.Grid3(L=float(g.get("L", 2.0)), N=int(g.get("N", 13)))


@stage("aux", _grid("2.0,12", "L,m"), KIND_FLAG)
def stage_aux(cfg: ExperimentConfig, out: Bundle) -> None:
    """sample an auxiliary function on a box grid"""
    grid = _boxgrid(cfg)
    kind = cfg.params.get("kind", "lower")
    fld = auxmetric.aux_field(weights.from_config(cfg.weight), grid, kind=kind)
    out.add_result("kind", kind)
    out.add_result("min", float(fld.values.min()))
    out.add_result("max", float(fld.values.max()))
    out.save(f"aux_{kind}.field", auxmetric.save_field_binary, fld)
    out.save(f"aux_{kind}.csv", auxmetric.field_to_csv, fld)
    out.add_samples("aux", cfg.weight_name, f"m_{kind}", grid, fld.values)


@stage("agmon", _grid("2.0,12", "L,m"), KIND_FLAG,
       ("--source", dict(dest="params.source", type=_list(int), help=POLE_HELP)),
       ("--norm", dict(dest="params.norm", default="linf", choices=["linf", "l2"])))
def stage_agmon(cfg: ExperimentConfig, out: Bundle) -> None:
    """geodesic distance field of an auxiliary function"""
    grid = _boxgrid(cfg)
    kind = cfg.params.get("kind", "lower")
    norm = cfg.params.get("norm", "linf")
    src = grid.index(cfg.params.get("source") or [grid.m // 2] * grid.n)
    fld = auxmetric.aux_field(weights.from_config(cfg.weight), grid, kind=kind)
    dist = auxmetric.agmon_field(fld, src, norm=norm)
    out.add_result("kind", kind)
    out.add_result("norm", norm)
    out.add_result("max_distance", float(dist.values.max()))
    out.save(f"agmon_{kind}.field", auxmetric.save_field_binary, auxmetric.AuxField(
        grid=grid, values=np.maximum(dist.values, 1e-300), kind=f"d_{kind}"))
    out.add_samples("agmon", cfg.weight_name, f"d_{kind}", grid, dist.values)


@stage("green", _grid("13,2.0", "N,L"), POLE_FLAG)
def stage_green(cfg: ExperimentConfig, out: Bundle) -> None:
    """fundamental-matrix block at one pole"""
    grid = _grid3(cfg)
    pole = tuple(int(v) for v in cfg.params.get("pole") or [grid.N // 2] * 3)
    op = pde.assemble(weights.from_config(cfg.weight), None, grid)
    gf = pde.green_field(op, pole)
    out.add_result("pole", list(pole))
    out.add_result("residual", gf.residual)
    out.save("green.field", pde.save_green_binary, gf)
    # CSV slice: the axis lines through the pole
    norms = np.linalg.norm(gf.blocks, ord=2, axis=(1, 2))
    for axis in range(3):
        for i in range(grid.N):
            idx = grid.index(pole[:axis] + (i,) + pole[axis + 1:])
            out.add_row("green", cfg.weight_name, f"norm_axis{axis}", grid.node(idx),
                        norms[idx])


@stage("decay", _grid("21,3.0", "N,L"), POLE_FLAG, P_FLAG)
def stage_decay(cfg: ExperimentConfig, out: Bundle) -> None:
    """fit decay envelopes of a Green field"""
    W = weights.from_config(cfg.weight)
    grid = _grid3(cfg)
    pole = tuple(int(v) for v in cfg.params.get("pole") or [grid.N // 2] * 3)
    op_v = pde.assemble(W, None, grid)
    op_0 = pde.assemble(None, None, grid, d=W.d)
    gv = pde.green_field(op_v, pole)
    g0 = pde.green_field(op_0, pole)
    fld = auxmetric.aux_field(W, grid.to_boxgrid(), kind="lower")
    dist = auxmetric.agmon_field(fld, gv.pole)
    fit = ineqlab.envelope_fit(gv, dist, projector="norm", mode="upper")
    q = min(float(cfg.params.get("p", 2.0)), 2.9)  # n = 3 exponent window
    alpha = 2.0 - 3.0 / q
    out.add_result("upper_fit", fit.to_jsonable())
    out.add_row("decay", cfg.weight_name, "eps_hat", "-", fit.eps_hat)
    out.add_row("decay", cfg.weight_name, "r2", "-", fit.r2)
    try:
        diff = ineqlab.difference_bound_fit(gv, g0, W, alpha)
        out.add_result("difference_fit", diff)
        out.add_row("decay", cfg.weight_name, "difference_exponent", "-",
                    diff["fitted_exponent"])
    except InsufficientSamples as exc:
        out.add_result("difference_fit", f"skipped: {exc}")


@stage("fp", _grid("2.0,12", "L,m"),
       ("--form", dict(dest="params.form", default="lower",
                       choices=["lower", "norm", "upper"])),
       ("--count", dict(dest="params.count", type=int, default=6)))
def stage_fp(cfg: ExperimentConfig, out: Bundle) -> None:
    """Fefferman-Phong-type ratios on a grid"""
    W = weights.from_config(cfg.weight)
    grid = _boxgrid(cfg)
    form = cfg.params.get("form", "lower")
    fields = ineqlab.test_function_library(grid, W.d, count=int(cfg.params.get("count", 6)),
                                           seed=cfg.seed)
    aux = ineqlab.fp_aux(W, grid, form)
    ratios = []
    for i, f in enumerate(fields):
        ratios.append(ineqlab.fp_ratio(W, f, form, aux=aux))
        out.add_row("fp", cfg.weight_name, f"ratio_{form}", i, ratios[-1])
    out.add_result("ratios", ratios)
    out.add_result("max_ratio", max(ratios))


@stage("poincare", ("--cube", dict(dest="params.cube", type=_list(float),
                                   default="0,0,0,1", help="cx,cy,cz,r")))
def stage_poincare(cfg: ExperimentConfig, out: Bundle) -> None:
    """matrix Poincare ratio on a cube"""
    W = weights.from_config(cfg.weight)
    cube_spec = cfg.params.get("cube") or [0.0, 0.0, 0.0, 1.0]
    Q = cubature.Cube(center=np.asarray(cube_spec[:3], dtype=float), r=float(cube_spec[3]))
    ratios = []
    for comp in range(W.d):
        for axis in range(3):
            u = ineqlab.linear_component(axis, comp, W.d)
            ratios.append(ineqlab.poincare_ratio(W, Q, u))
            out.add_row("poincare", cfg.weight_name, "ratio", u.label, ratios[-1])
    out.add_result("ratios", ratios)


@stage("counterexample",
       ("--R", dict(dest="params.R", type=_list(float), default="10,20,40,80")))
def stage_counterexample(cfg: ExperimentConfig, out: Bundle) -> None:
    """rank-one radial failure experiments"""
    R_list = [float(v) for v in cfg.params.get("R") or (10.0, 20.0, 40.0, 80.0)]
    res = ineqlab.counterexample_fp_failure(R_list)
    ctrl = ineqlab.counterexample_fp_failure(R_list, control=True)
    out.add_result("fp_failure", res)
    out.add_result("fp_control", ctrl)
    for wname, r in (("rank_one_radial", res), ("identity", ctrl)):
        for row in r["rows"]:
            out.add_row("counterexample", wname, "fp_ratio", row["R"], row["ratio"])
    out.add_row("counterexample", "rank_one_radial", "slope", "-", res["slope"])
    out.add_row("counterexample", "identity", "slope", "-", ctrl["slope"])


@stage("landscape", _grid("13,2.0", "N,L"),
       ("--probes", dict(dest="params.n_probes", type=int, default=3)))
def stage_landscape(cfg: ExperimentConfig, out: Bundle) -> None:
    """landscape function vs auxiliary comparands"""
    grid = _grid3(cfg)
    probes = cfg.params.get("probes")
    if probes is None:
        mid = grid.N // 2
        offsets = [(0, 0, 0), (-mid // 2, 0, 0), (0, -mid // 2, 0), (0, 0, -mid // 2),
                   (mid // 3, mid // 3, 0), (0, mid // 3, mid // 3),
                   (mid // 3, 0, mid // 3), (-mid // 3, -mid // 3, 0),
                   (0, -mid // 3, -mid // 3), (mid // 2, 0, 0)]
        count = int(cfg.params.get("n_probes", 3))
        probes = [(mid + a, mid + b, mid + c) for a, b, c in offsets[:count]]
    op = pde.assemble(weights.from_config(cfg.weight), None, grid)
    for pr in probes:
        res = pde.landscape(op, tuple(int(v) for v in pr))
        out.add_result(f"probe_{tuple(pr)}", res)
        for quantity in ("u", "c_lower", "c_upper"):
            out.add_row("landscape", cfg.weight_name, quantity, res["x"], res[quantity])


class _Catalog:
    """The steps of `all` over shared inputs; each lower aux field is computed once."""

    STEPS = ("certify", "aux", "agmon", "green", "resolvent", "fp", "poincare",
             "counterexample", "landscape")

    def __init__(self, cfg: ExperimentConfig):
        self.seed = cfg.seed
        self.quick = quick = cfg.params.get("scale", "quick") == "quick"
        self.fam = cubature.CubeFamily(generator="dyadic", box=4.0, count=8 if quick else 24,
                                       r_min=1.0 if quick else 0.5,
                                       r_max=2.0 if quick else 4.0)
        self.grid3 = pde.Grid3(L=2.0, N=13 if quick else 27)
        self.bgrid = auxmetric.BoxGrid(L=1.5, m=8 if quick else 16)
        self.W = {name.replace("-", "_"): weights.from_config(BUILTIN_WEIGHTS[name])
                  for name in ("identity", "rank-one-radial", "diag-poly")}
        self._aux: dict = {}

    def aux_lower(self, name: str) -> auxmetric.AuxField:
        if name not in self._aux:
            self._aux[name] = auxmetric.aux_field(self.W[name], self.bgrid, kind="lower")
        return self._aux[name]

    def certify(self, out: Bundle) -> None:
        for name, W in self.W.items():
            rep = certify.bp_constant(W, 2.0, self.fam, seed=self.seed)
            out.add_row("certify", name, "bp_estimate", "-", rep.constant_estimate)
            nd = certify.nd_check(W, self.fam)
            out.add_row("certify", name, "nd_estimate", "-", nd.constant_estimate)

    def aux(self, out: Bundle) -> None:
        for name in ("identity", "diag_poly"):
            fld = self.aux_lower(name)
            out.save(f"aux_{name}.field", auxmetric.save_field_binary, fld)
            out.add_row("aux", name, "m_lower_min", "-", float(fld.values.min()))
            out.add_row("aux", name, "m_lower_max", "-", float(fld.values.max()))

    def agmon(self, out: Bundle) -> None:
        dist = auxmetric.agmon_field(self.aux_lower("diag_poly"), (self.bgrid.m // 2,) * 3)
        out.add_row("agmon", "diag_poly", "max_distance", "-", float(dist.values.max()))

    def green(self, out: Bundle) -> None:
        op = pde.assemble(self.W["identity"], None, self.grid3)
        gf = pde.green_field(op, (self.grid3.N // 2,) * 3)
        out.save("green_identity.field", pde.save_green_binary, gf)
        out.add_row("green", "identity", "residual", "-", gf.residual)

    def resolvent(self, out: Bundle) -> None:
        err = pde.resolvent_identity_check(self.W["diag_poly"], pde.Grid3(L=2.0, N=13),
                                           (6, 6, 6), x_list=[(3, 3, 3), (9, 8, 7)])
        out.add_row("resolvent", "diag_poly", "max_rel_error", "-", err)

    def fp(self, out: Bundle) -> None:
        fields = ineqlab.test_function_library(self.bgrid, 2, count=3, seed=self.seed)
        aux = self.aux_lower("identity")
        for i, f in enumerate(fields):
            out.add_row("fp", "identity", "ratio_lower", i,
                        ineqlab.fp_ratio(self.W["identity"], f, "lower", aux=aux))

    def poincare(self, out: Bundle) -> None:
        Q = cubature.Cube(center=np.zeros(3), r=1.0)
        u = ineqlab.linear_component(0, 0, 2)
        out.add_row("poincare", "identity", "ratio", u.label,
                    ineqlab.poincare_ratio(self.W["identity"], Q, u))

    def counterexample(self, out: Bundle) -> None:
        Rs = [5.0, 10.0, 20.0] if self.quick else [10.0, 20.0, 40.0, 80.0]
        res = ineqlab.counterexample_fp_failure(Rs)
        out.add_row("counterexample", "rank_one_radial", "slope", "-", res["slope"])
        for row in res["rows"]:
            out.add_row("counterexample", "rank_one_radial", "fp_ratio",
                        row["R"], row["ratio"])

    def landscape(self, out: Bundle) -> None:
        op = pde.assemble(self.W["diag_poly"], None, self.grid3)
        res = pde.landscape(op, (self.grid3.N // 2,) * 3)
        out.add_row("landscape", "diag_poly", "u", res["x"], res["u"])


@stage("all",
       ("--scale", dict(dest="params.scale", default="quick", choices=["quick", "full"])),
       ("--budget", dict(dest="params.budget", type=float, default=30.0, help="minutes")))
def stage_all(cfg: ExperimentConfig, out: Bundle) -> None:
    """run the experiment catalog end-to-end"""
    # once the wall budget is spent, each later step leaves a skipped row instead
    budget = float(cfg.params.get("budget", 30.0)) * 60.0
    t0 = time.time()
    cat = _Catalog(cfg)
    for name in cat.STEPS:
        if time.time() - t0 >= budget:
            out.add_row("all", "-", f"{name}_skipped_budget", "-", 1.0)
        else:
            getattr(cat, name)(out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mwlab",
        description="Numerical laboratory for matrix-weighted Schroedinger systems")
    ap.add_argument("--config", help="JSON config file (flags override its fields)")
    sub = ap.add_subparsers(dest="subcommand")
    for name, fn in STAGES.items():
        p = sub.add_parser(name, help=fn.__doc__)
        for flag, kwargs in COMMON_FLAGS + fn.flags:
            # a flag left off the command line stays off the namespace, so
            # config_from_args can put the config file before its default
            metavar = None if "choices" in kwargs else flag.lstrip("-").upper()
            p.add_argument(flag, metavar=metavar, **{**kwargs, "default": argparse.SUPPRESS})
    return ap


# the type of each key of the config objects that flags take apart
_OBJECT_KEYS = {"--grid": {"L": float, "m": int, "N": int},
                "--family": {f.name: type(f.default)
                             for f in dataclasses.fields(cubature.CubeFamily)}}


def _json_is(value, kind: type) -> bool:
    """Whether a JSON value has a field's type: an int is also a float, and a
    bool is neither."""
    return (isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool))


def _typed(flag: str, kwargs: dict, value):
    """A config value as its flag checks one: a string through the flag's
    ``type``, as argparse passes one; a number must have that type, and each
    value of a ``--grid`` or ``--family`` object the type of its key."""
    kind = kwargs.get("type")
    if isinstance(value, str) and kind is not None:
        try:
            return kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{flag} {value!r}: {exc}") from exc
    if kind in (int, float) and not _json_is(value, kind):
        raise ConfigError(f"{flag} {value!r}: expected {kind.__name__}")
    keys = _OBJECT_KEYS.get(flag, {})
    for k, v in (value.items() if isinstance(value, dict) else ()):
        if k in keys and not _json_is(v, keys[k]):
            raise ConfigError(f"{flag} {k} {v!r}: expected {keys[k].__name__}")
    return value


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Each config field from its explicit flag, else the config file, else
    the flag's default.  A file value gets the checks of its flag (see
    ``_typed``), and a flag with choices admits only those."""
    base: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
    sub = args.subcommand or base.get("subcommand")
    if sub not in STAGES:
        raise ConfigError(f"unknown subcommand {sub!r}")
    cfg = ExperimentConfig(subcommand=sub,
                           weight=base.get("weight") or BUILTIN_WEIGHTS["identity"],
                           family=base.get("family"), grid=base.get("grid"),
                           seed=base.get("seed", 1), out=base.get("out", "out"),
                           params=dict(base.get("params", {})))
    given = vars(args)
    for flag, kwargs in COMMON_FLAGS + STAGES[sub].flags:
        dest = kwargs.get("dest", flag.lstrip("-"))
        key = dest[len("params."):] if dest.startswith("params.") else dest
        section = base.get("params", {}) if dest.startswith("params.") else base
        if dest in given:
            value = given[dest]
        elif key in section:
            value = _typed(flag, kwargs, section[key])
            if "choices" in kwargs and value not in kwargs["choices"]:
                raise ConfigError(f"{key} {value!r} in {args.config}: choose from "
                                  f"{', '.join(kwargs['choices'])}")
            if value is section[key]:
                continue  # the value stands as the file gave it
        elif kwargs.get("default") is None:
            continue
        else:
            value = _typed(flag, kwargs, kwargs["default"])
        if dest.startswith("params."):
            cfg.params[key] = value
        else:
            setattr(cfg, dest, value)
    return cfg


def run(argv=None) -> int:
    """The driver: parse, run one stage, and write its bundle and manifest."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.subcommand is None and not args.config:
            ap.print_usage(sys.stderr)
            return 2
        cfg = config_from_args(args)
        bundle = Bundle(cfg.out)
        os.makedirs(cfg.out, exist_ok=True)
        STAGES[cfg.subcommand](cfg, bundle)
        bundle.config = dataclasses.asdict(cfg)  # after the stage resolved its defaults
        write_manifest(cfg.out, bundle.write(cfg.out) + bundle.artifacts)
        return 0
    except SystemExit as exc:  # from argparse: --help or a bad flag
        return 2 if exc.code not in (0, None) else 0
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MWLabError as exc:
        print(f"numerical failure in {cfg.subcommand!r}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


def main() -> None:  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
