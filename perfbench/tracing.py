"""Span tracing of mwlab layers from outside the package.

The traced run wraps public functions and methods of ``mwlab`` with a timing
wrapper, records one span (name, start, end, parent) per call in memory, and
derives per-layer metrics from the spans afterwards.  Nothing under ``src/``
is edited: the wrapper is installed into every ``mwlab`` module namespace that
binds the function (``certify`` and ``auxmetric`` import several cubature
functions by name) and removed again by :meth:`Tracer.uninstall`.

A name that a later refactor removes is reported as missing; its metrics read
0 and the run goes on.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ROOT_SPAN = "bench.pass"


class Recorder:
    """In-memory span list; a span is [name, start, end, parent, outer, attrs].

    ``outer`` is True when no span of the same name was open at entry, so
    counters of recursive or delegating layers (a diagonal weight evaluating
    its scalar entries) count each unit of work once.
    """

    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list = []
        self._open: dict = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, depth == 0, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def drain(self) -> list:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list) -> np.ndarray:
    """Duration of each span minus the part of it that its children cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = np.array([s[2] - s[1] for s in spans], dtype=float)
    for p, kids in children.items():
        lo, hi = spans[p][1], spans[p][2]
        ivals = sorted((max(spans[k][1], lo), min(spans[k][2], hi)) for k in kids)
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in ivals:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _arg(fn: Callable, name: str, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _hook_method_rows(fn, span, args, kwargs, result):
    # rows of a weight method's first argument (points or cube centres); these
    # run thousands of times per pass, so no signature binding here
    first = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    span[5] = {"n": _rows(first)}


def _hook_psi_many(fn, span, args, kwargs, result):
    span[5] = {"none": result is None}


def _hook_adaptive(fn, span, args, kwargs, result):
    span[5] = {"converged": bool(result[1])}


def _hook_mvee(fn, span, args, kwargs, result):
    span[5] = {"n": _rows(_arg(fn, "points", args, kwargs))}


def _hook_cubes(fn, span, args, kwargs, result):
    span[5] = {"n": len(result), "keys": [c.key() for c in result]}


def _hook_reducing(fn, span, args, kwargs, result):
    a = lambda k: _arg(fn, k, args, kwargs)  # noqa: E731
    span[5] = {"key": (repr(a("W").to_config()), a("cube").key(), float(a("p")),
                       float(a("tol")), int(a("seed")))}


def _hook_aux_values(fn, span, args, kwargs, result):
    span[5] = {"n": _rows(_arg(fn, "X", args, kwargs))}


def _hook_agmon(fn, span, args, kwargs, result):
    span[5] = {"n": int(_arg(fn, "field", args, kwargs).grid.size)}


def _hook_assemble(fn, span, args, kwargs, result):
    span[5] = {"n": int(result.dof)}


def _hook_solve(fn, span, args, kwargs, result):
    span[5] = {"n": int(_arg(fn, "op", args, kwargs).dof)}


def _hook_green(fn, span, args, kwargs, result):
    span[5] = {"residual": float(result.residual)}


@dataclass(frozen=True)
class Target:
    """One traced layer: ``module`` attribute ``attr`` (``Class.method`` for a
    method of one class, ``*.method`` for that method on every mwlab class
    defining it), reported under ``name``."""

    name: str
    module: str
    attr: str
    hook: Optional[Callable] = None


CERTIFIERS = ("bp_constant", "bp_det_check", "nd_check", "ainf_profile",
              "a2inf_constant", "apinf_constant", "rbm_constant", "nc_constant")

TARGETS = (
    Target("weights.eval_many", "mwlab.weights", "*.eval_many", _hook_method_rows),
    Target("weights.exact_cube_integral_many", "mwlab.weights",
           "*.exact_cube_integral_many", _hook_method_rows),
    Target("weights.cube_even_moments_many", "mwlab.weights", "cube_even_moments_many"),
    Target("cubature.psi_many", "mwlab.cubature", "psi_many", _hook_psi_many),
    Target("cubature.adaptive_integrate", "mwlab.cubature", "adaptive_integrate",
           _hook_adaptive),
    Target("cubature.integrate_fields", "mwlab.cubature", "integrate_fields"),
    Target("cubature.khachiyan_mvee_centered", "mwlab.cubature",
           "khachiyan_mvee_centered", _hook_mvee),
    Target("cubature.CubeFamily.cubes", "mwlab.cubature", "CubeFamily.cubes", _hook_cubes),
    Target("auxmetric.aux_values_many", "mwlab.auxmetric", "aux_values_many",
           _hook_aux_values),
    Target("auxmetric.aux_field", "mwlab.auxmetric", "aux_field"),
    Target("auxmetric.agmon_field", "mwlab.auxmetric", "agmon_field", _hook_agmon),
    Target("auxmetric.save_field_binary", "mwlab.auxmetric", "save_field_binary"),
    Target("certify.cross_checks", "mwlab.certify", "cross_checks"),
    *(Target(f"certify.{c}", "mwlab.certify", c) for c in CERTIFIERS),
    Target("certify.reducing_matrix_qform", "mwlab.certify", "reducing_matrix_qform",
           _hook_reducing),
    Target("pde.assemble", "mwlab.pde", "assemble", _hook_assemble),
    Target("pde.solve", "mwlab.pde", "solve", _hook_solve),
    Target("pde.DirectSolver.factor", "mwlab.pde", "DirectSolver.__init__"),
    Target("pde.DirectSolver.solve", "mwlab.pde", "DirectSolver.solve"),
    Target("pde.green_field", "mwlab.pde", "green_field", _hook_green),
    Target("pde.resolvent_identity_check", "mwlab.pde", "resolvent_identity_check"),
    Target("pde.landscape", "mwlab.pde", "landscape"),
    Target("pde.save_green_binary", "mwlab.pde", "save_green_binary"),
    Target("ineqlab.counterexample_fp_failure", "mwlab.ineqlab",
           "counterexample_fp_failure"),
    Target("ineqlab.fp_ratio", "mwlab.ineqlab", "fp_ratio"),
    Target("ineqlab.poincare_ratio", "mwlab.ineqlab", "poincare_ratio"),
    Target("ineqlab.test_function_library", "mwlab.ineqlab", "test_function_library"),
    Target("ineqlab.Report.write", "mwlab.ineqlab", "Report.write"),
    Target("cli.run", "mwlab.cli", "run"),
    Target("cli.write_manifest", "mwlab.cli", "write_manifest"),
)


def _mwlab_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "mwlab" or k.startswith("mwlab."))]


class Tracer:
    """Installs wrappers for ``targets`` and restores the originals."""

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self.recorder = recorder
        self.targets = tuple(targets)
        self.missing: list = []
        self._patches: list = []      # (owner, attribute, original)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(idx)
            if hook is not None:
                hook(fn, rec.spans[idx], args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = _mwlab_modules()
        for t in self.targets:
            mod = sys.modules.get(t.module)
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name == "*":
                owners = [v for m in modules for v in vars(m).values()
                          if isinstance(v, type) and v.__module__ == m.__name__
                          and attr in v.__dict__]
                for cls in owners:
                    self._patch(cls, attr, self._wrap(t.name, cls.__dict__[attr], t.hook))
                if not owners:
                    self.missing.append(t.name)
                continue
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if mod is None or owner is None or attr not in vars(owner):
                self.missing.append(t.name)
                continue
            orig = vars(owner)[attr]
            wrapper = self._wrap(t.name, orig, t.hook)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metrics derived from spans, beyond <name>.calls and <name>.self_s for every
# target; each entry is (metric, unit)
DERIVED = (
    ("weights.eval_many.nodes", "count"),
    ("weights.eval_many.nodes_per_s", "1/s"),
    ("weights.exact_cube_integral_many.centers", "count"),
    ("weights.exact_cube_integral_many.centers_per_s", "1/s"),
    ("cubature.adaptive_integrate.levels_per_call", "count"),
    ("cubature.adaptive_integrate.unconverged_frac", "frac"),
    ("cubature.khachiyan_mvee_centered.points", "count"),
    ("cubature.CubeFamily.cubes.count", "count"),
    ("cubature.CubeFamily.cubes.distinct_ratio", "frac"),
    ("certify.reducing_matrix_qform.distinct_ratio", "frac"),
    ("auxmetric.aux_values_many.exact.calls", "count"),
    ("auxmetric.aux_values_many.exact.points", "count"),
    ("auxmetric.aux_values_many.exact.points_per_s", "1/s"),
    ("auxmetric.aux_values_many.exact.psi_calls_per_call", "count"),
    ("auxmetric.aux_values_many.quad.calls", "count"),
    ("auxmetric.aux_values_many.quad.points", "count"),
    ("auxmetric.aux_values_many.quad.points_per_s", "1/s"),
    ("auxmetric.agmon_field.nodes", "count"),
    ("pde.assemble.dof", "count"),
    ("pde.solve.dof", "count"),
    ("pde.green_field.residual_max", "ratio"),
)

# metrics the run adds from outside the spans
EXTRA = (
    ("cli.bundle_bytes", "B"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.missing", "count"),
)


def metric_units(targets=TARGETS) -> dict:
    units = {}
    for t in targets:
        units[f"{t.name}.calls"] = "count"
        units[f"{t.name}.self_s"] = "s"
    units[f"{ROOT_SPAN}.self_s"] = "s"
    units.update(dict(DERIVED))
    units.update(dict(EXTRA))
    return units


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den > 0 else 0.0


def layer_metrics(passes: list, targets=TARGETS) -> dict:
    """Per-layer metrics from the span lists of one or more traced passes.

    Additive metrics (calls, seconds, counts) are averaged per pass; rates and
    fractions are computed over all passes together.
    """
    npass = max(len(passes), 1)
    calls: dict = {}
    selfs: dict = {}
    acc: dict = {}

    def add(key, v):
        acc[key] = acc.get(key, 0.0) + v

    for spans in passes:
        st = self_times(spans)
        cube_keys, rm_keys = set(), set()
        nearest_aux = [-1] * len(spans)
        for i, s in enumerate(spans):
            name, t0, t1, parent, outer, attrs = s
            attrs = attrs or {}          # no attributes when the call raised
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + st[i]
            if parent >= 0:
                pname = spans[parent][0]
                nearest_aux[i] = parent if pname == "auxmetric.aux_values_many" \
                    else nearest_aux[parent]
            dur = t1 - t0
            if name == "weights.eval_many" and outer:
                add("eval_nodes", attrs.get("n", 0))
                add("eval_time", dur)
            elif name == "weights.exact_cube_integral_many" and outer:
                add("exact_centers", attrs.get("n", 0))
                add("exact_time", dur)
            elif name == "cubature.adaptive_integrate":
                # a strict call that raised did not converge either
                add("adaptive_unconv", 0.0 if attrs.get("converged") else 1.0)
            elif name == "cubature.integrate_fields" and parent >= 0 \
                    and spans[parent][0] == "cubature.adaptive_integrate":
                add("adaptive_levels", 1.0)
            elif name == "cubature.khachiyan_mvee_centered":
                add("mvee_points", attrs.get("n", 0))
            elif name == "cubature.CubeFamily.cubes":
                add("cubes_count", attrs.get("n", 0))
                cube_keys.update(attrs.get("keys", ()))
            elif name == "certify.reducing_matrix_qform" and attrs:
                rm_keys.add(attrs["key"])
            elif name == "auxmetric.agmon_field":
                add("agmon_nodes", attrs.get("n", 0))
            elif name == "pde.assemble":
                add("assemble_dof", attrs.get("n", 0))
            elif name == "pde.solve":
                add("solve_dof", attrs.get("n", 0))
            elif name == "pde.green_field":
                acc["residual_max"] = max(acc.get("residual_max", 0.0),
                                          attrs.get("residual", 0.0))
        # every pass repeats the same work, so repeats are counted within a pass
        add("cubes_distinct", len(cube_keys))
        add("rm_distinct", len(rm_keys))
        # route of each aux_values_many call: quadrature when psi_many found
        # no closed form anywhere below it
        quad = set()
        psi_under: dict = {}
        for i, s in enumerate(spans):
            if s[0] == "cubature.psi_many" and nearest_aux[i] >= 0:
                psi_under[nearest_aux[i]] = psi_under.get(nearest_aux[i], 0) + 1
                if (s[5] or {}).get("none"):
                    quad.add(nearest_aux[i])
        for i, s in enumerate(spans):
            if s[0] != "auxmetric.aux_values_many":
                continue
            route = "quad" if i in quad else "exact"
            add(f"{route}_calls", 1.0)
            add(f"{route}_points", (s[5] or {}).get("n", 0))
            add(f"{route}_time", s[2] - s[1])
            if route == "exact":
                add("exact_psi", psi_under.get(i, 0))

    get = lambda k: acc.get(k, 0.0)  # noqa: E731
    out = {}
    for t in targets:
        out[f"{t.name}.calls"] = calls.get(t.name, 0) / npass
        out[f"{t.name}.self_s"] = selfs.get(t.name, 0.0) / npass
    out[f"{ROOT_SPAN}.self_s"] = selfs.get(ROOT_SPAN, 0.0) / npass
    mvee_calls = calls.get("certify.reducing_matrix_qform", 0)
    out.update({
        "weights.eval_many.nodes": get("eval_nodes") / npass,
        "weights.eval_many.nodes_per_s": _ratio(get("eval_nodes"), get("eval_time")),
        "weights.exact_cube_integral_many.centers": get("exact_centers") / npass,
        "weights.exact_cube_integral_many.centers_per_s":
            _ratio(get("exact_centers"), get("exact_time")),
        "cubature.adaptive_integrate.levels_per_call":
            _ratio(get("adaptive_levels"), calls.get("cubature.adaptive_integrate", 0)),
        "cubature.adaptive_integrate.unconverged_frac":
            _ratio(get("adaptive_unconv"), calls.get("cubature.adaptive_integrate", 0)),
        "cubature.khachiyan_mvee_centered.points": get("mvee_points") / npass,
        "cubature.CubeFamily.cubes.count": get("cubes_count") / npass,
        "cubature.CubeFamily.cubes.distinct_ratio":
            _ratio(get("cubes_distinct"), get("cubes_count")),
        "certify.reducing_matrix_qform.distinct_ratio":
            _ratio(get("rm_distinct"), mvee_calls),
        "auxmetric.aux_values_many.exact.calls": get("exact_calls") / npass,
        "auxmetric.aux_values_many.exact.points": get("exact_points") / npass,
        "auxmetric.aux_values_many.exact.points_per_s":
            _ratio(get("exact_points"), get("exact_time")),
        "auxmetric.aux_values_many.exact.psi_calls_per_call":
            _ratio(get("exact_psi"), get("exact_calls")),
        "auxmetric.aux_values_many.quad.calls": get("quad_calls") / npass,
        "auxmetric.aux_values_many.quad.points": get("quad_points") / npass,
        "auxmetric.aux_values_many.quad.points_per_s":
            _ratio(get("quad_points"), get("quad_time")),
        "auxmetric.agmon_field.nodes": get("agmon_nodes") / npass,
        "pde.assemble.dof": get("assemble_dof") / npass,
        "pde.solve.dof": get("solve_dof") / npass,
        "pde.green_field.residual_max": get("residual_max"),
    })
    return out
