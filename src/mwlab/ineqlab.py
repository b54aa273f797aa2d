"""Executable inequality harnesses.

Poincare ratios on cubes, the three Fefferman-Phong-type ratios on grids,
the rank-one radial failure experiment (energy ratios growing linearly in
the annulus radius), decay-envelope fits of Green fields against Agmon
distances, and the report bundle that ties experiment outputs together.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import auxmetric
from .auxmetric import AuxField, BoxGrid, DistanceField
from .cubature import Cube, adaptive_integrate, average
from .errors import ConfigError, Degenerate, InsufficientSamples
from .pde import GreenField
from .weights import (MatrixWeight, NormDiagWeight, RankOneRadialWeight,
                      inv_psd, sqrt_sandwich)


# ---------------------------------------------------------------------------
# Poincare inequality on cubes (analytic test functions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """C^1 vector field with an analytic gradient for cube quadrature."""

    u: Callable[[np.ndarray], np.ndarray]        # (M, n) -> (M, d)
    grad: Callable[[np.ndarray], np.ndarray]     # (M, n) -> (M, d, n)
    d: int
    label: str = ""


def linear_component(axis: int, comp: int, d: int, n: int = 3) -> TestFunction:
    """u = x_axis e_comp, the coordinate test function."""

    def u(X):
        out = np.zeros((X.shape[0], d))
        out[:, comp] = X[:, axis]
        return out

    def grad(X):
        out = np.zeros((X.shape[0], d, n))
        out[:, comp, axis] = 1.0
        return out

    return TestFunction(u=u, grad=grad, d=d, label=f"x{axis + 1}*e{comp + 1}")


def poincare_ratio(W: MatrixWeight, Q: Cube, u: TestFunction,
                   tol: float = 1e-6) -> float:
    """Ratio of the weighted double-difference energy to |Q|^(2/n) int |Du|^2.

    LHS integrates |V(Q)^(-1/2) V(y)^(1/2) (u(x) - u(y))|^2 over Q x Q, done
    in O(nodes) by expanding the square around the sandwich moments.
    """
    n = Q.n
    Vq = average(W, Q, tol=tol) * Q.volume
    try:
        B = inv_psd(Vq)
    except Exception as exc:
        raise Degenerate(f"cube integral of the weight is singular: {exc}") from exc

    def moments(X):
        S = sqrt_sandwich(W.eval_many(X), B)
        uy = u.u(X)
        Su = np.einsum("mij,mj->mi", S, uy)
        c = np.einsum("mi,mi->m", uy, Su)
        return np.concatenate([S.reshape(X.shape[0], -1), Su, c[:, None]], axis=1)

    d = W.d
    integ = adaptive_integrate(moments, Q, singular=W.singular_at_origin, tol=tol).value
    T = integ[: d * d].reshape(d, d)
    tau = integ[d * d: d * d + d]
    c = float(integ[-1])

    def outer(X):
        ux = u.u(X)
        quad = np.einsum("mi,ij,mj->m", ux, T, ux)
        cross = ux @ tau
        return quad - 2.0 * cross + c

    lhs = float(adaptive_integrate(outer, Q, singular=W.singular_at_origin, tol=tol).value)

    def energy(X):
        g = u.grad(X)
        return np.einsum("mdn,mdn->m", g, g)

    rhs = Q.volume ** (2.0 / n) * float(adaptive_integrate(energy, Q, tol=tol).value)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


# ---------------------------------------------------------------------------
# Fefferman-Phong ratios on grids
# ---------------------------------------------------------------------------

@dataclass
class TestFunctionField:
    """Grid-sampled vector field, compactly supported (two zero node layers)."""

    grid: BoxGrid
    values: np.ndarray            # (size, d)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != self.grid.size:
            raise ConfigError("field size does not match the grid")
        self.values = vals
        shape = self.grid.shape + (vals.shape[1],)
        arr = vals.reshape(shape)
        for axis in range(self.grid.n):
            for sl in (slice(0, 2), slice(-2, None)):
                idx = tuple(sl if t == axis else slice(None) for t in range(self.grid.n))
                if np.any(arr[idx] != 0.0):
                    raise ConfigError("test field must vanish on the outer two node layers")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def gradient(self) -> np.ndarray:
        """Centered differences; (size, d, n)."""
        g = self.grid
        arr = self.values.reshape(g.shape + (self.d,))
        grads = np.gradient(arr, g.h, axis=tuple(range(g.n)))
        if g.n == 1:
            grads = [grads]
        out = np.stack([gr.reshape(g.size, self.d) for gr in grads], axis=-1)
        return out


def bump_field(grid: BoxGrid, d: int, centers: Sequence, widths: Sequence,
               comps: Sequence[int], modulation: Optional[Sequence] = None) -> TestFunctionField:
    """Sum of separable C^1 bumps (cos^2 profile), zero near the boundary."""
    nodes = grid.nodes()
    vals = np.zeros((grid.size, d))
    for i, (c, w, comp) in enumerate(zip(centers, widths, comps)):
        c = np.asarray(c, dtype=float)
        t = np.max(np.abs(nodes - c[None, :]), axis=1) / w
        prof = np.where(t < 1.0, np.cos(0.5 * math.pi * np.clip(t, 0, 1)) ** 2, 0.0)
        if modulation is not None and modulation[i] is not None:
            k = np.asarray(modulation[i], dtype=float)
            prof = prof * np.cos(nodes @ k)
        vals[:, comp] += prof
    # enforce the compact-support contract exactly
    arr = vals.reshape(grid.shape + (d,))
    for axis in range(grid.n):
        for sl in (slice(0, 2), slice(-2, None)):
            idx = tuple(sl if t == axis else slice(None) for t in range(grid.n))
            arr[idx] = 0.0
    return TestFunctionField(grid=grid, values=arr.reshape(grid.size, d))


def test_function_library(grid: BoxGrid, d: int, count: int = 20,
                          seed: int = 3) -> list:
    """Deterministic library of bump / oscillatory compactly supported fields."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        ncent = 1 + int(rng.integers(0, 3))
        centers = rng.uniform(-grid.L / 2, grid.L / 2, size=(ncent, grid.n))
        widths = rng.uniform(grid.L / 4, grid.L / 1.5, size=ncent)
        comps = rng.integers(0, d, size=ncent)
        mods = [None if rng.random() < 0.5 else rng.uniform(-2, 2, size=grid.n)
                for _ in range(ncent)]
        out.append(bump_field(grid, d, centers, widths, comps, mods))
    return out


def fp_aux(W: MatrixWeight, grid: BoxGrid, form: str = "lower") -> AuxField:
    """The auxiliary field that the ``form`` of :func:`fp_ratio` weighs with."""
    if form in ("lower", "upper"):
        return auxmetric.aux_field(W, grid, kind=form)
    if form == "norm":
        return auxmetric.aux_field(NormDiagWeight(base=W), grid, kind="lower")
    raise ConfigError(f"unknown form {form!r}")


def fp_ratio(W: MatrixWeight, u_field: TestFunctionField, form: str = "lower",
             aux: Optional[AuxField] = None) -> float:
    """Fefferman-Phong-type ratio LHS/RHS on a grid.

    * ``lower``:  int m_lower^2 |u|^2   vs  int |Du|^2 + int <V u, u>
    * ``norm``:   int m(|V|)^2 |u|^2    vs  the same energy
    * ``upper``:  int <V u, u>          vs  int |Du|^2 + int m_upper^2 |u|^2
    """
    grid = u_field.grid
    h_n = grid.h ** grid.n
    nodes = grid.nodes()
    u = u_field.values
    if aux is None:
        aux = fp_aux(W, grid, form)
    m2 = aux.values ** 2
    usq = np.einsum("mi,mi->m", u, u)
    grads = u_field.gradient()
    energy = h_n * float(np.einsum("mdn,mdn->", grads, grads))
    Vu = np.einsum("mij,mj->mi", W.eval_many(nodes), u)
    pot = h_n * float(np.einsum("mi,mi->", u, Vu))
    if form in ("lower", "norm"):
        lhs = h_n * float(m2 @ usq)
        rhs = energy + pot
    else:
        lhs = pot
        rhs = energy + h_n * float(m2 @ usq)
    if lhs == 0.0:
        return 0.0
    if rhs == 0.0:
        raise Degenerate("vanishing energy with nonzero mass")
    return lhs / rhs


# ---------------------------------------------------------------------------
# the rank-one radial failure experiment (annulus energies, 1-D radial form)
# ---------------------------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_d(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 6.0 * t * (1.0 - t), 0.0)


def _cutoff(r: np.ndarray, R: float):
    """C^1 annulus cutoff: 1 on [R, 2R], supported in [R/2, 3R], |xi'| <= 3/R."""
    up = _smoothstep((r - 0.5 * R) / (0.5 * R))
    down = 1.0 - _smoothstep((r - 2.0 * R) / R)
    xi = up * down
    dxi = (_smoothstep_d((r - 0.5 * R) / (0.5 * R)) / (0.5 * R)) * down \
        - up * _smoothstep_d((r - 2.0 * R) / R) / R
    return xi, dxi


def counterexample_fp_failure(R_list: Sequence[float], n: int = 3,
                              control: bool = False, samples: int = 4096) -> dict:
    """Energy-ratio table for the lower Fefferman-Phong form on annuli.

    The vector field (-|x|^2, 1) annihilates the rank-one radial weight, so
    its potential energy vanishes while the mass term grows one power of R
    faster than the gradient term: the ratio scales like R.  With the
    identity weight in the same harness the potential term dominates both
    sides and the ratio flattens.
    """
    if n != 3:
        raise ConfigError("the radial harness is implemented for n = 3")
    area = 4.0 * math.pi  # |S^2|
    if control:
        def m_of_r(r):
            return np.full_like(r, 2.0 * math.sqrt(2.0))
    else:
        W = RankOneRadialWeight(n=3)

        def m_of_r(r):
            pts = np.zeros((r.shape[0], 3))
            pts[:, 0] = r
            return auxmetric.aux_values_many(W, pts, kind="lower")

    rows = []
    for R in R_list:
        r = np.linspace(0.5 * R, 3.0 * R, samples)
        xi, dxi = _cutoff(r, R)
        m_low = m_of_r(r)
        mass = (1.0 + r ** 4) * xi ** 2
        lhs = area * np.trapezoid(r ** 2 * m_low ** 2 * mass, r)
        # |D(xi * (-r^2, 1))|^2 = (xi' r^2 + 2 xi r)^2 + xi'^2
        grad_sq = (dxi * r ** 2 + 2.0 * xi * r) ** 2 + dxi ** 2
        energy = area * np.trapezoid(r ** 2 * grad_sq, r)
        pot = 0.0 if not control else area * np.trapezoid(r ** 2 * mass, r)
        rhs = energy + pot
        rows.append({"R": float(R), "lhs": float(lhs), "rhs": float(rhs),
                     "ratio": float(lhs / rhs)})
    if len(rows) >= 2:
        logs = np.log([row["R"] for row in rows])
        vals = np.log([row["ratio"] for row in rows])
        slope = float(np.polyfit(logs, vals, 1)[0])
    else:
        slope = math.nan
    return {"rows": rows, "slope": slope, "control": control}


# ---------------------------------------------------------------------------
# decay envelopes
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeFit:
    """Linear fit of ln(value * r^(n-2)) against an Agmon distance."""

    eps_hat: float
    C_hat: float
    r2: float
    n_samples: int
    dist_range: tuple
    slope: float
    intercept: float
    frac_above: Optional[float] = None

    def to_jsonable(self):
        return {"eps_hat": self.eps_hat, "C_hat": self.C_hat, "r2": self.r2,
                "n_samples": self.n_samples, "dist_range": list(self.dist_range),
                "slope": self.slope, "intercept": self.intercept,
                "frac_above": self.frac_above}


def _separations(grid_nodes: np.ndarray, pole: np.ndarray, norm: str) -> np.ndarray:
    diff = grid_nodes - pole[None, :]
    if norm == "l2":
        return np.linalg.norm(diff, axis=1)
    return np.max(np.abs(diff), axis=1)


def _admissible_mask(grid_nodes: np.ndarray, pole: np.ndarray, h: float,
                     L: float) -> np.ndarray:
    sep = np.max(np.abs(grid_nodes - pole[None, :]), axis=1)
    margin = np.max(np.abs(grid_nodes), axis=1) <= L * (1.0 - 1.0 / 6.0)
    return (sep >= 4.0 * h) & margin


def envelope_fit(green: GreenField, dist: DistanceField,
                 projector: str = "norm", e: Optional[np.ndarray] = None,
                 mode: str = "upper", min_samples: int = 50) -> EnvelopeFit:
    """Fit ln(value * |x - pole|_inf^(n-2)) ~ intercept + slope * distance.

    ``projector`` is "norm" (block operator norm, used with the lower
    distance for upper envelopes) or "qform" (quadratic form along ``e``,
    used with the upper distance for lower envelopes).  Near-pole nodes
    (< 4h) and the outer L/6 shell are excluded.  In "lower" mode the fit
    also records the 5th-percentile envelope and the fraction of samples
    above it.
    """
    grid = green.grid
    ggrid = dist.grid
    if abs(ggrid.h - grid.h) > 1e-12 or ggrid.size != grid.size:
        raise ConfigError("green field and distance field live on different grids")
    if dist.source != green.pole:
        raise ConfigError("green field and distance field have different poles")
    nodes = grid.nodes()
    pole = grid.node(green.pole)
    mask = _admissible_mask(nodes, pole, grid.h, grid.L)
    # keep the separation convention of the distance field: the prefactor
    # value * sep^(n-2) and the abscissa then share one norm
    sep = _separations(nodes, pole, dist.norm)
    if projector == "norm":
        vals = np.linalg.norm(green.blocks, ord=2, axis=(1, 2))
    elif projector == "qform":
        if e is None:
            raise ConfigError("qform projector needs a direction")
        e = np.asarray(e, dtype=float)
        e = e / np.linalg.norm(e)
        vals = np.abs(np.einsum("mij,i,j->m", green.blocks, e, e))
    else:
        raise ConfigError(f"unknown projector {projector!r}")
    keep = mask & (vals > 0) & np.isfinite(dist.values)
    if int(keep.sum()) < min_samples:
        raise InsufficientSamples(f"only {int(keep.sum())} admissible nodes")
    n = 3
    y = np.log(vals[keep] * sep[keep] ** (n - 2))
    t = dist.values[keep]
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    frac_above = None
    if mode == "lower":
        shift = float(np.quantile(y - pred, 0.05))
        envelope = pred + shift
        frac_above = float(np.mean(y >= envelope - 1e-12))
        intercept += shift
    return EnvelopeFit(eps_hat=-slope, C_hat=math.exp(intercept), r2=r2,
                       n_samples=int(keep.sum()), dist_range=(float(t.min()), float(t.max())),
                       slope=slope, intercept=intercept, frac_above=frac_above)


def difference_bound_fit(green_v: GreenField, green_0: GreenField,
                         W: MatrixWeight, alpha: float,
                         min_samples: int = 50) -> dict:
    """Small-scale difference bound: |G_V - G_0| r^(n-2) <= C (r m_upper(x))^alpha.

    Fits the log-log slope over admissible nodes with r |x - pole|-scaled
    m_upper at most 1; returns the fitted exponent, the 95th-percentile
    prefactor at that exponent, and the fraction of samples under the bound.
    """
    grid = green_v.grid
    if green_0.pole != green_v.pole:
        raise ConfigError("difference fit needs matching poles")
    nodes = grid.nodes()
    pole = grid.node(green_v.pole)
    sep = np.max(np.abs(nodes - pole[None, :]), axis=1)
    mask = _admissible_mask(nodes, pole, grid.h, grid.L)
    m_up = auxmetric.aux_values_many(W, nodes[mask], kind="upper")
    t = sep[mask] * m_up
    small = t <= 1.0
    D = np.linalg.norm(green_v.blocks[mask] - green_0.blocks[mask],
                       ord=2, axis=(1, 2)) * sep[mask]
    keep = small & (D > 0)
    if int(keep.sum()) < min_samples:
        raise InsufficientSamples(f"only {int(keep.sum())} small-scale nodes")
    lt = np.log(t[keep])
    ld = np.log(D[keep])
    A = np.stack([lt, np.ones_like(lt)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ld, rcond=None)
    fitted = float(coef[0])
    C_hat = float(np.quantile(D[keep] / t[keep] ** fitted, 0.95))
    frac = float(np.mean(D[keep] <= C_hat * t[keep] ** fitted * (1 + 1e-12)))
    return {"alpha": float(alpha), "fitted_exponent": fitted, "C_hat": C_hat,
            "frac_under_bound": frac, "n_samples": int(keep.sum())}


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

REPORT_SCHEMA = {
    "required": ["config", "results", "rows"],
    "row_fields": ["experiment", "weight", "quantity", "x", "value"],
}


class Report:
    """Aggregates experiment results into one JSON + CSV bundle.

    Rows follow the long format (experiment, weight, quantity, x, value);
    the resolved configuration is embedded verbatim for reproducibility and
    CSV output is byte-deterministic for a fixed row sequence.
    """

    def __init__(self, config: dict):
        self.config = config
        self.results: dict = {}
        self.rows: list = []

    def add_result(self, key: str, value) -> None:
        self.results[key] = value

    def add_row(self, experiment: str, weight: str, quantity: str, x, value) -> None:
        self.rows.append({"experiment": experiment, "weight": weight,
                          "quantity": quantity, "x": _fmt(x), "value": float(value)})

    def document(self) -> dict:
        return {"config": self.config, "results": _to_jsonable(self.results),
                "rows": _to_jsonable(self.rows)}

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_SCHEMA["row_fields"])
        for row in self.rows:
            writer.writerow([row["experiment"], row["weight"], row["quantity"],
                             row["x"], format(row["value"], ".12g")])
        return buf.getvalue()

    def write(self, out_dir, stem: str = "report") -> list:
        """Write ``<stem>.json`` and ``<stem>.csv``; ValueError, before
        anything is written, when the document fails :func:`validate_report`."""
        import os
        doc = self.document()
        if not validate_report(doc):
            raise ValueError("report document does not match REPORT_SCHEMA")
        os.makedirs(out_dir, exist_ok=True)
        jpath = os.path.join(out_dir, f"{stem}.json")
        cpath = os.path.join(out_dir, f"{stem}.csv")
        with open(jpath, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        with open(cpath, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.csv_text())
        return [jpath, cpath]


def validate_report(doc: dict) -> bool:
    """Whether ``doc`` has the required keys and every row exactly the row
    fields, in any order (``report.json`` is written with sorted keys)."""
    if not all(k in doc for k in REPORT_SCHEMA["required"]):
        return False
    fields = set(REPORT_SCHEMA["row_fields"])
    for row in doc["rows"]:
        if set(row) != fields:
            return False
    json.dumps(doc, allow_nan=False)
    return True


def _fmt(x) -> str:
    if isinstance(x, (list, tuple, np.ndarray)):
        return ";".join(format(float(v), ".12g") for v in np.asarray(x).ravel())
    if isinstance(x, (int, float, np.floating, np.integer)):
        return format(float(x), ".12g")
    return str(x)


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        # plain Python values, sanitized like any others
        return _to_jsonable(obj.tolist())
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    if hasattr(obj, "to_jsonable"):
        return obj.to_jsonable()
    return obj
