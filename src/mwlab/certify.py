"""Finite-family certifiers for the matrix weight classes.

Each certifier sweeps a cube family, reduces per-cube quantities by max or
min, and returns a :class:`CertReport` carrying the constant estimate, the
worst cube (witness), and an operational pass verdict.  Finite families
cannot certify a supremum over all cubes, so "pass" for unbounded-constant
classes means the estimate stays stable (<10% growth per step) across three
nested family refinements.  A refinement only appends a finer level to the
cube list, so the stability verdict sweeps the second refinement once and
reads the three nested estimates off prefixes of that one sweep.

Nor does a finite family certify anything about a singular point that its
cubes miss: a weight singular at the origin is tested there only by the
cubes that hold or approach the origin.  The dyadic family puts the origin
on cube corners; the random family hits it only by chance.

Certified classes and their constants:

* reverse Hoelder (``bp``): directional p-average vs average quadratic form;
* its determinant twin (``bp-det``) through reducing matrices;
* nondegeneracy (``nd``): smallest eigenvalue of cube integrals;
* quantile A-infinity (``ainf``): delta(eps) profiles;
* determinant A-infinity (``a2inf``) and its p-power variant (``apinf``);
* noncommutativity (``nc``): sandwiched averages at critical scale;
* reverse Brunn-Minkowski (``rbm``).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import auxmetric
from .cubature import (Cube, CubeFamily, adaptive_integrate,
                       khachiyan_mvee_centered)
from .errors import (ConfigError, Degenerate, DomainError, NoConvergence,
                     SingularSample)
from .ineqlab import _to_jsonable
from .weights import (MatrixWeight, cube_moments, det_radial_poly,
                      dominant_entry_poly, extreme_eigvalsh, inv_psd, sqrt_psd,
                      sqrt_sandwich, symmetrize, TOL_EIG)

CERT_TOL = 1e-4          # quadrature tolerance inside certifier sweeps
CERT_MAX_LEVEL = 5       # refinement cap for certifier quadrature
GROWTH_BUDGET = 0.10     # operational stability margin per family refinement
NC_FLOOR = 1e-3
RANDOM_DIRECTIONS = 32


@dataclass
class CertReport:
    """Outcome of one certifier sweep (possibly with nested refinements)."""

    class_name: str
    constant_estimate: float
    family: dict
    witness: dict
    passed: bool
    mode: str = ""
    details: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "class": self.class_name,
            "constant_estimate": self.constant_estimate,
            "family": self.family,
            "witness": self.witness,
            "passed": bool(self.passed),
            "mode": self.mode,
            "details": _to_jsonable(self.details),
        }


# ---------------------------------------------------------------------------
# scalarizing adapters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _EigScalarWeight(MatrixWeight):
    """1x1 weight tracking an eigenvalue (min or max) of a base weight."""

    base: MatrixWeight
    which: str = "min"

    def __post_init__(self):
        object.__setattr__(self, "n", self.base.n)
        object.__setattr__(self, "d", 1)

    @property
    def singular_at_origin(self):
        return self.base.singular_at_origin

    def eval_many(self, X):
        return extreme_eigvalsh(self.base.eval_many(X), self.which == "max")[:, None, None]

    def radial_table(self):
        poly = dominant_entry_poly(self.base, self.which)
        return None if poly is None else poly[None, None, :]

    def to_config(self):
        return {"kind": f"eig_{self.which}", "n": self.n, "d": 1,
                "base": self.base.to_config()}


@dataclass(frozen=True)
class _DetRootWeight(MatrixWeight):
    """1x1 weight det(V)^(1/d) of a base weight."""

    base: MatrixWeight

    def __post_init__(self):
        object.__setattr__(self, "n", self.base.n)
        object.__setattr__(self, "d", 1)

    @property
    def singular_at_origin(self):
        return self.base.singular_at_origin

    def eval_many(self, X):
        dets = _safe_dets(self.base.eval_many(X))
        return (np.clip(dets, 0.0, None) ** (1.0 / self.base.d))[:, None, None]

    def radial_table(self):
        # det^(1/d) stays a radial monomial when det is c * s^k with d | k
        poly = det_radial_poly(self.base)
        if poly is None:
            return None
        nz = np.nonzero(np.abs(poly) > 0)[0]
        if len(nz) != 1:
            return np.zeros((1, 1, 1)) if len(nz) == 0 else None
        k = int(nz[0])
        if k % self.base.d:
            return None
        out = np.zeros((1, 1, k // self.base.d + 1))
        out[0, 0, -1] = float(poly[k]) ** (1.0 / self.base.d)
        return out

    def to_config(self):
        return {"kind": "det_root", "n": self.n, "d": 1, "base": self.base.to_config()}


# ---------------------------------------------------------------------------
# per-cube evaluators (shared by sweeps and witness replay)
# ---------------------------------------------------------------------------


def _avg(W: MatrixWeight, cube: Cube, tol: float) -> np.ndarray:
    """Certifier-grade cube mean.  Exact when the weight has closed-form cube
    integrals (a radial table, or power terms through the engine of
    :mod:`mwlab.cubature`), with +inf entries where W is not integrable on
    the cube; otherwise adaptive quadrature, last level on overrun."""
    exact = W.exact_cube_integral_many(cube.center[None, :], cube.r)
    if exact is not None:
        return symmetrize(exact[0]) / cube.volume
    total = adaptive_integrate(W.eval_many, cube, singular=W.singular_at_origin,
                               tol=tol, max_level=CERT_MAX_LEVEL + 1).value
    return symmetrize(np.atleast_2d(total.reshape(W.d, W.d))) / cube.volume


def _diverges(avg: np.ndarray) -> bool:
    """An infinite cube mean: W is not integrable on the cube, so no constant
    of a max-type class holds there and the cube scores +inf, and no positive
    bound of a min-type class does and the cube scores 0."""
    return not np.all(np.isfinite(avg))


def _not_integrable(cubes: Sequence[Cube], finite: Sequence[bool]) -> dict:
    """The ``not_integrable`` detail, naming the cubes with an infinite mean;
    empty when there are none."""
    bad = [{"center": c.center.tolist(), "r": c.r} for c, ok in zip(cubes, finite) if not ok]
    return {"not_integrable": bad} if bad else {}


DIVERGENCE_GROWTH = 1.05   # level-to-level growth flagging a divergent integral


def _safe_dets(vals: np.ndarray) -> np.ndarray:
    """Determinants with a relative floor: analytic zeros stay zero instead
    of turning into pivoting roundoff."""
    if vals.shape[1] == 2:
        dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
    else:
        dets = np.linalg.det(vals)
    scale = np.einsum("mii->m", vals) ** vals.shape[1]
    return np.where(np.abs(dets) <= 1e-12 * np.abs(scale), 0.0, dets)


def _bp_directions(avg: np.ndarray, d: int, seed: int) -> np.ndarray:
    # eigenframe of the average plus random unit vectors guards both the
    # aligned extremal directions and everything in between
    _, vecs = np.linalg.eigh(avg)
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal((RANDOM_DIRECTIONS, d))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    return np.concatenate([vecs.T, rand])


def _poly_pow(coeffs: np.ndarray, p: int) -> np.ndarray:
    out = np.array([1.0])
    for _ in range(p):
        out = np.convolve(out, coeffs)
    return out


def _directional_p_integrals(W: MatrixWeight, cube: Cube, dirs: np.ndarray,
                             p: float, tol: float) -> np.ndarray:
    """avg_Q <W e, e>^p for each row of ``dirs``.

    Exact through the cube moments when the quadratic forms are radial
    polynomials and p is an integer; adaptive quadrature otherwise.
    """
    if float(p).is_integer() and p >= 1:
        polys = W.qform_radial_poly(dirs)
        if polys is not None:
            powed = [_poly_pow(q, int(p)) for q in polys]
            mom = cube_moments(cube.center, cube.r, len(powed[0]))[0]
            vals = np.array([float(np.dot(c, mom)) for c in powed])
            return vals / cube.volume

    def fn(X):
        vals = W.eval_many(X)
        q = np.einsum("mij,ki,kj->mk", vals, dirs, dirs)
        return np.clip(q, 0.0, None) ** p

    res = adaptive_integrate(fn, cube, singular=W.singular_at_origin, tol=tol,
                             max_level=CERT_MAX_LEVEL)
    if not res.converged and res.growth > DIVERGENCE_GROWTH:
        # refinements keep growing: the p-th power is not integrable on this
        # cube and the honest average is infinite
        return np.full(len(dirs), np.inf)
    return res.value / cube.volume


def _bp_cube(W: MatrixWeight, p: float, cube: Cube, tol: float, seed: int,
             direction: Optional[np.ndarray] = None):
    avg = _avg(W, cube, tol)
    if _diverges(avg):
        return math.inf, (direction if direction is not None else np.eye(W.d)[0])
    dirs = direction[None, :] if direction is not None else _bp_directions(avg, W.d, seed)
    dens = np.einsum("ij,ki,kj->k", avg, dirs, dirs)
    if dens.min() < 1e-14:
        raise Degenerate("average quadratic form vanished along a sampled direction")
    nums = _directional_p_integrals(W, cube, dirs, p, tol) ** (1.0 / p)
    ratios = nums / dens
    k = int(np.argmax(ratios))
    return float(ratios[k]), dirs[k]


# reducing matrices already built inside one cross_checks call, by input
_REDUCING_MEMO: contextvars.ContextVar = contextvars.ContextVar("reducing_memo", default=None)


@contextlib.contextmanager
def _shared_reducing_matrices():
    """Build each reducing matrix once inside the block (or the decorated
    call): ``bp_det`` and ``apinf`` ask for the same ones.  Nothing outlives
    the block."""
    token = _REDUCING_MEMO.set({})
    try:
        yield
    finally:
        _REDUCING_MEMO.reset(token)


def reducing_matrix_qform(W: MatrixWeight, cube: Cube, p: float, tol: float = CERT_TOL,
                          seed: int = 7) -> np.ndarray:
    """Reducing matrix of V^p at exponent 2p: wraps the norm
    e -> (avg <V e, e>^p)^(1/(2p)) in its John ellipsoid.

    The norm is sampled by quadrature to ``tol``, and the ellipsoid is solved
    to the same ``tol``: det R is within (1 + tol)^(d/2) of the John
    ellipsoid's, and |R e| <= sqrt(d) N(e) at every sampled direction."""
    memo = _REDUCING_MEMO.get()
    if memo is None:
        return _reducing_matrix_qform(W, cube, p, tol, seed)
    key = (json.dumps(W.to_config()), cube.key(), p, tol, seed)
    if key not in memo:
        memo[key] = _reducing_matrix_qform(W, cube, p, tol, seed)
    return memo[key]


def _reducing_matrix_qform(W: MatrixWeight, cube: Cube, p: float, tol: float,
                           seed: int) -> np.ndarray:
    d = W.d
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal((64 * d, d))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    dirs = np.concatenate([np.eye(d), rand])
    norms = _directional_p_integrals(W, cube, dirs, p, tol) ** (1.0 / (2.0 * p))
    if not np.all(np.isfinite(norms)):
        raise Degenerate("p-norm functional diverges on this cube")
    if norms.min() <= 1e-14:
        raise Degenerate("p-norm functional vanished along a sampled direction")
    # the norms carry quadrature error of relative order tol; the ellipsoid
    # stops at the same accuracy
    M = khachiyan_mvee_centered(dirs / norms[:, None], tol=tol)
    return symmetrize(math.sqrt(d) * sqrt_psd(M))


def _bp_det_cube(W: MatrixWeight, p: float, cube: Cube, tol: float, seed: int) -> float:
    R = reducing_matrix_qform(W, cube, p, tol=tol, seed=seed)
    avg = _avg(W, cube, tol)
    if _diverges(avg):
        return math.inf
    den = math.sqrt(max(float(np.linalg.det(avg)), 0.0))
    if den <= 1e-300:
        raise Degenerate("average has vanishing determinant")
    return float(np.linalg.det(R)) / den


def _nd_cube(W: MatrixWeight, cube: Cube, tol: float):
    avg = _avg(W, cube, tol)
    if _diverges(avg):
        return 0.0, None
    integ = avg * cube.volume
    lam = np.linalg.eigvalsh(integ)
    floor = 1e-12 * cube.volume * float(np.trace(avg)) / W.d
    return float(lam[0]), floor


def _log_det_average(W: MatrixWeight, cube: Cube, tol: float) -> float:
    bad_frac = 0.0

    def fn(X):
        dets = _safe_dets(W.eval_many(X))
        nonlocal bad_frac
        bad = dets <= 0.0
        if np.any(bad):
            bad_frac = max(bad_frac, float(np.mean(bad)))
            if bad_frac > 0.005:
                raise DomainError("det W <= 0 on a positive fraction of nodes")
            dets = np.where(bad, np.nan, dets)
        out = np.log(dets)
        return np.nan_to_num(out, nan=0.0)

    integ = adaptive_integrate(fn, cube, singular=W.singular_at_origin,
                               tol=max(tol, 1e-3), max_level=CERT_MAX_LEVEL).value
    return float(integ / cube.volume)


def _a2inf_cube(W: MatrixWeight, cube: Cube, tol: float) -> float:
    avg = _avg(W, cube, tol)
    if _diverges(avg):
        return math.inf
    det = float(np.linalg.det(avg))
    mean_log = _log_det_average(W, cube, tol)
    return det / math.exp(mean_log)


def _apinf_cube(W: MatrixWeight, p: float, cube: Cube, tol: float, seed: int) -> float:
    # determinant condition for V^p at exponent 2p:
    # det R_Q^{2p}(V^p) <= A * exp(avg ln det V^{1/2})
    R = reducing_matrix_qform(W, cube, p, tol=tol, seed=seed)
    mean_log = _log_det_average(W, cube, tol)
    return float(np.linalg.det(R)) / math.exp(0.5 * mean_log)


def _rbm_cube(W: MatrixWeight, cube: Cube, tol: float) -> float:
    avg = _avg(W, cube, tol)
    if _diverges(avg):
        return math.inf
    det = max(float(np.linalg.det(avg)), 0.0)
    lhs = det ** (1.0 / W.d)

    def fn(X):
        dets = _safe_dets(W.eval_many(X))
        if np.any(dets < 0.0):
            raise DomainError("negative determinant at a quadrature node")
        return dets ** (1.0 / W.d)

    integ = adaptive_integrate(fn, cube, singular=W.singular_at_origin,
                               tol=tol, max_level=CERT_MAX_LEVEL).value
    rhs = float(integ / cube.volume)
    if rhs <= 1e-300:
        return math.inf
    return lhs / rhs


def _ainf_cube(W: MatrixWeight, cube: Cube, eps_list: Sequence[float],
               sample_count: int, seed: int, strict: bool, tol: float):
    """(delta per eps, singular fraction of the samples).  Where the mean is
    infinite, V >= delta * avg holds for delta = 0 only, and no samples are
    drawn: the fraction is None."""
    avg = _avg(W, cube, tol)
    if _diverges(avg):
        return {float(e): 0.0 for e in eps_list}, None
    try:
        root_inv = inv_psd(sqrt_psd(avg))
    except Exception as exc:
        raise Degenerate(f"cube average is singular: {exc}") from exc
    rng = np.random.default_rng(seed)
    X = cube.center[None, :] + cube.r * rng.uniform(-1.0, 1.0, size=(sample_count, cube.n))
    vals = W.eval_many(X)
    lam = np.linalg.eigvalsh(vals)
    scale = np.maximum(lam[:, -1], 1e-300)
    singular = lam[:, 0] <= TOL_EIG * scale
    frac = float(np.mean(singular))
    if strict and frac > 0.01:
        raise SingularSample(
            f"{100 * frac:.1f}% of in-cube samples are numerically singular")
    # s(x) = largest delta with V(x) >= delta * avg, via the generalized
    # eigenvalue; equals 1/|avg^(1/2) V(x)^(-1/2)|^2 at invertible samples
    sand = root_inv @ vals @ root_inv
    s = np.clip(np.linalg.eigvalsh(sand)[:, 0], 0.0, None)
    deltas = {float(e): float(np.quantile(s, float(e), method="lower"))
              for e in eps_list}
    return deltas, frac


def _critical_cube(W: MatrixWeight, x: np.ndarray) -> Cube:
    """Q(x, 1/m_lower(x)).  Where the closed-form mean of W is infinite on the
    smallest cube about x that the aux scan tries, every larger cube about x
    contains it and has an infinite mean too, so no cube about x has a finite
    mean and x has no critical scale: that smallest cube is returned instead.
    (Quadrature never returns an infinite mean, so only closed forms are read.)"""
    r0 = auxmetric.R_BRACKET[0]
    exact = W.exact_cube_integral_many(x[None, :], r0)
    if exact is not None and _diverges(exact):
        return Cube(center=x, r=r0)
    return Cube(center=x, r=1.0 / auxmetric.aux_value(W, x, kind="lower"))


def _nc_cube(W: MatrixWeight, cube: Cube, tol: float) -> Optional[float]:
    """The smallest eigenvalue of the sandwich; None where the mean is infinite."""
    avg = _avg(W, cube, tol)
    if _diverges(avg):
        return None
    integ = avg * cube.volume
    B = inv_psd(integ)
    total = adaptive_integrate(lambda X: sqrt_sandwich(W.eval_many(X), B), cube,
                               singular=W.singular_at_origin, tol=tol,
                               max_level=CERT_MAX_LEVEL).value
    return float(np.linalg.eigvalsh(symmetrize(total))[0])


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

WITNESS_RTOL = 1e-12    # scores this close to the extreme tie for the witness


def _witness_index(scores: np.ndarray, min_type: bool) -> int:
    """The lowest index whose score is within ``WITNESS_RTOL`` relative of the
    max (the min with ``min_type``).  Congruent cubes tie mathematically, so
    their last bits must not pick the witness; an infinite or nan extreme
    ties only with equal values, and its first occurrence is taken."""
    i = int(np.argmin(scores) if min_type else np.argmax(scores))
    ext = scores[i]
    if not np.isfinite(ext):
        return i
    return int(np.argmax(np.abs(scores - ext) <= WITNESS_RTOL * abs(ext)))


def _certify(class_name: str, family: CubeFamily, per_cube: Callable[[Cube], tuple],
             stability: bool, *, min_type: bool = False, mode: str = "",
             details: Optional[dict] = None,
             summary: Optional[Callable] = None) -> CertReport:
    """One sweep: ``per_cube(cube) -> (score, extra)`` runs once on each cube.

    The estimate is the max score (the min with ``min_type``), read off the
    witness cube that :func:`_witness_index` picks among near-ties.  The sweep
    covers ``family``, or with ``stability`` its second refinement, whose cube
    list starts with the cubes of ``family.refine()`` and of ``family``, so
    the three nested estimates of the stability verdict are reductions of
    three prefixes.  The witness and the details describe the prefix of
    ``family``: ``summary(scores, extras, worst) -> (passed, details,
    witness extras)`` builds them, by default a finite estimate passes and
    the details are the scores as ``per_cube`` followed by ``details``.
    """
    fams = [family]
    for _ in range(2 if stability else 0):
        fams.append(fams[-1].refine())
    cubes = fams[-1].cubes()
    outs = [per_cube(c) for c in cubes]
    arr = np.asarray([score for score, _ in outs], dtype=float)
    sizes = [len(fam.cubes()) for fam in fams[:-1]] + [len(cubes)]
    worst = [_witness_index(arr[:k], min_type) for k in sizes]
    estimates = [float(arr[i]) for i in worst]
    est = estimates[0]
    base = outs[:sizes[0]]
    scores = [score for score, _ in base]
    if summary is None:
        passed, extra = bool(np.isfinite(est)), {}
        info = {"per_cube": scores, **(details or {})}
    else:
        passed, info, extra = summary(scores, [x for _, x in base], worst[0])
    cube = cubes[worst[0]]
    report = CertReport(
        class_name=class_name, constant_estimate=est, family=family.to_config(),
        witness={"center": cube.center.tolist(), "r": cube.r, **extra, "value": est},
        passed=passed, mode=mode, details=info)
    if stability:
        # a max-type estimate may grow by at most GROWTH_BUDGET per
        # refinement, a min-type one shrink by at most that much
        ok = all(b >= a * (1.0 - GROWTH_BUDGET) - 1e-300 if min_type
                 else b <= a * (1.0 + GROWTH_BUDGET) + 1e-300
                 for a, b in zip(estimates, estimates[1:]))
        report.details["stability_estimates"] = estimates
        report.passed = bool(passed and ok and np.isfinite(estimates[-1]))
        report.constant_estimate = estimates[-1]
    return report


def bp_constant(W: MatrixWeight, p: float, family: CubeFamily, *,
                tol: float = CERT_TOL, seed: int = 11,
                stability: bool = False) -> CertReport:
    """Reverse Hoelder constant: max over cubes and unit directions of
    (avg <We,e>^p)^(1/p) / <avg W e, e>."""
    if p <= 1:
        raise ConfigError("reverse Hoelder exponent must exceed 1")

    def summary(scores, dirs, worst):
        return (bool(np.isfinite(scores[worst])), {"per_cube": scores, "p": p, "seed": seed},
                {"direction": dirs[worst].tolist()})

    return _certify("bp", family, lambda c: _bp_cube(W, p, c, tol, seed), stability,
                    mode=f"p={p}", summary=summary)


def bp_det_check(W: MatrixWeight, p: float, family: CubeFamily, *,
                 tol: float = CERT_TOL, seed: int = 11,
                 stability: bool = False) -> CertReport:
    """Determinant-route reverse Hoelder check via reducing matrices."""
    return _certify("bp-det", family, lambda c: (_bp_det_cube(W, p, c, tol, seed), None),
                    stability, mode=f"p={p}", details={"p": p, "seed": seed, "mvee_eps": tol})


def nd_check(W: MatrixWeight, family: CubeFamily, *, tol: float = CERT_TOL) -> CertReport:
    """Nondegeneracy: cube integrals must be finite and positive definite
    (scale-aware floor); a cube where W is not integrable scores 0."""
    def summary(lams, floors, worst):
        finite = [floor is not None for floor in floors]
        passed = all(ok and lam > floor for ok, lam, floor in zip(finite, lams, floors))
        return passed, {"per_cube": lams, **_not_integrable(family.cubes(), finite)}, {}

    return _certify("nd", family, lambda c: _nd_cube(W, c, tol), False, min_type=True,
                    summary=summary)


def ainf_profile(W: MatrixWeight, eps_list: Sequence[float], family: CubeFamily, *,
                 sample_count: int = 4096, seed: int = 5, strict: bool = True,
                 tol: float = CERT_TOL, stability: bool = False) -> CertReport:
    """delta(eps) profile: per cube, the largest delta such that
    V(x) >= delta * (avg_Q V) off an eps-fraction of the cube."""
    eps_list = [float(e) for e in eps_list]

    def per_cube(c: Cube):
        deltas, frac = _ainf_cube(W, c, eps_list, sample_count, seed, strict, tol)
        return min(deltas.values()), (deltas, frac)

    def summary(scores, profiles, worst):
        delta_min = {str(e): min(deltas[e] for deltas, _ in profiles) for e in eps_list}
        fracs = [f for _, f in profiles if f is not None]
        return (bool(scores[worst] > 0.0),
                {"delta": delta_min, "singular_fraction": max(fracs, default=0.0),
                 "sample_count": sample_count, "seed": seed,
                 **_not_integrable(family.cubes(), [f is not None for _, f in profiles])},
                {})

    return _certify("ainf", family, per_cube, stability, min_type=True, summary=summary)


def a2inf_constant(W: MatrixWeight, family: CubeFamily, *, tol: float = CERT_TOL,
                   stability: bool = False) -> CertReport:
    """Determinant A-infinity constant: max of det(avg) / exp(avg ln det)."""
    return _certify("a2inf", family, lambda c: (_a2inf_cube(W, c, tol), None), stability)


def apinf_constant(W: MatrixWeight, p: float, family: CubeFamily, *,
                   tol: float = CERT_TOL, seed: int = 11,
                   stability: bool = False) -> CertReport:
    """Determinant condition for the p-th power weight at exponent 2p."""
    return _certify("apinf", family, lambda c: (_apinf_cube(W, p, c, tol, seed), None),
                    stability, mode=f"p={p}", details={"p": p, "mvee_eps": tol})


def rbm_constant(W: MatrixWeight, family: CubeFamily, *, tol: float = CERT_TOL,
                 stability: bool = False) -> CertReport:
    """Reverse Brunn-Minkowski constant: max of det(avg)^(1/d) / avg(det^(1/d))."""
    return _certify("rbm", family, lambda c: (_rbm_cube(W, c, tol), None), stability)


def nc_constant(W: MatrixWeight, centers: Optional[Sequence] = None,
                mode: str = "critical-scale", *, family: Optional[CubeFamily] = None,
                floor: float = NC_FLOOR, tol: float = CERT_TOL) -> CertReport:
    """Noncommutativity witness: min over cubes of the smallest eigenvalue of
    int_Q V^(1/2) (int_Q V)^(-1) V^(1/2).

    Default mode evaluates at critical-scale cubes Q(x, 1/m_lower(x)); the
    all-cubes mode sweeps a family instead.  A cube where W is not
    integrable scores 0, and so does a center without a critical scale.
    """
    if mode == "critical-scale":
        if centers is None:
            raise ConfigError("critical-scale mode needs centers")
        cubes = [_critical_cube(W, np.asarray(x, dtype=float)) for x in centers]
        fam_desc = {"mode": "critical-scale",
                    "centers": [np.asarray(x, dtype=float).tolist() for x in centers]}
    elif mode == "all-cubes":
        if family is None:
            raise ConfigError("all-cubes mode needs a cube family")
        cubes = family.cubes()
        fam_desc = {"mode": "all-cubes", **family.to_config()}
    else:
        raise ConfigError(f"unknown nc mode {mode!r}")
    raw = [_nc_cube(W, c, tol) for c in cubes]
    vals = [0.0 if v is None else v for v in raw]
    arr = np.asarray(vals)
    idx = _witness_index(arr, True)
    worst = cubes[idx]
    return CertReport(
        class_name="nc", constant_estimate=float(arr[idx]), family=fam_desc,
        witness={"center": worst.center.tolist(), "r": worst.r, "value": float(arr[idx])},
        passed=bool(arr[idx] >= floor), mode=mode,
        details={"per_cube": vals, "floor": floor,
                 **_not_integrable(cubes, [v is not None for v in raw])})


def replay_witness(W: MatrixWeight, report: CertReport, *, tol: float = CERT_TOL,
                   seed: int = 11) -> float:
    """Recompute the witness value recorded in a report (determinism check)."""
    cube = Cube(center=np.asarray(report.witness["center"]), r=report.witness["r"])
    name = report.class_name
    if name == "bp":
        p = report.details["p"]
        e = np.asarray(report.witness["direction"])
        val, _ = _bp_cube(W, p, cube, tol, seed, direction=e)
        return val
    if name == "bp-det":
        return _bp_det_cube(W, report.details["p"], cube, tol, seed)
    if name == "nd":
        return _nd_cube(W, cube, tol)[0]
    if name == "a2inf":
        return _a2inf_cube(W, cube, tol)
    if name == "apinf":
        return _apinf_cube(W, report.details["p"], cube, tol, seed)
    if name == "rbm":
        return _rbm_cube(W, cube, tol)
    if name == "nc":
        val = _nc_cube(W, cube, tol)
        return 0.0 if val is None else val
    raise ConfigError(f"no replay route for class {name!r}")


# ---------------------------------------------------------------------------
# cross-class implications
# ---------------------------------------------------------------------------

def _try(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except (DomainError, Degenerate, SingularSample, NoConvergence) as exc:
        return None, f"{type(exc).__name__}: {exc}"


@_shared_reducing_matrices()
def cross_checks(W: MatrixWeight, p: float, family: CubeFamily, *,
                 eps_list: Sequence[float] = (0.1, 0.25, 0.5),
                 nc_centers: Optional[Sequence] = None,
                 tol: float = CERT_TOL, seed: int = 11) -> dict:
    """Run the implied-membership matrix on one weight and record agreements.

    (i)   membership in the matrix reverse Hoelder class forces the largest
          eigenvalue into the scalar class, with constant <= d^(3-1/p) C;
    (ii)  adding the quantile A-infinity condition forces the smallest
          eigenvalue in as well;
    (iii) determinant A-infinity, the quantile profile, and
          (reverse Brunn-Minkowski + scalar A-infinity of det^(1/d)) agree
          for nondegenerate weights;
    (iv)  the p-power determinant condition holds iff both the determinant
          A-infinity and reverse Hoelder conditions hold.

    Disagreements are recorded, never raised.
    """
    d = W.d
    reports: dict = {}
    failures: dict = {}

    def run(name, fn, *args, **kwargs):
        rep, err = _try(fn, *args, **kwargs)
        reports[name] = rep
        if err is not None:
            failures[name] = err
        return rep

    run("bp", bp_constant, W, p, family, tol=tol, seed=seed, stability=True)
    run("bp_det", bp_det_check, W, p, family, tol=tol, seed=seed, stability=True)
    run("nd", nd_check, W, family, tol=tol)
    run("ainf", ainf_profile, W, eps_list, family, tol=tol, stability=True)
    run("a2inf", a2inf_constant, W, family, tol=tol, stability=True)
    run("apinf", apinf_constant, W, p, family, tol=tol, seed=seed, stability=True)
    run("rbm", rbm_constant, W, family, tol=tol, stability=True)
    run("lmax_bp", bp_constant, _EigScalarWeight(W, "max"), p, family,
        tol=tol, seed=seed, stability=True)
    run("detroot_a2inf", a2inf_constant, _DetRootWeight(W), family,
        tol=tol, stability=True)
    if nc_centers is None:
        cubes = sorted(family.cubes(), key=lambda c: -np.linalg.norm(c.center))
        nc_centers = [c.center for c in cubes[:4]] + [np.zeros(W.n)]
    run("nc", nc_constant, W, nc_centers, "critical-scale", tol=tol)

    def ok(name):
        rep = reports.get(name)
        return bool(rep is not None and rep.passed)

    checks = {}
    disagreements = []

    # (i) matrix class membership pushes the largest eigenvalue to the scalar class
    if ok("bp"):
        bound = d ** (3.0 - 1.0 / p) * reports["bp"].constant_estimate
        got = reports["lmax_bp"].constant_estimate if reports["lmax_bp"] else math.inf
        checks["norm_bp"] = {"holds": bool(ok("lmax_bp") and got <= bound * (1 + tol)),
                             "estimate": got, "bound": bound}
        if not checks["norm_bp"]["holds"]:
            disagreements.append("norm_bp")

    # (ii) smallest eigenvalue inherits the scalar class under A-infinity
    if ok("bp") and ok("ainf"):
        rep = run("lmin_bp", bp_constant, _EigScalarWeight(W, "min"), p, family,
                  tol=tol, seed=seed, stability=True)
        checks["lmin_bp"] = {"holds": bool(rep is not None and rep.passed),
                             "estimate": rep.constant_estimate if rep else math.inf}
        if not checks["lmin_bp"]["holds"]:
            disagreements.append("lmin_bp")

    # (iii) three equivalent faces of A-infinity for nondegenerate weights
    if ok("nd"):
        faces = {"a2inf": ok("a2inf"), "ainf": ok("ainf"),
                 "rbm_and_detroot": ok("rbm") and ok("detroot_a2inf")}
        agree = len(set(faces.values())) == 1
        checks["ainf_equiv"] = {"holds": agree, **faces}
        if not agree:
            disagreements.append("ainf_equiv")

    # (iv) p-power determinant condition vs (a2inf and bp)
    lhs = ok("apinf")
    rhs = ok("a2inf") and ok("bp")
    checks["power_equiv"] = {"holds": lhs == rhs, "apinf": lhs, "a2inf_and_bp": rhs}
    if not checks["power_equiv"]["holds"]:
        disagreements.append("power_equiv")

    # determinant route of the reverse Hoelder class: finiteness must agree
    # with the quadratic-form route on the same family
    if reports.get("bp") is not None and reports.get("bp_det") is not None:
        fin_bp = math.isfinite(reports["bp"].constant_estimate)
        fin_det = math.isfinite(reports["bp_det"].constant_estimate)
        checks["det_equiv"] = {"holds": fin_bp == fin_det,
                               "bp_finite": fin_bp, "bp_det_finite": fin_det}
        if not checks["det_equiv"]["holds"]:
            disagreements.append("det_equiv")

    return {"weight": W.to_config(), "p": p,
            "reports": {k: (v.to_jsonable() if v is not None else None)
                        for k, v in reports.items()},
            "errors": failures, "checks": checks, "disagreements": disagreements}
