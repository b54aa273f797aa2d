"""Cube geometry, adaptive tensor quadrature, cube integrals of radial
powers, scale-weighted averages, the minimum-volume ellipsoid behind reducing
matrices, and the determinant inequalities.

All averaging in the laboratory happens over axis-aligned cubes Q(x, r)
with center x and half-side r (side length 2r).  The quadrature engine is a
composite tensor rule refined adaptively until two successive levels agree.
The closed-form cube integrals of :mod:`mwlab.weights` are a second route:
``psi(method="exact")`` uses them, and the tests check them against the
quadrature.  For weights given as sums of powers of |x| they read
:func:`power_cube_integrals`, which integrates |y|^a over a batch of cubes
without adaptive refinement (Duffy's corner split, SIAM J. Numer. Anal. 19,
1982, for cubes near the singular point).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ConfigError, DomainError, NoConvergence,
                     QuadratureNonConvergence)
from .weights import MatrixWeight, cube_moments, symmetrize

QUAD_TOL = 1e-6
MAX_LEVEL = 7
_CHUNK = 1 << 19  # nodes per evaluation chunk


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube Q(center, r): half-side r, side 2r, volume (2r)^n."""

    center: np.ndarray
    r: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", c)
        if not self.r > 0:
            raise ConfigError("cube half-side must be positive")

    @property
    def n(self) -> int:
        return self.center.shape[0]

    @property
    def volume(self) -> float:
        return (2.0 * self.r) ** self.n

    def contains_origin(self) -> bool:
        return bool(np.all(np.abs(self.center) <= self.r))

    def key(self) -> tuple:
        return (tuple(round(float(c), 12) for c in self.center), round(float(self.r), 12))


@dataclass(frozen=True)
class QuadratureRule:
    """Composite tensor rule: 2^level cells per axis, midpoint or 2-node Gauss."""

    level: int = 0
    scheme: str = "gauss-legendre-tensor"

    def __post_init__(self):
        if self.scheme not in ("midpoint-tensor", "gauss-legendre-tensor"):
            raise ConfigError(f"unknown quadrature scheme {self.scheme!r}")
        if self.level < 0:
            raise ConfigError("refinement level must be nonnegative")

    @property
    def nodes_per_cell(self) -> int:
        return 1 if self.scheme == "midpoint-tensor" else 2

    def nodes_per_axis(self) -> int:
        return (1 << self.level) * self.nodes_per_cell

    def axis_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [-1, 1] for a single axis."""
        cells = 1 << self.level
        edges = np.linspace(-1.0, 1.0, cells + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 1.0 / cells
        if self.scheme == "midpoint-tensor":
            return mids, np.full(cells, 2.0 * half)
        off = half / math.sqrt(3.0)
        nodes = np.concatenate([mids - off, mids + off])
        order = np.argsort(nodes, kind="stable")
        return nodes[order], np.full(2 * cells, half)[order]


def _iter_tensor_chunks(cube: Cube, rule: QuadratureRule):
    """Yield (points (M, n), weights (M,)) chunks covering the tensor grid."""
    nodes, w1 = rule.axis_nodes()
    n = cube.n
    pts_axis = [cube.center[a] + cube.r * nodes for a in range(n)]
    wts_axis = [cube.r * w1 for _ in range(n)]
    m = nodes.shape[0]
    total = m ** n
    # split along the first axis so chunks stay below _CHUNK nodes
    per_slice = m ** (n - 1)
    step = max(1, _CHUNK // max(per_slice, 1))
    rest_pts = np.stack(np.meshgrid(*pts_axis[1:], indexing="ij"), axis=-1).reshape(-1, n - 1) \
        if n > 1 else np.zeros((1, 0))
    rest_w = np.ones(1)
    if n > 1:
        grids = np.meshgrid(*wts_axis[1:], indexing="ij")
        rest_w = np.ones_like(grids[0])
        for g in grids:
            rest_w = rest_w * g
        rest_w = rest_w.reshape(-1)
    for start in range(0, m, step):
        sl = slice(start, min(start + step, m))
        first = pts_axis[0][sl]
        k = first.shape[0]
        pts = np.empty((k * per_slice, n))
        pts[:, 0] = np.repeat(first, per_slice)
        if n > 1:
            pts[:, 1:] = np.tile(rest_pts, (k, 1))
        wts = np.repeat(wts_axis[0][sl], per_slice) * np.tile(rest_w, k)
        yield pts, wts


def integrate_fields(fn: Callable[[np.ndarray], np.ndarray], cube: Cube,
                     rule: QuadratureRule) -> np.ndarray:
    """Integrate a batched field fn(X (M, n)) -> (M, ...) over the cube."""
    acc = None
    for pts, wts in _iter_tensor_chunks(cube, rule):
        vals = np.asarray(fn(pts))
        contrib = np.tensordot(wts, vals, axes=(0, 0))
        acc = contrib if acc is None else acc + contrib
    return acc


class Integral(NamedTuple):
    """An adaptive cube integral: the value at the last level, whether two
    successive levels agreed, and their magnitude ratio (a ratio staying above
    1 signals a divergent integrand)."""

    value: np.ndarray
    converged: bool
    growth: float


def adaptive_integrate(fn, cube: Cube, *, singular: bool = False, tol: float = QUAD_TOL,
                       max_level: int = MAX_LEVEL) -> Integral:
    """Refine the tensor rule from level 1 until two successive levels agree
    to ``tol``; at ``max_level`` the last level is returned unconverged."""
    # Cell-centered midpoint nodes never touch the origin on origin-covering
    # cubes, which is what integrable singularities need.
    scheme = "midpoint-tensor" if singular and cube.contains_origin() else "gauss-legendre-tensor"
    prev = None
    growth = 1.0
    for level in range(1, max_level + 1):
        val = integrate_fields(fn, cube, QuadratureRule(level=level, scheme=scheme))
        if prev is not None:
            num = np.max(np.abs(val - prev))
            den = max(np.max(np.abs(val)), 1e-300)
            growth = np.max(np.abs(val)) / max(np.max(np.abs(prev)), 1e-300)
            if num <= tol * den:
                return Integral(val, True, growth)
        prev = val
    return Integral(prev, False, growth)


# ---------------------------------------------------------------------------
# cube integrals of |y|^a: moments, far Gauss and the corner split
# ---------------------------------------------------------------------------

_SPLIT_DIM = 3             # the corner split's closed form is three-dimensional
_SPLIT_POINTS = 12         # Gauss-Legendre points per interval of the corner split
_ENGINE_NODES = 1 << 16    # nodes per evaluation chunk of the engine


@functools.lru_cache(maxsize=None)
def _gauss01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], built on first use and
    shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    rule = (0.5 * (x + 1.0), 0.5 * w)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _is_even(a: np.ndarray) -> np.ndarray:
    return (a >= 0) & (np.mod(a, 2.0) == 0)


def _distance_to_origin(C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Euclidean distance from the origin to each closed cube Q(c_k, r_k)."""
    gap = np.maximum(np.abs(C) - r[:, None], 0.0)
    return np.sqrt(np.einsum("ki,ki->k", gap, gap))


def _far_gauss(C: np.ndarray, r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """int_Q |y|^a over cubes at distance >= r from the origin: tensor
    Gauss-Legendre.  |y|^a is analytic on an ellipse around each axis segment
    whose size grows with delta = distance / r, so an order of
    ceil(15 / asinh(delta)) + 2 keeps the error below about 1e-13 relative
    (20 points at delta = 1, 4 at delta = 1000)."""
    k, n = C.shape
    delta = _distance_to_origin(C, r) / r
    order = np.ceil(15.0 / np.arcsinh(delta)).astype(int) + 2
    out = np.empty((k, a.size))
    for q in np.unique(order):
        x, w = _gauss01(int(q))
        x = 2.0 * x - 1.0
        wt = w
        for _ in range(n - 1):
            wt = np.multiply.outer(wt, w)
        wt = wt.ravel() * 2.0 ** n
        idx = np.nonzero(order == q)[0]
        step = max(1, _ENGINE_NODES // wt.size)
        for s0 in range(0, idx.size, step):
            sel = idx[s0:s0 + step]
            ax = C[sel, :, None] + r[sel, None, None] * x      # (m, n, q)
            s = ax[:, 0] ** 2
            for j in range(1, n):
                s = (s[..., None] + (ax[:, j] ** 2).reshape((-1,) + (1,) * j + (int(q),)))
            s = s.reshape(sel.size, -1)
            for e, ae in enumerate(a):
                out[sel, e] = (s ** (0.5 * ae) * wt).sum(axis=-1) * r[sel] ** n
    return out


def _corner_boxes(C: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q(c, r) as a signed sum of at most 2^n boxes with a corner at the origin.

    Per axis, [c - r, c + r] is [0, hi] + [0, |lo|] when it straddles 0 and
    [0, far end] - [0, near end] otherwise (|y|^a is even in each
    coordinate).  Returns sides (K, 2^n, n) and signs (K, 2^n); boxes with a
    zero side get sign 0 and sides 1.
    """
    k, n = C.shape
    lo, hi = np.abs(C - r[:, None]), np.abs(C + r[:, None])
    straddle = (C - r[:, None] < 0) & (C + r[:, None] > 0)
    ends = np.stack([np.maximum(lo, hi), np.minimum(lo, hi)], axis=-1)      # (K, n, 2)
    sgn = np.stack([np.ones_like(lo), np.where(straddle, 1.0, -1.0)], axis=-1)
    pick = np.array(list(itertools.product((0, 1), repeat=n)))              # (2^n, n)
    sides = ends[:, np.arange(n), pick]                                     # (K, 2^n, n)
    signs = np.prod(sgn[:, np.arange(n), pick], axis=-1)
    dead = np.any(sides <= 0.0, axis=-1)
    signs[dead] = 0.0
    sides[dead] = 1.0
    return sides, signs


def _corner_split(C: np.ndarray, r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """int_Q |y|^a for n = 3 and a > -3, through corner boxes [0, b1]x[0, b2]x[0, b3].

    Ordering y_i / b_i cuts a box into 6 orthoschemes (k, m, m').  Scaling
    along the largest ratio (Duffy) and then along the middle one leaves

        int = b1 b2 b3 / (3 + a) sum_(k, m, m') int_0^1 G(b_k, sigma(w)) dw,
        sigma(w)^2 = b_m^2 + b_m'^2 w^2,
        G(beta, sigma) = int_0^1 t (beta^2 + t^2 sigma^2)^(a/2) dt
                       = beta^(a+2) expm1(p L) / (2 p sigma^2),

    with p = a/2 + 1 and L = log1p(sigma^2 / beta^2) (L / (2 sigma^2) at
    p = 0).  G is analytic in w except at w = +-i eta, eta = hypot(b_k, b_m)
    / b_m', so [0, 1] is cut at eta, 2 eta, 4 eta, ... below 1 and each
    interval gets 12 Gauss points: thin corner boxes cost intervals, not a
    higher order everywhere.
    """
    k = C.shape[0]
    perms = np.array(list(itertools.permutations(range(3))))               # (6, 3)
    x, w = _gauss01(_SPLIT_POINTS)
    out = np.empty((k, a.size))
    step = max(1, _ENGINE_NODES // (8 * 6 * _SPLIT_POINTS))
    for s0 in range(0, k, step):
        sides, signs = _corner_boxes(C[s0:s0 + step], r[s0:s0 + step])
        b = sides.reshape(-1, 3)
        beta, bm, bmp = (b[:, perms[:, i]].ravel() for i in range(3))
        eta = np.hypot(beta, bm) / bmp
        lev = np.maximum(0.0, np.ceil(-np.log2(eta))).astype(int)
        # interval j of an item is [0, eta] for j = 0, then [eta 2^(j-1), eta 2^j],
        # the last one ending at 1
        nint = lev + 1
        item = np.repeat(np.arange(beta.size), nint)
        j = np.arange(item.size) - np.repeat(np.cumsum(nint) - nint, nint)
        et = eta[item]
        left = np.where(j == 0, 0.0, et * np.exp2(j - 1.0))
        right = np.where(j < lev[item], et * np.exp2(j), 1.0)
        wn = left[:, None] + (right - left)[:, None] * x
        node_item = np.repeat(item, _SPLIT_POINTS)
        sig2 = (bm[item, None] ** 2 + (bmp[item, None] * wn) ** 2).ravel()
        wts = ((right - left)[:, None] * w).ravel() / (2.0 * sig2)
        beta2 = beta * beta
        L = np.log1p(sig2 / beta2[node_item])
        vol = np.prod(sides, axis=-1)
        for e, ae in enumerate(a):
            p = 0.5 * ae + 1.0
            g = L if p == 0.0 else np.expm1(p * L) / p
            per_item = np.bincount(node_item, weights=g * wts, minlength=beta.size)
            per_box = (per_item * beta2 ** p).reshape(-1, 6).sum(axis=-1)
            out[s0:s0 + step, e] = (per_box.reshape(signs.shape) * vol * signs).sum(axis=-1) \
                / (3.0 + ae)
    return out


def _subdivided(C: np.ndarray, r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """int_Q |y|^a over cubes near the origin but not holding it, for any a:
    halve every cube closer than its half-side until all pieces are far."""
    out = np.zeros((C.shape[0], a.size))
    owner = np.arange(C.shape[0])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=C.shape[1])))
    while owner.size:
        far = _distance_to_origin(C, r) >= r
        vals = _far_gauss(C[far], r[far], a)
        for e in range(a.size):
            out[:, e] += np.bincount(owner[far], weights=vals[:, e], minlength=out.shape[0])
        half = 0.5 * r[~far]
        C = (C[~far, None, :] + half[:, None, None] * signs).reshape(-1, C.shape[1])
        r = np.repeat(half, signs.shape[0])
        owner = np.repeat(owner[~far], signs.shape[0])
    return out


def power_cube_integrals(centers: np.ndarray, radii: np.ndarray,
                         exponents: np.ndarray) -> np.ndarray:
    """int_{Q(c_k, r_k)} |y|^a over a batch of cubes, shape (K, E) for
    centers (K, n), radii (K,) and E exponents.

    * Even a >= 0: :func:`mwlab.weights.cube_moments`, exact.
    * Cubes at distance >= r from the origin: a tensor Gauss-Legendre rule
      whose order comes from distance / r.
    * Every other cube (n = 3 only): :func:`_corner_split`.  For a <= -n the
      integral over a closed cube holding the origin is +inf; a cube near the
      origin that does not hold it is halved until its pieces are far.

    Each cube's value depends only on that cube and the exponent, not on the
    rest of the batch.  Accuracy is about 1e-13 relative, or better.
    """
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    k, n = C.shape
    r = np.broadcast_to(np.asarray(radii, dtype=float), (k,))
    a = np.atleast_1d(np.asarray(exponents, dtype=float))
    out = np.empty((k, a.size))
    even = _is_even(a)
    if np.any(even):
        half = (a[even] / 2).astype(int)
        out[:, even] = cube_moments(C, r, int(half.max()) + 1)[:, half]
    if np.all(even):
        return out
    odd = np.nonzero(~even)[0]
    dist = _distance_to_origin(C, r)
    far = dist >= r
    if np.any(far):
        out[np.ix_(far, odd)] = _far_gauss(C[far], r[far], a[odd])
    near = ~far
    if not np.any(near):
        return out
    if n != _SPLIT_DIM:
        raise DomainError(f"the corner split integrates in dimension {_SPLIT_DIM}, not {n}")
    holds = near & (dist == 0.0)
    split = a[odd] > -n
    if np.any(split):
        out[np.ix_(near, odd[split])] = _corner_split(C[near], r[near], a[odd[split]])
    if np.any(~split):
        out[np.ix_(holds, odd[~split])] = np.inf
        outside = near & ~holds
        if np.any(outside):
            out[np.ix_(outside, odd[~split])] = _subdivided(C[outside], r[outside],
                                                            a[odd[~split]])
    return out


def engine_terms(W: MatrixWeight):
    """W's power terms when :func:`power_cube_integrals` covers them: None
    when W has none, or when an exponent other than an even a >= 0 meets a
    dimension the corner split does not handle."""
    terms = W.power_terms()
    if terms is None or (W.n != _SPLIT_DIM and not np.all(_is_even(terms[0]))):
        return None
    return terms


def terms_cube_integrals(terms, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """int_{Q(c_k, r_k)} W, shape (K, d, d), for W = sum_j coeffs[..., j]
    |x|^exponents[j] given as ``terms``.  A zero coefficient contributes 0
    even where its power integral is +inf."""
    exps, coeffs = terms
    I = power_cube_integrals(centers, radii, exps)
    with np.errstate(invalid="ignore"):     # 0 * inf, masked out
        return np.where(coeffs != 0.0, coeffs * I[:, None, None, :], 0.0).sum(axis=-1)


def average(W: MatrixWeight, Q: Cube, tol: float = QUAD_TOL,
            max_level: int = MAX_LEVEL) -> np.ndarray:
    """Mean of the matrix weight over the cube (the barred integral).

    The level adapts until successive refinements agree to ``tol`` relative;
    QuadratureNonConvergence when they still disagree at ``max_level``.
    """
    res = adaptive_integrate(W.eval_many, Q, singular=W.singular_at_origin,
                             tol=tol, max_level=max_level)
    if not res.converged:
        raise QuadratureNonConvergence(
            f"quadrature did not stabilize to {tol:g} by level {max_level} "
            f"on cube center={Q.center}, r={Q.r}")
    return symmetrize(res.value) / Q.volume


def psi(W: MatrixWeight, x, r: float, *, method: str = "quadrature") -> np.ndarray:
    """Scale-weighted cube average r^(2-n) * int_{Q(x,r)} W.

    ``method`` selects the route: "quadrature" (the contract) or "exact"
    (closed-form cube integrals: the polynomial catalog and the weights
    given as sums of powers of |x|).
    """
    x = np.asarray(x, dtype=float)
    n = W.n
    if n < 3:
        raise DomainError("scale-weighted averages require ambient dimension >= 3")
    if r <= 0:
        raise DomainError("radius must be positive")
    if method == "exact":
        exact = W.exact_cube_integral_many(x[None, :], r)
        if exact is None:
            raise ConfigError("no closed-form cube integral for this weight")
        return symmetrize(exact[0]) * r ** (2 - n)
    if method != "quadrature":
        raise ConfigError(f"unknown psi method {method!r}")
    Q = Cube(center=x, r=r)
    return average(W, Q) * Q.volume * r ** (2 - n)


# ---------------------------------------------------------------------------
# cube families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeFamily:
    """Finite surrogate for "every cube": dyadic grid or random log-uniform.

    Families are nested under :meth:`refine`, which halves r_min and (for the
    random generator) appends freshly drawn cubes, so max-type constant
    estimates are monotone along refinements.
    """

    generator: str = "dyadic"
    box: float = 8.0
    count: int = 24
    r_min: float = 0.5
    r_max: float = 4.0
    seed: int = 1
    n: int = 3

    def __post_init__(self):
        if self.generator not in ("dyadic", "random"):
            raise ConfigError(f"unknown cube family generator {self.generator!r}")
        if not (0 < self.r_min <= self.r_max <= self.box):
            raise ConfigError("need 0 < r_min <= r_max <= box")

    def _levels(self) -> list[float]:
        levels = []
        r = self.r_max
        while r >= self.r_min * (1 - 1e-12):
            levels.append(r)
            r /= 2.0
        return levels

    @property
    def per_level(self) -> int:
        return max(1, self.count // max(len(self._levels()), 1))

    def cubes(self) -> list[Cube]:
        # built level by level so that refinements (which only append a finer
        # level) extend the family without reshuffling existing cubes
        out: list[Cube] = []
        per_level = self.per_level
        for li, r in enumerate(self._levels()):
            if self.generator == "dyadic":
                m = max(1, int(self.box // r))
                centers = [(-self.box + (2 * i + 1) * r) for i in range(m)]
                grid = [np.array(c) for c in itertools.product(centers, repeat=self.n)]
                stride = max(1, len(grid) // per_level)
                out.extend(Cube(center=g, r=r) for g in grid[::stride][:per_level])
            else:
                rng = np.random.default_rng([self.seed, li])
                for _ in range(per_level):
                    rr = math.exp(rng.uniform(math.log(r / 2.0), math.log(r)))
                    c = rng.uniform(-self.box + rr, self.box - rr, size=self.n)
                    out.append(Cube(center=c, r=rr))
        return out

    def refine(self) -> "CubeFamily":
        per_level = self.per_level
        new_levels = len(self._levels()) + 1
        return CubeFamily(generator=self.generator, box=self.box,
                          count=per_level * new_levels, r_min=self.r_min / 2.0,
                          r_max=self.r_max, seed=self.seed, n=self.n)

    def to_config(self) -> dict:
        return {"generator": self.generator, "box": self.box, "count": self.count,
                "r_min": self.r_min, "r_max": self.r_max, "seed": self.seed, "n": self.n}

    @staticmethod
    def from_config(cfg: dict) -> "CubeFamily":
        unknown = sorted(set(cfg) - {f.name for f in fields(CubeFamily)})
        if unknown:
            raise ConfigError(f"unknown cube family keys {unknown}")
        return CubeFamily(**cfg)


# ---------------------------------------------------------------------------
# minimum-volume ellipsoids
# ---------------------------------------------------------------------------

def _core_set(P: np.ndarray) -> list:
    """d rows of P chosen by successive orthogonal maximisation: each one
    maximises |p^T b| for a direction b orthogonal to the rows already chosen
    (Kumar & Yildirim, J. Optim. Theory Appl. 126, 2005)."""
    d = P.shape[1]
    Q = np.zeros((d, 0))
    picks = []
    for _ in range(d):
        C = np.eye(d) - Q @ Q.T
        b = C[:, int(np.argmax(np.linalg.norm(C, axis=0)))]
        j = int(np.argmax(np.abs(P @ b)))
        q = C @ P[j]
        Q = np.column_stack([Q, q / np.linalg.norm(q)])
        picks.append(j)
    return picks


def khachiyan_mvee_centered(points: np.ndarray, tol: float,
                            max_iter: int = 100000) -> np.ndarray:
    """Minimum-volume origin-centered ellipsoid {e : e^T M e <= 1} over +-points.

    The ellipsoid depends on each point p only through p p^T, so a row stands
    for itself and its negative: pass one row per pair.  Khachiyan's simplex
    iteration with Wolfe away steps (Todd & Yildirim, Discrete Appl. Math.
    155, 2007), started from a core set of d rows, stops once every
    kappa_i = p_i^T X^-1 p_i is at most d (1 + tol).  The volume of the
    result is then within (1 + tol)^(d/2) of the minimum, so ``tol`` is the
    relative accuracy the points themselves carry.  M is scaled by
    1 / max_i p_i^T M p_i, so every point lies inside to rounding.  Reaching
    ``max_iter`` raises :class:`NoConvergence`.  Returns M.

    Both products of an iteration are linear in p p^T, so the rows
    q_i = vec(p_i p_i^T) are formed once: X = sum_i u_i p_i p_i^T is u @ Q
    reshaped to d x d, and kappa = Q @ vec(X^-1), two matrix-vector products.
    """
    P = np.asarray(points, dtype=float)
    m, d = P.shape
    Q = (P[:, :, None] * P[:, None, :]).reshape(m, d * d)
    u = np.zeros(m)
    u[_core_set(P)] = 1.0 / d
    for _ in range(max_iter):
        Xi = np.linalg.inv((u @ Q).reshape(d, d))
        kappa = Q @ Xi.ravel()
        j_add = int(np.argmax(kappa))
        k_add = kappa[j_add]
        if k_add <= d * (1.0 + tol):
            return Xi / k_add
        support = u > 1e-14
        j_away = int(np.argmin(np.where(support, kappa, np.inf)))
        k_away = kappa[j_away]
        if k_add - d >= d - k_away:
            step = (k_add - d) / (d * (k_add - 1.0))
            u *= (1.0 - step)
            u[j_add] += step
        else:
            step = (d - k_away) / (d * (k_away - 1.0))
            step = min(step, u[j_away] / (1.0 - u[j_away]))
            u *= (1.0 + step)
            u[j_away] -= step
    raise NoConvergence(f"MVEE reached max_iter={max_iter} at max kappa/d - 1 = "
                        f"{k_add / d - 1.0:.3g} (tol {tol:g})")


# ---------------------------------------------------------------------------
# determinant inequalities
# ---------------------------------------------------------------------------

def check_hadamard(M: np.ndarray, basis: np.ndarray, slack: float = 1e-12) -> bool:
    """det M <= prod_j <M e_j, e_j> <= prod_j |M e_j| for an orthonormal basis."""
    M = symmetrize(np.asarray(M, dtype=float))
    B = np.asarray(basis, dtype=float)
    if np.max(np.abs(B @ B.T - np.eye(B.shape[0]))) > 1e-12:
        raise ConfigError("basis is not orthonormal to 1e-12")
    det = float(np.linalg.det(M))
    quad = float(np.prod(np.einsum("ij,kj,ki->k", M, B, B)))
    norms = float(np.prod(np.linalg.norm(B @ M, axis=1)))
    scale = max(abs(det), abs(quad), abs(norms), 1.0)
    return bool(det <= quad + slack * scale and quad <= norms + slack * scale)
