"""Auxiliary functions of matrix weights and their Agmon distance fields.

The auxiliary function at a point x is the reciprocal of the largest radius
r at which a criterion of the scale-weighted average Psi(x, r) stays <= 1:
the smallest eigenvalue for the lower function, the largest for the upper,
the quadratic form along a fixed unit vector for the directional variant,
and the plain value for scalar weights.  Distances integrate an auxiliary
field along lattice paths (Dijkstra on the 3^n - 1 stencil), which is exact
for constant fields in the sup-norm convention.

For a weight with a closed form (a radial table, or a constant matrix),
Psi(x, r) is a polynomial in t = r^2 whose coefficients depend only on x.
The scan computes those coefficients once per point and evaluates the
criterion from them on blocks of ladder rungs and in the bisection.  When
every off-diagonal coefficient is exactly zero, the lower and upper criteria
are the min and max of the diagonal.  Otherwise, for d = 2, a vectorized port
of LAPACK's 2x2 eigenvalue arithmetic (dsterf and dlae2) decides, with the
bits ``eigvalsh`` returns; larger d goes to ``eigvalsh``.  A weight given as
a sum of powers of |x| with other exponents (the power weights with odd
gamma, say) reads Psi from :func:`mwlab.cubature.terms_cube_integrals`, one
call per block of rungs over every point of the block, on the same ladder.
Any other weight takes the quadrature route: one adaptive integral per point
and radius, on a coarser ladder.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .cubature import Cube, adaptive_integrate, engine_terms, terms_cube_integrals
from .errors import BracketFailure, ConfigError, DomainError
from .weights import (ConstantWeight, MatrixWeight, ScalarDiagWeight, ScalarWeight,
                      cube_moment_polys, extreme_eigvalsh, symmetrize)

R_BRACKET = (1e-4, 1e4)     # global radius bracket for criterion scans
SCAN_PER_DECADE = 64        # fine scan density (last-crossing resolution)
COARSE_PER_DECADE = 16
BISECT_RTOL = 1e-8
_BLOCK_BYTES = 1 << 19       # ceiling of one block of ladder rungs (B, M, d, d)

_KINDS = ("lower", "upper", "directional")


def as_matrix_weight(v) -> MatrixWeight:
    """Wrap a scalar weight as a 1x1 matrix weight (identity on matrix weights)."""
    if isinstance(v, MatrixWeight):
        return v
    if isinstance(v, ScalarWeight):
        return ScalarDiagWeight(entries=(v,), n=v.n)
    raise ConfigError("expected a matrix or scalar weight")


# ---------------------------------------------------------------------------
# criterion evaluation
# ---------------------------------------------------------------------------

def _psi_coeffs(W: MatrixWeight, X: np.ndarray) -> Optional[np.ndarray]:
    """Coefficients of Psi(x, r) = r^(2-n) int_{Q(x,r)} W as a polynomial in
    t = r^2 over an (M, n) batch of points, shape (M, d, d, D) for the powers
    t^1 .. t^D; None when the weight has no closed form.

    With the moment polynomials int_Q |y|^(2k) = r^n P_k(t) of
    :func:`mwlab.weights.cube_moment_polys`, Psi = t sum_k W_k P_k(t) for the
    radial table W_k of the weight.  Every term is nonnegative.
    """
    m, n = X.shape
    if isinstance(W, ConstantWeight):   # no radial table: (2r)^n mat r^(2-n)
        return np.broadcast_to((2.0 ** n * W.mat)[None, :, :, None], (m, W.d, W.d, 1))
    table = W.radial_table()
    if table is None:
        return None
    return np.einsum("ijk,mkl->mijl", table, cube_moment_polys(X, table.shape[2]))


def _horner(C: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_l C[..., l] t^(l+1) for coefficients C of shape (M, ..., D) and t
    of shape (B, M) or (B, 1); the result has shape (B, M, ...)."""
    t = t.reshape(t.shape + (1,) * (C.ndim - 2))
    v = C[..., -1] * t
    for l in range(C.shape[-1] - 2, -1, -1):
        v += C[..., l]      # in place: one block-sized array at a time
        v *= t
    return v


def _matrix_criterion(P: np.ndarray, kind: str, e: Optional[np.ndarray]) -> np.ndarray:
    if kind == "directional":
        return np.einsum("...ij,i,j->...", P, e, e)
    return extreme_eigvalsh(P, kind == "upper")


def _poly_criterion(C: np.ndarray, kind: str, e: Optional[np.ndarray]):
    """The criterion as a function of radii r of shape (B, M) or (B, 1),
    read off the coefficients C of :func:`_psi_coeffs`.

    The directional kind evaluates the coefficients of <Psi e, e>.  When every
    off-diagonal coefficient is exactly zero, the extreme eigenvalue is the
    min or max of the diagonal.  Otherwise :func:`_matrix_criterion` decides,
    through ``weights._eig2`` for d = 2: the textbook h +- hypot((a - c)/2, b)
    cancels on rank-one lower, and LAPACK's own arithmetic keeps its bits.
    """
    if kind == "directional":
        q = np.einsum("mijl,i,j->ml", C, e, e)
        return lambda r: _horner(q, r * r)
    if not np.any(C[:, ~np.eye(C.shape[1], dtype=bool)]):
        diag = np.einsum("miil->mil", C)
        pick = np.min if kind == "lower" else np.max
        return lambda r: pick(_horner(diag, r * r), axis=-1)
    return lambda r: _matrix_criterion(_horner(C, r * r), kind, e)


def _terms_criterion(terms, X: np.ndarray, kind: str, e: Optional[np.ndarray]):
    """The criterion from the cube integrals of a weight's power terms: each
    block of rungs and points is one batch of cubes.  Psi(x, r) depends only
    on x and r, so every criterion kind sees the same values."""
    m, n = X.shape

    def crit(r):
        r = np.broadcast_to(r, (r.shape[0], m))
        centers = np.broadcast_to(X, r.shape + (n,)).reshape(-1, n)
        P = terms_cube_integrals(terms, centers, r.ravel())
        P *= (r.ravel() ** (2 - n))[:, None, None]
        return _matrix_criterion(P.reshape(r.shape + P.shape[1:]), kind, e)
    return crit


def _quad_criterion(W: MatrixWeight, X: np.ndarray, kind: str, e: Optional[np.ndarray]):
    """The criterion for weights without closed-form cube integrals, from
    per-point adaptive quadrature at tolerance 1e-3 and level cap 3."""
    n = W.n

    def crit(r):
        r = np.broadcast_to(r, (r.shape[0], X.shape[0]))
        P = np.empty(r.shape + (W.d, W.d))
        for b, i in np.ndindex(r.shape):
            ri = float(r[b, i])
            total = adaptive_integrate(W.eval_many, Cube(center=X[i], r=ri),
                                       singular=W.singular_at_origin,
                                       tol=1e-3, max_level=3).value
            P[b, i] = symmetrize(total) * ri ** (2 - n)
        return _matrix_criterion(P, kind, e)
    return crit


def aux_values_many(W, X: np.ndarray, kind: str = "lower",
                    e: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized auxiliary function over an (M, n) batch of points.

    The defining radius is the supremum of the set where the criterion stays
    <= 1, located as the last downward crossing of a geometric ladder (the
    set need not be an interval) and then sharpened by bisection.
    """
    W = as_matrix_weight(W)
    if W.n < 3:
        raise DomainError("auxiliary functions require ambient dimension >= 3")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if kind not in _KINDS:
        raise ConfigError(f"unknown auxiliary kind {kind!r}")
    if kind == "directional":
        if e is None:
            raise ConfigError("directional queries need a unit vector")
        e = np.asarray(e, dtype=float)
        e = e / np.linalg.norm(e)
    coeffs = _psi_coeffs(W, X)
    terms = engine_terms(W) if coeffs is None else None
    if coeffs is not None:
        crit, density = _poly_criterion(coeffs, kind, e), SCAN_PER_DECADE
    elif terms is not None:
        crit, density = _terms_criterion(terms, X, kind, e), SCAN_PER_DECADE
    else:
        crit, density = _quad_criterion(W, X, kind, e), COARSE_PER_DECADE
    lo, hi = R_BRACKET
    decades = math.log10(hi / lo)
    ladder = np.geomspace(lo, hi, int(round(decades * density)) + 1)

    m = X.shape[0]
    left = np.full(m, -1)          # ladder index of the last (<=1 -> >1) flip
    below_any = np.zeros(m, dtype=bool)
    prev = np.zeros(m, dtype=bool)  # criterion <= 1 on the rung before the block
    block = max(1, _BLOCK_BYTES // (8 * max(m, 1) * W.d * W.d))
    for start in range(0, ladder.size, block):
        le = crit(ladder[start:start + block, None]) <= 1.0
        below_any |= le.any(axis=0)
        rows = np.concatenate([prev[None], le])
        flip = rows[:-1] & ~rows[1:]        # flip[k]: from rung start - 1 + k
        last = flip.shape[0] - 1 - np.argmax(flip[::-1], axis=0)
        left = np.where(flip.any(axis=0), start - 1 + last, left)
        prev = le[-1]
    if np.any(prev):  # criterion still <= 1 at the top rung: sup escapes bracket
        j = int(np.argmax(prev))
        raise BracketFailure(
            f"criterion <= 1 at r_max={hi:g} for x={X[j]}; enlarge the bracket")
    if np.any(~below_any):
        j = int(np.argmax(~below_any))
        raise BracketFailure(
            f"criterion never dipped <= 1 inside [{lo:g}, {hi:g}] for x={X[j]}")

    r_lo = ladder[left]
    r_hi = ladder[left + 1]
    # every route keeps its Psi(x, r) through bisection: all criterion kinds
    # then see the same deterministic values, which is what makes the
    # lower/directional/upper ordering exact by construction
    it = int(math.ceil(math.log2(math.log(ladder[1] / ladder[0]) / BISECT_RTOL))) + 2
    for _ in range(it):
        mids = np.sqrt(r_lo * r_hi)
        le = crit(mids[None, :])[0] <= 1.0
        r_lo = np.where(le, mids, r_lo)
        r_hi = np.where(le, r_hi, mids)
    return 1.0 / np.sqrt(r_lo * r_hi)


def aux_value(W, x, kind: str = "lower", e: Optional[np.ndarray] = None) -> float:
    """Auxiliary function of a matrix or scalar weight at a single point."""
    return float(aux_values_many(W, np.asarray(x, dtype=float)[None, :], kind=kind, e=e)[0])


# ---------------------------------------------------------------------------
# fields on box grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxGrid:
    """Uniform grid on [-L, L]^n with m intervals (m + 1 nodes) per axis."""

    L: float
    m: int
    n: int = 3

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError("need at least two intervals per axis")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.m

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.m + 1)

    @property
    def shape(self) -> tuple:
        return (self.m + 1,) * self.n

    @property
    def size(self) -> int:
        return (self.m + 1) ** self.n

    def nodes(self) -> np.ndarray:
        grids = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def index(self, multi) -> int:
        """Flat C-order index of a node; ConfigError when it is off the grid."""
        multi = tuple(int(i) for i in multi)
        if len(multi) != self.n or not all(0 <= i <= self.m for i in multi):
            raise ConfigError(f"node index {list(multi)} is off the grid of shape {self.shape}")
        return int(np.ravel_multi_index(multi, self.shape))

    def node(self, idx: int) -> np.ndarray:
        multi = np.unravel_index(idx, self.shape)
        ax = self.axis
        return np.array([ax[i] for i in multi])


@dataclass
class AuxField:
    """Auxiliary-function values sampled on a box grid."""

    grid: BoxGrid
    values: np.ndarray            # flat, C-order over the grid shape
    kind: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.shape[0] != self.grid.size:
            raise ConfigError("field size does not match the grid")
        if not np.all(np.isfinite(vals)) or vals.min() <= 0:
            raise ConfigError("auxiliary values must be positive and finite")
        self.values = vals


@dataclass
class DistanceField:
    """Single-source geodesic distances for the metric m(x) |dx|."""

    grid: BoxGrid
    source: int                   # flat node index
    values: np.ndarray
    kind: str
    norm: str = "linf"


def aux_field(W, grid: BoxGrid, kind: str = "lower",
              e: Optional[np.ndarray] = None) -> AuxField:
    """Node-wise auxiliary function over a box grid."""
    vals = aux_values_many(W, grid.nodes(), kind=kind, e=e)
    return AuxField(grid=grid, values=vals, kind=kind)


def agmon_field(field: AuxField, source, norm: str = "linf") -> DistanceField:
    """Shortest-path distance from a source node in the metric m(x)|dx|.

    Lattice graph with the full 3^n - 1 neighbor stencil; edge cost is the
    endpoint average of m times the step length in the chosen norm.  In the
    sup-norm convention every stencil step has length h, so constant fields
    give exactly m * |x - y|_inf.
    """
    grid = field.grid
    if isinstance(source, (tuple, list, np.ndarray)):
        source = grid.index(source)
    shape = grid.shape
    h = grid.h
    vals = field.values.reshape(shape)
    rows, cols, costs = [], [], []
    idx = np.arange(grid.size).reshape(shape)
    for off in itertools.product((-1, 0, 1), repeat=grid.n):
        # visit each undirected edge once; the zero offset is no edge
        if off <= (0,) * grid.n:
            continue
        src_sl = tuple(slice(None, -1) if o == 1 else slice(1, None) if o == -1
                       else slice(None) for o in off)
        dst_sl = tuple(slice(1, None) if o == 1 else slice(None, -1) if o == -1
                       else slice(None) for o in off)
        a = idx[src_sl].ravel()
        b = idx[dst_sl].ravel()
        if norm == "linf":
            step = h
        elif norm == "l2":
            step = h * math.sqrt(sum(o * o for o in off))
        else:
            raise ConfigError(f"unknown path norm {norm!r}")
        w = 0.5 * (field.values[a] + field.values[b]) * step
        rows.append(a)
        cols.append(b)
        costs.append(w)
    graph = coo_matrix((np.concatenate(costs),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(grid.size, grid.size))
    dist = _csgraph_dijkstra(graph.tocsr(), directed=False, indices=source)
    return DistanceField(grid=grid, source=int(source), values=dist,
                         kind=field.kind, norm=norm)


# ---------------------------------------------------------------------------
# slow variation and close-pair diagnostics
# ---------------------------------------------------------------------------

def _sample_pairs(grid: BoxGrid, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, grid.size, size=(count, 2))


def slow_variation_check(field: AuxField, pairs: Optional[np.ndarray] = None,
                         count: int = 10000, seed: int = 2):
    """Empirical slow-variation constants of an auxiliary field.

    Returns (C_a, C_b, c_c, k0):

    * C_a bounds the two-sided ratio m(x)/m(y) over pairs with
      |x - y|_inf <= 1/m(x);
    * m(y) <= C_b (1 + |x-y| m(x))^k0 m(x) over all sampled pairs, with k0
      fitted on the log-log upper envelope;
    * m(y) >= c_c m(x) / (1 + |x-y| m(x))^(k0/(k0+1)).
    """
    grid = field.grid
    if pairs is None:
        pairs = _sample_pairs(grid, count, seed)
    nodes = grid.nodes()
    a, b = pairs[:, 0], pairs[:, 1]
    keep = a != b
    a, b = a[keep], b[keep]
    ma, mb = field.values[a], field.values[b]
    sep = np.max(np.abs(nodes[a] - nodes[b]), axis=1)

    close = sep <= 1.0 / ma
    if np.any(close):
        ratio = np.maximum(ma[close] / mb[close], mb[close] / ma[close])
        C_a = float(ratio.max())
    else:
        C_a = 1.0

    t = np.log1p(sep * ma)
    z = np.log(mb / ma)
    # upper envelope: smallest k0 >= 0 whose affine majorant has the least
    # excess at t = 0, scanned over a fixed slope grid
    k_grid = np.linspace(0.0, 12.0, 481)
    intercepts = np.array([np.max(z - k * t) for k in k_grid])
    j = int(np.argmin(np.maximum(intercepts, 0.0) + 1e-3 * k_grid))
    k0 = float(k_grid[j])
    C_b = float(math.exp(max(intercepts[j], 0.0)))
    expo = k0 / (k0 + 1.0) if k0 > 0 else 0.0
    c_c = float(np.min((mb / ma) * np.exp(expo * t)))
    c_c = min(c_c, 1.0)
    return C_a, C_b, c_c, k0


def close_pair_check(field: AuxField, dist: DistanceField,
                     c0_list: Sequence[float] = (1.0, 2.0, 4.0)):
    """Largest ratio d(x, source)/C0 over nodes with |x - src|_inf m(x) <= C0.

    A single finite K over the catalog witnesses that metric balls of radius
    C0/m stay at bounded Agmon distance.
    """
    grid = field.grid
    nodes = grid.nodes()
    src = nodes[dist.source]
    sep = np.max(np.abs(nodes - src[None, :]), axis=1)
    prod = sep * field.values
    K = 0.0
    for c0 in c0_list:
        mask = (prod <= c0) & (sep > 0)
        if np.any(mask):
            K = max(K, float(np.max(dist.values[mask]) / c0))
    return K


# ---------------------------------------------------------------------------
# binary + CSV serialization (flat layout: header then node-major values)
# ---------------------------------------------------------------------------

_KIND_BYTES = 16


def save_field_binary(path, obj) -> None:
    grid = obj.grid
    kind = obj.kind.encode()[:_KIND_BYTES].ljust(_KIND_BYTES, b"\0")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<ii", grid.n, 1))
        fh.write(struct.pack("<dd", grid.L, grid.h))
        fh.write(kind)
        fh.write(np.asarray(obj.values, dtype="<f8").tobytes())


def load_field_binary(path) -> AuxField:
    with open(path, "rb") as fh:
        n, _d = struct.unpack("<ii", fh.read(8))
        L, h = struct.unpack("<dd", fh.read(16))
        kind = fh.read(_KIND_BYTES).rstrip(b"\0").decode()
        data = np.frombuffer(fh.read(), dtype="<f8")
    m = int(round(2.0 * L / h))
    grid = BoxGrid(L=L, m=m, n=n)
    return AuxField(grid=grid, values=data.copy(), kind=kind)


def field_to_csv(path, obj) -> None:
    grid = obj.grid
    nodes = grid.nodes()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ",".join(f"x{i+1}" for i in range(grid.n))
        fh.write(f"{cols},value\n")
        for row, v in zip(nodes, obj.values):
            coords = ",".join(format(c, ".12g") for c in row)
            fh.write(f"{coords},{format(v, '.12g')}\n")
