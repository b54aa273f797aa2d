"""Catalog of evaluable matrix weights and the PSD matrix algebra they rely on.

A matrix weight is a symmetric positive semidefinite d x d matrix field on
R^n with an analytic descriptor.  Every weight in the catalog evaluates
pointwise and in batch and serializes to a JSON descriptor.  Its one
closed-form descriptor is :meth:`MatrixWeight.power_terms`: W(x) as a sum
sum_k coeffs[..., k] |x|^exponents[k] of powers of the radius, or none.  When
every exponent is even and nonnegative, W is a polynomial in s = |x|^2 and
:meth:`MatrixWeight.radial_table` holds its (d, d, K) coefficients; each
weight states one of the two and the other is read off it.  The base class
derives the closed forms from them: exact cube integrals, and quadratic
forms <W e, e> as polynomials in s.  Table-backed integrals read one moment
routine, :func:`cube_moment_polys`: the integrals of |y|^(2k) over Q(x, r)
as polynomials in r^2 with nonnegative coefficients, kept by the aux scan
and evaluated by :func:`cube_moments` at one radius or one per center.
Other exponents go through :func:`mwlab.cubature.power_cube_integrals`.
Exact integrals are a fast path; the quadrature route in
:mod:`mwlab.cubature` remains the generic contract and the two are tested
against each other.

The PSD algebra works on stacks of matrices.  For d = 2 it has no batched
``eigh`` in its hot paths: :func:`extreme_eigvalsh` reads the LAPACK-exact
port :func:`_eig2`, and :func:`sqrt_psd` builds the root in closed form,
(A + sqrt(l1 l2) I) / (sqrt(l1) + sqrt(l2)), from its eigenvalues, with
eigennoise below zero clamped.  :func:`sqrt_sandwich` is the one
V^(1/2) B V^(1/2) kernel of the certifiers and the Poincare harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NotPSD, ConfigError

# Relative eigenvalue tolerance for "numerically PSD": lambda_min may dip to
# -TOL_EIG * lambda_max before we refuse, and anything negative above that
# threshold is clamped to zero.  Double-precision eigensolver noise sits
# comfortably below this.
TOL_EIG = 1e-10


# ---------------------------------------------------------------------------
# symmetric PSD matrix algebra (the SymMat operations)
# ---------------------------------------------------------------------------

def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric part of ``m`` (bitwise-symmetric storage)."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _clamped_eigh(m: np.ndarray, tol: float = TOL_EIG):
    """Eigendecomposition with tiny negative eigenvalues clamped to zero.

    Raises NotPSD when lambda_min < -tol * lambda_max.
    """
    w, v = np.linalg.eigh(symmetrize(np.asarray(m, dtype=float)))
    scale = np.max(np.abs(w), axis=-1, keepdims=True)
    bad = w < -tol * np.maximum(scale, 1e-300)
    if np.any(bad):
        raise NotPSD(
            f"matrix is not numerically PSD: lambda_min={w.min():.3e}, "
            f"lambda_max={scale.max():.3e}"
        )
    return np.clip(w, 0.0, None), v


def is_sym_psd(m: np.ndarray, tol: float = TOL_EIG) -> bool:
    m = np.asarray(m, dtype=float)
    if not np.array_equal(m, m.T):
        return False
    w = np.linalg.eigvalsh(m)
    return bool(w.min() >= -tol * max(abs(w.max()), 1e-300))


def sqrt_psd(m: np.ndarray, tol: float = TOL_EIG) -> np.ndarray:
    """Symmetric PSD square root S with S @ S = m, of one matrix or an (M, d, d) stack.

    Raises NotPSD when lambda_min < -tol * max|lambda|; eigenvalues above that
    and below zero are clamped to zero.  For d = 2 the root is closed-form
    (Higham, *Functions of Matrices*, 2008, sec. 6):

        sqrt(A) = (A + sqrt(l1 l2) I) / (sqrt(l1) + sqrt(l2)),

    with l1 >= l2 from :func:`_eig2`.  A row with clamped l2 < 0 is rebuilt as
    sqrt(l1) (A - l2 I) / (l1 - l2), the root of l1 times its top eigenprojector;
    the zero matrix gives zero.  Other d go through ``eigh``.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-1] != 2:
        w, v = _clamped_eigh(m, tol)
        s = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
        return symmetrize(s)
    one = m.ndim == 2
    S = symmetrize(m[None] if one else m)   # fresh: the root is built in place
    lo, hi = _eig2(S, False), _eig2(S, True)
    scale = np.maximum(np.abs(lo), np.abs(hi))
    if np.any(lo < -tol * np.maximum(scale, 1e-300)):
        raise NotPSD(
            f"matrix is not numerically PSD: lambda_min={lo.min():.3e}, "
            f"lambda_max={scale.max():.3e}"
        )
    noisy = lo < 0.0
    lo_n, hi_n = lo[noisy], hi[noisy]
    np.maximum(lo, 0.0, out=lo)
    rl, rh = np.sqrt(lo, out=lo), np.sqrt(hi, out=hi)
    f = rl + rh
    np.divide(1.0, f, out=f, where=f > 0.0)     # 0 stays 0: the zero matrix
    c = np.multiply(rl, rh, out=rl)
    c[noisy] = -lo_n
    f[noisy] = np.sqrt(hi_n) / (hi_n - lo_n)
    S[..., 0, 0] += c
    S[..., 1, 1] += c
    S *= f[..., None, None]
    return S[0] if one else S


def sqrt_sandwich(m: np.ndarray, B: np.ndarray) -> np.ndarray:
    """m^(1/2) B m^(1/2) for each PSD matrix of an (M, d, d) stack and one
    d x d matrix B: two stacked matmuls around :func:`sqrt_psd`."""
    roots = sqrt_psd(m)
    return roots @ B @ roots


def inv_psd(m: np.ndarray, tol: float = TOL_EIG) -> np.ndarray:
    """Inverse of a numerically positive definite symmetric matrix."""
    w, v = _clamped_eigh(m, tol)
    if w.min() <= 0.0:
        raise NotPSD("matrix is singular after PSD clamping; cannot invert")
    return symmetrize((v / w[..., None, :]) @ np.swapaxes(v, -1, -2))


# LAPACK's dlamch('E'), and the band of max-abs entries in which neither
# dsyevd (outside [2^-485, 2^485]) nor dsterf (outside [2^-405, 2^511 / 3])
# rescales a matrix
_EPS = 2.0 ** -53
_UNSCALED = (2.0 ** -405, 2.0 ** 485)


def _eig2(P: np.ndarray, upper: bool) -> np.ndarray:
    """The smallest (or largest) eigenvalue of each symmetric 2x2 matrix in
    P (..., 2, 2), bit for bit what ``np.linalg.eigvalsh`` returns.

    For d = 2, dsyevd hands the lower triangle (a, b, c) unchanged through
    dsytrd to dsterf.  That splits the matrix when b is negligible, leaving
    a and c, and otherwise calls dlae2; this is their arithmetic in their
    order, then the sort.  Rows LAPACK would rescale (max-abs entry
    outside ``_UNSCALED``, which NaN and inf are) and rows with a + c = 0
    go to ``eigvalsh`` itself.  Four work rows are reused in place: fresh
    block-sized temporaries cost more in page faults than in arithmetic.
    """
    a, b, c = P[..., 0, 0], P[..., 1, 0], P[..., 1, 1]
    sm, s, u, v = np.empty((4,) + a.shape)
    with np.errstate(all="ignore"):     # rows eigvalsh takes may overflow
        np.add(a, c, out=sm)
        np.maximum(np.abs(a, out=s), np.abs(c, out=u), out=v)
        a_big = s > u                   # dlae2's acmx is a
        np.sqrt(s, out=s)
        s *= np.sqrt(u, out=u)
        s *= _EPS
        np.abs(b, out=u)
        np.maximum(v, u, out=v)
        ours = (v >= _UNSCALED[0]) & (v <= _UNSCALED[1]) & (sm != 0)
        split = u <= s                  # |b| <= sqrt|a| sqrt|c| eps
        b2 = np.multiply(b, b, out=u)
        np.abs(np.multiply(a, c, out=s), out=s)
        s *= _EPS ** 2
        split |= b2 <= s                # b^2 <= eps^2 |a c|
        rb = np.sqrt(b2, out=u)         # dlae2's b
        # rt = max(adf, ab) sqrt(1 + (min/max)^2) with adf = |a - c|, ab = 2|b|
        np.abs(np.subtract(a, c, out=s), out=s)
        ab = rb + rb
        np.maximum(s, ab, out=v)
        np.minimum(s, ab, out=s)
        s /= v
        s *= s
        s += 1.0
        rt1 = np.sqrt(s, out=s)
        rt1 *= v
        # rt1 = (sm +- rt) / 2 with the sign of sm, rt2 = (acmx/rt1) acmn - (b/rt1) b
        np.copysign(rt1, sm, out=rt1)
        rt1 += sm
        rt1 *= 0.5
        rt2 = np.where(a_big, a, c)
        rt2 /= rt1
        rt2 *= np.where(a_big, c, a)
        rb *= np.divide(rb, rt1, out=v)
        rt2 -= rb
    pick = np.maximum if upper else np.minimum
    lam = pick(rt1, rt2, out=rt1)
    np.copyto(lam, pick(a, c), where=split)
    if not ours.all():
        lam[~ours] = np.linalg.eigvalsh(P[~ours])[..., -1 if upper else 0]
    return lam


def extreme_eigvalsh(P: np.ndarray, upper: bool) -> np.ndarray:
    """The largest (or smallest) eigenvalue of each symmetric matrix in
    P (..., d, d), bit for bit as ``eigvalsh``: :func:`_eig2` for d = 2."""
    if P.shape[-1] == 2:
        return _eig2(P, upper)
    return np.linalg.eigvalsh(P)[..., -1 if upper else 0]


# ---------------------------------------------------------------------------
# cube moments as polynomials in t = r^2
# ---------------------------------------------------------------------------

def cube_moment_polys(X: np.ndarray, K: int) -> np.ndarray:
    """Coefficients of the moment polynomials over an (M, n) batch of centers,
    shape (M, K, K): entry (m, k, l) multiplies t^l in P_k, where
    int_{Q(x_m, r)} |y|^(2k) dy = r^n P_k(r^2) for k < K.

    On one axis int_{c-r}^{c+r} y^(2a) dy = r sum_l 2 C(2a+1, 2l+1)
    c^(2a-2l) t^l / (2a+1).  The multinomial recursion over the axes,
    T_j[k] = sum_a C(k, a) I_a(axis j) T_(j-1)[k-a], multiplies these
    polynomials.  No term is negative: nothing cancels.
    """
    m, n = X.shape
    acc = None                          # acc[:, k, l]: coefficient of t^l in P_k
    for j in range(n):
        c2 = X[:, j] ** 2
        ax = np.zeros((m, K, K))
        for a in range(K):
            for l in range(a + 1):
                ax[:, a, l] = (2.0 * math.comb(2 * a + 1, 2 * l + 1) / (2 * a + 1)
                               * c2 ** (a - l))
        if acc is None:
            acc = ax
            continue
        new = np.zeros_like(acc)
        for k in range(K):
            for a in range(k + 1):
                b = k - a
                for l in range(a + 1):
                    new[:, k, l:l + b + 1] += (math.comb(k, a) * ax[:, a, l, None]
                                               * acc[:, b, :b + 1])
        acc = new
    return acc


def cube_moments(X: np.ndarray, r, K: int) -> np.ndarray:
    """int_{Q(x, r)} |y|^(2k) dy for k < K over an (M, n) batch of centers and
    one radius, or one radius per center; shape (M, K): the polynomials of
    :func:`cube_moment_polys` at t = r^2, by Horner's rule in the order of
    ``np.polynomial.polynomial.polyval``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = np.broadcast_to(np.asarray(r, dtype=float), X.shape[:1])
    P = cube_moment_polys(X, K)
    t = (r * r)[:, None]
    v = P[..., -1]
    for l in range(K - 2, -1, -1):
        v = P[..., l] + v * t
    # r^n by Python's float power, once per distinct radius: numpy's
    # vectorized power may differ from it in the last bit
    uniq, inv = np.unique(r, return_inverse=True)
    return np.array([x ** X.shape[1] for x in uniq.tolist()])[inv, None] * v


def _table_from_terms(terms) -> Optional[np.ndarray]:
    """The coefficients in s = |x|^2, along the last axis, of power terms
    (exponents (K,), coeffs (..., K)) with distinct exponents; None unless
    every exponent is even and nonnegative."""
    if terms is None:
        return None
    exps, coeffs = terms
    half = np.asarray(exps, dtype=float) / 2.0
    if np.any(half < 0) or np.any(half != np.round(half)):
        return None
    idx = half.astype(int)
    table = np.zeros(coeffs.shape[:-1] + (int(idx.max()) + 1 if idx.size else 0,))
    table[..., idx] = coeffs
    return table


# ---------------------------------------------------------------------------
# scalar weight descriptors
# ---------------------------------------------------------------------------

class ScalarWeight:
    """A nonnegative scalar weight on R^n \\ {0} with an analytic descriptor."""

    n: int
    singular_at_origin = False

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float)[None, :])[0])

    def power_terms(self) -> Optional[tuple]:
        """(exponents (K,), coeffs (K,)) with v(x) = sum_k coeffs[k] |x|^exponents[k],
        or None."""
        return None

    def radial_poly(self) -> Optional[np.ndarray]:
        """Coefficients in s = |x|^2 if the weight is a radial polynomial."""
        return _table_from_terms(self.power_terms())

    def to_config(self) -> dict:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover
        return f"{type(self).__name__}({self.to_config()})"


@dataclass(frozen=True, repr=False)
class ConstantScalar(ScalarWeight):
    c: float
    n: int = 3

    def __post_init__(self):
        if self.c < 0:
            raise ConfigError("constant scalar weight must be nonnegative")

    def eval_many(self, X):
        return np.full(np.atleast_2d(X).shape[0], float(self.c))

    def power_terms(self):
        return np.zeros(1), np.array([float(self.c)])

    def to_config(self):
        return {"kind": "constant_scalar", "n": self.n, "c": self.c}


@dataclass(frozen=True, repr=False)
class PowerScalar(ScalarWeight):
    """a * |x|^gamma, integrable near the origin for gamma > -n."""

    gamma: float
    a: float = 1.0
    n: int = 3

    def __post_init__(self):
        if self.a <= 0:
            raise ConfigError("power scalar coefficient must be positive")
        if self.gamma <= -self.n:
            raise ConfigError("power scalar exponent must exceed -n for local integrability")

    @property
    def singular_at_origin(self):
        return self.gamma < 0

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = np.linalg.norm(X, axis=1)
        if self.gamma < 0 and np.any(t == 0.0):
            raise DomainError("negative-exponent power weight evaluated at the origin")
        return self.a * t ** self.gamma

    def power_terms(self):
        return np.array([float(self.gamma)]), np.array([float(self.a)])

    def to_config(self):
        return {"kind": "power_scalar", "n": self.n, "gamma": self.gamma, "a": self.a}


@dataclass(frozen=True, repr=False)
class PolyScalar(ScalarWeight):
    """Polynomial in s = |x|^2 with nonnegative coefficients (hence nonnegative)."""

    coeffs: tuple
    n: int = 3

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if any(c < 0 for c in self.coeffs):
            raise ConfigError("polynomial scalar weight requires nonnegative coefficients")

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = np.einsum("ij,ij->i", X, X)
        out = np.zeros_like(s)
        for c in reversed(self.coeffs):
            out = out * s + c
        return out

    def power_terms(self):
        return 2.0 * np.arange(len(self.coeffs)), np.asarray(self.coeffs, dtype=float)

    def to_config(self):
        return {"kind": "poly_scalar", "n": self.n, "coeffs": list(self.coeffs)}


# ---------------------------------------------------------------------------
# matrix weights
# ---------------------------------------------------------------------------

class MatrixWeight:
    """Base class: an evaluable symmetric PSD d x d matrix field on R^n."""

    n: int
    d: int
    singular_at_origin = False

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at an (M, n) batch of points; returns (M, d, d)."""
        raise NotImplementedError

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DomainError(f"point has dimension {x.shape}, weight lives on R^{self.n}")
        return self.eval_many(x[None, :])[0]

    def radial_table(self) -> Optional[np.ndarray]:
        """Coefficients of W(x) in s = |x|^2, shape (d, d, K), or None when no
        closed form exists: entry (i, j, k) multiplies s^k in W(x)_ij."""
        return None

    def power_terms(self) -> Optional[tuple]:
        """(exponents (K,), coeffs (d, d, K)) with
        W(x) = sum_k coeffs[..., k] |x|^exponents[k], or None.  By default the
        radial table's, at exponents 0, 2, 4, ..."""
        table = self.radial_table()
        if table is None:
            return None
        return 2.0 * np.arange(table.shape[2]), table

    def exact_cube_integral_many(self, centers: np.ndarray, r: float) -> Optional[np.ndarray]:
        """Exact int_Q W over cubes Q(center_i, r), or None when unavailable:
        from the radial table's cube moments, else from the power terms
        through :func:`mwlab.cubature.terms_cube_integrals`."""
        table = self.radial_table()
        if table is not None:
            return np.einsum("ijk,mk->mij", table, cube_moments(centers, r, table.shape[2]))
        from .cubature import engine_terms, terms_cube_integrals
        terms = engine_terms(self)
        if terms is None:
            return None
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        return terms_cube_integrals(terms, centers, np.full(centers.shape[0], float(r)))

    def qform_radial_poly(self, e: np.ndarray) -> Optional[np.ndarray]:
        """<W(x) e, e> as a polynomial in s = |x|^2, when the descriptor allows;
        for a (k, d) stack of directions, shape (k, K) from one table lookup."""
        table = self.radial_table()
        if table is None:
            return None
        e = np.asarray(e, dtype=float)
        q = np.array([np.einsum("i,j,ijk->k", v, v, table) for v in np.atleast_2d(e)])
        return q if e.ndim == 2 else q[0]

    def to_config(self) -> dict:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover
        cfg = self.to_config()
        return f"{type(self).__name__}(n={cfg['n']}, d={cfg['d']})"


@dataclass(frozen=True, repr=False)
class ConstantWeight(MatrixWeight):
    mat: np.ndarray
    n: int = 3

    def __post_init__(self):
        m = symmetrize(np.asarray(self.mat, dtype=float))
        if not is_sym_psd(m):
            raise NotPSD("constant weight matrix must be symmetric PSD")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "d", m.shape[0])

    def eval_many(self, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(self.mat, (X.shape[0],) + self.mat.shape).copy()

    # No radial table: the volume (2r)^n has no cancellation, where the
    # moment route computes (c + r) - (c - r) per axis, and e @ mat @ e is the
    # form that the identity outputs and test_identity_is_exactly_one pin.
    # Through a table, 441,784 of 640,000 identity integrals (centers in
    # [-10, 10]^3, r in [1e-3, 1e3]) moved in the last bit.
    def exact_cube_integral_many(self, centers, r):
        centers = np.atleast_2d(centers)
        vol = np.broadcast_to((2.0 * np.asarray(r, dtype=float)) ** self.n,
                              (centers.shape[0],))
        return vol[:, None, None] * self.mat[None, :, :]

    def qform_radial_poly(self, e):
        e = np.asarray(e, dtype=float)
        q = np.array([[float(v @ self.mat @ v)] for v in np.atleast_2d(e)])
        return q if e.ndim == 2 else q[0]

    def power_terms(self):
        return np.zeros(1), self.mat[:, :, None]

    def to_config(self):
        return {"kind": "constant", "n": self.n, "d": self.d, "mat": self.mat.tolist()}


def identity_weight(n: int = 3, d: int = 2) -> ConstantWeight:
    return ConstantWeight(np.eye(d), n=n)


@dataclass(frozen=True, repr=False)
class ScalarDiagWeight(MatrixWeight):
    """diag(v_1(x), ..., v_d(x)) built from scalar weight descriptors."""

    entries: tuple
    n: int = 3

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ConfigError("diagonal weight needs at least one scalar entry")
        for v in entries:
            if v.n != self.n:
                raise ConfigError("scalar entries must share the ambient dimension")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "d", len(entries))

    @property
    def singular_at_origin(self):
        return any(v.singular_at_origin for v in self.entries)

    def eval_many(self, X):
        X = np.atleast_2d(X)
        out = np.zeros((X.shape[0], self.d, self.d))
        for i, v in enumerate(self.entries):
            out[:, i, i] = v.eval_many(X)
        return out

    def power_terms(self):
        terms = [v.power_terms() for v in self.entries]
        if any(t is None for t in terms):
            return None
        exps = np.unique(np.concatenate([a for a, _ in terms]))
        coeffs = np.zeros((self.d, self.d, exps.size))
        for i, (a, c) in enumerate(terms):
            np.add.at(coeffs[i, i], np.searchsorted(exps, a), c)
        return exps, coeffs

    def radial_table(self):
        return _table_from_terms(self.power_terms())

    def to_config(self):
        return {"kind": "scalar_diag", "n": self.n, "d": self.d,
                "entries": [v.to_config() for v in self.entries]}


@dataclass(frozen=True, repr=False)
class PowerWeight(MatrixWeight):
    """V(x)_ij = a_ij |x|^((gamma_i + gamma_j)/2) with A positive definite.

    The mixed-exponent structure makes V(x) = D(x) A D(x) with
    D(x) = diag(|x|^(gamma_i / 2)), so V is positive definite off the origin.
    """

    A: np.ndarray
    gamma: np.ndarray
    n: int = 3

    def __post_init__(self):
        A = symmetrize(np.asarray(self.A, dtype=float))
        g = np.asarray(self.gamma, dtype=float)
        if A.shape[0] != g.shape[0]:
            raise ConfigError("coefficient matrix and exponent vector sizes differ")
        if np.linalg.eigvalsh(A).min() <= 0:
            raise NotPSD("power weight requires a positive definite coefficient matrix")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "d", A.shape[0])

    @property
    def exponent_table(self) -> np.ndarray:
        return 0.5 * (self.gamma[:, None] + self.gamma[None, :])

    @property
    def singular_at_origin(self):
        return bool(self.gamma.min() < 0)

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = np.linalg.norm(X, axis=1)
        if self.gamma.min() < 0 and np.any(t == 0.0):
            raise DomainError("power weight with negative exponents evaluated at the origin")
        G = self.exponent_table
        with np.errstate(divide="ignore"):
            pw = t[:, None, None] ** G[None, :, :]
        return self.A[None, :, :] * pw

    def power_terms(self):
        # a_ij |x|^G_ij, one term per distinct exponent
        G = self.exponent_table
        exps = np.unique(G)
        return exps, np.where(G[:, :, None] == exps, self.A[:, :, None], 0.0)

    def radial_table(self):
        return _table_from_terms(self.power_terms())

    def to_config(self):
        return {"kind": "power", "n": self.n, "d": self.d,
                "A": self.A.tolist(), "gamma": self.gamma.tolist()}


@dataclass(frozen=True, repr=False)
class PolynomialPSDWeight(MatrixWeight):
    """P(x)^T P(x) for a matrix P whose entries are polynomials in s = |x|^2.

    PSD holds structurally.  ``table`` has shape (d, d, K): table[i, j] are the
    ascending coefficients of P_ij in s.
    """

    table: np.ndarray
    n: int = 3

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 3 or t.shape[0] != t.shape[1]:
            raise ConfigError("polynomial weight table must have shape (d, d, K)")
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "d", t.shape[0])

    def _factor_at(self, s: np.ndarray) -> np.ndarray:
        # Horner evaluation of every entry of P at s; (M, d, d)
        out = np.zeros((s.shape[0], self.d, self.d))
        for k in range(self.table.shape[2] - 1, -1, -1):
            out = out * s[:, None, None] + self.table[None, :, :, k]
        return out

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = np.einsum("ij,ij->i", X, X)
        P = self._factor_at(s)
        return np.einsum("mki,mkj->mij", P, P)

    def radial_table(self):
        # coefficients of (P^T P)_ij in s; shape (d, d, 2K-1)
        K = self.table.shape[2]
        out = np.zeros((self.d, self.d, 2 * K - 1))
        for i in range(self.d):
            for j in range(self.d):
                acc = np.zeros(2 * K - 1)
                for k in range(self.d):
                    acc += np.convolve(self.table[k, i], self.table[k, j])
                out[i, j] = acc
        return out

    def to_config(self):
        return {"kind": "polynomial_psd", "n": self.n, "d": self.d,
                "table": self.table.tolist()}


class RankOneRadialWeight(PolynomialPSDWeight):
    """The rank-one radial weight [[1, |x|^2], [|x|^2, |x|^4]].

    It is the outer square of (1, |x|^2)^T: symmetric, PSD, polynomial, and
    nondegenerate in the integrated sense, yet its averages and pointwise
    values fail to commute badly enough to defeat the noncommutativity class
    and the lower Fefferman-Phong inequality.
    """

    def __init__(self, n: int = 3):
        table = np.zeros((2, 2, 2))
        table[0, 0] = [1.0, 0.0]   # P_00 = 1
        table[0, 1] = [0.0, 1.0]   # P_01 = s
        super().__init__(table=table, n=n)

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = np.einsum("ij,ij->i", X, X)
        out = np.empty((X.shape[0], 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 0, 1] = s
        out[:, 1, 0] = s
        out[:, 1, 1] = s * s
        return out

    def norm_many(self, X) -> np.ndarray:
        """Operator norm |V(x)| = 1 + |x|^4 (the weight is rank one)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = np.einsum("ij,ij->i", X, X)
        return 1.0 + s * s

    def to_config(self):
        return {"kind": "rank_one_radial", "n": self.n, "d": 2}


@dataclass(frozen=True, repr=False)
class NormDiagWeight(MatrixWeight):
    """|V(x)| I_d: the operator norm of a base weight times the identity."""

    base: MatrixWeight

    def __post_init__(self):
        object.__setattr__(self, "n", self.base.n)
        object.__setattr__(self, "d", self.base.d)

    @property
    def singular_at_origin(self):
        return self.base.singular_at_origin

    def norm_many(self, X) -> np.ndarray:
        if isinstance(self.base, RankOneRadialWeight):
            return self.base.norm_many(X)
        return extreme_eigvalsh(self.base.eval_many(X), True)

    def eval_many(self, X):
        X = np.atleast_2d(X)
        lam = self.norm_many(X)
        return lam[:, None, None] * np.eye(self.d)[None, :, :]

    def radial_table(self):
        poly = dominant_entry_poly(self.base)
        if poly is None:
            return None
        return np.eye(self.d)[:, :, None] * poly

    def to_config(self):
        return {"kind": "norm_diag", "n": self.n, "d": self.d,
                "base": self.base.to_config()}


def dominant_entry_poly(W: MatrixWeight, which: str = "max") -> Optional[np.ndarray]:
    """Largest (``which="max"``) or smallest (``"min"``) eigenvalue of W as a
    polynomial in s = |x|^2, when the descriptor allows.

    For diagonal weights one entry must dominate (or be dominated by) every
    other coefficient by coefficient in s; it is then the extreme entry
    everywhere and stays a radial polynomial.
    """
    sign = 1.0 if which == "max" else -1.0
    if isinstance(W, RankOneRadialWeight):
        return np.array([1.0, 0.0, 1.0]) if which == "max" else None
    if isinstance(W, ScalarDiagWeight):
        table = W.radial_table()
        if table is None:
            return None
        padded = [table[i, i] for i in range(W.d)]
        for cand in padded:
            if all(np.all(sign * (cand - q) >= 0) for q in padded):
                return cand
        return None
    if isinstance(W, ConstantWeight):
        lam = np.linalg.eigvalsh(W.mat)
        return np.array([float(lam[-1] if which == "max" else lam[0])])
    return None


def det_radial_poly(W: MatrixWeight) -> Optional[np.ndarray]:
    """det V(x) as a polynomial in s = |x|^2, when the descriptor allows."""
    if isinstance(W, ConstantWeight):
        return np.array([float(np.linalg.det(W.mat))])
    if isinstance(W, ScalarDiagWeight):
        polys = [v.radial_poly() for v in W.entries]
        if any(p is None for p in polys):
            return None
        acc = np.array([1.0])
        for p in polys:
            acc = np.convolve(acc, p)
        return acc
    if isinstance(W, PowerWeight):
        total = float(np.sum(W.gamma))
        if total >= 0 and total == 2 * round(total / 2):
            out = np.zeros(int(round(total / 2)) + 1)
            out[-1] = float(np.linalg.det(W.A))
            return out
        return None
    if isinstance(W, PolynomialPSDWeight) and W.d == 2:
        t = W.table
        detp = np.convolve(t[0, 0], t[1, 1]) - np.convolve(t[0, 1], t[1, 0])
        return np.convolve(detp, detp)
    if isinstance(W, NormDiagWeight):
        base = dominant_entry_poly(W.base)
        if base is None:
            return None
        acc = np.array([1.0])
        for _ in range(W.d):
            acc = np.convolve(acc, base)
        return acc
    return None


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def _field(cfg: dict, key: str):
    """``cfg[key]``, or a ConfigError naming the descriptor's kind and the key."""
    if key not in cfg:
        raise ConfigError(f"weight descriptor of kind {cfg.get('kind')!r} lacks {key!r}")
    return cfg[key]


def scalar_from_config(cfg: dict) -> ScalarWeight:
    kind = cfg.get("kind")
    n = int(cfg.get("n", 3))
    if kind == "constant_scalar":
        return ConstantScalar(c=float(_field(cfg, "c")), n=n)
    if kind == "power_scalar":
        return PowerScalar(gamma=float(_field(cfg, "gamma")), a=float(cfg.get("a", 1.0)), n=n)
    if kind == "poly_scalar":
        return PolyScalar(coeffs=tuple(_field(cfg, "coeffs")), n=n)
    raise ConfigError(f"unknown scalar weight kind: {kind!r}")


def from_config(cfg: dict) -> MatrixWeight:
    """Build a matrix weight from its JSON descriptor."""
    kind = cfg.get("kind")
    n = int(cfg.get("n", 3))
    if kind == "constant":
        return ConstantWeight(mat=np.asarray(_field(cfg, "mat"), dtype=float), n=n)
    if kind == "scalar_diag":
        return ScalarDiagWeight(entries=tuple(scalar_from_config(e)
                                              for e in _field(cfg, "entries")), n=n)
    if kind == "power":
        return PowerWeight(A=np.asarray(_field(cfg, "A"), dtype=float),
                           gamma=np.asarray(_field(cfg, "gamma"), dtype=float), n=n)
    if kind == "polynomial_psd":
        return PolynomialPSDWeight(table=np.asarray(_field(cfg, "table"), dtype=float), n=n)
    if kind == "rank_one_radial":
        return RankOneRadialWeight(n=n)
    if kind == "norm_diag":
        return NormDiagWeight(base=from_config(_field(cfg, "base")))
    raise ConfigError(f"unknown weight kind: {kind!r}")
