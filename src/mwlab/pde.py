"""Discrete weakly coupled Schroedinger systems on 3-D boxes.

The operator is -div(a grad u_i) + sum_j V_ij u_j on a uniform interior
grid with zero Dirichlet data on the box walls: a flux-form 7-point stencil
for the leading part (scalar a couples no components) plus a block-diagonal
potential sampled at the nodes.  A fundamental matrix ("Green field") at a
pole comes from its d point sources, and the module carries the resolvent
representation identity and landscape functions.

Green fields follow one solver policy, set by the operator's structure.
The free operator (a == 1, V == 0) is the Dirichlet Laplacian times I_d,
which the type-I sine transform diagonalizes: :class:`SineSolver` solves it
exactly at any N.  Every other operator takes Jacobi-CG, one system per
group of components that the potential couples, so a diagonal potential
gives d scalar systems.  Sparse LU (:class:`DirectSolver`) is the
machine-precision oracle, and the solver a caller passes explicitly when
one factorization serves many poles (:func:`resolvent_identity_check`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import auxmetric
from .auxmetric import BoxGrid
from .errors import ConfigError, EllipticityViolation, NoConvergence
from .weights import MatrixWeight, NormDiagWeight

SOLVE_TOL = 1e-10


@dataclass(frozen=True)
class Grid3:
    """Interior nodes of [-L, L]^3: N per axis, spacing h = 2L/(N+1).

    Boundary walls carry homogeneous Dirichlet data; with N even no node
    hits the origin, which keeps point singularities of power weights off
    the grid.
    """

    L: float
    N: int

    def __post_init__(self):
        if self.N < 9:
            raise ConfigError("need at least 9 interior nodes per axis")
        if self.L <= 0:
            raise ConfigError("box half-width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N + 1)

    @property
    def axis(self) -> np.ndarray:
        return -self.L + self.h * (np.arange(self.N) + 1.0)

    @property
    def size(self) -> int:
        return self.N ** 3

    def nodes(self) -> np.ndarray:
        ax = self.axis
        g = np.meshgrid(ax, ax, ax, indexing="ij")
        return np.stack([c.ravel() for c in g], axis=-1)

    def index(self, multi) -> int:
        """Flat C-order index of a node; ConfigError when it is off the grid."""
        return self.to_boxgrid().index(multi)

    def node(self, idx: int) -> np.ndarray:
        ax = self.axis
        i, j, k = np.unravel_index(idx, (self.N, self.N, self.N))
        return np.array([ax[i], ax[j], ax[k]])

    def nearest_index(self, x) -> int:
        multi = [int(np.argmin(np.abs(self.axis - c))) for c in np.asarray(x, dtype=float)]
        return self.index(multi)

    def to_boxgrid(self) -> BoxGrid:
        return BoxGrid(L=self.L - self.h, m=self.N - 1, n=3)


@dataclass
class DiscreteOperator:
    """Assembled sparse symmetric positive definite system.

    ``free_laplacian`` is set by :func:`assemble` when a == 1 and V == 0:
    the matrix is then exactly the Dirichlet Laplacian times I_d.
    """

    grid: Grid3
    d: int
    matrix: sparse.csr_matrix
    potential_blocks: np.ndarray       # (size, d, d) node samples of V
    boundary_faces: list               # (axis, side, node_ids, face_coeff) tuples
    weight: Optional[MatrixWeight] = None
    free_laplacian: bool = field(default=False, init=False)

    @property
    def dof(self) -> int:
        return self.grid.size * self.d

    @cached_property
    def component_groups(self) -> list:
        """The components, grouped by the coupling graph of the off-diagonal
        potential blocks (nonzero at any node), each group ascending."""
        coupled = np.any(self.potential_blocks != 0, axis=0)
        reach = coupled | coupled.T | np.eye(self.d, dtype=bool)
        for _ in range(self.d):  # transitive closure
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        return [np.flatnonzero(row).tolist() for i, row in enumerate(reach)
                if np.argmax(row) == i]

    @cached_property
    def _cg_systems(self) -> list:
        """(dof indices, sub-matrix, inverse diagonal) of each component group."""
        systems = []
        for group in self.component_groups:
            if len(group) == self.d:
                idx, A = slice(None), self.matrix
            else:
                idx = (np.arange(self.grid.size)[:, None] * self.d + group).ravel()
                A = self.matrix[idx][:, idx]
            systems.append((idx, A, 1.0 / A.diagonal()))
        return systems


def _face_values(a_field, grid: Grid3):
    """Leading coefficient at face midpoints, one array per axis plus walls."""
    ax = grid.axis
    N = grid.N
    mids = 0.5 * (ax[:-1] + ax[1:])
    lo_wall = ax[0] - grid.h / 2.0
    hi_wall = ax[-1] + grid.h / 2.0

    def eval_a(X):
        if a_field is None:
            return np.ones(X.shape[0])
        return np.asarray(a_field(X), dtype=float)

    internal = []
    walls = []
    for axis in range(3):
        coords = [ax, ax, ax]
        coords[axis] = mids
        g = np.meshgrid(*coords, indexing="ij")
        internal.append(eval_a(np.stack([c.ravel() for c in g], axis=-1))
                        .reshape([N - 1 if t == axis else N for t in range(3)]))
        wall_pair = []
        for wall in (lo_wall, hi_wall):
            coords = [ax, ax, ax]
            coords[axis] = np.array([wall])
            g = np.meshgrid(*coords, indexing="ij")
            wall_pair.append(eval_a(np.stack([c.ravel() for c in g], axis=-1))
                             .reshape([1 if t == axis else N for t in range(3)]))
        walls.append(wall_pair)
    return internal, walls


def assemble(W: Optional[MatrixWeight], a_field: Optional[Callable], grid: Grid3,
             d: Optional[int] = None, lam: float = 1.0, Lam: float = 1.0) -> DiscreteOperator:
    """Assemble the flux-form operator; exact symmetry by construction.

    ``W`` may be None for the potential-free operator (then ``d`` is
    required).  ``a_field`` is a batched callable a(X) -> (M,), or None
    for a == 1.
    """
    if W is None and d is None:
        raise ConfigError("potential-free assembly needs an explicit block size d")
    d = W.d if W is not None else int(d)
    N = grid.N
    h2 = grid.h * grid.h
    size = grid.size
    idx = np.arange(size).reshape(N, N, N)

    internal, walls = _face_values(a_field, grid)
    amin = min(float(arr.min()) for arr in internal + [w for pair in walls for w in pair])
    amax = max(float(arr.max()) for arr in internal + [w for pair in walls for w in pair])
    if amin < lam - 1e-12 or amax > Lam + 1e-12:
        raise EllipticityViolation(
            f"leading coefficient range [{amin:g}, {amax:g}] leaves [{lam:g}, {Lam:g}]")

    diag = np.zeros((N, N, N))
    rows, cols, vals = [], [], []
    boundary_faces = []
    for axis in range(3):
        fa = internal[axis] / h2
        lo_sl = tuple(slice(None, -1) if t == axis else slice(None) for t in range(3))
        hi_sl = tuple(slice(1, None) if t == axis else slice(None) for t in range(3))
        a_ids = idx[lo_sl].ravel()
        b_ids = idx[hi_sl].ravel()
        w = fa.ravel()
        rows.extend([a_ids, b_ids])
        cols.extend([b_ids, a_ids])
        vals.extend([-w, -w])
        diag[lo_sl] += fa
        diag[hi_sl] += fa
        for side, wall in enumerate(walls[axis]):
            fw = wall.reshape([1 if t == axis else N for t in range(3)]) / h2
            sl = tuple((slice(0, 1) if side == 0 else slice(-1, None)) if t == axis
                       else slice(None) for t in range(3))
            diag[sl] += fw
            boundary_faces.append((axis, side, idx[sl].ravel(),
                                   fw.ravel()))

    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    scal = sparse.coo_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(size, size)).tocsr()
    leading = sparse.kron(scal, sparse.eye(d, format="csr"), format="csr")

    if W is not None:
        blocks = W.eval_many(grid.nodes())
    else:
        blocks = np.zeros((size, d, d))
    node_ids = np.arange(size)
    brows = np.repeat(node_ids * d, d * d) + np.tile(np.repeat(np.arange(d), d), size)
    bcols = np.repeat(node_ids * d, d * d) + np.tile(np.tile(np.arange(d), d), size)
    pot = sparse.coo_matrix((blocks.ravel(), (brows, bcols)),
                            shape=(size * d, size * d)).tocsr()
    matrix = (leading + pot).tocsr()
    matrix.sum_duplicates()
    op = DiscreteOperator(grid=grid, d=d, matrix=matrix, potential_blocks=blocks,
                          boundary_faces=boundary_faces, weight=W)
    op.free_laplacian = a_field is None and not np.any(blocks)
    return op


def solve(op: DiscreteOperator, rhs: np.ndarray, tol: float = SOLVE_TOL) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients to a true relative residual.

    One CG runs on each group of components that the potential couples
    (all d for a coupled potential, one each for a diagonal one); each meets
    ``tol`` on its part of ``rhs``, so the whole residual does too.
    Deterministic (fixed iteration order); raises NoConvergence past the
    20 N d iteration budget of the full operator.
    """
    b = np.asarray(rhs, dtype=float).ravel()
    if b.shape[0] != op.dof:
        raise ConfigError("right-hand side size mismatch")
    x = np.zeros_like(b)
    for idx, A, dinv in op._cg_systems:
        x[idx] = _jacobi_cg(A, dinv, b[idx], tol, 20 * op.grid.N * op.d)
    return x


def _jacobi_cg(A, dinv: np.ndarray, b: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol * bnorm:
            true_res = np.linalg.norm(b - A @ x)
            if true_res <= tol * bnorm:
                return x
            r = b - A @ x
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NoConvergence(f"CG exceeded {max_iter} iterations "
                        f"(residual {np.linalg.norm(b - A @ x) / bnorm:.3e})")


class DirectSolver:
    """Sparse LU factorization, the machine-precision oracle for small grids.

    The assembled operator is exactly symmetric (flux-form stencil, scalar
    a, symmetrized blocks of V) and positive definite, so the factorization
    needs no pivoting: it orders A^T + A by multiple minimum degree, keeps
    the diagonal pivots and lets SuperLU run in symmetric mode.
    """

    def __init__(self, op: DiscreteOperator):
        self.op = op
        self._lu = splu(op.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    @property
    def fill(self) -> int:
        """nnz(L) + nnz(U) of the factorization."""
        return self._lu.L.nnz + self._lu.U.nnz

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a (dof,) vector or a (dof, k) block, one call for all k."""
        return self._lu.solve(np.asarray(rhs, dtype=float))


class SineSolver:
    """Exact solve of the free operator, the Dirichlet Laplacian times I_d.

    The type-I sine transform S_ij = sqrt(2/(N+1)) sin(pi i j/(N+1)) is
    symmetric, orthogonal and diagonalizes the 1-D Dirichlet Laplacian
    along each axis (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    1970), so g = S (S b / lam) with eigenvalues
    lam_ijk = (4/h^2) (sin^2 t_i + sin^2 t_j + sin^2 t_k), t_i = pi i/(2(N+1)).
    S is applied as a dense N x N matrix along each axis.
    """

    def __init__(self, op: DiscreteOperator):
        if not op.free_laplacian:
            raise ConfigError("the sine solve needs a == 1 and a zero potential")
        self.op = op
        N = op.grid.N
        j = np.arange(1, N + 1)
        # i j reduced mod 2(N+1) keeps every angle in [0, 2 pi)
        self._S = math.sqrt(2.0 / (N + 1)) * np.sin(
            np.pi * (np.outer(j, j) % (2 * (N + 1))) / (N + 1))
        lam = 4.0 / op.grid.h ** 2 * np.sin(np.pi * j / (2 * (N + 1))) ** 2
        self._lam = lam[:, None, None] + lam[None, :, None] + lam[None, None, :]

    def _transform(self, x: np.ndarray) -> np.ndarray:
        # x is (m, N, N, N); each contraction takes the first grid axis and
        # appends it transformed, so three of them restore the axis order
        for _ in range(3):
            x = np.tensordot(x, self._S, axes=([1], [0]))
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a (dof,) vector or a (dof, k) block, one call for all k."""
        b = np.asarray(rhs, dtype=float)
        N = self.op.grid.N
        cols = np.moveaxis(b.reshape(N, N, N, -1), 3, 0)     # (d k, N, N, N)
        g = self._transform(self._transform(cols) / self._lam)
        return np.moveaxis(g, 0, 3).reshape(b.shape)


@dataclass
class GreenField:
    """d x d blocks of the fundamental matrix at a fixed pole."""

    grid: Grid3
    d: int
    pole: int                      # flat node index
    blocks: np.ndarray             # (size, d, d); blocks[x][j, k] = Gamma_jk(x, pole)
    residual: float


def green_field(op: DiscreteOperator, pole,
                solver: Optional[DirectSolver | SineSolver] = None,
                boundary_data: Optional[Callable] = None) -> GreenField:
    """Fundamental matrix column block at one pole: solve op g = e_k delta/h^3.

    The module's solver policy applies: the free operator takes the sine
    solve and any other operator Jacobi-CG to ``SOLVE_TOL``, one column at
    a time.  A caller that reuses one factorization across poles, or wants
    the machine-precision oracle, passes ``solver`` (a :class:`DirectSolver`
    or :class:`SineSolver`), which gets the d right-hand sides as one
    (dof, d) block.  ``residual`` is the largest relative residual over the
    columns.

    ``boundary_data``, when given, imposes inhomogeneous Dirichlet values
    g(x_wall) -> (d, d) on the box walls (used to validate the free-space
    kernel without the zero-wall truncation deficit); default walls are 0.
    """
    grid = op.grid
    if isinstance(pole, (tuple, list, np.ndarray)):
        pole = grid.nearest_index(pole) if np.asarray(pole).dtype.kind == "f" \
            else grid.index(pole)
    size, d = grid.size, op.d
    h3 = grid.h ** 3
    # column k of rhs holds e_k delta/h^3 plus the wall data of column k
    rhs = np.zeros((size * d, d))
    if boundary_data is not None:
        wall_rhs = rhs.reshape(size, d, d)
        nodes = grid.nodes()
        for axis, side, node_ids, coeff in op.boundary_faces:
            pts = nodes[node_ids]
            pts[:, axis] = -grid.L if side == 0 else grid.L
            gvals = np.asarray(boundary_data(pts), dtype=float)  # (M, d, d)
            wall_rhs[node_ids] += coeff[:, None, None] * gvals
    rhs[pole * d + np.arange(d), np.arange(d)] += 1.0 / h3
    if solver is None and op.free_laplacian:
        solver = SineSolver(op)
    if solver is not None:
        g = solver.solve(rhs)
    else:
        g = np.stack([solve(op, rhs[:, k]) for k in range(d)], axis=1)
    resid = op.matrix @ g - rhs
    res = max(float(np.linalg.norm(resid[:, k]) / max(np.linalg.norm(rhs[:, k]), 1e-300))
              for k in range(d))
    blocks = np.ascontiguousarray(g).reshape(size, d, d)
    return GreenField(grid=grid, d=d, pole=int(pole), blocks=blocks, residual=res)


def free_space_kernel(y0: np.ndarray, d: int) -> Callable:
    """x -> I_d / (4 pi |x - y0|), the classical Laplacian kernel."""
    y0 = np.asarray(y0, dtype=float)

    def data(X):
        r = np.linalg.norm(np.atleast_2d(X) - y0[None, :], axis=1)
        return (1.0 / (4.0 * math.pi * r))[:, None, None] * np.eye(d)[None, :, :]

    return data


# ---------------------------------------------------------------------------
# resolvent representation identity
# ---------------------------------------------------------------------------

def resolvent_identity_check(W: MatrixWeight, grid: Grid3, pole,
                             x_list: Sequence, a_field: Optional[Callable] = None,
                             lam: float = 1.0, Lam: float = 1.0) -> float:
    """Max relative error of the discrete representation identity

    G0 - GV = G0 M_Lam GLam + GLam (M_V - M_Lam) GV

    with M_* the node potentials and h^3-weighted sums over all nodes.  The
    identity is exact for discrete inverses, so exact solvers make the
    error solver-precision small: the sine solve for each of the three
    operators that is free (the zero one whenever ``a_field`` is None),
    sparse LU for the others.
    """
    d = W.d
    Lambda = NormDiagWeight(base=W)
    ops = {
        "zero": assemble(None, a_field, grid, d=d, lam=lam, Lam=Lam),
        "lam": assemble(Lambda, a_field, grid, lam=lam, Lam=Lam),
        "pot": assemble(W, a_field, grid, lam=lam, Lam=Lam),
    }
    solvers = {k: SineSolver(v) if v.free_laplacian else DirectSolver(v)
               for k, v in ops.items()}
    if isinstance(pole, (tuple, list)):
        pole = grid.index(pole)
    h3 = grid.h ** 3

    g0_y = green_field(ops["zero"], pole, solver=solvers["zero"]).blocks
    gl_y = green_field(ops["lam"], pole, solver=solvers["lam"]).blocks
    gv_y = green_field(ops["pot"], pole, solver=solvers["pot"]).blocks

    V_blocks = ops["pot"].potential_blocks
    L_blocks = ops["lam"].potential_blocks
    diff_blocks = V_blocks - L_blocks

    worst = 0.0
    for x in x_list:
        xi = grid.index(x) if isinstance(x, (tuple, list)) else int(x)
        # rows Gamma(x, .) come from fields at pole x via symmetry
        g0_x = green_field(ops["zero"], xi, solver=solvers["zero"]).blocks
        gl_x = green_field(ops["lam"], xi, solver=solvers["lam"]).blocks
        # Gamma(x, z) = Gamma(z, x)^T for the self-adjoint operators here
        term1 = h3 * np.einsum("zji,zjk,zkl->il", g0_x, L_blocks, gl_y)
        term2 = h3 * np.einsum("zji,zjk,zkl->il", gl_x, diff_blocks, gv_y)
        lhs = g0_y[xi] - gv_y[xi]
        rhs = term1 + term2
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs),
                    1e-30 * max(np.linalg.norm(g0_y[xi]), 1e-300))
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / scale))
    return worst


# ---------------------------------------------------------------------------
# landscape function
# ---------------------------------------------------------------------------

def landscape(op: DiscreteOperator, x0) -> dict:
    """u(x0) = h^3 sum_y |Gamma(x0, y)| with the auxiliary comparands.

    Returns u together with 1/m_lower(x0)^2 and 1/m_upper(x0)^2 computed on
    the operator's weight; the landscape value is expected to sit between
    them up to stable constants.
    """
    if op.weight is None:
        raise ConfigError("landscape needs an operator with a potential")
    grid = op.grid
    xi = grid.index(x0) if isinstance(x0, (tuple, list)) else int(x0)
    gf = green_field(op, xi)
    norms = np.linalg.norm(gf.blocks, ord=2, axis=(1, 2))
    u = float(grid.h ** 3 * norms.sum())
    x = grid.node(xi)
    m_lo = auxmetric.aux_value(op.weight, x, kind="lower")
    m_up = auxmetric.aux_value(op.weight, x, kind="upper")
    return {"u": u, "x": x.tolist(), "m_lower": m_lo, "m_upper": m_up,
            "upper_comparand": 1.0 / m_lo ** 2, "lower_comparand": 1.0 / m_up ** 2,
            "c_lower": u * m_up ** 2, "c_upper": u * m_lo ** 2}


# ---------------------------------------------------------------------------
# binary serialization (header: N, L, d, pole; node-major d x d blocks)
# ---------------------------------------------------------------------------

def save_green_binary(path, gf: GreenField) -> None:
    i, j, k = np.unravel_index(gf.pole, (gf.grid.N,) * 3)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<i", gf.grid.N))
        fh.write(struct.pack("<d", gf.grid.L))
        fh.write(struct.pack("<i", gf.d))
        fh.write(struct.pack("<iii", int(i), int(j), int(k)))
        fh.write(np.asarray(gf.blocks, dtype="<f8").tobytes())


def load_green_binary(path) -> GreenField:
    with open(path, "rb") as fh:
        N = struct.unpack("<i", fh.read(4))[0]
        L = struct.unpack("<d", fh.read(8))[0]
        d = struct.unpack("<i", fh.read(4))[0]
        pole_multi = struct.unpack("<iii", fh.read(12))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(N ** 3, d, d)
    grid = Grid3(L=L, N=N)
    return GreenField(grid=grid, d=d, pole=grid.index(pole_multi),
                      blocks=data.copy(), residual=0.0)
