import math

import numpy as np
import pytest

from mwlab import cli, pde
from mwlab import weights as mw
from mwlab.errors import ConfigError, EllipticityViolation


@pytest.fixture(scope="module")
def grid13():
    return pde.Grid3(L=2.0, N=13)


class TestGrid:
    def test_spacing(self, grid13):
        assert grid13.h == pytest.approx(4.0 / 14.0)
        assert len(grid13.axis) == 13
        assert grid13.axis[0] == pytest.approx(-2.0 + grid13.h)

    def test_even_N_avoids_origin(self):
        g = pde.Grid3(L=2.0, N=12)
        assert not np.any(np.isclose(g.axis, 0.0))

    def test_boxgrid_alignment(self, grid13):
        bg = grid13.to_boxgrid()
        assert np.allclose(bg.axis, grid13.axis)

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            pde.Grid3(L=1.0, N=5)

    def test_index_is_c_order(self, grid13):
        assert grid13.index((2, 5, 7)) == (2 * 13 + 5) * 13 + 7
        assert grid13.index([12, 12, 12]) == grid13.size - 1

    @pytest.mark.parametrize("multi", [(20, 0, 0), (6, 6, -1), (13, 0, 0), (6, 6), (1, 2, 3, 4)])
    def test_index_off_the_grid_is_config_error(self, grid13, multi):
        with pytest.raises(ConfigError):
            grid13.index(multi)
        with pytest.raises(ConfigError):
            grid13.to_boxgrid().index(multi)


class TestAssemble:
    def test_laplacian_row_sums_vanish_inside(self):
        g = pde.Grid3(L=1.0, N=9)
        op = pde.assemble(None, None, g, d=1)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel().reshape(9, 9, 9)
        assert np.max(np.abs(sums[2:-2, 2:-2, 2:-2])) <= 1e-11

    def test_identity_potential_shifts_diagonal(self, grid13, identity2):
        op0 = pde.assemble(None, None, grid13, d=2)
        opI = pde.assemble(identity2, None, grid13)
        diff = opI.matrix - op0.matrix
        assert np.allclose(diff.diagonal(), 1.0)
        off = diff - pde.sparse.diags(diff.diagonal())
        assert abs(off).max() == 0.0

    def test_diag_weight_is_block_decoupled(self, grid13, diag_poly):
        op = pde.assemble(diag_poly, None, grid13)
        coo = op.matrix.tocoo()
        comp_r = coo.row % 2
        comp_c = coo.col % 2
        assert np.all(comp_r == comp_c)

    def test_exact_symmetry(self, grid13):
        # DirectSolver's symmetric mode rests on this, for every catalog
        # weight and for the norm envelope that resolvent_identity_check uses
        for name, cfg in cli.BUILTIN_WEIGHTS.items():
            W = mw.from_config(cfg)
            for V in (W, mw.NormDiagWeight(base=W)):
                op = pde.assemble(V, None, grid13)
                assert (op.matrix != op.matrix.T).nnz == 0, (name, type(V).__name__)

    def test_ellipticity_violation(self, grid13):
        bad = lambda X: 1.0 + np.clip(X[:, 0], 0, None)  # exceeds Lam = 1
        with pytest.raises(EllipticityViolation):
            pde.assemble(None, bad, grid13, d=1, lam=1.0, Lam=1.0)

    def test_variable_coefficient_ok(self, grid13):
        a = lambda X: 1.0 + 0.25 * np.sin(X[:, 0])
        op = pde.assemble(None, a, grid13, d=1, lam=0.5, Lam=1.5)
        assert (op.matrix != op.matrix.T).nnz == 0


class TestSolve:
    def test_zero_rhs(self, grid13, identity2):
        op = pde.assemble(identity2, None, grid13)
        x = pde.solve(op, np.zeros(op.dof))
        assert np.array_equal(x, np.zeros(op.dof))

    def test_recovers_forward_multiply(self, grid13, identity2, rng):
        op = pde.assemble(identity2, None, grid13)
        w = rng.standard_normal(op.dof)
        x = pde.solve(op, op.matrix @ w)
        assert np.linalg.norm(x - w) / np.linalg.norm(w) <= 1e-7

    def test_matches_direct_factorization(self, grid13, diag_poly, power13, rng):
        # power-13 has off-diagonal blocks, diag-poly has none
        for W in (diag_poly, power13):
            op = pde.assemble(W, None, grid13)
            rhs = rng.standard_normal(op.dof)
            x_cg = pde.solve(op, rhs)
            x_lu = pde.DirectSolver(op).solve(rhs)
            assert np.linalg.norm(x_cg - x_lu) / np.linalg.norm(x_lu) <= 1e-8

    def test_block_solve_matches_column_solves(self, grid13, power13, rng):
        op = pde.assemble(power13, None, grid13)
        solver = pde.DirectSolver(op)
        rhs = rng.standard_normal((op.dof, 3))
        x = solver.solve(rhs)
        assert x.shape == (op.dof, 3)
        for k in range(3):
            assert np.array_equal(x[:, k], solver.solve(rhs[:, k]))

    def test_fill_of_symmetric_ordering(self, grid13, diag_poly):
        # deterministic guard on the ordering: nnz(L + U) is 0.92M with the
        # COLAMD column ordering and 0.42M with minimum degree on A^T + A
        solver = pde.DirectSolver(pde.assemble(diag_poly, None, grid13))
        assert solver.fill <= 500_000

    def test_residual_contract(self, grid13, rank_one, rng):
        op = pde.assemble(rank_one, None, grid13)
        rhs = rng.standard_normal(op.dof)
        x = pde.solve(op, rhs, tol=1e-10)
        assert np.linalg.norm(op.matrix @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("N", [20, 21])
    def test_free_operator_green_field_is_exact_at_any_N(self, N):
        # residual 1e-13 is far below SOLVE_TOL, so only the sine solve meets it
        op = pde.assemble(None, None, pde.Grid3(L=1.0, N=N), d=1)
        assert pde.green_field(op, (N // 2,) * 3).residual <= 1e-13


class OneNodeCoupling(mw.MatrixWeight):
    """I_3 plus 1/2 in entries (0, 2) and (2, 0) at the one node ``at``."""

    n, d = 3, 3
    singular_at_origin = False

    def __init__(self, at):
        self.at = np.asarray(at, dtype=float)

    def eval_many(self, X):
        X = np.atleast_2d(X)
        out = np.broadcast_to(np.eye(3), (X.shape[0], 3, 3)).copy()
        hit = np.all(np.abs(X - self.at) <= 1e-12, axis=1)
        out[hit, 0, 2] = out[hit, 2, 0] = 0.5
        return out

    def to_config(self):
        return {"kind": "one-node-coupling", "n": 3, "d": 3}


class TestComponentGroups:
    def test_diagonal_potentials_split(self, grid13, identity2, diag_poly):
        for W in (identity2, diag_poly):
            assert pde.assemble(W, None, grid13).component_groups == [[0], [1]]

    def test_coupled_potentials_form_one_group(self, grid13, power13, rank_one):
        for W in (power13, rank_one):
            assert pde.assemble(W, None, grid13).component_groups == [[0, 1]]

    def test_coupling_at_a_single_node_joins_a_group(self, grid13):
        W = OneNodeCoupling(grid13.node(grid13.index((3, 4, 5))))
        op = pde.assemble(W, None, grid13)
        assert int(np.count_nonzero(op.potential_blocks[:, 0, 2])) == 1
        assert op.component_groups == [[0, 2], [1]]
        pole = grid13.index((4, 4, 5))
        cg = pde.green_field(op, pole)
        lu = pde.green_field(op, pole, solver=pde.DirectSolver(op))
        assert np.abs(cg.blocks[:, 0, 2]).max() > 0   # the coupling is felt
        rel = np.linalg.norm(cg.blocks - lu.blocks) / np.linalg.norm(lu.blocks)
        assert rel <= 1e-8
        assert cg.residual <= pde.SOLVE_TOL

    def test_cg_fields_match_direct(self, grid13, identity2, diag_poly, power13):
        for W in (diag_poly, identity2, mw.NormDiagWeight(base=power13)):
            op = pde.assemble(W, None, grid13)
            cg = pde.green_field(op, (6, 5, 7))
            lu = pde.green_field(op, (6, 5, 7), solver=pde.DirectSolver(op))
            rel = np.linalg.norm(cg.blocks - lu.blocks) / np.linalg.norm(lu.blocks)
            assert rel <= 1e-8, type(W).__name__
            assert cg.residual <= pde.SOLVE_TOL


def _eigh_reference(op, rhs):
    """Solve the free operator through LAPACK's eigendecomposition of the
    1-D Dirichlet stencil: a reference independent of the sine formulas."""
    N, h = op.grid.N, op.grid.h
    T = (2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)) / h ** 2
    w, Q = np.linalg.eigh(T)
    lam = w[:, None, None] + w[None, :, None] + w[None, None, :]
    b = rhs.reshape(N, N, N, -1)
    c = np.einsum("ai,bj,ck,abcm->ijkm", Q, Q, Q, b, optimize=True) / lam[..., None]
    return np.einsum("ai,bj,ck,ijkm->abcm", Q, Q, Q, c, optimize=True).reshape(rhs.shape)


class TestSineSolve:
    @pytest.mark.parametrize("N", [13, 19])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_direct_solver(self, N, d):
        g = pde.Grid3(L=2.0, N=N)
        op = pde.assemble(None, None, g, d=d)
        lu = pde.DirectSolver(op)
        mid = (N // 2,) * 3
        y0 = g.node(g.index(mid))
        for data in (None, pde.free_space_kernel(y0, d)):
            sine = pde.green_field(op, mid, boundary_data=data)
            ref = pde.green_field(op, mid, solver=lu, boundary_data=data)
            rel = np.linalg.norm(sine.blocks - ref.blocks) / np.linalg.norm(ref.blocks)
            assert rel <= 1e-12
            assert sine.residual <= 1e-13

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_eigendecomposition_at_N40(self, d):
        # sparse LU of the N = 40 operator takes about 12 s and 1 GB, so the
        # reference here is the dense eigendecomposition of the 1-D stencil
        g = pde.Grid3(L=3.0, N=40)
        op = pde.assemble(None, None, g, d=d)
        mid = (20, 20, 20)
        y0 = g.node(g.index(mid))
        for data in (None, pde.free_space_kernel(y0, d)):
            sine = pde.green_field(op, mid, boundary_data=data)
            rhs = np.zeros((op.dof, d))
            rhs[g.index(mid) * d + np.arange(d), np.arange(d)] = 1.0 / g.h ** 3
            if data is not None:
                for axis, side, node_ids, coeff in op.boundary_faces:
                    pts = g.nodes()[node_ids]
                    pts[:, axis] = -g.L if side == 0 else g.L
                    rhs.reshape(g.size, d, d)[node_ids] += coeff[:, None, None] * data(pts)
            ref = _eigh_reference(op, rhs).reshape(g.size, d, d)
            rel = np.linalg.norm(sine.blocks - ref) / np.linalg.norm(ref)
            assert rel <= 1e-12
            assert sine.residual <= 1e-13

    def test_block_solve_matches_column_solves(self, grid13, rng):
        solver = pde.SineSolver(pde.assemble(None, None, grid13, d=2))
        rhs = rng.standard_normal((solver.op.dof, 3))
        x = solver.solve(rhs)
        assert x.shape == rhs.shape
        for k in range(3):
            # BLAS may sum a block in another order than a single column
            col = solver.solve(rhs[:, k])
            assert np.linalg.norm(x[:, k] - col) <= 1e-14 * np.linalg.norm(col)

    def test_which_operators_qualify(self, grid13, identity2):
        zero = mw.ConstantWeight(np.zeros((2, 2)), n=3)
        assert pde.assemble(None, None, grid13, d=2).free_laplacian
        assert pde.assemble(zero, None, grid13).free_laplacian
        one = lambda X: np.ones(X.shape[0])
        for op in (pde.assemble(zero, one, grid13), pde.assemble(identity2, None, grid13)):
            assert not op.free_laplacian
            with pytest.raises(ConfigError):
                pde.SineSolver(op)

    def test_explicit_solver_is_honored(self, grid13, monkeypatch):
        op = pde.assemble(None, None, grid13, d=2)
        sine = pde.green_field(op, (6, 6, 6))

        def refuse(self, rhs):
            raise AssertionError("sine solve ran despite an explicit solver")

        monkeypatch.setattr(pde.SineSolver, "solve", refuse)
        lu = pde.green_field(op, (6, 6, 6), solver=pde.DirectSolver(op))
        assert np.linalg.norm(lu.blocks - sine.blocks) <= 1e-12 * np.linalg.norm(lu.blocks)


class TestGreen:
    def test_free_kernel_validation(self):
        # free-data Dirichlet walls isolate the stencil error: the kernel is
        # matched to a few percent outside the 5h core
        g = pde.Grid3(L=2.0, N=19)
        op = pde.assemble(None, None, g, d=1)
        mid = (9, 9, 9)
        y0 = g.node(g.index(mid))
        gf = pde.green_field(op, mid, solver=pde.DirectSolver(op),
                             boundary_data=pde.free_space_kernel(y0, 1))
        nodes = g.nodes()
        r = np.linalg.norm(nodes - y0[None, :], axis=1)
        mask = (r >= 5 * g.h) & (r <= g.L / 2)
        kern = 1.0 / (4.0 * math.pi * np.where(r > 0, r, np.inf))
        rel = np.abs(gf.blocks[mask, 0, 0] - kern[mask]) / kern[mask]
        assert rel.max() <= 0.05

    def test_diag_weight_off_blocks_vanish(self, grid13, diag_poly):
        op = pde.assemble(diag_poly, None, grid13)
        gf = pde.green_field(op, (6, 6, 6), solver=pde.DirectSolver(op))
        scale = np.abs(np.stack([gf.blocks[:, 0, 0], gf.blocks[:, 1, 1]])).max()
        off = np.abs(np.stack([gf.blocks[:, 0, 1], gf.blocks[:, 1, 0]])).max()
        assert off <= 1e-8 * scale

    def test_scalar_monotonicity(self, grid13):
        # discrete maximum principle: adding a PSD diagonal potential only
        # lowers the kernel, entrywise, and keeps it nonnegative
        v = mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),))
        op0 = pde.assemble(None, None, grid13, d=1)
        opv = pde.assemble(v, None, grid13)
        g0 = pde.green_field(op0, (6, 6, 6), solver=pde.DirectSolver(op0))
        gv = pde.green_field(opv, (6, 6, 6), solver=pde.DirectSolver(opv))
        assert gv.blocks.min() >= -1e-12
        assert np.all(gv.blocks[:, 0, 0] <= g0.blocks[:, 0, 0] * (1 + 1e-12) + 1e-15)

    def test_symmetry_between_poles(self, grid13, rank_one):
        op = pde.assemble(rank_one, None, grid13)
        solver = pde.DirectSolver(op)
        a, b = (3, 4, 5), (9, 8, 7)
        ga = pde.green_field(op, a, solver=solver)
        gb = pde.green_field(op, b, solver=solver)
        G_ab = ga.blocks[grid13.index(b)]     # Gamma(b, a)
        G_ba = gb.blocks[grid13.index(a)]     # Gamma(a, b)
        scale = max(np.abs(G_ab).max(), 1e-300)
        assert np.abs(G_ab - G_ba.T).max() <= 1e-9 * scale

    def test_lu_block_matches_column_solves(self, grid13, power13):
        # one block solve gives the fields of d single-column solves, and
        # residual is the largest relative residual over the columns
        op = pde.assemble(power13, None, grid13)
        solver = pde.DirectSolver(op)
        pole = grid13.index((6, 5, 7))
        gf = pde.green_field(op, pole, solver=solver)
        res = []
        for k in range(op.d):
            rhs = np.zeros(op.dof)
            rhs[pole * op.d + k] = 1.0 / grid13.h ** 3
            g = solver.solve(rhs)
            assert np.array_equal(gf.blocks[:, :, k], g.reshape(grid13.size, op.d))
            res.append(np.linalg.norm(op.matrix @ g - rhs) / np.linalg.norm(rhs))
        assert gf.residual == max(res)
        assert gf.residual <= 1e-14

    def test_binary_round_trip(self, grid13, identity2, tmp_path):
        op = pde.assemble(identity2, None, grid13)
        gf = pde.green_field(op, (6, 6, 6), solver=pde.DirectSolver(op))
        path = tmp_path / "green.bin"
        pde.save_green_binary(path, gf)
        back = pde.load_green_binary(path)
        assert back.pole == gf.pole
        assert np.array_equal(back.blocks, gf.blocks)


class TestResolventIdentity:
    def test_zero_potential_trivial(self, grid13):
        W = mw.ConstantWeight(np.zeros((2, 2)), n=3)
        err = pde.resolvent_identity_check(W, grid13, (6, 6, 6),
                                           x_list=[(2, 3, 4), (9, 9, 9)])
        assert err <= 1e-12

    def test_constant_multiple_of_identity(self, grid13):
        # V = c I equals its norm envelope, so one term drops and the
        # identity reduces to the two-operator case
        W = mw.ConstantWeight(1.5 * np.eye(2), n=3)
        err = pde.resolvent_identity_check(W, grid13, (6, 6, 6),
                                           x_list=[(2, 3, 4), (10, 4, 8)])
        assert err <= 1e-8

    def test_free_operators_are_never_factored(self, grid13, diag_poly, monkeypatch):
        factored = []
        init = pde.DirectSolver.__init__

        def record(self, op):
            factored.append(op.free_laplacian)
            init(self, op)

        monkeypatch.setattr(pde.DirectSolver, "__init__", record)
        pde.resolvent_identity_check(diag_poly, grid13, (6, 6, 6), x_list=[(3, 3, 3)])
        assert factored == [False, False]          # the Lambda and V operators
        factored.clear()
        pde.resolvent_identity_check(mw.ConstantWeight(np.zeros((2, 2)), n=3), grid13,
                                     (6, 6, 6), x_list=[(3, 3, 3)])
        assert factored == []

    def test_catalog_weights(self, grid13, rank_one, diag_poly):
        for W in (rank_one, diag_poly):
            err = pde.resolvent_identity_check(W, grid13, (6, 6, 6),
                                               x_list=[(3, 3, 3), (9, 8, 7)])
            assert err <= 1e-7


class TestBoundaryTruncation:
    def test_green_agrees_across_box_enlargement(self, diag_poly):
        # same h on both grids; nodes align; decay suppresses the walls
        g_small = pde.Grid3(L=2.0, N=15)   # h = 0.25
        g_big = pde.Grid3(L=3.0, N=23)     # h = 0.25
        shift = 4  # index offset of the shared region
        op_s = pde.assemble(diag_poly, None, g_small)
        op_b = pde.assemble(diag_poly, None, g_big)
        mid_s = (7, 7, 7)
        mid_b = (11, 11, 11)
        gf_s = pde.green_field(op_s, mid_s, solver=pde.DirectSolver(op_s))
        gf_b = pde.green_field(op_b, mid_b, solver=pde.DirectSolver(op_b))
        y0 = g_small.node(g_small.index(mid_s))
        assert np.allclose(y0, g_big.node(g_big.index(mid_b)))
        worst = 0.0
        for probe in [(5, 7, 7), (9, 9, 9), (7, 4, 7), (10, 7, 6)]:
            x = g_small.node(g_small.index(probe))
            if np.max(np.abs(x - y0)) > g_small.L / 3:
                continue
            big_probe = tuple(p + shift for p in probe)
            a = gf_s.blocks[g_small.index(probe)]
            b = gf_b.blocks[g_big.index(big_probe)]
            worst = max(worst, np.abs(a - b).max() / np.abs(b).max())
        assert worst <= 0.03


class TestLandscape:
    def test_constant_weight_bounds_coincide(self, grid13):
        W = mw.ConstantWeight(2.0 * np.eye(2), n=3)
        op = pde.assemble(W, None, grid13)
        res = pde.landscape(op, (6, 6, 6))
        assert res["m_lower"] == pytest.approx(res["m_upper"], rel=1e-8)
        assert res["u"] > 0
        # sandwich with order-one constants in the constant case
        assert 0.05 <= res["c_lower"] <= 20.0
        assert 0.05 <= res["c_upper"] <= 20.0

    def test_zero_potential_grows_with_box(self):
        # control case outside the decay theory: u grows with the box size
        vals = []
        for L, N in ((2.0, 13), (3.0, 20)):
            g = pde.Grid3(L=L, N=N)
            op = pde.assemble(None, None, g, d=1)
            gf = pde.green_field(op, (N // 2,) * 3, solver=pde.DirectSolver(op))
            vals.append(g.h ** 3 * np.abs(gf.blocks[:, 0, 0]).sum())
        assert vals[1] > 1.3 * vals[0]

    def test_requires_potential(self, grid13):
        op = pde.assemble(None, None, grid13, d=1)
        with pytest.raises(ConfigError):
            pde.landscape(op, (6, 6, 6))
