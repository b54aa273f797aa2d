import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwlab import certify as cf
from mwlab import cubature as cb
from mwlab import weights as mw
from mwlab.errors import ConfigError, DomainError, NotPSD


def random_points(rng, count, scale=5.0):
    return rng.uniform(-scale, scale, size=(count, 3))


class TestEval:
    def test_rank_one_at_unit_point(self, rank_one):
        assert np.allclose(rank_one.eval([1.0, 0.0, 0.0]), [[1.0, 1.0], [1.0, 1.0]])

    def test_rank_one_general_point(self, rank_one):
        x = np.array([1.0, 2.0, -2.0])
        s = 9.0
        assert np.allclose(rank_one.eval(x), [[1.0, s], [s, s * s]])

    def test_power_zero_exponents_give_constant(self, rng):
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        W = mw.PowerWeight(A=A, gamma=np.zeros(2))
        for x in random_points(rng, 5):
            assert np.allclose(W.eval(x), A)

    def test_scalar_diag_direct_substitution(self, diag_poly):
        got = diag_poly.eval([2.0, 0.0, 0.0])
        assert np.allclose(got, np.diag([4.0, 16.0]))

    def test_negative_power_rejects_origin(self):
        W = mw.PowerWeight(A=np.eye(2), gamma=np.array([-1.0, 1.0]))
        with pytest.raises(DomainError):
            W.eval([0.0, 0.0, 0.0])

    def test_dimension_mismatch(self, rank_one):
        with pytest.raises(DomainError):
            rank_one.eval([1.0, 0.0])


class TestSqrtPSD:
    def test_identity(self):
        assert np.array_equal(mw.sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(mw.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_rank_one_unit_sphere(self, rank_one):
        # V^(1/2) = V / sqrt(1 + |x|^4); at |x| = 1 that is [[1,1],[1,1]]/sqrt(2)
        V = rank_one.eval([0.0, 1.0, 0.0])
        S = mw.sqrt_psd(V)
        assert np.allclose(S, np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2.0))
        assert np.allclose(S @ S, V, rtol=1e-12, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            mw.sqrt_psd(np.diag([1.0, -1.0]))

    def test_clamps_eigennoise(self):
        m = np.diag([1.0, -1e-14])
        S = mw.sqrt_psd(m)
        assert S[1, 1] == 0.0

    @given(st.integers(2, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_square_roundtrip(self, d, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((d, d))
        M = B @ B.T
        S = mw.sqrt_psd(M)
        assert np.array_equal(S, S.T)
        rel = np.linalg.norm(S @ S - M) / max(np.linalg.norm(M), 1e-300)
        assert rel <= 1e-12

    # d = 2 takes the closed form; the eigh reconstruction is its reference

    @staticmethod
    def eigh_root(m):
        w, v = mw._clamped_eigh(m)
        return mw.symmetrize((v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2))

    def test_d2_matches_eigh_reconstruction(self):
        B = np.random.default_rng(1).standard_normal((10000, 2, 2))
        A = B @ np.swapaxes(B, 1, 2)
        S = mw.sqrt_psd(A)
        lam_max = np.linalg.eigvalsh(A)[:, -1]
        err = np.abs(S - self.eigh_root(A)).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * lam_max)
        assert np.array_equal(S, np.swapaxes(S, 1, 2))

    def test_d2_exact_rank_one(self):
        # v v^T with v = (1, |x|^2): the eigenvalue 0 comes out as noise
        t = np.linspace(0.0, 10.0, 101)
        v = np.stack([np.ones_like(t), t * t], axis=1)
        V = v[:, :, None] * v[:, None, :]
        S = mw.sqrt_psd(V)
        norm = np.linalg.norm(V, axis=(1, 2))
        assert np.all(np.abs(S @ S - V).max(axis=(1, 2)) <= 1e-14 * norm)
        lam = np.linalg.eigvalsh(S)
        assert np.all(lam[:, 0] >= -mw.TOL_EIG * lam[:, -1])

    def test_d2_stack_mixes_clamped_and_ordinary_rows(self):
        noise = np.diag([1.0, -1e-14])
        A = np.stack([np.diag([4.0, 9.0]), noise, np.array([[2.0, 1.0], [1.0, 2.0]]),
                      np.array([[1.0, 1.0], [1.0, 1.0 - 1e-13]])])
        S = mw.sqrt_psd(A)
        assert S[1, 1, 1] == 0.0 and S[1, 0, 0] == 1.0
        assert np.allclose(S[0], np.diag([2.0, 3.0]), rtol=1e-15, atol=0.0)
        for k in (0, 2, 3):
            assert np.allclose(S[k], self.eigh_root(A[k]), rtol=0.0, atol=1e-14)
        assert np.linalg.eigvalsh(S)[:, 0].min() >= 0.0

    def test_d2_zero_matrix(self):
        assert np.array_equal(mw.sqrt_psd(np.zeros((2, 2))), np.zeros((2, 2)))
        S = mw.sqrt_psd(np.stack([np.zeros((2, 2)), np.eye(2)]))
        assert np.array_equal(S, np.stack([np.zeros((2, 2)), np.eye(2)]))

    def test_d2_one_matrix_matches_stack(self):
        B = np.random.default_rng(2).standard_normal((50, 2, 2))
        A = B @ np.swapaxes(B, 1, 2)
        S = mw.sqrt_psd(A)
        for k in range(len(A)):
            assert np.array_equal(mw.sqrt_psd(A[k]), S[k])

    def test_d2_rejects_what_eigh_rejects(self):
        R = np.array([[0.6, -0.8], [0.8, 0.6]])
        cases = [np.diag([1.0, lo]) for lo in (-1.0, -2e-10, -0.5e-10, -1e-14, 0.0)]
        cases += [R @ c @ R.T for c in cases]
        B = np.random.default_rng(3).standard_normal((20, 2, 2))
        cases += list(B + np.swapaxes(B, 1, 2))     # symmetric, often indefinite
        raised = 0
        for m in cases:
            try:
                mw._clamped_eigh(m)
            except NotPSD:
                raised += 1
                with pytest.raises(NotPSD):
                    mw.sqrt_psd(m)
            else:
                mw.sqrt_psd(m)
        assert 0 < raised < len(cases)

    def test_sandwich_matches_three_operand_einsum(self, power13, rank_one):
        X = random_points(np.random.default_rng(4), 500)
        B = np.array([[2.0, -0.3], [-0.3, 0.5]])
        for W in (power13, rank_one):
            V = W.eval_many(X)
            roots = mw.sqrt_psd(V)
            ref = np.einsum("mij,jk,mkl->mil", roots, B, roots)
            got = mw.sqrt_sandwich(V, B)
            scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)


class TestCatalogInvariants:
    def _catalog(self, identity2, rank_one, diag_poly, power13):
        norm_diag = mw.NormDiagWeight(base=rank_one)
        return [identity2, rank_one, diag_poly, power13, norm_diag]

    def test_symmetry_and_psd_at_random_points(self, identity2, rank_one,
                                               diag_poly, power13, rng):
        X = random_points(rng, 1000)
        for W in self._catalog(identity2, rank_one, diag_poly, power13):
            vals = W.eval_many(X)
            assert np.array_equal(vals, np.swapaxes(vals, 1, 2))
            lam = np.linalg.eigvalsh(vals)
            assert np.all(lam[:, 0] >= -1e-10 * np.maximum(lam[:, -1], 1e-300))

    def test_norm_diag_matches_eigendecomposition(self, diag_poly, power13, rng):
        X = random_points(rng, 200)
        for base in (diag_poly, power13):
            ND = mw.NormDiagWeight(base=base)
            got = ND.eval_many(X)
            lam_max = np.linalg.eigvalsh(base.eval_many(X))[:, -1]
            expect = lam_max[:, None, None] * np.eye(2)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)

    def test_power_positive_definite_off_origin(self, power13, rng):
        X = random_points(rng, 400)
        X = X[np.linalg.norm(X, axis=1) > 1e-6]
        lam = np.linalg.eigvalsh(power13.eval_many(X))
        assert np.all(lam[:, 0] > 0)


class TestMoments:
    def test_first_moment_closed_form(self, rng):
        # int_Q |y|^2 = (2r)^n (|c|^2 + n r^2 / 3)
        for _ in range(20):
            c = rng.uniform(-3, 3, size=3)
            r = float(rng.uniform(0.1, 2.0))
            M = mw.cube_moments(c, r, 2)[0]
            vol = (2 * r) ** 3
            assert M[0] == pytest.approx(vol)
            assert M[1] == pytest.approx(vol * (c @ c + r * r), rel=1e-12)

    def test_second_moment_against_quadrature(self, rng):
        c = np.array([0.7, -0.3, 1.1])
        r = 0.9
        M2 = mw.cube_moments(c, r, 3)[0, 2]
        # brute tensor Gauss-Legendre at high order as the independent oracle
        nodes, wts = np.polynomial.legendre.leggauss(12)
        pts = [c[i] + r * nodes for i in range(3)]
        total = 0.0
        for i, xi in enumerate(pts[0]):
            for j, yj in enumerate(pts[1]):
                for k, zk in enumerate(pts[2]):
                    total += wts[i] * wts[j] * wts[k] * (xi ** 2 + yj ** 2 + zk ** 2) ** 2
        total *= r ** 3
        assert M2 == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("c,r", [((240.0, 0.0, 0.0), 1e-2),
                                     ((1000.0, 0.5, -0.25), 1e-4)])
    def test_far_centers_against_fractions(self, c, r):
        # exact rational moments of the float cube; per-axis differences
        # ((c + r)^p - (c - r)^p) / p cancel here to 9e-13 and 2.5e-10
        c_q, r_q = [Fraction(v) for v in c], Fraction(r)
        axis = [[((ci + r_q) ** (2 * a + 1) - (ci - r_q) ** (2 * a + 1)) / (2 * a + 1)
                 for a in range(5)] for ci in c_q]
        want = [float(sum(math.comb(k, a) * math.comb(k - a, b)
                          * axis[0][a] * axis[1][b] * axis[2][k - a - b]
                          for a in range(k + 1) for b in range(k - a + 1)))
                for k in range(5)]
        got = mw.cube_moments(np.array(c), r, 5)[0]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


# every weight whose closed forms come from radial_table(), built from fixtures
TABLE_BACKED = {
    "diag-ordered": lambda get: get("diag_ordered"),
    "norm-diag": lambda get: mw.NormDiagWeight(base=get("diag_ordered")),
    "eig-max": lambda get: cf._EigScalarWeight(get("diag_ordered"), "max"),
    "eig-min": lambda get: cf._EigScalarWeight(get("diag_ordered"), "min"),
    "det-root": lambda get: cf._DetRootWeight(get("power13")),
    "power-22": lambda get: mw.PowerWeight(A=np.array([[2.0, 0.5], [0.5, 1.0]]),
                                           gamma=np.array([2.0, 2.0])),
}


class TestRadialTable:
    @pytest.mark.parametrize("name", sorted(TABLE_BACKED))
    def test_closed_form_matches_quadrature(self, name, request):
        W = TABLE_BACKED[name](request.getfixturevalue)
        table = W.radial_table()
        assert table is not None and table.shape[:2] == (W.d, W.d)
        c, r = np.array([0.9, -0.4, 0.6]), 0.7
        exact = cb.psi(W, c, r, method="exact")
        quad = cb.psi(W, c, r, method="quadrature")
        assert np.allclose(exact, quad, rtol=1e-6)

    def test_power_zero_exponents_qform(self):
        # gamma = 0 makes W the constant A: <W e, e> = <A e, e>, degree 0 in s
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        W = mw.PowerWeight(A=A, gamma=np.zeros(2))
        e = np.array([0.6, -0.8])
        q = W.qform_radial_poly(e)
        assert q is not None and q.shape == (1,)
        assert q[0] == pytest.approx(float(e @ A @ e), rel=1e-15)

    def test_no_table_without_closed_form(self, power13, power_reference):
        assert power13.radial_table() is None
        # odd exponents leave the table but not the exact integrals: the
        # entries 2|y|, 0.5|y|^2 and |y|^3 over Q(0, 1) against scipy
        got = power13.exact_cube_integral_many(np.zeros((1, 3)), 1.0)[0]
        want = np.array([[2.0 * power_reference(np.zeros(3), 1.0, 1.0), 0.5 * 8.0],
                         [0.5 * 8.0, power_reference(np.zeros(3), 1.0, 3.0)]])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert power13.qform_radial_poly(np.array([1.0, 0.0])) is None


def _builtin_weights():
    from mwlab import cli
    out = {name: mw.from_config(cfg) for name, cfg in cli.BUILTIN_WEIGHTS.items()}
    out["power-scalar-diag"] = mw.ScalarDiagWeight(entries=(mw.PowerScalar(1.2),
                                                            mw.PowerScalar(-1.2)))
    return out


class TestPowerTerms:
    @pytest.mark.parametrize("name", sorted(_builtin_weights()))
    def test_terms_reproduce_eval_many(self, name):
        W = _builtin_weights()[name]
        exps, coeffs = W.power_terms()
        assert exps.ndim == 1 and coeffs.shape == (W.d, W.d, exps.size)
        X = np.random.default_rng(4).uniform(-3.0, 3.0, size=(200, 3))
        rho = np.linalg.norm(X, axis=1)
        got = np.einsum("ijk,mk->mij", coeffs, rho[:, None] ** exps)
        want = W.eval_many(X)
        scale = np.abs(want).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("name", sorted(TABLE_BACKED) + ["diag-poly", "rank-one-radial"])
    def test_table_backed_weights_report_even_exponents(self, name, request):
        W = (TABLE_BACKED[name](request.getfixturevalue) if name in TABLE_BACKED
             else _builtin_weights()[name])
        terms = W.power_terms()
        table = W.radial_table()
        assert table is not None
        # even exponents only, and the same table: the moment route is unchanged
        assert np.all(terms[0] >= 0) and np.all(terms[0] % 2 == 0)
        assert np.array_equal(mw._table_from_terms(terms), table)

    def test_odd_power_weight_terms(self, power13):
        exps, coeffs = power13.power_terms()
        assert exps.tolist() == [1.0, 2.0, 3.0]
        assert coeffs[0, 0].tolist() == [2.0, 0.0, 0.0]
        assert coeffs[0, 1].tolist() == [0.0, 0.5, 0.0]
        assert coeffs[1, 1].tolist() == [0.0, 0.0, 1.0]


class TestSerialization:
    def test_round_trip_all_kinds(self, identity2, rank_one, diag_poly, power13, rng):
        X = random_points(rng, 10)
        X = X[np.linalg.norm(X, axis=1) > 0.1]
        for W in (identity2, rank_one, diag_poly, power13,
                  mw.NormDiagWeight(base=diag_poly)):
            W2 = mw.from_config(W.to_config())
            assert np.allclose(W.eval_many(X), W2.eval_many(X))

    def test_polynomial_psd_structural(self, rng):
        table = rng.uniform(-1, 1, size=(2, 2, 2))
        W = mw.PolynomialPSDWeight(table=table)
        X = random_points(rng, 50)
        lam = np.linalg.eigvalsh(W.eval_many(X))
        assert np.all(lam[:, 0] >= -1e-12 * np.maximum(lam[:, -1], 1e-300))
        W2 = mw.from_config(W.to_config())
        assert np.allclose(W.eval_many(X), W2.eval_many(X))

    def test_rejects_unknown_kind(self):
        with pytest.raises(Exception):
            mw.from_config({"kind": "nope"})

    @pytest.mark.parametrize("cfg, kind, key", [
        ({"kind": "constant", "n": 3, "d": 2}, "constant", "mat"),
        ({"kind": "power", "n": 3, "d": 2, "A": [[1.0, 0.0], [0.0, 1.0]]}, "power", "gamma"),
        ({"kind": "norm_diag"}, "norm_diag", "base"),
        ({"kind": "scalar_diag", "entries": [{"kind": "poly_scalar"}]},
         "poly_scalar", "coeffs"),
    ])
    def test_missing_field_names_kind_and_key(self, cfg, kind, key):
        with pytest.raises(ConfigError, match=f"'{kind}'.*'{key}'"):
            mw.from_config(cfg)
