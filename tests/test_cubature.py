import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwlab import certify as cf
from mwlab import cubature as cb
from mwlab import weights as mw
from mwlab.errors import (ConfigError, DomainError, NoConvergence,
                          QuadratureNonConvergence)


def cube(center, r):
    return cb.Cube(center=np.asarray(center, dtype=float), r=r)


class Spiky(mw.MatrixWeight):
    """|y - a|^(-2.5) near an off-node point a: no level up to 3 agrees to 1e-10."""

    n, d = 3, 1
    singular_at_origin = False
    a = np.array([0.1234, 0.2345, 0.0456])

    def eval_many(self, X):
        X = np.atleast_2d(X)
        v = 1.0 / np.maximum(np.linalg.norm(X - self.a, axis=1), 1e-300) ** 2.5
        return v[:, None, None]

    def to_config(self):
        return {"kind": "spiky", "n": 3, "d": 1}


class TestAverage:
    def test_constant_field(self, identity2):
        got = cb.average(identity2, cube([0.3, -1.0, 2.0], 0.7))
        assert np.allclose(got, np.eye(2), rtol=1e-12)

    def test_second_moment_entry(self, diag_poly):
        # mean of |y|^2 over Q(0, r) is n r^2 / 3 = r^2 at n = 3
        for r in (0.5, 1.0, 2.0):
            got = cb.average(diag_poly, cube([0, 0, 0], r))
            assert got[0, 0] == pytest.approx(r * r, rel=1e-6)

    def test_rank_one_average_matches_closed_form(self, rank_one, rng):
        for _ in range(5):
            c = rng.uniform(-2, 2, size=3)
            r = float(rng.uniform(0.3, 1.5))
            got = cb.average(rank_one, cube(c, r))
            expect = rank_one.exact_cube_integral_many(c[None, :], r)[0] / (2 * r) ** 3
            assert np.allclose(got, expect, rtol=1e-6)


class TestPsi:
    def test_constant_weight(self, identity2):
        got = cb.psi(identity2, [0.0, 0.0, 0.0], 1.0)
        assert np.allclose(got, 8.0 * np.eye(2), rtol=1e-10)

    def test_printed_closed_form_origin(self, rank_one):
        got = cb.psi(rank_one, [0.0, 0.0, 0.0], 1.0)
        expect = 8.0 * np.array([[1.0, 1.0], [1.0, 19.0 / 15.0]])
        assert np.allclose(got, expect, rtol=1e-6)

    def test_printed_closed_form_off_origin(self, rank_one):
        got = cb.psi(rank_one, [2.0, 0.0, 0.0], 1.0)
        expect = 8.0 * np.array([[1.0, 5.0], [5.0, 30.6]])
        assert np.allclose(got, expect, rtol=1e-6)

    def test_scaling_consistency(self, diag_poly, rng):
        # psi = average * (2r)^n * r^(2-n), a pure scaling identity
        for _ in range(5):
            c = rng.uniform(-2, 2, size=3)
            r = float(rng.uniform(0.2, 2.0))
            avg = cb.average(diag_poly, cube(c, r))
            ps = cb.psi(diag_poly, c, r)
            assert np.allclose(ps, avg * (2 * r) ** 3 * r ** (-1), rtol=1e-12)

    def test_refuses_low_dimension(self):
        W = mw.ConstantWeight(np.eye(2), n=2)
        with pytest.raises(DomainError):
            cb.psi(W, [0.0, 0.0], 1.0)

    def test_exact_matches_quadrature(self, rank_one, diag_poly, rng):
        for W in (rank_one, diag_poly):
            c = rng.uniform(-1.5, 1.5, size=3)
            r = float(rng.uniform(0.4, 1.2))
            q = cb.psi(W, c, r, method="quadrature")
            e = cb.psi(W, c, r, method="exact")
            assert np.allclose(q, e, rtol=1e-6)


class TestQuadratureEngine:
    def test_midpoint_for_singular_origin_cubes(self):
        v = mw.PowerScalar(gamma=-1.0)
        W = mw.ScalarDiagWeight(entries=(v,))
        got = cb.average(W, cube([0, 0, 0], 1.0), tol=1e-4)
        # mean of |y|^-1 over Q(0,1): finite, between the inscribed/escribed
        # ball values; the radial oracle gives int r^(-1) 4 pi r^2 dr type size
        assert np.isfinite(got[0, 0]) and got[0, 0] > 0

    def test_nonconvergence_is_loud(self):
        with pytest.raises(QuadratureNonConvergence, match="by level 3"):
            cb.average(Spiky(), cube([0, 0, 0], 1.0), tol=1e-10, max_level=3)

    def test_explicit_rule_levels(self, identity2):
        rule = cb.QuadratureRule(level=2, scheme="midpoint-tensor")
        assert rule.nodes_per_axis() == 4
        Q = cube([0, 0, 0], 1.0)
        got = cb.integrate_fields(identity2.eval_many, Q, rule) / Q.volume
        assert np.allclose(got, np.eye(2))


class TestIntegralRecord:
    def test_converged_flag_is_index_1(self, identity2):
        # the tracing hook of perfbench reads the flag as result[1]
        res = cb.adaptive_integrate(identity2.eval_many, cube([0, 0, 0], 1.0))
        assert isinstance(res, cb.Integral)
        assert res[1] is res.converged and res.converged is True
        assert np.allclose(res.value, 8.0 * np.eye(2))

    def test_unconverged_is_returned_not_raised(self):
        res = cb.adaptive_integrate(Spiky().eval_many, cube([0, 0, 0], 1.0),
                                    tol=1e-10, max_level=3)
        assert res.converged is False
        assert np.all(np.isfinite(res.value)) and res.growth > 0

    def test_psi_rejects_unknown_method(self, identity2):
        with pytest.raises(ConfigError):
            cb.psi(identity2, [0.0, 0.0, 0.0], 1.0, method="auto")


class TestDeterminantLemmas:
    def test_hadamard_identity(self):
        assert cb.check_hadamard(np.eye(3), np.eye(3))

    def test_hadamard_diagonal_equality(self):
        assert cb.check_hadamard(np.diag([2.0, 3.0]), np.eye(2))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_hadamard_random_rotated(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((3, 3))
        M = B @ B.T
        Qr, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert cb.check_hadamard(M, Qr)

    def test_hadamard_checks_orthonormality(self):
        with pytest.raises(ConfigError):
            cb.check_hadamard(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]))


class TestMVEE:
    """khachiyan_mvee_centered(P, eps) stops at max kappa <= d (1 + eps): the
    volume det(M)^(-1/2) of its ellipsoid is within (1 + eps)^(d/2) of the
    minimum, and every point lies inside."""

    EPS = cf.CERT_TOL
    CUBE = cb.Cube(center=np.array([2.0, 1.0, 0.0]), r=1.0)
    FAM = cb.CubeFamily(generator="random", box=4.0, count=2, r_min=1.0, r_max=2.0)

    @pytest.fixture(scope="class")
    def boundaries(self, rank_one, power13, diag_poly):
        """The points certify hands the MVEE for each weight's reducing matrix."""
        seen = {}
        real = cb.khachiyan_mvee_centered

        def capture(P, tol):
            seen[name] = P
            return real(P, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cf, "khachiyan_mvee_centered", capture)
            for name, W in (("rank_one", rank_one), ("power13", power13),
                            ("diag_poly", diag_poly)):
                cf.reducing_matrix_qform(W, self.CUBE, 2.0)
        return seen

    @staticmethod
    def volume_ratio(M, M_ref):
        """vol(M) / vol(M_ref) of the ellipsoids {e : e^T M e <= 1}."""
        return float(np.sqrt(np.linalg.det(M_ref) / np.linalg.det(M)))

    def test_every_point_inside(self, boundaries):
        for P in boundaries.values():
            M = cb.khachiyan_mvee_centered(P, self.EPS)
            assert np.einsum("mi,ij,mj->m", P, M, P).max() <= 1.0 + 1e-12

    def test_volume_within_eps_of_tight_solve(self, boundaries):
        for P in boundaries.values():
            d = P.shape[1]
            ratio = self.volume_ratio(cb.khachiyan_mvee_centered(P, self.EPS),
                                      cb.khachiyan_mvee_centered(P, 1e-10))
            assert 1.0 - 1e-9 <= ratio <= (1.0 + self.EPS) ** (d / 2)

    def test_unsigned_points_match_signed(self, boundaries):
        for P in boundaries.values():
            d = P.shape[1]
            ratio = self.volume_ratio(cb.khachiyan_mvee_centered(P, self.EPS),
                                      cb.khachiyan_mvee_centered(np.concatenate([P, -P]),
                                                                 self.EPS))
            bound = (1.0 + self.EPS) ** (d / 2)
            assert 1.0 / bound <= ratio <= bound

    @staticmethod
    def einsum_mvee(P, tol):
        """The same iteration with X = P^T diag(u) P and kappa by a three-operand
        einsum: the reference for the vec(p p^T) products."""
        m, d = P.shape
        u = np.zeros(m)
        u[cb._core_set(P)] = 1.0 / d
        while True:
            Xi = np.linalg.inv(P.T @ (P * u[:, None]))
            kappa = np.einsum("mi,ij,mj->m", P, Xi, P)
            Q = (P[:, :, None] * P[:, None, :]).reshape(m, d * d)
            assert np.allclose(Q @ Xi.ravel(), kappa, rtol=1e-13, atol=0.0)
            j_add = int(np.argmax(kappa))
            k_add = kappa[j_add]
            if k_add <= d * (1.0 + tol):
                return Xi / k_add
            j_away = int(np.argmin(np.where(u > 1e-14, kappa, np.inf)))
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

    def test_vec_outer_products_match_einsum_iteration(self, boundaries):
        for P in boundaries.values():
            M = cb.khachiyan_mvee_centered(P, self.EPS)
            ref = self.einsum_mvee(P, self.EPS)
            assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_core_set_start_is_exact_on_the_circle(self):
        # the core set is the two axes, whose ellipsoid is already the unit
        # disc, so the first stopping check ends the iteration
        t = np.linspace(0.0, np.pi, 13)
        P = np.stack([np.cos(t), np.sin(t)], axis=1)
        M = cb.khachiyan_mvee_centered(P, self.EPS, max_iter=1)
        assert np.allclose(M, np.eye(2), rtol=0.0, atol=1e-15)

    def test_cap_raises(self, boundaries):
        with pytest.raises(NoConvergence, match="kappa/d - 1"):
            cb.khachiyan_mvee_centered(boundaries["diag_poly"], self.EPS, max_iter=3)

    def test_cap_is_recorded_by_cross_checks(self, identity2, monkeypatch):
        def capped(P, tol):
            raise NoConvergence("MVEE reached max_iter")

        monkeypatch.setattr(cf, "khachiyan_mvee_centered", capped)
        res = cf.cross_checks(identity2, 2.0, self.FAM)
        for name in ("bp_det", "apinf"):
            assert res["reports"][name] is None
            assert res["errors"][name].startswith("NoConvergence: ")

    def test_eps_is_recorded(self, identity2):
        for rep in (cf.bp_det_check(identity2, 2.0, self.FAM),
                    cf.apinf_constant(identity2, 2.0, self.FAM)):
            assert rep.details["mvee_eps"] == self.EPS


class TestGrowthAndDoubling:
    def test_controlled_growth(self, rank_one, diag_poly, rng):
        # Psi(x, r) <= C (r/R)^(2 - n/p) Psi(x, R) in the PSD order
        p = 2.0
        expo = 2.0 - 3.0 / p
        worst = 0.0
        for W in (rank_one, diag_poly):
            for _ in range(10):
                x = rng.uniform(-3, 3, size=3)
                R = float(rng.uniform(0.5, 2.0))
                r = R * float(rng.uniform(0.1, 0.9))
                big = cb.psi(W, x, R, method="exact") * (r / R) ** expo
                small = cb.psi(W, x, r, method="exact")
                lam = np.linalg.eigvalsh(np.linalg.solve(big, small))
                worst = max(worst, lam.max())
        assert np.isfinite(worst) and worst < 50.0

    def test_doubling(self, rank_one, diag_poly, rng):
        worst = 0.0
        for W in (rank_one, diag_poly):
            for _ in range(10):
                x = rng.uniform(-3, 3, size=3)
                r = float(rng.uniform(0.2, 1.5))
                small = W.exact_cube_integral_many(x[None, :], r)[0]
                big = W.exact_cube_integral_many(x[None, :], 2 * r)[0]
                lam = np.linalg.eigvalsh(np.linalg.solve(small, big))
                worst = max(worst, lam.max())
        assert np.isfinite(worst) and worst < 2000.0

    def test_doubling_stable_under_quadrature_refinement(self, diag_poly):
        Q1 = cube([0.5, 0.5, 0.5], 0.5)
        vals = []
        for tol in (1e-4, 1e-6):
            small = cb.average(diag_poly, Q1, tol=tol) * Q1.volume
            Q2 = cube([0.5, 0.5, 0.5], 1.0)
            big = cb.average(diag_poly, Q2, tol=tol) * Q2.volume
            vals.append(np.linalg.eigvalsh(np.linalg.solve(small, big)).max())
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)


class TestPowerCubeIntegrals:
    """The engine against scipy quadrature (conftest's power_integral_reference)
    and the exact moments."""

    GEOMETRIES = {
        "origin-at-center": ((0.0, 0.0, 0.0), 1.0),
        "origin-inside": ((0.3, -0.2, 0.45), 1.0),
        "origin-inside-big": ((0.7, 0.4, -0.2), 2.5),
        "origin-on-face": ((1.0, 0.3, -0.4), 1.0),
        "origin-at-corner": ((1.0, -1.0, 1.0), 1.0),
        "inside-1e-6-from-face": ((1.0 - 1e-6, 0.2, 0.1), 1.0),
        "outside-1e-6-from-face": ((1.0 + 1e-6, 0.2, 0.1), 1.0),
        "inside-1e-6-from-edge": ((1.0 - 1e-6, 1.0 - 1e-6, 0.3), 1.0),
        "near-outside": ((1.5, -0.6, 0.2), 1.0),
        "far-on-boundary": ((2.0, 0.0, 0.0), 1.0),
        "far": ((2.2, 2.1, 0.3), 1.0),
        "far-5r": ((5.0, 0.5, -0.3), 1.0),
        "far-small": ((3.0, 1.0, 0.0), 0.5),
    }
    EXPONENTS = (1.0, 3.0, 0.5, -1.4, -2.8)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_matches_scipy_reference(self, name, power_reference):
        c, r = self.GEOMETRIES[name]
        got = cb.power_cube_integrals(np.array([c]), np.array([r]), self.EXPONENTS)[0]
        want = [power_reference(c, r, a) for a in self.EXPONENTS]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_even_exponents_are_the_moments_bit_for_bit(self, rng):
        C = rng.uniform(-3.0, 3.0, size=(50, 3))
        got = cb.power_cube_integrals(C, np.full(50, 0.7), [0.0, 2.0, 4.0, 6.0])
        assert np.array_equal(got, mw.cube_moments(C, 0.7, 4))
        radii = rng.uniform(0.1, 2.0, size=50)
        got = cb.power_cube_integrals(C, radii, [4.0, 2.0])
        want = np.stack([mw.cube_moments(C[i], radii[i], 3)[0, [2, 1]] for i in range(50)])
        assert np.array_equal(got, want)

    def test_divergent_exponent(self, power_reference):
        # |y|^-3.5 is not integrable at the origin: +inf on every closed cube
        # holding it, finite (and halved down to far pieces) next to it
        C = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.2, 0.1], [1.5, 0.2, 0.1]])
        got = cb.power_cube_integrals(C, np.ones(4), [-3.5, 1.0])
        assert np.all(got[:3, 0] == np.inf) and np.all(np.isfinite(got[:, 1]))
        assert got[3, 0] == pytest.approx(power_reference(C[3], 1.0, -3.5), rel=1e-12)

    def test_value_does_not_depend_on_the_batch(self, rng):
        C = rng.uniform(-2.0, 2.0, size=(40, 3))
        radii = rng.uniform(0.2, 3.0, size=40)
        batch = cb.power_cube_integrals(C, radii, [1.0, -1.4])
        alone = np.concatenate([cb.power_cube_integrals(C[i:i + 1], radii[i:i + 1], [1.0, -1.4])
                                for i in range(40)])
        assert np.array_equal(batch, alone)

    def test_power_weight_psi_matches_quadrature(self, power13):
        c, r = np.array([0.9, -0.4, 0.6]), 0.7
        exact = cb.psi(power13, c, r, method="exact")
        quad = cb.psi(power13, c, r, method="quadrature")
        assert np.allclose(exact, quad, rtol=1e-6)


class TestCubeFamily:
    def test_cubes_stay_in_box(self):
        fam = cb.CubeFamily(generator="random", box=4.0, count=30,
                            r_min=0.25, r_max=2.0, seed=9)
        for c in fam.cubes():
            assert np.all(np.abs(c.center) + c.r <= 4.0 + 1e-9)

    def test_refinement_nests(self):
        for gen in ("dyadic", "random"):
            fam = cb.CubeFamily(generator=gen, box=4.0, count=12,
                                r_min=0.5, r_max=2.0, seed=3)
            keys = [c.key() for c in fam.cubes()]
            ref_keys = [c.key() for c in fam.refine().cubes()]
            # a refinement appends a finer level: the old cubes form a prefix
            assert ref_keys[:len(keys)] == keys
            assert len(set(ref_keys)) > len(set(keys))

    def test_serialization_round_trip(self):
        fam = cb.CubeFamily(generator="dyadic", box=8.0, count=24,
                            r_min=0.5, r_max=4.0)
        fam2 = cb.CubeFamily.from_config(fam.to_config())
        assert [c.key() for c in fam.cubes()] == [c.key() for c in fam2.cubes()]

    def test_unknown_key_is_config_error(self):
        with pytest.raises(ConfigError, match="boxx"):
            cb.CubeFamily.from_config({"generator": "dyadic", "boxx": 4.0})
