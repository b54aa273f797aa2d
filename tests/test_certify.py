import json
import math

import numpy as np
import pytest

from mwlab import certify as cf
from mwlab import cubature as cb
from mwlab import weights as mw
from mwlab.errors import Degenerate, DomainError, SingularSample


def scalar_weight(v):
    return mw.ScalarDiagWeight(entries=(v,))


def critical_centers(rank_one, ms):
    """Centers x_m on the first axis whose critical radius 1/m_lower is sqrt(m)."""
    out = []
    for m in ms:
        r = math.sqrt(m)

        def crit(R):
            P = cb.psi(rank_one, np.array([R, 0.0, 0.0]), r, method="exact")
            return float(np.linalg.eigvalsh(P)[0])

        lo, hi = 1.0, 1e4
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if crit(mid) >= 1.0:
                lo = mid
            else:
                hi = mid
        out.append(np.array([0.5 * (lo + hi), 0.0, 0.0]))
    return out


class TestBp:
    def test_identity_is_exactly_one(self, identity2, small_family):
        rep = cf.bp_constant(identity2, 2.0, small_family)
        assert rep.constant_estimate == pytest.approx(1.0, rel=1e-9)
        assert rep.passed

    def test_integrable_power_is_stable(self):
        # |x|^gamma with gamma > -n/p: 1-D radial integral of the p-th power
        # converges at the origin, so estimates plateau under refinement
        W = scalar_weight(mw.PowerScalar(gamma=-0.9))
        fam = cb.CubeFamily(generator="dyadic", box=2.0, count=6, r_min=0.5,
                            r_max=2.0)
        rep = cf.bp_constant(W, 2.0, fam, stability=True)
        assert rep.passed
        ests = rep.details["stability_estimates"]
        assert ests[-1] <= ests[0] * 1.25

    def test_supercritical_power_diverges(self):
        # gamma <= -n/p: the 1-D radial oracle int_0 t^(p gamma + 2) dt blows
        # up, so the p-power average on origin cubes grows monotonically under
        # quadrature refinement and the certifier reports a divergent (inf)
        # estimate
        W = scalar_weight(mw.PowerScalar(gamma=-1.6))
        Q = cb.Cube(center=np.zeros(3), r=1.0)
        levels = []
        for level in (2, 3, 4, 5):
            rule = cb.QuadratureRule(level=level, scheme="midpoint-tensor")
            levels.append(cb.integrate_fields(
                lambda X: W.eval_many(X)[:, 0, 0] ** 2.0, Q, rule))
        assert levels[0] < levels[1] < levels[2] < levels[3]
        assert levels[3] > 1.1 * levels[2]

        fam = cb.CubeFamily(generator="dyadic", box=2.0, count=6, r_min=0.5,
                            r_max=2.0)
        rep = cf.bp_constant(W, 2.0, fam, stability=True)
        assert not np.isfinite(rep.constant_estimate)
        assert not rep.passed

    def test_monotone_in_p(self, diag_poly, small_family):
        lo = cf.bp_constant(diag_poly, 1.5, small_family).constant_estimate
        hi = cf.bp_constant(diag_poly, 2.5, small_family).constant_estimate
        assert lo <= hi * (1 + 1e-4)

    def test_rank_one_finite(self, rank_one, small_family):
        rep = cf.bp_constant(rank_one, 2.0, small_family)
        assert np.isfinite(rep.constant_estimate)

    def test_degenerate_direction(self, small_family):
        W = mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                         mw.ConstantScalar(0.0)))
        with pytest.raises(Degenerate):
            cf.bp_constant(W, 2.0, small_family)


class TestBpDet:
    def test_identity_ratio_one(self, identity2, small_family):
        rep = cf.bp_det_check(identity2, 2.0, small_family)
        # the MVEE wrapper costs at most the John factor sqrt(d) per axis
        assert 1.0 - 1e-6 <= rep.constant_estimate <= 2.0 ** (2 / 2.0) + 1e-6

    def test_diag_agreement_with_bp(self, diag_poly, small_family):
        det_rep = cf.bp_det_check(diag_poly, 2.0, small_family, stability=True)
        bp_rep = cf.bp_constant(diag_poly, 2.0, small_family, stability=True)
        assert np.isfinite(det_rep.constant_estimate) == np.isfinite(bp_rep.constant_estimate)
        assert det_rep.passed and bp_rep.passed

    def test_divergent_scalar_flags_both(self):
        W = scalar_weight(mw.PowerScalar(gamma=-1.6))
        fam = cb.CubeFamily(generator="dyadic", box=2.0, count=6, r_min=0.5,
                            r_max=2.0)
        bp_rep = cf.bp_constant(W, 2.0, fam, stability=True)
        assert not bp_rep.passed
        try:
            det_rep = cf.bp_det_check(W, 2.0, fam, stability=True)
            assert not det_rep.passed
        except Degenerate:
            pass


class TestNd:
    def test_identity_passes_with_cube_volume(self, identity2):
        fam = cb.CubeFamily(generator="dyadic", box=2.0, count=2, r_min=2.0,
                            r_max=2.0)
        rep = cf.nd_check(identity2, fam)
        assert rep.passed
        assert rep.constant_estimate == pytest.approx(4.0 ** 3, rel=1e-9)

    def test_degenerate_diagonal_fails(self, small_family):
        W = mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                         mw.ConstantScalar(0.0)))
        rep = cf.nd_check(W, small_family)
        assert not rep.passed
        assert rep.constant_estimate == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_passes(self, rank_one, small_family):
        assert cf.nd_check(rank_one, small_family).passed


class TestAinf:
    def test_identity_profile_is_one(self, identity2, small_family):
        rep = cf.ainf_profile(identity2, [0.1, 0.5], small_family)
        assert rep.passed
        for v in rep.details["delta"].values():
            assert v == pytest.approx(1.0, rel=1e-9)

    def test_power_weight_plateau(self, power13, small_family):
        rep = cf.ainf_profile(power13, [0.1, 0.25, 0.5], small_family,
                              stability=True)
        assert rep.passed
        assert rep.constant_estimate > 0.01

    def test_rank_one_raises_singular(self, rank_one, small_family):
        with pytest.raises(SingularSample):
            cf.ainf_profile(rank_one, [0.25], small_family)

    def test_rank_one_delta_vanishes_along_sequence(self, rank_one):
        centers = critical_centers(rank_one, [4, 9])
        cubes = [cb.Cube(center=c, r=math.sqrt(m))
                 for c, m in zip(centers, [4, 9])]
        for c in cubes:
            deltas, frac = cf._ainf_cube(rank_one, c, [0.25], 512, 5,
                                         strict=False, tol=1e-4)
            assert frac > 0.99
            assert deltas[0.25] == pytest.approx(0.0, abs=1e-12)


class TestA2infRbm:
    def test_identity(self, identity2, small_family):
        rep = cf.a2inf_constant(identity2, small_family)
        assert rep.constant_estimate == pytest.approx(1.0, rel=1e-6)
        rep = cf.rbm_constant(identity2, small_family)
        assert rep.constant_estimate == pytest.approx(1.0, rel=1e-6)

    def test_jensen_direction_always_holds(self, diag_poly, power13, small_family):
        for W in (diag_poly, power13):
            assert cf.a2inf_constant(W, small_family).constant_estimate >= 1 - 1e-3
            assert cf.rbm_constant(W, small_family).constant_estimate >= 1 - 1e-3

    def test_unit_det_pair_matches_radial_oracle(self):
        # diag(|x|^g, |x|^-g), det == 1: the ratio on Q(0, r) is the product
        # of the two radial averages, scale-free in r
        g = 1.2
        W = mw.ScalarDiagWeight(entries=(mw.PowerScalar(gamma=g),
                                         mw.PowerScalar(gamma=-g)))
        vals = []
        for r in (1.0, 2.0):
            c = cb.Cube(center=np.zeros(3), r=r)
            vals.append(cf._a2inf_cube(W, c, 1e-4))
        assert vals[0] >= 1.0
        assert vals[0] == pytest.approx(vals[1], rel=0.02)

    def test_rank_one_rbm_divergent_or_error(self, rank_one, small_family):
        try:
            rep = cf.rbm_constant(rank_one, small_family)
            assert not np.isfinite(rep.constant_estimate) or not rep.passed
        except DomainError:
            pass

    def test_rank_one_a2inf_domain_error(self, rank_one, small_family):
        with pytest.raises(DomainError):
            cf.a2inf_constant(rank_one, small_family)

    def test_power_rbm_then_nc(self, power13, small_family):
        # reverse Brunn-Minkowski membership forces the noncommutativity
        # class for nondegenerate weights: check the pair jointly
        rbm = cf.rbm_constant(power13, small_family, stability=True)
        assert rbm.passed
        nc = cf.nc_constant(power13, [np.array([1.0, 0.5, 0.0]),
                                      np.array([2.0, -1.0, 1.0])])
        assert nc.passed


class TestNc:
    def test_identity_estimate_one(self, identity2):
        rep = cf.nc_constant(identity2, [np.zeros(3), np.array([1.0, 2.0, -1.0])])
        assert rep.constant_estimate == pytest.approx(1.0, rel=1e-4)
        assert rep.passed

    def test_diagonal_positive_entries_pass(self, diag_poly):
        rep = cf.nc_constant(diag_poly, [np.array([0.5, 0.5, 0.5]),
                                         np.array([2.0, 0.0, 0.0])])
        assert rep.passed

    def test_all_cubes_mode(self, identity2, small_family):
        rep = cf.nc_constant(identity2, mode="all-cubes", family=small_family)
        assert rep.passed
        assert rep.mode == "all-cubes"

    def test_rank_one_witness_decays(self, rank_one):
        ms = [4, 9, 16, 25]
        centers = critical_centers(rank_one, ms)
        rep = cf.nc_constant(rank_one, centers)
        vals = rep.details["per_cube"]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5 * vals[0]
        assert not rep.passed


class TestNotIntegrable:
    """|x|^-3.5 in one component is not integrable at the origin in 3-D, so
    every cube holding the origin has an infinite mean."""

    W = mw.PowerWeight(np.array([[2.0, 0.5], [0.5, 1.0]]), (-3.5, 1.0))
    FAM = cb.CubeFamily(generator="dyadic", box=4.0, count=9, r_min=1.0, r_max=2.0)

    def origin_cubes(self):
        return [{"center": c.center.tolist(), "r": c.r} for c in self.FAM.cubes()
                if np.abs(c.center).max() <= c.r]

    def assert_fails_without_nan(self, rep):
        doc = rep.to_jsonable()
        assert not rep.passed and rep.constant_estimate == 0.0
        assert "nan" not in json.dumps(doc).lower()

    def test_nd_names_the_origin_cubes(self):
        rep = cf.nd_check(self.W, self.FAM)
        self.assert_fails_without_nan(rep)
        assert len(self.origin_cubes()) == 4
        assert rep.details["not_integrable"] == self.origin_cubes()

    def test_ainf_names_the_origin_cubes(self):
        rep = cf.ainf_profile(self.W, [0.1, 0.5], self.FAM)
        self.assert_fails_without_nan(rep)
        assert rep.details["delta"] == {"0.1": 0.0, "0.5": 0.0}
        assert rep.details["not_integrable"] == self.origin_cubes()

    def test_nc_names_the_origin_center(self):
        rep = cf.nc_constant(self.W, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        self.assert_fails_without_nan(rep)
        assert [c["center"] for c in rep.details["not_integrable"]] == [[0.0, 0.0, 0.0]]
        assert rep.details["per_cube"][1] > cf.NC_FLOOR
        assert cf.replay_witness(self.W, rep) == 0.0

    def test_nc_all_cubes_names_the_origin_cubes(self):
        rep = cf.nc_constant(self.W, mode="all-cubes", family=self.FAM)
        self.assert_fails_without_nan(rep)
        assert rep.details["not_integrable"] == self.origin_cubes()


class TestReducingMatrix:
    """reducing_matrix_qform(W, Q, p) wraps e -> (avg <W e, e>^p)^(1/(2p)) in
    its John ellipsoid: N(e) <= |R e| <= sqrt(d) N(e) with d = 2."""

    def test_p1_brackets_average(self, rank_one, rng):
        # p = 1: N(e) = <avg W e, e>^(1/2), with the average by quadrature
        Q = cb.Cube(center=rng.uniform(-1, 1, size=3), r=0.8)
        R = cf.reducing_matrix_qform(rank_one, Q, 1.0)
        avg = cb.average(rank_one, Q)
        dirs = np.concatenate([np.eye(2), rng.standard_normal((16, 2))])
        for e in dirs / np.linalg.norm(dirs, axis=1, keepdims=True):
            N = math.sqrt(float(e @ avg @ e))
            val = np.linalg.norm(R @ e)
            assert N * (1 - 1e-6) <= val <= math.sqrt(2) * N * (1 + 1e-6)

    def test_identity(self, identity2):
        # N(e) = |e|: the John ellipsoid is the unit disc, R = sqrt(d) I
        R = cf.reducing_matrix_qform(identity2, cb.Cube(center=np.zeros(3), r=1.0), 1.0)
        assert np.allclose(R, math.sqrt(2) * np.eye(2), rtol=0, atol=1e-8)

    def test_p2_moment_oracle(self, diag_poly):
        Q = cb.Cube(center=np.array([1.0, 0.5, -0.25]), r=0.5)
        R = cf.reducing_matrix_qform(diag_poly, Q, 2.0)
        # independent oracle per axis: for diagonal weights <W e_i, e_i>^2 =
        # v_i^2, so N(e_i) = (avg v_i^2)^(1/4), here by a tensor Gauss-Legendre
        # rule that is exact for these polynomials
        nodes, wts = np.polynomial.legendre.leggauss(12)
        axes = np.meshgrid(*(c + Q.r * nodes for c in Q.center), indexing="ij")
        s = sum(a ** 2 for a in axes)
        w = np.einsum("i,j,k->ijk", wts, wts, wts)
        for i, e in enumerate(np.eye(2)):
            v = np.polynomial.polynomial.polyval(s, diag_poly.entries[i].radial_poly())
            N = (np.sum(w * v ** 2) * Q.r ** 3 / Q.volume) ** 0.25
            val = np.linalg.norm(R @ e)
            assert N * (1 - 1e-6) <= val <= math.sqrt(2) * N * (1 + 1e-6)

    def test_degenerate_direction_raises(self):
        W = mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                         mw.ConstantScalar(0.0)))
        with pytest.raises(Degenerate):
            cf.reducing_matrix_qform(W, cb.Cube(center=np.zeros(3), r=1.0), 2.0)

    def test_one_ellipsoid_per_input_inside_cross_checks(self, identity2, monkeypatch):
        # cross_checks shares each John ellipsoid between bp_det and apinf;
        # the sharing ends with the call
        calls = []
        mvee = cf.khachiyan_mvee_centered
        monkeypatch.setattr(cf, "khachiyan_mvee_centered",
                            lambda P, tol: calls.append(1) or mvee(P, tol))
        Q = cb.Cube(center=np.zeros(3), r=1.0)
        with cf._shared_reducing_matrices():
            R = cf.reducing_matrix_qform(identity2, Q, 2.0)
            assert cf.reducing_matrix_qform(identity2, Q, 2.0) is R
            cf.reducing_matrix_qform(identity2, Q, 1.5)
        assert len(calls) == 2
        assert np.array_equal(cf.reducing_matrix_qform(identity2, Q, 2.0), R)
        assert len(calls) == 3


class TestOneSweep:
    """With stability=True a certifier sweeps the second refinement once and
    reads the three nested estimates off prefixes."""

    FAM = cb.CubeFamily(generator="random", box=4.0, count=2, r_min=1.0, r_max=2.0)

    def _nested(self):
        return [self.FAM, self.FAM.refine(), self.FAM.refine().refine()]

    def test_max_type_estimates_match_separate_runs(self, diag_poly):
        rep = cf.bp_constant(diag_poly, 2.0, self.FAM, stability=True)
        runs = [cf.bp_constant(diag_poly, 2.0, f) for f in self._nested()]
        assert rep.details["stability_estimates"] == [r.constant_estimate for r in runs]
        assert rep.constant_estimate == runs[-1].constant_estimate
        # the witness and per-cube values stay those of the unrefined family
        assert rep.witness == runs[0].witness
        assert rep.details["per_cube"] == runs[0].details["per_cube"]

    def test_min_type_estimates_match_separate_runs(self, power13):
        kw = dict(sample_count=512)
        rep = cf.ainf_profile(power13, [0.1, 0.5], self.FAM, stability=True, **kw)
        runs = [cf.ainf_profile(power13, [0.1, 0.5], f, **kw) for f in self._nested()]
        assert rep.details["stability_estimates"] == [r.constant_estimate for r in runs]
        assert rep.details["delta"] == runs[0].details["delta"]
        assert rep.witness == runs[0].witness

    def test_each_cube_evaluated_once(self, identity2, monkeypatch):
        seen = []
        inner = cf._a2inf_cube

        def counting(W, cube, tol):
            seen.append(cube.key())
            return inner(W, cube, tol)

        monkeypatch.setattr(cf, "_a2inf_cube", counting)
        cf.a2inf_constant(identity2, self.FAM, stability=True)
        assert seen == [c.key() for c in self._nested()[-1].cubes()]
        assert len(set(seen)) == len(seen)


class TestWitnessTies:
    """Scores within 1e-12 relative of the extreme tie; the lowest index wins
    and its score is the estimate."""

    FAM = cb.CubeFamily(generator="random", box=4.0, count=4, r_min=1.0, r_max=2.0)

    def _sweep(self, scores, min_type, stability=False):
        fam = self.FAM.refine().refine() if stability else self.FAM
        index = {c.key(): i for i, c in enumerate(fam.cubes())}
        return cf._certify("t", self.FAM, lambda c: (scores[index[c.key()]], None),
                           stability, min_type=min_type)

    def test_last_bit_perturbations_keep_the_witness(self):
        for min_type in (False, True):
            n = len(self.FAM.refine().refine().cubes())
            base = np.full(n, 1.0 if min_type else 2.0)
            base[::3] = 1.5                 # non-extreme scores between the ties
            picked = set()
            for seed in range(8):
                rng = np.random.default_rng(seed)
                scores = base * (1.0 + rng.choice([-1e-15, 0.0, 1e-15], size=n))
                rep = self._sweep(scores, min_type, stability=True)
                assert rep.witness["value"] == scores[1]
                picked.add((tuple(rep.witness["center"]), rep.witness["r"]))
                assert rep.details["stability_estimates"] == [scores[1]] * 3
            assert len(picked) == 1

    def test_estimate_is_the_witness_score(self):
        scores = [1.0, 3.0, 3.0 * (1 + 5e-13), 3.0 * (1 - 5e-13)]
        rep = self._sweep(scores, False)
        assert rep.constant_estimate == rep.witness["value"] == 3.0
        assert rep.witness["center"] == self.FAM.cubes()[1].center.tolist()
        # a gap wider than the tie tolerance is no tie
        rep = self._sweep([1.0, 3.0, 3.0 * (1 + 2e-12), 1.0], False)
        assert rep.constant_estimate == 3.0 * (1 + 2e-12)

    def test_infinite_scores_tie_only_with_equal_values(self):
        rep = self._sweep([1e300, 1.0, math.inf, math.inf], False)
        assert rep.constant_estimate == math.inf
        assert rep.witness["center"] == self.FAM.cubes()[2].center.tolist()
        rep = self._sweep([1.0, 1e-320, 0.0, 0.0], True)
        assert rep.constant_estimate == 0.0
        assert rep.witness["center"] == self.FAM.cubes()[2].center.tolist()


class TestReportMechanics:
    def test_witness_replay(self, rank_one, diag_poly, small_family):
        for W in (rank_one, diag_poly):
            for rep in (cf.bp_constant(W, 2.0, small_family),
                        cf.nd_check(W, small_family)):
                replay = cf.replay_witness(W, rep)
                assert replay == pytest.approx(rep.witness["value"], rel=1e-9)

    def test_enlarging_family_monotone(self, rank_one, small_family):
        big = small_family.refine()
        small_est = cf.bp_constant(rank_one, 2.0, small_family).constant_estimate
        big_est = cf.bp_constant(rank_one, 2.0, big).constant_estimate
        assert big_est >= small_est * (1 - 1e-12)
        # min-type estimates never increase
        small_nd = cf.nd_check(rank_one, small_family).constant_estimate
        big_nd = cf.nd_check(rank_one, big).constant_estimate
        assert big_nd <= small_nd * (1 + 1e-12)

    def test_report_jsonable(self, identity2, small_family):
        rep = cf.bp_constant(identity2, 2.0, small_family)
        doc = rep.to_jsonable()
        assert doc["class"] == "bp"
        import json
        json.dumps(doc)


class TestEigAdapter:
    def test_eigenvalues_have_eigvalsh_bits(self, rank_one, power13, rng):
        # the 2x2 adapter shares the aux scan's LAPACK-exact eigenvalues; the
        # textbook tr -+ sqrt(tr^2 - 4 det) cancels on the rank-one weight
        X = rng.uniform(-4, 4, size=(500, 3))
        for W in (rank_one, power13):
            lam = np.linalg.eigvalsh(W.eval_many(X))
            for which, col in (("min", 0), ("max", -1)):
                got = cf._EigScalarWeight(W, which).eval_many(X)[:, 0, 0]
                assert got.tobytes() == np.ascontiguousarray(lam[:, col]).tobytes()


class TestCross:
    def test_identity_all_agree(self, identity2, small_family):
        res = cf.cross_checks(identity2, 2.0, small_family)
        assert res["disagreements"] == []
        assert all(c["holds"] for c in res["checks"].values())

    def test_norm_bound_uses_dimensional_factor(self, rank_one, small_family):
        res = cf.cross_checks(rank_one, 2.0, small_family)
        assert res["disagreements"] == []
        chk = res["checks"]["norm_bp"]
        assert chk["holds"]
        assert chk["estimate"] <= chk["bound"] * (1 + 1e-4)
        # the three A-infinity faces fail together on the rank-one weight
        faces = res["checks"]["ainf_equiv"]
        assert faces["holds"]
        assert not faces["a2inf"] and not faces["ainf"] and not faces["rbm_and_detroot"]
