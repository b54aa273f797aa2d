import math

import numpy as np
import pytest

from mwlab import auxmetric as am
from mwlab import certify as cf
from mwlab import weights as mw
from mwlab.errors import BracketFailure, ConfigError

SQRT8 = 2.0 * math.sqrt(2.0)


class TestAuxValues:
    def test_constant_identity(self, identity2):
        # 2^n r^2 = 1 at the crossing, so m = 2^(n/2) for the identity weight
        for x in ([0.0, 0.0, 0.0], [3.0, -1.0, 0.5]):
            assert am.aux_value(identity2, x, "lower") == pytest.approx(SQRT8, rel=1e-8)
            assert am.aux_value(identity2, x, "upper") == pytest.approx(SQRT8, rel=1e-8)

    def test_constant_scaling_law(self):
        # m scales like sqrt(c) for constant scalar weights: 2^n c r^2 = 1
        for c in (0.5, 2.0, 4.0):
            W = mw.ConstantWeight(c * np.eye(2), n=3)
            got = am.aux_value(W, [0.0, 0.0, 0.0], "lower")
            assert got == pytest.approx(SQRT8 * math.sqrt(c), rel=1e-8)

    def test_scalar_square_closed_form(self):
        # Psi(0, r; |x|^2) = 2^n r^4 n/3, so the crossing is (2^n n/3)^(-1/4)
        v = mw.PolyScalar((0.0, 1.0))
        got = am.aux_value(v, [0.0, 0.0, 0.0])
        assert got == pytest.approx(8.0 ** 0.25, rel=1e-8)

    def test_directional_between_bounds(self, rank_one, rng):
        for _ in range(25):
            x = rng.uniform(-4, 4, size=3)
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            lo = am.aux_value(rank_one, x, "lower")
            up = am.aux_value(rank_one, x, "upper")
            mid = am.aux_value(rank_one, x, "directional", e=e)
            assert lo * (1 - 1e-9) <= mid <= up * (1 + 1e-9)

    def test_bracket_failure_is_loud(self):
        zero = mw.ConstantWeight(np.zeros((2, 2)), n=3)
        with pytest.raises(BracketFailure):
            am.aux_value(zero, [0.0, 0.0, 0.0], "upper")

    def test_rejects_low_dimension(self):
        W = mw.ConstantWeight(np.eye(2), n=2)
        with pytest.raises(Exception):
            am.aux_value(W, [0.0, 0.0], "lower")

    def test_query_object(self, identity2):
        # the checks of a query: a directional one needs e, and the kind is known
        with pytest.raises(ConfigError):
            am.aux_value(identity2, np.zeros(3), "directional")
        with pytest.raises(ConfigError):
            am.aux_value(identity2, np.zeros(3), kind="middle")


def _closed_form_weights() -> dict:
    rank_one = mw.RankOneRadialWeight()
    diag_poly = mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                             mw.PolyScalar((0.0, 0.0, 1.0))))
    diag_ordered = mw.ScalarDiagWeight(entries=(mw.PolyScalar((0.0, 1.0)),
                                                mw.PolyScalar((0.0, 1.0, 1.0))))
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    return {
        "rank-one": rank_one, "diag-poly": diag_poly, "diag-ordered": diag_ordered,
        "power-26": mw.PowerWeight(A=A, gamma=np.array([2.0, 6.0])),
        "norm-rank-one": mw.NormDiagWeight(base=rank_one),
        "eig-max-rank-one": cf._EigScalarWeight(rank_one, "max"),
        "eig-min-diag-ordered": cf._EigScalarWeight(diag_ordered, "min"),
        "detroot-power13": cf._DetRootWeight(mw.PowerWeight(A=A, gamma=np.array([1.0, 3.0]))),
        "identity": mw.identity_weight(),
        "constant": mw.ConstantWeight(A),
    }


class TestPolynomialScan:
    """The scan reads the criterion off per-point coefficients of Psi(x, r)
    in t = r^2; these tests pin that route to the per-radius closed forms
    and to the values of the per-rung moment route it replaced."""

    RADII = np.geomspace(1e-3, 1e3, 30)

    @pytest.mark.parametrize("name", sorted(_closed_form_weights()))
    def test_coefficients_match_cube_integrals(self, name):
        W = _closed_form_weights()[name]
        X = np.random.default_rng(12).uniform(-3.0, 3.0, size=(16, 3))
        C = am._psi_coeffs(W, X)
        assert C.shape[:3] == (16, W.d, W.d)
        for r in self.RADII:
            want = mw.symmetrize(W.exact_cube_integral_many(X, r)) * r ** (2 - W.n)
            got = am._horner(C, np.array([[r * r]]))[0]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_no_coefficients_without_closed_form(self, power13):
        assert am._psi_coeffs(power13, np.zeros((2, 3))) is None

    POINTS = np.array([[0, 0, 0], [0.5, 0, 0], [1, 1, 1], [-1.5, 0.25, 2], [3, -1, 0.5],
                       [0, 0, 6], [-4, 2, -2], [0.1, -0.2, 0.3], [2.5, 2.5, -2.5],
                       [-0.75, 1.25, 0], [5, -3, 1], [10, 0, 0]], dtype=float)
    # aux_values_many at POINTS with e = (1, 0.3), as the per-rung moment
    # route computed them; every identity value is 0x1.6a09e6624b1efp+1
    RECORDED = {
        ("rank-one", "lower"): (
            "0x1.ff6ebc77554a8p-1 0x1.2f5c9545e6a00p+0 0x1.2c0d85e7bb9fcp+0 0x1.07997863a3a35p+0 "
            "0x1.de4d26069cba2p-1 0x1.6abd3c265c69ep-1 0x1.8db117ea68352p-1 0x1.1e3f519d93acep+0 "
            "0x1.a4237250034f5p-1 0x1.3a73b092a47f6p+0 0x1.6d169d7b3aaf9p-1 0x1.1d9e745743132p-1"),
        ("rank-one", "upper"): (
            "0x1.6cc892e62cd42p+1 0x1.819cdb6c13d96p+1 0x1.1fe98fb546d0ep+3 0x1.217574a89fa75p+4 "
            "0x1.d22708871c2c9p+4 0x1.9773d23c86845p+6 0x1.0fc4c863f44fcp+6 0x1.7618013eebf66p+1 "
            "0x1.a8e16027d1b8ep+5 0x1.aeb7d1c7e6843p+2 0x1.8c24aff2a799cp+6 0x1.1adb5ea543b6ap+8"),
        ("rank-one", "directional"): (
            "0x1.67fc9d984090bp+1 0x1.80d9c39e0349ep+1 0x1.4bf9084a9a6cfp+2 0x1.f6f138271fe94p+2 "
            "0x1.61979a662061ep+3 0x1.ff81a7e3180f1p+4 0x1.637b2e3838ad3p+4 0x1.75e57e16cc6c7p+1 "
            "0x1.1f3b72e8e2045p+4 0x1.1f2b201578dddp+2 0x1.f280ef29074bcp+4 0x1.4fef315c6b6b6p+6"),
        ("diag-poly", "lower"): (
            "0x1.7896475729a81p+0 0x1.d5f85587cb22cp+0 0x1.3bacdeda83641p+2 0x1.c7841a2a4bf3bp+2 "
            "0x1.21f1c76e66d3dp+3 0x1.0f8ac6e2503c2p+4 0x1.bb73fec441914p+3 0x1.abd14c26e7e82p+0 "
            "0x1.87fcedbe4e297p+3 0x1.0b695b40a7742p+2 0x1.0bbeaf942de45p+4 0x1.c48d1960460aep+4"),
        ("diag-poly", "upper"): (
            "0x1.ae89f9962f3adp+0 0x1.fffffffdbc2e4p+0 0x1.1196a66a0c4dfp+3 0x1.1de844c6c3b61p+4 "
            "0x1.cff3a5aab976ap+4 0x1.974b9a6bed8bfp+6 0x1.0f8878f94b1d7p+6 0x1.db0a03d9bce96p+0 "
            "0x1.a84708b4ed40bp+5 0x1.88a32f5c70f92p+2 0x1.8bfb521fdfcb0p+6 0x1.1ad7bfe20c534p+8"),
        ("diag-poly", "directional"): (
            "0x1.a9a41182db7b7p+0 0x1.fbd5461eb359ap+0 0x1.5564a63a26b37p+2 0x1.114d241160458p+3 "
            "0x1.811c981d37448p+3 0x1.0bc6895efabc6p+5 0x1.7985cefddbbe7p+4 0x1.d68069cc8c46cp+0 "
            "0x1.33c1086325ac6p+4 0x1.187c66b790750p+2 0x1.0536b41b6d1bfp+5 0x1.56aedde0b772bp+6"),
        ("diag-ordered", "lower"): (
            "0x1.ae89f9962f3adp+0 0x1.fffffffdbc2e4p+0 0x1.3bacdeda83641p+2 0x1.c7841a2a4bf3bp+2 "
            "0x1.21f1c76e66d3dp+3 0x1.0f8ac6e2503c2p+4 0x1.bb73fec441914p+3 0x1.db0a03d9bce96p+0 "
            "0x1.87fcedbe4e297p+3 0x1.0b695b40a7742p+2 0x1.0bbeaf942de45p+4 0x1.c48d1960460aep+4"),
        ("diag-ordered", "upper"): (
            "0x1.d2bb2497e4c55p+0 0x1.2c36f59265929p+1 0x1.3b040ca14c0e6p+3 0x1.33aa62bb0dd7bp+4 "
            "0x1.e60b12fa7fd22p+4 0x1.9ce9d2cfd194ap+6 0x1.1521cc755d1f6p+6 0x1.0d9aac10b7fecp+1 "
            "0x1.b3718423b7999p+5 0x1.d7b0573ed4d35p+2 0x1.919942a80c690p+6 0x1.1c40e32c775a6p+8"),
        ("diag-ordered", "directional"): (
            "0x1.b2657eacaffa0p+0 0x1.04c2a464e2a6ep+1 0x1.61059af703cfap+2 0x1.18fdc1c64a949p+3 "
            "0x1.8a01083fc1d99p+3 0x1.0e9a2d2950ffbp+5 0x1.7edc02aa4efe6p+4 0x1.e1eda848a6541p+0 "
            "0x1.38dca28e4575ap+4 0x1.227add55d905bp+2 0x1.0807d4ee4cbf0p+5 0x1.5838c0223b5aap+6"),
    }

    @pytest.mark.parametrize("name,kind", sorted(RECORDED) + [
        ("identity", k) for k in ("lower", "upper", "directional")])
    def test_values_are_the_recorded_bits(self, name, kind):
        W = _closed_form_weights()[name]
        got = am.aux_values_many(W, self.POINTS, kind, e=np.array([1.0, 0.3]))
        want = self.RECORDED.get((name, kind), " ".join(["0x1.6a09e6624b1efp+1"] * 12))
        assert [float.fromhex(h) for h in want.split()] == got.tolist()

    def test_diagonal_fast_path_matches_eigvalsh(self, diag_poly):
        X = am.BoxGrid(L=1.5, m=8).nodes()
        C = am._psi_coeffs(diag_poly, X)
        lo, hi = am.R_BRACKET
        ladder = np.geomspace(lo, hi, int(round(math.log10(hi / lo) * am.SCAN_PER_DECADE)) + 1)
        lam = np.linalg.eigvalsh(am._horner(C, (ladder ** 2)[:, None]))
        for kind, col in (("lower", 0), ("upper", -1)):
            fast = am._poly_criterion(C, kind, None)(ladder[:, None])
            assert np.array_equal(fast <= 1.0, lam[..., col] <= 1.0)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _sym2(a, b, c) -> np.ndarray:
    P = np.empty(np.shape(a) + (2, 2))
    P[..., 0, 0], P[..., 1, 0], P[..., 0, 1], P[..., 1, 1] = a, b, b, c
    return P


class TestEig2:
    """The 2x2 criterion is LAPACK's own arithmetic for d = 2: it must return
    the bits of ``eigvalsh``, on the scan's matrices and on edge cases."""

    def _assert_eigvalsh_bits(self, P):
        lam = np.linalg.eigvalsh(P)
        assert _bits(am._matrix_criterion(P, "lower", None)) == _bits(lam[..., 0])
        assert _bits(am._matrix_criterion(P, "upper", None)) == _bits(lam[..., -1])

    @pytest.mark.parametrize("name", ["constant", "power-26", "rank-one"])
    def test_every_ladder_rung_of_the_catalog(self, name):
        # the weights whose tables have off-diagonal coefficients, at random
        # points and out to |x| = 240 along random directions, as the
        # counterexample scans rank-one
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((50, 3))
        far = dirs / np.linalg.norm(dirs, axis=1)[:, None] * np.geomspace(0.1, 240.0, 50)[:, None]
        X = np.vstack([rng.uniform(-4.0, 4.0, size=(150, 3)), far])
        lo, hi = am.R_BRACKET
        ladder = np.geomspace(lo, hi, int(round(math.log10(hi / lo) * am.SCAN_PER_DECADE)) + 1)
        self._assert_eigvalsh_bits(am._horner(am._psi_coeffs(_closed_form_weights()[name], X),
                                              (ladder ** 2)[:, None]))

    def test_adversarial_and_fallback_rows(self):
        rng = np.random.default_rng(6)
        k = 20000
        a, c = rng.uniform(0.1, 10.0, k), rng.uniform(0.1, 10.0, k)
        sign = rng.choice([-1.0, 1.0], k)
        ulps = 1.0 + rng.integers(-4, 5, k) * 2.0 ** -52
        u = rng.standard_normal((k, 2))
        scale = 10.0 ** rng.uniform(-300.0, 300.0, k)
        families = [
            _sym2(a, sign * a * 10.0 ** rng.uniform(-20.0, -5.0, k),
                  a * (1.0 + rng.uniform(-1e-12, 1e-12, k))),           # a ~ c, tiny b
            _sym2(a, 0.0, c),                                           # b = 0
            _sym2(a, sign * np.sqrt(a) * np.sqrt(c) * 2.0 ** -53 * ulps, c),  # split edges
            _sym2(a, sign * np.sqrt(2.0 ** -106 * a * c) * ulps, c),
            scale[:, None, None] * rng.standard_normal((k, 2, 2)),       # 1e-300 .. 1e300
            _sym2(u[:, 0] ** 2, u[:, 0] * u[:, 1], u[:, 1] ** 2),       # exact rank one
            _sym2(rng.standard_normal(k), -np.abs(rng.standard_normal(k)),
                  rng.standard_normal(k)),                              # negative b
        ]
        for P in families:
            self._assert_eigvalsh_bits(mw.symmetrize(P))
        # rows eigvalsh keeps: LAPACK rescales them, or a + c = 0, or NaN
        s = np.array([0.0, 1e-200, 1e200, 2.0 ** -406, 2.0 ** 486])
        fallback = np.concatenate([_sym2(s, 0.3 * s, 0.7 * s), _sym2(s, 0.3 * s, -s),
                                   _sym2(np.nan, 1.0, 2.0)[None]])
        self._assert_eigvalsh_bits(fallback)

    def test_rank_one_lower_scan_makes_no_eigvalsh_call(self, rank_one, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(P, *args, **kwargs):
            calls.append(np.shape(P))
            return eigvalsh(P, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        vals = am.aux_values_many(rank_one, am.BoxGrid(L=3.0, m=3).nodes(), "lower")
        assert vals.shape == (64,) and np.all(np.isfinite(vals))
        assert calls == []


class TestDiagonalReduction:
    def test_aux_fields_match_scalar_fields(self, diag_ordered):
        # diag(v1, v2) with v1 <= v2: the lower field IS the scalar field of
        # v1 and the upper field IS the scalar field of v2, node for node
        grid = am.BoxGrid(L=1.5, m=6)
        lo = am.aux_field(diag_ordered, grid, kind="lower")
        up = am.aux_field(diag_ordered, grid, kind="upper")
        v1 = am.aux_field(diag_ordered.entries[0], grid, kind="lower")
        v2 = am.aux_field(diag_ordered.entries[1], grid, kind="lower")
        assert np.max(np.abs(lo.values - v1.values)) <= 1e-9 * np.max(v1.values)
        assert np.max(np.abs(up.values - v2.values)) <= 1e-9 * np.max(v2.values)

    def test_distance_fields_match_scalar(self, diag_ordered):
        grid = am.BoxGrid(L=1.5, m=6)
        lo = am.aux_field(diag_ordered, grid, kind="lower")
        v1 = am.aux_field(diag_ordered.entries[0], grid, kind="lower")
        src = (3, 3, 3)
        d_lo = am.agmon_field(lo, src)
        d_v1 = am.agmon_field(v1, src)
        assert np.max(np.abs(d_lo.values - d_v1.values)) <= 1e-9 * np.max(d_v1.values)


class TestSandwichAndComparisons:
    def test_sandwich_many_random(self, rank_one, diag_poly, rng):
        X = rng.uniform(-4, 4, size=(20, 3))
        for W in (rank_one, diag_poly):
            lo = am.aux_values_many(W, X, kind="lower")
            up = am.aux_values_many(W, X, kind="upper")
            for _ in range(5):
                e = rng.standard_normal(2)
                e /= np.linalg.norm(e)
                mid = am.aux_values_many(W, X, kind="directional", e=e)
                assert np.all(lo <= mid * (1 + 1e-9))
                assert np.all(mid <= up * (1 + 1e-9))

    def test_sandwich_quadrature_weight(self, power13, rng):
        # the quadrature route sees one deterministic Psi per (x, r), so the
        # ordering is exact here too, up to bisection tolerance
        X = rng.uniform(-3, 3, size=(6, 3))
        lo = am.aux_values_many(power13, X, kind="lower")
        up = am.aux_values_many(power13, X, kind="upper")
        for _ in range(3):
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            mid = am.aux_values_many(power13, X, kind="directional", e=e)
            assert np.all(lo <= mid * (1 + 1e-7))
            assert np.all(mid <= up * (1 + 1e-7))

    def test_norm_comparison(self, rank_one, diag_poly, catalog_family, rng):
        # m_upper <= m(x, |V|) <= (d^2 C)^(2/(2p - n)) m_upper, with the
        # reverse Hoelder constant taken from the certifier report
        p = 2.0
        X = rng.uniform(-4, 4, size=(100, 3))
        for W in (rank_one, diag_poly):
            C = cf.bp_constant(W, p, catalog_family).constant_estimate
            factor = (W.d ** 2 * C) ** (2.0 / (2 * p - 3))
            ND = mw.NormDiagWeight(base=W)
            up = am.aux_values_many(W, X, kind="upper")
            m_norm = am.aux_values_many(ND, X, kind="lower")
            # the norm field may take the quadrature route, so allow its
            # tolerance on top of the exact ordering
            assert np.all(up <= m_norm * (1 + 1e-4))
            assert np.all(m_norm <= factor * up * (1 + 1e-8))

    def test_lower_vs_smallest_eigenvalue(self, power13, rng):
        # power weights pass the quantile A-infinity test, so the lower
        # auxiliary function is pinched by the smallest-eigenvalue scalar one
        X = rng.uniform(-3, 3, size=(16, 3))
        lmin = cf._EigScalarWeight(power13, "min")
        m_l1 = am.aux_values_many(lmin, X, kind="lower")
        m_lo = am.aux_values_many(power13, X, kind="lower")
        assert np.all(m_l1 <= m_lo * (1 + 1e-8))
        ratio = m_lo / m_l1
        assert np.isfinite(ratio.max()) and ratio.max() < 10.0

    def test_rank_one_spread_grows(self, rank_one):
        vals = {}
        for t in (2.0, 20.0):
            lo = am.aux_value(rank_one, [t, 0.0, 0.0], "lower")
            up = am.aux_value(rank_one, [t, 0.0, 0.0], "upper")
            vals[t] = up / lo
        assert vals[20.0] > 10.0 * vals[2.0]


class TestAuxFields:
    def test_constant_field_uniform(self, identity2):
        grid = am.BoxGrid(L=2.0, m=5)
        fld = am.aux_field(identity2, grid, kind="lower")
        assert np.allclose(fld.values, SQRT8, rtol=1e-8)

    def test_weight_scaling_consistency(self):
        # scaling the weight by 4 doubles the field (m ~ c^(1/2) for scalars)
        grid = am.BoxGrid(L=1.0, m=4)
        f1 = am.aux_field(mw.ConstantWeight(np.eye(2)), grid, kind="lower")
        f4 = am.aux_field(mw.ConstantWeight(4.0 * np.eye(2)), grid, kind="lower")
        assert np.allclose(f4.values, 2.0 * f1.values, rtol=1e-7)

    def test_field_validation(self):
        grid = am.BoxGrid(L=1.0, m=4)
        with pytest.raises(ConfigError):
            am.AuxField(grid=grid, values=np.zeros(grid.size), kind="lower")

    def test_binary_round_trip(self, diag_poly, tmp_path):
        grid = am.BoxGrid(L=1.5, m=5)
        fld = am.aux_field(diag_poly, grid, kind="upper")
        path = tmp_path / "field.bin"
        am.save_field_binary(path, fld)
        back = am.load_field_binary(path)
        assert back.kind == "upper"
        assert back.grid.L == pytest.approx(grid.L)
        assert np.array_equal(back.values, fld.values)

    def test_csv_export(self, identity2, tmp_path):
        grid = am.BoxGrid(L=1.0, m=3)
        fld = am.aux_field(identity2, grid, kind="lower")
        path = tmp_path / "field.csv"
        am.field_to_csv(path, fld)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,value"
        assert len(lines) == grid.size + 1


class TestSlowVariation:
    def test_constant_field_constants(self, identity2):
        grid = am.BoxGrid(L=2.0, m=6)
        fld = am.aux_field(identity2, grid, kind="lower")
        C_a, C_b, c_c, k0 = am.slow_variation_check(fld, count=4000)
        assert C_a == pytest.approx(1.0, abs=1e-9)
        assert C_b == pytest.approx(1.0, abs=1e-6)
        assert c_c == pytest.approx(1.0, abs=1e-6)
        assert k0 == pytest.approx(0.0, abs=1e-9)

    def test_scalar_square_field_stable_under_refinement(self):
        v = mw.PolyScalar((0.0, 1.0))
        results = []
        for m in (8, 16):
            grid = am.BoxGrid(L=3.0, m=m)
            fld = am.aux_field(mw.ScalarDiagWeight(entries=(v,)), grid, "lower")
            results.append(am.slow_variation_check(fld, count=10000))
        (Ca1, Cb1, cc1, k1), (Ca2, Cb2, cc2, k2) = results
        assert all(np.isfinite([Ca1, Cb1, cc1, k1]))
        assert Ca2 <= Ca1 * 1.5 + 0.5
        assert abs(k2 - k1) < 1.0

    def test_rank_one_lower_field_finite(self, rank_one):
        grid = am.BoxGrid(L=4.0, m=8)
        fld = am.aux_field(rank_one, grid, kind="lower")
        C_a, C_b, c_c, k0 = am.slow_variation_check(fld, count=8000)
        assert all(np.isfinite([C_a, C_b, c_c, k0]))
        assert C_a >= 1.0 and C_b >= 1.0 and 0 < c_c <= 1.0


class TestAgmon:
    def test_constant_exact_sup_norm(self, identity2):
        grid = am.BoxGrid(L=1.5, m=6)
        fld = am.aux_field(identity2, grid, kind="lower")
        dist = am.agmon_field(fld, (2, 3, 1))
        nodes = grid.nodes()
        src = nodes[dist.source]
        expect = SQRT8 * np.max(np.abs(nodes - src[None, :]), axis=1)
        assert np.max(np.abs(dist.values - expect)) <= 1e-8

    def test_euclidean_metrication_bound(self, identity2):
        # the 26-stencil chamfer metric overestimates Euclidean length by at
        # most ~12.62% (worst direction ~ (1, 0.366, 0.366))
        grid = am.BoxGrid(L=1.5, m=8)
        fld = am.aux_field(identity2, grid, kind="lower")
        dist = am.agmon_field(fld, (4, 4, 4), norm="l2")
        nodes = grid.nodes()
        src = nodes[dist.source]
        sep = np.linalg.norm(nodes - src[None, :], axis=1)
        mask = sep > 0
        ratio = dist.values[mask] / (SQRT8 * sep[mask])
        assert ratio.max() <= 1.1262 + 1e-6
        assert ratio.min() >= 1.0 - 1e-9

    def test_symmetry(self, diag_poly):
        grid = am.BoxGrid(L=1.5, m=5)
        fld = am.aux_field(diag_poly, grid, kind="lower")
        a, b = (1, 2, 3), (4, 0, 2)
        dab = am.agmon_field(fld, a).values[grid.index(b)]
        dba = am.agmon_field(fld, b).values[grid.index(a)]
        assert abs(dab - dba) <= 1e-9 * max(dab, 1e-300)

    def test_triangle_inequality_sampled(self, diag_poly, rng):
        grid = am.BoxGrid(L=1.5, m=4)
        fld = am.aux_field(diag_poly, grid, kind="lower")
        idxs = rng.integers(0, grid.size, size=3)
        fields = {i: am.agmon_field(fld, int(i)).values for i in idxs}
        a, b, c = (int(i) for i in idxs)
        assert fields[a][c] <= fields[a][b] + fields[b][c] + 1e-9

    def test_grid_convergence(self, diag_poly):
        # interior distances at h and h/2 agree within 5%
        vals = {}
        for m in (8, 16):
            grid = am.BoxGrid(L=2.0, m=m)
            fld = am.aux_field(diag_poly, grid, kind="lower")
            dist = am.agmon_field(fld, (m // 2, m // 2, m // 2))
            probe = grid.index((m // 4, m // 4, m // 2))
            vals[m] = dist.values[probe]
        assert vals[16] == pytest.approx(vals[8], rel=0.05)

    def test_close_pair_constant(self, identity2):
        grid = am.BoxGrid(L=2.0, m=8)
        fld = am.aux_field(identity2, grid, kind="lower")
        dist = am.agmon_field(fld, (4, 4, 4))
        K = am.close_pair_check(fld, dist)
        assert K <= 1.0 + 1e-9
        assert K >= 0.5

    def test_close_pair_catalog_finite(self, rank_one, diag_poly):
        for W in (rank_one, diag_poly):
            grid = am.BoxGrid(L=3.0, m=8)
            fld = am.aux_field(W, grid, kind="lower")
            dist = am.agmon_field(fld, (4, 4, 4))
            K = am.close_pair_check(fld, dist)
            assert np.isfinite(K) and K < 20.0
