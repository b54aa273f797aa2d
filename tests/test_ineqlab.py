import json

import numpy as np
import pytest

from mwlab import auxmetric as am
from mwlab import cubature as cb
from mwlab import ineqlab as il
from mwlab import pde
from mwlab import weights as mw
from mwlab.errors import InsufficientSamples


def origin_cube(r=1.0):
    return cb.Cube(center=np.zeros(3), r=r)


class TestPoincare:
    def test_identity_coordinate_function(self, identity2):
        u = il.linear_component(0, 0, d=2)
        ratio = il.poincare_ratio(identity2, origin_cube(), u)
        assert ratio == pytest.approx(1.0 / 6.0, rel=1e-6)

    def test_constant_function_guarded_zero(self, identity2):
        u = il.TestFunction(u=lambda X: np.ones((X.shape[0], 2)),
                            grad=lambda X: np.zeros((X.shape[0], 2, 3)),
                            d=2, label="const")
        assert il.poincare_ratio(identity2, origin_cube(), u) == 0.0

    def test_diag_finite_and_stable(self, diag_poly):
        u = il.TestFunction(
            u=lambda X: np.stack([X[:, 0], X[:, 1]], axis=1),
            grad=lambda X: np.tile(np.eye(2, 3)[None], (X.shape[0], 1, 1)),
            d=2, label="(x1,x2)")
        vals = [il.poincare_ratio(diag_poly, origin_cube(), u, tol=tol)
                for tol in (1e-4, 1e-6)]
        assert np.isfinite(vals[0])
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)


class TestFpRatios:
    def test_identity_lower_bounded_by_constant(self, identity2):
        grid = am.BoxGrid(L=2.0, m=14)
        aux = am.aux_field(identity2, grid, kind="lower")
        for f in il.test_function_library(grid, 2, count=6, seed=3):
            ratio = il.fp_ratio(identity2, f, "lower", aux=aux)
            assert 0 <= ratio <= 8.0 + 1e-9

    def test_nc_passing_diag_bounded_over_library(self, diag_ordered):
        grid = am.BoxGrid(L=2.0, m=12)
        aux = am.aux_field(diag_ordered, grid, kind="lower")
        ratios = [il.fp_ratio(diag_ordered, f, "lower", aux=aux)
                  for f in il.test_function_library(grid, 2, count=20, seed=5)]
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 50.0

    def test_upper_form(self, diag_poly):
        grid = am.BoxGrid(L=2.0, m=12)
        aux = am.aux_field(diag_poly, grid, kind="upper")
        for f in il.test_function_library(grid, 2, count=5, seed=7):
            ratio = il.fp_ratio(diag_poly, f, "upper", aux=aux)
            assert np.isfinite(ratio) and ratio >= 0

    def test_norm_form(self, diag_ordered):
        grid = am.BoxGrid(L=2.0, m=10)
        ratios = [il.fp_ratio(diag_ordered, f, "norm")
                  for f in il.test_function_library(grid, 2, count=2, seed=11)]
        assert all(np.isfinite(r) and r >= 0 for r in ratios)

    def test_compact_support_enforced(self):
        grid = am.BoxGrid(L=1.0, m=6)
        vals = np.ones((grid.size, 2))
        with pytest.raises(Exception):
            il.TestFunctionField(grid=grid, values=vals)


class TestCounterexampleFailure:
    def test_ratio_doubles_with_radius(self):
        res = il.counterexample_fp_failure([10.0, 20.0, 40.0])
        ratios = [row["ratio"] for row in res["rows"]]
        assert ratios[1] == pytest.approx(2.0 * ratios[0], rel=0.15)
        assert 0.7 <= res["slope"] <= 1.3

    def test_smallest_radius_finite_positive(self):
        res = il.counterexample_fp_failure([5.0])
        assert res["rows"][0]["ratio"] > 0

    def test_identity_control_is_flat(self):
        res = il.counterexample_fp_failure([10.0, 20.0, 40.0], control=True)
        assert abs(res["slope"]) <= 0.1
        # the constant-weight bound 2^n caps the control ratios
        assert all(row["ratio"] <= 8.0 + 1e-6 for row in res["rows"])


@pytest.fixture(scope="module")
def free_green_and_distance():
    g = pde.Grid3(L=2.0, N=21)
    op0 = pde.assemble(None, None, g, d=1)
    mid = (10, 10, 10)
    y0 = g.node(g.index(mid))
    gf = pde.green_field(op0, mid, solver=pde.DirectSolver(op0),
                         boundary_data=pde.free_space_kernel(y0, 1))
    bg = g.to_boxgrid()
    fld = am.aux_field(mw.identity_weight(3, 1), bg, kind="lower")
    dist = am.agmon_field(fld, gf.pole, norm="l2")
    return gf, dist


class TestEnvelopeFits:
    def test_free_kernel_is_flat(self, free_green_and_distance):
        gf, dist = free_green_and_distance
        fit = il.envelope_fit(gf, dist, projector="norm", mode="upper")
        assert abs(fit.eps_hat) <= 0.02
        assert fit.n_samples >= 50

    def test_fit_is_deterministic(self, free_green_and_distance):
        gf, dist = free_green_and_distance
        a = il.envelope_fit(gf, dist, projector="norm")
        b = il.envelope_fit(gf, dist, projector="norm")
        assert a.slope == b.slope and a.intercept == b.intercept

    def test_constant_potential_decays_linearly(self):
        g = pde.Grid3(L=2.0, N=21)
        W = mw.ConstantWeight(4.0 * np.eye(1), n=3)
        op = pde.assemble(W, None, g)
        gf = pde.green_field(op, (10, 10, 10), solver=pde.DirectSolver(op))
        fld = am.aux_field(W, g.to_boxgrid(), kind="lower")
        dist = am.agmon_field(fld, gf.pole, norm="l2")
        fit = il.envelope_fit(gf, dist, projector="norm", mode="upper")
        assert fit.eps_hat > 0
        assert fit.r2 >= 0.9

    def test_lower_mode_records_envelope_coverage(self):
        g = pde.Grid3(L=2.0, N=15)
        W = mw.ConstantWeight(2.0 * np.eye(1), n=3)
        op = pde.assemble(W, None, g)
        gf = pde.green_field(op, (7, 7, 7), solver=pde.DirectSolver(op))
        fld = am.aux_field(W, g.to_boxgrid(), kind="upper")
        dist = am.agmon_field(fld, gf.pole, norm="l2")
        fit = il.envelope_fit(gf, dist, projector="qform", e=np.array([1.0]),
                              mode="lower")
        assert fit.frac_above is not None and fit.frac_above >= 0.95

    def test_insufficient_samples(self):
        g = pde.Grid3(L=2.0, N=9)
        op = pde.assemble(None, None, g, d=1)
        gf = pde.green_field(op, (4, 4, 4), solver=pde.DirectSolver(op))
        fld = am.aux_field(mw.identity_weight(3, 1), g.to_boxgrid(), kind="lower")
        dist = am.agmon_field(fld, gf.pole)
        with pytest.raises(InsufficientSamples):
            il.envelope_fit(gf, dist, projector="norm", min_samples=10 ** 6)

    def test_mismatched_grids_rejected(self, free_green_and_distance):
        gf, _ = free_green_and_distance
        other = am.BoxGrid(L=1.0, m=6)
        fld = am.AuxField(grid=other, values=np.ones(other.size), kind="lower")
        dist = am.agmon_field(fld, (3, 3, 3))
        with pytest.raises(Exception):
            il.envelope_fit(gf, dist)


class TestDiagonalConsistency:
    def test_component_fits_match_scalar_runs(self, diag_ordered):
        # block-diagonal system: quadratic-form fits along e1/e2 against the
        # lower/upper distances agree with the standalone scalar solves
        g = pde.Grid3(L=2.5, N=21)
        mid = (10, 10, 10)
        bg = g.to_boxgrid()
        op = pde.assemble(diag_ordered, None, g)
        gv = pde.green_field(op, mid, solver=pde.DirectSolver(op))
        f_lo = am.aux_field(diag_ordered, bg, kind="lower")
        f_up = am.aux_field(diag_ordered, bg, kind="upper")
        d_lo = am.agmon_field(f_lo, gv.pole, norm="l2")
        d_up = am.agmon_field(f_up, gv.pole, norm="l2")
        fit1 = il.envelope_fit(gv, d_lo, projector="qform", e=np.array([1.0, 0.0]))
        fit2 = il.envelope_fit(gv, d_up, projector="qform", e=np.array([0.0, 1.0]))
        scalar_fits = []
        for i in range(2):
            v = diag_ordered.entries[i]
            Wi = mw.ScalarDiagWeight(entries=(v,))
            opi = pde.assemble(Wi, None, g)
            gi = pde.green_field(opi, mid, solver=pde.DirectSolver(opi))
            fi = am.aux_field(Wi, bg, kind="lower")
            di = am.agmon_field(fi, gi.pole, norm="l2")
            scalar_fits.append(il.envelope_fit(gi, di, projector="norm"))
        assert fit1.eps_hat == pytest.approx(scalar_fits[0].eps_hat, rel=0.2)
        assert fit2.eps_hat == pytest.approx(scalar_fits[1].eps_hat, rel=0.2)


class TestDifferenceBound:
    def test_small_scale_exponent(self, diag_poly):
        # the difference is a 1e-2-size cancellation, so it needs the finer
        # grid to rise above the stencil error
        g = pde.Grid3(L=1.2, N=27)
        mid = (13, 13, 13)
        opv = pde.assemble(diag_poly, None, g)
        op0 = pde.assemble(None, None, g, d=2)
        gv = pde.green_field(opv, mid)
        g0 = pde.green_field(op0, mid)
        alpha = 2.0 - 3.0 / min(2.0, 2.9)
        res = il.difference_bound_fit(gv, g0, diag_poly, alpha)
        assert res["fitted_exponent"] >= alpha - 0.3
        assert res["frac_under_bound"] >= 0.95


class TestReport:
    def test_empty_document_validates(self):
        rep = il.Report({"subcommand": "none"})
        doc = rep.document()
        assert il.validate_report(doc)
        assert doc["config"] == {"subcommand": "none"}

    def test_rows_round_trip_csv(self):
        rep = il.Report({"seed": 1})
        rep.add_row("fp", "identity", "ratio", [0.5, 0.5, 0.5], 1.25)
        rep.add_row("fp", "identity", "ratio", 2, 0.5)
        text = rep.csv_text()
        lines = text.splitlines()
        assert lines[0] == "experiment,weight,quantity,x,value"
        assert len(lines) == 3
        assert il.validate_report(rep.document())

    def test_byte_identical_output(self, tmp_path):
        def build():
            rep = il.Report({"seed": 7})
            rng = np.random.default_rng(7)
            for i in range(20):
                rep.add_row("demo", "w", "q", i, float(rng.uniform()))
            return rep

        a = build().csv_text()
        b = build().csv_text()
        assert a == b
        paths = build().write(tmp_path / "out")
        paths2 = build().write(tmp_path / "out2")
        assert open(paths[1], "rb").read() == open(paths2[1], "rb").read()

    def test_written_json_validates(self, tmp_path):
        rep = il.Report({"seed": 3})
        rep.add_row("fp", "identity", "ratio", [0.5, 0.5, 0.5], 1.25)
        rep.add_result("slope", 0.9)
        jpath, _ = rep.write(tmp_path / "out")
        with open(jpath, encoding="utf-8") as fh:
            doc = json.load(fh)
        # the file is written with sorted keys, so the row order changes
        assert list(doc["rows"][0]) == sorted(il.REPORT_SCHEMA["row_fields"])
        assert il.validate_report(doc)

    def test_row_fields_must_match_exactly(self):
        rep = il.Report({})
        rep.add_row("fp", "identity", "ratio", 1, 0.5)
        doc = rep.document()
        del doc["rows"][0]["x"]
        assert not il.validate_report(doc)
        doc["rows"][0]["x"], doc["rows"][0]["extra"] = "1", 0
        assert not il.validate_report(doc)

    def test_write_refuses_an_invalid_document(self, tmp_path):
        rep = il.Report({})
        rep.add_row("fp", "identity", "ratio", 1, 0.5)
        rep.rows[0]["extra"] = 0
        with pytest.raises(ValueError):
            rep.write(tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_json_rejects_nan(self):
        rep = il.Report({})
        rep.add_result("bad", float("nan"))
        doc = rep.document()
        json.dumps(doc)  # NaN sanitized to a string by _to_jsonable

    @pytest.mark.parametrize("value, expect", [
        (np.array([1.0, np.nan, -np.inf]), [1.0, "nan", "-inf"]),
        (np.array([[np.inf, 2.0]]), [["inf", 2.0]]),
        (np.float64("nan"), "nan"),
        (np.float32("inf"), "inf"),
    ])
    def test_numpy_non_finite_values_are_sanitized(self, value, expect, tmp_path):
        # numpy arrays and scalars get the strings plain floats get
        rep = il.Report({"seed": 1})
        rep.add_result("value", value)
        jpath, _ = rep.write(tmp_path / "out")
        with open(jpath, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["results"]["value"] == expect
        assert il.validate_report(doc)
