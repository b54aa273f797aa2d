"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavy Green-field fixtures are shared across criteria.
"""

import math

import numpy as np
import pytest

from mwlab import auxmetric as am
from mwlab import certify as cf
from mwlab import cli
from mwlab import cubature as cb
from mwlab import ineqlab as il
from mwlab import pde
from mwlab import weights as mw

SQRT8 = 2.0 * math.sqrt(2.0)


def report_line(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def printed_psi_form(x, r, n=3):
    """The published closed form of the scale-weighted average of the
    rank-one radial weight, transcribed directly as the oracle."""
    s = float(np.dot(x, x))
    top = s + n * r * r / 3.0
    bottom = s * s + 2.0 * (n + 2.0) / 3.0 * s * r * r + (5.0 * n + 4.0) * n / 45.0 * r ** 4
    return 2.0 ** n * r * r * np.array([[1.0, top], [top, bottom]])


def critical_centers(rank_one, ms):
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


@pytest.fixture(scope="module")
def catalog(identity2, rank_one, diag_poly, power13):
    return {"identity": identity2, "power13": power13,
            "diag_poly": diag_poly, "rank_one": rank_one}


@pytest.fixture(scope="module")
def decay_run_48(diag_poly):
    """N = 48 production run: Green fields of the diagonal weight and the
    free operator, plus the lower-distance field (upper-fit grid)."""
    g = pde.Grid3(L=3.0, N=48)
    mid = (24, 24, 24)
    op_v = pde.assemble(diag_poly, None, g)
    gv = pde.green_field(op_v, mid)
    bg = g.to_boxgrid()
    fld = am.aux_field(diag_poly, bg, kind="lower")
    dist = am.agmon_field(fld, gv.pole, norm="l2")
    return {"grid": g, "gv": gv, "dist": dist}


@pytest.fixture(scope="module")
def difference_run_48(diag_poly):
    """Fine-spacing N = 48 run for the small-scale difference bound."""
    g = pde.Grid3(L=1.6, N=48)
    mid = (24, 24, 24)
    op_v = pde.assemble(diag_poly, None, g)
    op_0 = pde.assemble(None, None, g, d=2)
    gv = pde.green_field(op_v, mid)
    g0 = pde.green_field(op_0, mid)
    return {"grid": g, "gv": gv, "g0": g0}


def test_criterion_01_psi_closed_form(rank_one, rng):
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-2.5, 2.5, size=3)
        r = float(rng.uniform(0.3, 1.5))
        got = cb.psi(rank_one, x, r, method="quadrature")
        expect = printed_psi_form(x, r)
        worst = max(worst, np.abs(got - expect).max() / np.abs(expect).max())
    report_line(1, worst <= 1e-6,
                f"psi quadrature vs printed closed form, max rel err {worst:.2e}")


def test_criterion_02_constant_weight_analytics(identity2):
    m_lo = am.aux_value(identity2, [0.7, -0.2, 1.3], "lower")
    m_up = am.aux_value(identity2, [0.7, -0.2, 1.3], "upper")
    ok_m = (abs(m_lo - SQRT8) <= 1e-6 * SQRT8 and
            abs(m_up - SQRT8) <= 1e-6 * SQRT8)
    grid = am.BoxGrid(L=1.5, m=8)
    fld = am.aux_field(identity2, grid, kind="lower")
    dist = am.agmon_field(fld, (3, 5, 2))
    nodes = grid.nodes()
    src = nodes[dist.source]
    expect = SQRT8 * np.max(np.abs(nodes - src[None, :]), axis=1)
    err = np.max(np.abs(dist.values - expect))
    report_line(2, ok_m and err <= 1e-8,
                f"m = 2^(3/2) to {abs(m_lo - SQRT8):.1e}; lattice distance max err {err:.1e}")


def test_criterion_03_diagonal_reduction(diag_ordered):
    grid = am.BoxGrid(L=1.5, m=8)
    lo = am.aux_field(diag_ordered, grid, kind="lower")
    up = am.aux_field(diag_ordered, grid, kind="upper")
    v1 = am.aux_field(diag_ordered.entries[0], grid, kind="lower")
    v2 = am.aux_field(diag_ordered.entries[1], grid, kind="lower")
    aux_err = max(np.max(np.abs(lo.values - v1.values) / v1.values),
                  np.max(np.abs(up.values - v2.values) / v2.values))
    src = (4, 4, 4)
    dist_err = max(
        np.max(np.abs(am.agmon_field(lo, src).values -
                      am.agmon_field(v1, src).values)),
        np.max(np.abs(am.agmon_field(up, src).values -
                      am.agmon_field(v2, src).values)))
    g = pde.Grid3(L=2.0, N=13)
    op = pde.assemble(diag_ordered, None, g)
    gf = pde.green_field(op, (6, 6, 6), solver=pde.DirectSolver(op))
    diag_scale = np.abs(np.stack([gf.blocks[:, 0, 0], gf.blocks[:, 1, 1]])).max()
    off = np.abs(np.stack([gf.blocks[:, 0, 1], gf.blocks[:, 1, 0]])).max()
    ok = aux_err <= 1e-9 and dist_err <= 1e-9 and off <= 1e-8 * diag_scale
    report_line(3, ok, f"aux err {aux_err:.1e}, distance err {dist_err:.1e}, "
                       f"off-block/diag {off / diag_scale:.1e}")


def test_criterion_04_sandwich_and_norm_comparison(catalog, catalog_family, rng):
    # 1000 random (x, e) pairs across the catalog, budgeted by evaluation cost
    plans = [("identity", 80, 4), ("rank_one", 80, 4), ("diag_poly", 80, 4),
             ("power13", 20, 2)]
    total_pairs = 0
    violations = 0
    for name, npts, ndirs in plans:
        W = catalog[name]
        X = rng.uniform(-3.5, 3.5, size=(npts, 3))
        lo = am.aux_values_many(W, X, kind="lower")
        up = am.aux_values_many(W, X, kind="upper")
        for _ in range(ndirs):
            e = rng.standard_normal(W.d)
            e /= np.linalg.norm(e)
            mid = am.aux_values_many(W, X, kind="directional", e=e)
            total_pairs += npts
            violations += int(np.sum(mid < lo * (1 - 1e-7)))
            violations += int(np.sum(mid > up * (1 + 1e-7)))
    assert total_pairs == 1000

    # norm comparison with the certified reverse Hoelder constant, 100 points
    p = 2.0
    norm_ok = True
    for name in ("rank_one", "diag_poly"):
        W = catalog[name]
        C = cf.bp_constant(W, p, catalog_family).constant_estimate
        factor = (W.d ** 2 * C) ** (2.0 / (2 * p - 3))
        X = rng.uniform(-3.5, 3.5, size=(100, 3))
        up = am.aux_values_many(W, X, kind="upper")
        m_norm = am.aux_values_many(mw.NormDiagWeight(base=W), X, kind="lower")
        norm_ok &= bool(np.all(up <= m_norm * (1 + 1e-4)))
        norm_ok &= bool(np.all(m_norm <= factor * up * (1 + 1e-8)))
    report_line(4, violations == 0 and norm_ok,
                f"{total_pairs} sandwich pairs, {violations} violations; "
                f"norm comparison holds: {norm_ok}")


def test_criterion_05_cross_consistency(catalog, catalog_family):
    summary = {}
    all_clean = True
    for name, W in catalog.items():
        res = cf.cross_checks(W, 2.0, catalog_family)
        summary[name] = res
        all_clean &= res["disagreements"] == []
    r1 = summary["rank_one"]["reports"]

    def passed(key):
        rep = r1.get(key)
        return bool(rep and rep["passed"])

    rank_one_ok = (passed("bp") and passed("nd") and not passed("nc")
                   and not passed("ainf") and not passed("a2inf")
                   and not passed("rbm"))
    for name in ("identity", "power13", "diag_poly"):
        reps = summary[name]["reports"]
        for key in ("bp", "nd", "ainf", "a2inf", "rbm", "nc"):
            rep = reps.get(key)
            all_clean &= bool(rep and rep["passed"])
    report_line(5, all_clean and rank_one_ok,
                "implication matrix clean on the catalog; rank-one weight "
                "passes bp+nd and fails nc/ainf/a2inf/rbm")


def test_criterion_06_nc_witness_decay(rank_one):
    ms = [4, 9, 16, 25]
    centers = critical_centers(rank_one, ms)
    rep = cf.nc_constant(rank_one, centers)
    vals = rep.details["per_cube"]
    strictly_dec = all(a > b for a, b in zip(vals, vals[1:]))
    report_line(6, strictly_dec and vals[-1] < 0.5 * vals[0],
                f"witness sequence {['%.3e' % v for v in vals]}")


def test_criterion_07_fp_failure_slopes():
    Rs = [10.0, 20.0, 40.0, 80.0]
    res = il.counterexample_fp_failure(Rs)
    ctrl = il.counterexample_fp_failure(Rs, control=True)
    ok = 0.7 <= res["slope"] <= 1.3 and -0.1 <= ctrl["slope"] <= 0.1
    report_line(7, ok, f"failure slope {res['slope']:.3f}, "
                       f"control slope {ctrl['slope']:.3f}")


def test_criterion_08_resolvent_identity(catalog):
    g = pde.Grid3(L=2.0, N=13)
    worst = {}
    for name, W in catalog.items():
        err = pde.resolvent_identity_check(W, g, (6, 6, 6),
                                           x_list=[(3, 4, 5), (9, 9, 9), (10, 2, 6)])
        worst[name] = err
    ok = all(v <= 1e-7 for v in worst.values())
    report_line(8, ok, "max rel errors " +
                ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_09_free_green_kernel():
    g = pde.Grid3(L=2.0, N=48)
    op = pde.assemble(None, None, g, d=1)
    mid = (24, 24, 24)
    y0 = g.node(g.index(mid))
    gf = pde.green_field(op, mid, boundary_data=pde.free_space_kernel(y0, 1))
    nodes = g.nodes()
    r = np.linalg.norm(nodes - y0[None, :], axis=1)
    mask = (r >= 5 * g.h) & (r <= g.L / 4)
    kern = 1.0 / (4.0 * math.pi * np.where(r > 0, r, np.inf))
    rel = np.abs(gf.blocks[mask, 0, 0] - kern[mask]) / kern[mask]
    report_line(9, rel.max() <= 0.05,
                f"{int(mask.sum())} nodes in [5h, L/4], max rel dev {rel.max():.3f}")


def test_criterion_10_decay_envelopes(decay_run_48, difference_run_48, diag_poly):
    fit = il.envelope_fit(decay_run_48["gv"], decay_run_48["dist"],
                          projector="norm", mode="upper")
    upper_ok = fit.eps_hat > 0 and fit.r2 >= 0.9
    p = 2.0
    alpha = 2.0 - 3.0 / min(p, 2.9)
    diff = il.difference_bound_fit(difference_run_48["gv"],
                                   difference_run_48["g0"], diag_poly, alpha)
    diff_ok = (diff["fitted_exponent"] >= alpha - 0.3
               and diff["frac_under_bound"] >= 0.95)
    report_line(10, upper_ok and diff_ok,
                f"upper fit eps={fit.eps_hat:.3f} r2={fit.r2:.3f}; small-scale "
                f"exponent {diff['fitted_exponent']:.3f} (alpha={alpha}), "
                f"coverage {diff['frac_under_bound']:.3f}")


def test_criterion_11_landscape_sandwich(diag_poly):
    consts = {}
    for N in (32, 48):
        g = pde.Grid3(L=4.0, N=N)
        op = pde.assemble(diag_poly, None, g)
        mid = N // 2
        step = max(1, N // 8)
        probes = [(mid + dx, mid + dy, mid + dz)
                  for dx, dy, dz in [(0, 0, 0), (step, 0, 0), (0, step, 0),
                                     (0, 0, step), (-step, 0, 0), (0, -step, 0),
                                     (0, 0, -step), (step, step, 0),
                                     (0, step, step), (step, 0, step)]]
        c_lo, c_up = [], []
        for pr in probes:
            res = pde.landscape(op, pr)
            assert res["c_lower"] > 0 and res["c_upper"] > 0
            c_lo.append(res["c_lower"])
            c_up.append(res["c_upper"])
        consts[N] = (min(c_lo), max(c_up))
    drift = max(abs(consts[32][0] - consts[48][0]) / consts[48][0],
                abs(consts[32][1] - consts[48][1]) / consts[48][1])
    sandwich_ok = consts[48][0] > 0 and np.isfinite(consts[48][1])
    report_line(11, sandwich_ok and drift <= 0.25,
                f"c1={consts[48][0]:.3f}, c2={consts[48][1]:.3f}, "
                f"cross-grid drift {drift:.3f}")


def test_criterion_12_jensen_hadamard_bulk(rng):
    count = 10 ** 4
    # matrix Jensen on random discrete averages (8 PD matrices per instance)
    K, d = 8, 3
    B = rng.standard_normal((count, K, d, d))
    mats = np.einsum("mkij,mklj->mkil", B, B) + 0.2 * np.eye(d)
    wts = rng.dirichlet(np.ones(K), size=count)
    avg = np.einsum("mk,mkij->mij", wts, mats)
    lhs = np.linalg.det(avg)
    rhs = np.exp(np.einsum("mk,mk->m", wts, np.log(np.linalg.det(mats))))
    jensen_viol = int(np.sum(lhs < rhs * (1 - 1e-12)))
    # Hadamard chain on random PSD matrices and random orthonormal frames
    B2 = rng.standard_normal((count, d, d))
    M = np.einsum("mij,mlj->mil", B2, B2)
    Qf, _ = np.linalg.qr(rng.standard_normal((count, d, d)))
    quad = np.einsum("mij,mkj,mki->mk", M, Qf, Qf)
    prods = np.prod(quad, axis=1)
    norms = np.prod(np.linalg.norm(np.einsum("mij,mkj->mki", M, Qf), axis=2), axis=1)
    dets = np.linalg.det(M)
    scale = np.maximum.reduce([np.abs(dets), np.abs(prods), np.abs(norms),
                               np.ones(count)])
    had_viol = int(np.sum(dets > prods + 1e-12 * scale) +
                   np.sum(prods > norms + 1e-12 * scale))
    # spot-check the packaged verifier on a subsample
    for i in range(0, count, count // 50):
        assert cb.check_hadamard(M[i], Qf[i])
    report_line(12, jensen_viol == 0 and had_viol == 0,
                f"{count} Jensen instances ({jensen_viol} violations), "
                f"{count} Hadamard instances ({had_viol} violations)")


def test_criterion_13_deterministic_bundles(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.run(["all", "--scale", "quick", "--seed", "3", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    csv_a = (outs[0] / "report.csv").read_bytes()
    csv_b = (outs[1] / "report.csv").read_bytes()
    fields_equal = True
    for fa in sorted(outs[0].glob("*.field")):
        fb = outs[1] / fa.name
        fields_equal &= fa.read_bytes() == fb.read_bytes()
    report_line(13, csv_a == csv_b and fields_equal,
                f"report.csv {len(csv_a)} bytes identical across runs; "
                f"binary fields identical: {fields_equal}")
