#!/usr/bin/env python3
"""Production decay run: Green field of diag(|x|^2, |x|^4), envelope fits.

Solves the system on an N x N x N interior grid, fits the upper envelope
ln(|Gamma| * r) against the lower Agmon distance, and reports the
small-scale difference exponent on a finer companion grid.
"""

import argparse

from mwlab import auxmetric, ineqlab, pde, weights
from mwlab.cli import BUILTIN_WEIGHTS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=48)
    ap.add_argument("--L", type=float, default=3.0)
    ap.add_argument("--weight", default="diag-poly")
    args = ap.parse_args()

    W = weights.from_config(BUILTIN_WEIGHTS[args.weight])
    g = pde.Grid3(L=args.L, N=args.N)
    mid = (args.N // 2,) * 3
    print(f"assembling N={args.N}, L={args.L}, h={g.h:.4f} ...")
    op = pde.assemble(W, None, g)
    gv = pde.green_field(op, mid)
    print(f"Green field solved (residual {gv.residual:.2e})")

    bg = g.to_boxgrid()
    fld = auxmetric.aux_field(W, bg, kind="lower")
    dist = auxmetric.agmon_field(fld, gv.pole, norm="l2")
    fit = ineqlab.envelope_fit(gv, dist, projector="norm", mode="upper")
    print(f"upper envelope: eps_hat={fit.eps_hat:.4f}, C_hat={fit.C_hat:.4f}, "
          f"r2={fit.r2:.4f}, samples={fit.n_samples}")

    g2 = pde.Grid3(L=args.L / 2, N=args.N)
    op_v = pde.assemble(W, None, g2)
    op_0 = pde.assemble(None, None, g2, d=W.d)
    gv2 = pde.green_field(op_v, mid)
    g02 = pde.green_field(op_0, mid)
    alpha = 2.0 - 3.0 / 2.0
    diff = ineqlab.difference_bound_fit(gv2, g02, W, alpha)
    print(f"small-scale difference: exponent={diff['fitted_exponent']:.4f} "
          f"(alpha={alpha}), coverage={diff['frac_under_bound']:.3f}")


if __name__ == "__main__":
    main()
