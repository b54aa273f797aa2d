#!/usr/bin/env python3
"""Run the full certifier cross-check matrix over the weight catalog.

Writes one JSON report per weight plus a summary CSV of constant estimates
and pass verdicts.
"""

import argparse
import json
import os

from mwlab import certify, cubature, weights
from mwlab.cli import BUILTIN_WEIGHTS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/certify")
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--box", type=float, default=8.0)
    ap.add_argument("--count", type=int, default=18)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    fam = cubature.CubeFamily(generator="dyadic", box=args.box,
                              count=args.count, r_min=1.0, r_max=args.box / 2)
    rows = ["weight,certifier,estimate,passed"]
    for name in ("identity", "power-13", "diag-poly", "rank-one-radial"):
        W = weights.from_config(BUILTIN_WEIGHTS[name])
        res = certify.cross_checks(W, args.p, fam)
        with open(os.path.join(args.out, f"cross_{name}.json"), "w") as fh:
            json.dump({k: v for k, v in res.items() if k != "weight"},
                      fh, indent=2, default=str)
        for key, rep in res["reports"].items():
            if rep is None:
                rows.append(f"{name},{key},error,False")
            else:
                rows.append(f"{name},{key},{rep['constant_estimate']:.6g},"
                            f"{rep['passed']}")
        print(f"{name}: disagreements={res['disagreements']}")
    with open(os.path.join(args.out, "summary.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.out}/summary.csv")


if __name__ == "__main__":
    main()
