#!/usr/bin/env python3
"""Scan the max-norm quantities over matrix dimensions.

For each (n, m) prints the closed form min{n, m}, the witness lower bound
from the normalized swap, and the cb-norm seesaw estimate for the padded
transpose map.
"""

import argparse

from conelab.kappa import CbConfig, kappa_report


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-dim", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=60)
    args = ap.parse_args()

    cfg = CbConfig(starts=args.starts, steps=200, seed=args.seed)
    print(f"{'n':>3} {'m':>3} {'exact':>7} {'witness':>9} {'cb est':>9}")
    for n in range(1, args.max_dim + 1):
        for m in range(n, args.max_dim + 1):
            rep = kappa_report(n, m, cb_cfg=cfg)
            print(f"{n:>3} {m:>3} {rep.exact:>7.3f} {rep.witness_lower_bound:>9.6f} "
                  f"{rep.cb_estimate:>9.6f}")


if __name__ == "__main__":
    main()
