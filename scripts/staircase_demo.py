#!/usr/bin/env python3
"""Build both staircases for g(t) = t and walk through what they prove.

The vanisher puts the source profile inside the kernel of the
companion's ideal (every singular trace there vanishes on it); the
dominator keeps the source outside the companion's ideal (some singular
trace is infinite on it).  Both companions are themselves singularly
traceable: their growth indices collapse to (~0, ~inf).
"""

import argparse
import sys

from singtrace import (
    construct_dominator,
    construct_vanisher,
    g_transform,
    in_kernel,
    in_principal_ideal,
    matuszewska,
    pure_power,
    verify_construction,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-steps", type=int, default=40)
    args = ap.parse_args(argv)

    line = g_transform(pure_power(p=1))  # g(t) = max(0, t)

    for build, label in [(construct_vanisher, "vanisher"),
                         (construct_dominator, "dominator")]:
        s = build(line, n_steps=args.n_steps)
        print(f"== {label} ==")
        print(f"first breakpoints : {[round(b, 3) for b in s.breakpoints[:6]]}")
        print(f"first step values : {[round(v, 3) for v in s.step_values[:6]]}")
        ver = verify_construction(s)
        print(f"gap margins       : {ver.gap_margins}")
        print(f"condition ladder  : {[(c, round(t, 2)) for c, t in ver.condition_t0]}")
        rep = matuszewska(s.g())
        print(f"staircase indices : ({rep.delta_lower:.4g}, {rep.delta_upper:.4g})")
        if label == "vanisher":
            dec = in_kernel(line, s.g())
            print(f"kernel membership : {dec.verdict}")
        else:
            dec = in_principal_ideal(line, s.g())
            print(f"ideal membership  : {dec.verdict} ({dec.mode}, {dec.refutation.basis} basis)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
