"""Reproduce the ROADMAP baseline table, one row per fresh interpreter.

    python3 bench/baseline.py

Run it from the root of a checkout.  Each row prints its raw wall time and
the time scaled to the reference speed of speed.py (see README.md).  The
ROADMAP's 164 s row, y^5 x^5 over h^3+h, is left out: it does not fit
into a run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# (label, field index m, f, code run on x, y, ctx, gha); "cli" rows time a
# `python -m gha.cli` process instead
ROWS = [
    ("y^5 * x^5 over h^2", 1, "h^2", "y**5 * x**5"),
    ("y^4 * x^4 over h^3+h", 1, "h^3+h", "y**4 * x**4"),
    ("y^3 * x^3 over Q(zeta_7), f = h^3 + zeta*h", 7, "h^3+zeta*h", "y**3 * x**3"),
    ("y^3 * x^3 over Q(zeta_3), f = h^3 + zeta*h", 3, "h^3+zeta*h", "y**3 * x**3"),
    ("Poly.compose of sigma^4(h) with itself, f = h^3+h", 1, "h^3+h",
     "gha.sigma_power_h(ctx.f, 4).compose(gha.sigma_power_h(ctx.f, 4))"),
    ("gha --f h^2 nf \"y*x\" (cold process)", 1, "h^2", "cli"),
]


def _row(index: int) -> None:
    sys.path.insert(0, str(BENCH))
    import speed

    import gha

    _, m, f, code = ROWS[index]
    ctx = gha.Context(gha.parse_poly(f, gha.FieldDesc(m)))
    x, y, _, _ = gha.generators(ctx)
    with speed.Sampler() as sampler:
        a = time.perf_counter()
        eval(code, {"gha": gha, "ctx": ctx, "x": x, "y": y})
        b = time.perf_counter()
    print(b - a, sampler.scaled(a, b))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--row", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row is not None:
        _row(args.row)
        return 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import speed

    print(f"{'row':55} {'raw s':>9} {'scaled s':>9}")
    for i, (label, _, _, code) in enumerate(ROWS):
        if code == "cli":
            before = speed.calibrate(speed.SPAN_REPS)
            a = time.perf_counter()
            subprocess.run([sys.executable, "-m", "gha.cli", "--f", "h^2", "nf", "y*x"],
                           cwd=ROOT, env=env, check=True, capture_output=True)
            raw = time.perf_counter() - a
            scaled = raw * speed.factor(before, speed.calibrate(speed.SPAN_REPS))
        else:
            out = subprocess.run([sys.executable, __file__, "--row", str(i)], cwd=ROOT, env=env,
                                 check=True, capture_output=True, text=True).stdout
            raw, scaled = map(float, out.split())
        print(f"{label:55} {raw:9.3f} {scaled:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
