"""Trace orbits for a sweep of scale values and write CSV + SVG per scale.

Usage: python scripts/orbit_gallery.py --outdir out [--x 1 --y 0 --axis 0.3927]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from symdyn.cli import orbit_csv, orbit_svg
from symdyn.core import Point2, Tolerance
from symdyn.dynamics import Topology, classify_convergence, orbit
from symdyn.geometry import AxisLine, ReflectScale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x", type=float, default=1.0)
    ap.add_argument("--y", type=float, default=0.0)
    ap.add_argument("--axis", type=float, default=0.3927)
    ap.add_argument("--iters", type=int, default=24)
    ap.add_argument("--lams", default="0.5,0.9,1.0,-1.0,1.05")
    ap.add_argument("--outdir", default="orbit_gallery")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = Point2(args.x, args.y)
    tol = Tolerance()
    for lam in (float(t) for t in args.lams.split(",")):
        m = ReflectScale(lam, AxisLine(args.axis))
        rec = orbit(start, m, args.iters, tol)
        tag = f"lam_{lam:+.3f}".replace("+", "p").replace("-", "m").replace(".", "_")
        (outdir / f"{tag}.csv").write_text(orbit_csv(rec.xs, rec.ys))
        (outdir / f"{tag}.svg").write_text(orbit_svg(rec.xs, rec.ys, m.axis))
        usual = classify_convergence(start, m, Topology.USUAL, tol).verdict
        print(f"lam={lam:+.3f}  cardinality={rec.cardinality}  usual={usual}")
    print(f"wrote {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
