"""Command line surface: decomposition, orbits with CSV/SVG output, classification.

Exit codes: 0 on success, 2 on input or precondition violations, 3 on I/O
failures. Angles are radians unless --degrees is given. CSV uses the schema
n,x,y with %.17g decimal output and LF line endings. Each command builds one
record, which _emit prints as key = value text or as one --json line.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from enum import Enum

import numpy as np

from .core import Point2, Tolerance, classify_orthogonal, decompose, matrix_from_params
from .dynamics import (
    ConvergesTo,
    Finite,
    Topology,
    classify_convergence,
    classify_orbit_cardinality,
    orbit,
    stable_set,
)
from .frobenius import SymMatN, frobenius_inner, is_in_psym, sym0_basis
from .geometry import AxisLine, Direction, ReflectScale, compose_rotation_reflection, rotation_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

MAX_ITERS = 1_000_000


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rad(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _text(v) -> str:
    """The text form of one record value."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, float)):
        return _fmt(v)
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, np.ndarray):
        return "[{}]".format(", ".join(_text(row) for row in v))
    if isinstance(v, Finite):
        return f"Finite({v.size})"
    if isinstance(v, ConvergesTo):
        return f"ConvergesTo ({_fmt(v.limit.x)}, {_fmt(v.limit.y)})"
    return type(v).__name__  # Infinite, NotConvergent, DivergesToInfinity


def _json(v):
    """The JSON form of a record value that json cannot encode by itself."""
    if isinstance(v, np.ndarray):
        return v.ravel().tolist()
    if isinstance(v, Point2):
        return [v.x, v.y]
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, Finite):
        return {"kind": "Finite", "size": v.size}
    if isinstance(v, ConvergesTo):
        return {"kind": "ConvergesTo", "limit": v.limit}
    return {"kind": type(v).__name__}  # Infinite, NotConvergent, DivergesToInfinity


def _emit(record: dict, as_json: bool, json_only: tuple[str, ...] = ()) -> int:
    """Print a command's record as one JSON object, or as key = value lines
    without the json_only keys; a dict value prints as key[sub] = value lines.

    JSON never holds NaN or Infinity: such a value raises ValueError, which
    exits 2 before anything is printed.
    """
    if as_json:
        print(json.dumps(record, default=_json, allow_nan=False))
        return EXIT_OK
    for key, value in record.items():
        if key in json_only:
            continue
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for sub, v in items:
            print(f"{key}[{sub}] = {_text(v)}" if sub else f"{key} = {_text(v)}")
    return EXIT_OK


def orbit_csv(points) -> str:
    """CSV text for an orbit trace: header n,x,y then one row per point."""
    lines = ["n,x,y"]
    for i, p in enumerate(points):
        lines.append(f"{i},{_fmt(p.x)},{_fmt(p.y)}")
    return "\n".join(lines) + "\n"


def orbit_svg(points, axis: AxisLine, size: int = 600) -> str:
    """SVG 1.1 document: orbit polyline plus the reflection axis.

    The viewport is fixed at size x size and scaled to the bounding box of
    the finite points with 10 percent padding; they are joined in iteration
    order, and points that overflowed are left out.
    """
    finite = [p for p in points if math.isfinite(p.x) and math.isfinite(p.y)]
    xs = [p.x for p in finite]
    ys = [p.y for p in finite]
    # Near either end of the float range the box would overflow or
    # underflow, so there the coordinates are scaled by 2**-k, which is
    # exact; k >= -1000 keeps the 2**-k fallback half-width finite.
    k = math.frexp(max(-min(xs), max(xs), -min(ys), max(ys)))[1]
    k = 0 if -512 < k < 512 else max(k, -1000)
    if k:
        xs = [math.ldexp(x, -k) for x in xs]
        ys = [math.ldexp(y, -k) for y in ys]
    cx = 0.5 * (min(xs) + max(xs))
    cy = 0.5 * (min(ys) + max(ys))
    half = 0.5 * max(max(xs) - min(xs), max(ys) - min(ys))
    half = half * 1.1 if half > 0.0 else math.ldexp(1.0, -k)
    scale = (size / 2.0) / half

    def to_screen(x: float, y: float) -> tuple[float, float]:
        return (size / 2.0 + (x - cx) * scale, size / 2.0 - (y - cy) * scale)

    reach = math.hypot(cx, cy) + 3.0 * half
    ax0 = to_screen(-reach * math.cos(axis.phi), -reach * math.sin(axis.phi))
    ax1 = to_screen(reach * math.cos(axis.phi), reach * math.sin(axis.phi))
    poly = " ".join("{:.3f},{:.3f}".format(*to_screen(x, y)) for x, y in zip(xs, ys))
    dots = "\n".join(
        '  <circle cx="{:.3f}" cy="{:.3f}" r="3" fill="#1f4e9c"/>'.format(*to_screen(x, y))
        for x, y in zip(xs, ys)
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f'  <line x1="{ax0[0]:.3f}" y1="{ax0[1]:.3f}" x2="{ax1[0]:.3f}" y2="{ax1[1]:.3f}" '
        'stroke="#999999" stroke-width="1"/>\n'
        f'  <polyline points="{poly}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>\n'
        f"{dots}\n"
        "</svg>\n"
    )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _params(tz, matrix) -> dict:
    # The record of decompose and build.
    return {"lambda": tz.lam, "theta": tz.theta, "axis": tz.axis_angle, "matrix": matrix}


def cmd_decompose(args) -> int:
    tz = decompose(np.array(args.entries).reshape(2, 2), Tolerance(args.tol))
    return _emit(_params(tz, tz.matrix()), args.json)


def cmd_build(args) -> int:
    if (args.theta is None) == (args.axis is None):
        raise ValueError("give exactly one of --theta or --axis")
    if args.theta is not None:
        theta = _rad(args.theta, args.degrees)
    else:
        theta = 2.0 * _rad(args.axis, args.degrees)
    m = matrix_from_params(args.lam, theta)
    return _emit(_params(decompose(m, Tolerance(args.tol)), m), args.json)


def _start(args) -> Point2:
    if not (math.isfinite(args.x) and math.isfinite(args.y)):
        raise ValueError("start point must be finite")
    return Point2(args.x, args.y)


def _convergence(start: Point2, m: ReflectScale, tol: Tolerance) -> dict:
    return {t.value: classify_convergence(start, m, t, tol).verdict
            for t in (Topology.DISCRETE, Topology.USUAL)}


def _orbit_map(args, tol: Tolerance) -> tuple[float, float]:
    # Returns (lam, axis angle); --from-matrix routes through decompose so a
    # printed decomposition feeds back into the identical trajectory.
    if args.from_matrix is not None:
        if args.lam is not None or args.axis is not None:
            raise ValueError("--from-matrix excludes --lambda/--axis")
        tz = decompose(np.array(args.from_matrix).reshape(2, 2), tol)
        return tz.lam, tz.axis_angle
    if args.lam is None or args.axis is None:
        raise ValueError("need both --lambda and --axis (or --from-matrix)")
    return args.lam, _rad(args.axis, args.degrees)


def cmd_orbit(args) -> int:
    tol = Tolerance(args.tol)
    if not 1 <= args.iters <= MAX_ITERS:
        raise ValueError(f"--iters must be between 1 and {MAX_ITERS}")
    lam, phi = _orbit_map(args, tol)
    m = ReflectScale(lam, AxisLine(phi))
    start = _start(args)
    rec = orbit(start, m, args.iters, tol)
    if args.json and not args.out:
        # The record will carry the points, so fail before any file is
        # written; a non-finite point cannot come before truncated_at.
        for n in range(rec.truncated_at, len(rec.points)):
            p = rec.points[n]
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"orbit point {n} is not finite, so JSON cannot hold it")
    if args.out:
        _write_text(args.out, orbit_csv(rec.points))
    if args.svg:
        _write_text(args.svg, orbit_svg(rec.points, m.axis))
    record = {"start": start, "lambda": lam, "axis": phi, "iters": args.iters,
              "cardinality": rec.cardinality, "convergence": _convergence(start, m, tol),
              "csv": args.out, "svg": args.svg}
    if not args.out:
        if args.json:
            record["points"] = [[i, p.x, p.y] for i, p in enumerate(rec.points)]
        else:
            sys.stdout.write(orbit_csv(rec.points))
    return _emit(record, args.json, ("start", "lambda", "axis", "iters", "csv", "svg"))


def cmd_classify(args) -> int:
    tol = Tolerance(args.tol)
    phi = _rad(args.axis, args.degrees)
    m = ReflectScale(args.lam, AxisLine(phi))
    start = _start(args)
    record = {"start": start, "lambda": args.lam, "axis": phi,
              "cardinality": classify_orbit_cardinality(start, m, tol),
              "stable_set": stable_set(start, args.lam),
              "convergence": _convergence(start, m, tol)}
    return _emit(record, args.json, ("start", "lambda", "axis"))


def cmd_compose(args) -> int:
    alpha = _rad(args.alpha, args.degrees)
    theta = _rad(args.theta, args.degrees)
    direction = Direction.CLOCKWISE if args.cw else Direction.ANTICLOCKWISE
    gamma = compose_rotation_reflection(alpha, theta, direction)
    product = rotation_matrix(alpha, direction) @ matrix_from_params(1.0, theta)
    target = matrix_from_params(1.0, gamma)
    residual = float(np.max(np.abs(product - target)))
    record = {"alpha": alpha, "theta": theta, "direction": direction, "gamma": gamma,
              "product": product, "reflection": target, "residual": residual,
              "verified": residual <= 1e-12}
    return _emit(record, args.json, ("alpha", "theta", "direction"))


def cmd_psym(args) -> int:
    tol = Tolerance(args.tol)
    with open(args.file) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty matrix file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError("first token must be the matrix dimension n") from None
    if not 2 <= n <= 64:
        raise ValueError("n must be between 2 and 64")
    if len(tokens) != 1 + n * n:
        raise ValueError(f"expected {n * n} entries after the dimension, got {len(tokens) - 1}")
    values = [float(t) for t in tokens[1:]]
    a = SymMatN.from_matrix(np.array(values).reshape(n, n), tol)
    if is_in_psym(a, tol):
        c = float(np.trace(a.to_matrix())) / n
        return _emit({"member": True, "n": n, "c": c}, args.json, ("n",))
    thresh = tol.eps * (1.0 + a.frobenius_norm())
    witness = None
    value = 0.0
    for basis_elem in sym0_basis(n):
        value = frobenius_inner(basis_elem, a)
        if abs(value) > thresh:
            witness = basis_elem
            break
    assert witness is not None
    record = {"member": False, "n": n, "witness": witness.to_matrix().ravel(), "trace": value}
    return _emit(record, args.json, ("n",))


def cmd_ortho_classify(args) -> int:
    o = classify_orthogonal(np.array(args.entries).reshape(2, 2), Tolerance(args.tol))
    return _emit({"variant": o.variant, "angle": o.angle}, args.json)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-9, help="comparison tolerance (default 1e-9)")
    p.add_argument("--json", action="store_true", help="emit one JSON record instead of text")


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form, such as -2e-05, as a value,
    not as an option, as Python 3.12 and later do; its subparsers inherit it."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symdyn",
        description="Scaled planar reflections: decomposition, orbits, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="canonical (lambda, theta) of a trace-zero symmetric matrix")
    p.add_argument("entries", type=float, nargs=4, metavar="E", help="matrix entries, row-major")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("build", help="matrix from a scale and an angle")
    p.add_argument("lam", type=float, help="scale")
    p.add_argument("--theta", type=float, help="matrix angle")
    p.add_argument("--axis", type=float, help="reflection-axis angle (half the matrix angle)")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("orbit", help="iterate the map and emit CSV (and optional SVG)")
    p.add_argument("x", type=float, help="start x")
    p.add_argument("y", type=float, help="start y")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="scale")
    p.add_argument("--axis", type=float, default=None, help="reflection-axis angle")
    p.add_argument(
        "--from-matrix",
        dest="from_matrix",
        type=float,
        nargs=4,
        metavar="E",
        default=None,
        help="take the map from a trace-zero symmetric matrix, row-major",
    )
    p.add_argument("--iters", type=int, default=64, help="iteration count (1..1000000, default 64)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--svg", default=None, help="SVG output path")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    _add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("classify", help="orbit cardinality, stable set, and convergence verdicts")
    p.add_argument("x", type=float, help="start x")
    p.add_argument("y", type=float, help="start y")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="scale")
    p.add_argument("--axis", type=float, required=True, help="reflection-axis angle")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compose", help="rotation composed with a reflection, as one reflection")
    p.add_argument("--alpha", type=float, required=True, help="rotation angle")
    p.add_argument("--theta", type=float, required=True, help="reflection matrix angle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cw", action="store_true", help="clockwise rotation")
    group.add_argument("--acw", action="store_true", help="anticlockwise rotation")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    _add_common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("psym", help="test the trace pairing of a symmetric matrix file")
    p.add_argument("file", help="whitespace-separated: n then n*n entries, row-major")
    _add_common(p)
    p.set_defaults(func=cmd_psym)

    p = sub.add_parser("ortho-classify", help="classify an orthogonal matrix")
    p.add_argument("entries", type=float, nargs=4, metavar="E", help="matrix entries, row-major")
    _add_common(p)
    p.set_defaults(func=cmd_ortho_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.func(args)
    except ValueError as exc:  # NotSymmetricError and the other input errors included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
