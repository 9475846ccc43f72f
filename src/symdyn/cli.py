"""Command line surface: decomposition, orbits with CSV/SVG output, classification.

Exit codes: 0 on success, 2 on input or precondition violations, 3 on I/O
failures. Angles are radians unless --degrees is given. CSV uses the schema
n,x,y with %.17g decimal output and LF line endings. Each command builds one
record, which _emit prints as key = value text or as one --json line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import re
import sys
from enum import Enum

from . import _EXPORTS, _OWNER
from .core import (Point2, Tolerance, TraceZeroSym2, _period, _rescale_exponent, _turns,
                   classify_orthogonal, decompose, matrix_from_params)


def _bind(*modules: str) -> None:
    # A command binds the public names of the modules it runs, so a one-shot
    # process loads only those. A name already bound here is kept: a span
    # wrapper or a test's monkeypatch may have replaced it.
    for module in modules:
        owner = importlib.import_module(f"{__package__}.{module}")
        for name in _EXPORTS[module]:
            globals().setdefault(name, getattr(owner, name))


def __getattr__(name):
    # PEP 562: a public name read from outside before any command bound it.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_OWNER[name])
    return globals()[name]


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

MAX_ITERS = 1_000_000
# The rows rendered at a time. Each slice's per-row strings are freed before
# the next slice is made, so a 1e6-step --out --svg run peaked at 118.6 MB,
# against 173.7 MB for one join over all rows.
SLICE_ROWS = 8192
SVG_SIZE = 600  # the side of the square SVG viewport, in pixels
# The least eps at which Tolerance.close finds some lam close to both 0 and 1
# (1 - 1/sqrt(2) in exact terms): from there a scale class, and each verdict
# that rests on one, would depend on which test runs first.
MAX_TOL = 0.2928932188134525


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rad(value: float, degrees: bool) -> float:
    return math.radians(_turns(value, 360.0)) if degrees else value


def _tolerance(eps: float) -> Tolerance:
    if not 0.0 < eps < MAX_TOL:  # nan included
        raise ValueError("--tol must be a positive real" if not eps > 0.0 else
                         f"--tol must be below {MAX_TOL!r}, where the scale classes 0 and 1 overlap")
    return Tolerance(eps)


def _text(v) -> str:
    """The text form of one record value."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, float)):
        return _fmt(v)
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, (tuple, list)):
        return "[{}]".format(", ".join(_text(row) for row in v))
    if isinstance(v, Finite):
        return f"Finite({v.size})"
    if isinstance(v, ConvergesTo):
        return f"ConvergesTo ({_fmt(v.limit.x)}, {_fmt(v.limit.y)})"
    return type(v).__name__  # Infinite, NotConvergent, DivergesToInfinity


def _json(v):
    """The JSON form of a record value that json cannot encode by itself."""
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

    A tuple value is a matrix given by its row tuples: text prints it nested,
    and JSON holds its entries flattened row-major. JSON never holds NaN or
    Infinity: such a value raises ValueError, which exits 2 before anything
    is printed.
    """
    if as_json:
        import json  # text output skips its import

        record = {k: [x for row in v for x in row] if isinstance(v, tuple) else v
                  for k, v in record.items()}
        print(json.dumps(record, default=_json, allow_nan=False))
        return EXIT_OK
    for key, value in record.items():
        if key in json_only:
            continue
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for sub, v in items:
            print(f"{key}[{sub}] = {_text(v)}" if sub else f"{key} = {_text(v)}")
    return EXIT_OK


def _in_slices(row: str, sep: str, xs, ys):
    """Yield the rows row % (n, xs[n], ys[n]), joined by sep, one slice of
    SLICE_ROWS rows at a time; every slice but the first starts with sep. A
    slice is formatted with one % over a flat tuple, but one that repeats
    with a period p, bit for bit (core._period), formats its first p
    points once and repeats the text, leaving %d for n."""
    for lo in range(0, len(xs), SLICE_ROWS):
        hi = min(lo + SLICE_ROWS, len(xs))
        k, lead, p = hi - lo, sep if lo else "", _period(xs, ys, lo, hi)
        if p:
            cycle = [row.replace("%d", "%%d") % (xs[i], ys[i]) for i in range(lo, lo + p)]
            yield (lead + sep.join((cycle * (k // p + 1))[:k])) % tuple(range(lo, hi))
        else:
            flat = [None] * (3 * k)
            flat[::3], flat[1::3], flat[2::3] = range(lo, hi), xs[lo:hi], ys[lo:hi]
            yield (lead + sep.join([row] * k)) % tuple(flat)


def _csv(xs, ys):
    # The header n,x,y, then the rows, one slice at a time.
    yield "n,x,y\n"
    yield from _in_slices("%d,%.17g,%.17g\n", "", xs, ys)


def orbit_csv(xs, ys) -> str:
    """CSV text for the orbit trace whose n-th point is (xs[n], ys[n]), as in
    OrbitRecord.xs and .ys, of one length: header n,x,y then a row per point."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    return "".join(_csv(xs, ys))


def orbit_svg(xs, ys, axis: AxisLine) -> str:
    """SVG 1.1 document for the orbit trace whose n-th point is
    (xs[n], ys[n]), as in OrbitRecord.xs and .ys: orbit polyline plus the
    reflection axis; one marker (SVG 1.1, 11.6) draws a dot at every vertex.

    The viewport is fixed at SVG_SIZE x SVG_SIZE and scaled to the bounding
    box of the finite points with 10 percent padding; they are joined in
    iteration order, and points that overflowed are left out. A trace with
    no finite point, or xs and ys of different lengths, raises ValueError.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    isfinite = math.isfinite
    if not (all(map(isfinite, xs)) and all(map(isfinite, ys))):
        xs, ys = ([x for x, y in zip(xs, ys) if isfinite(x) and isfinite(y)],
                  [y for x, y in zip(xs, ys) if isfinite(x) and isfinite(y)])
    if not xs:
        raise ValueError("no point of the orbit trace is finite")
    slices = [(lo, min(lo + SLICE_ROWS, len(xs))) for lo in range(0, len(xs), SLICE_ROWS)]
    slices = [(lo, hi, _period(xs, ys, lo, hi)) for lo, hi in slices]
    # A slice with a period p repeats its first p points bit for bit, and
    # min and max keep the first extreme, so those points give its extremes.
    heads = [(lo, lo + p if p else hi) for lo, hi, p in slices]
    x_lo, x_hi = min(min(xs[a:b]) for a, b in heads), max(max(xs[a:b]) for a, b in heads)
    y_lo, y_hi = min(min(ys[a:b]) for a, b in heads), max(max(ys[a:b]) for a, b in heads)
    # Near either end of the float range the box would overflow or underflow, so
    # there the coordinates are scaled by 2**-k, which is exact and keeps order.
    k = _rescale_exponent((x_lo, x_hi, y_lo, y_hi))
    if k:
        xs = [math.ldexp(x, -k) for x in xs]
        ys = [math.ldexp(y, -k) for y in ys]
        x_lo, x_hi, y_lo, y_hi = (math.ldexp(v, -k) for v in (x_lo, x_hi, y_lo, y_hi))
    cx = 0.5 * (x_lo + x_hi)
    cy = 0.5 * (y_lo + y_hi)
    # A box of one point takes the point's larger coordinate magnitude as
    # its half-width, so the axis line stays within a few viewport widths;
    # at the origin it is one unit wide.
    half = 0.5 * max(x_hi - x_lo, y_hi - y_lo) * 1.1 or max(abs(cx), abs(cy)) or 1.0
    mid = SVG_SIZE / 2.0
    scale = mid / half
    reach = math.hypot(cx, cy) + 3.0 * half
    ax, ay = (reach * v for v in axis.direction)
    line = '  <line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" ' % (
        mid + (-ax - cx) * scale, mid - (-ay - cy) * scale,
        mid + (ax - cx) * scale, mid - (ay - cy) * scale)

    def points(lo: int, hi: int, p: int) -> str:
        k = hi - lo
        if p:
            cycle = ["%.3f,%.3f" % (mid + (xs[i] - cx) * scale, mid - (ys[i] - cy) * scale)
                     for i in range(lo, lo + p)]
            return " ".join((cycle * (k // p + 1))[:k])
        flat = [None] * (2 * k)
        flat[::2] = [mid + (x - cx) * scale for x in xs[lo:hi]]
        flat[1::2] = [mid - (y - cy) * scale for y in ys[lo:hi]]
        return " ".join(["%.3f,%.3f"] * k) % tuple(flat)

    poly = " ".join(points(*s) for s in slices)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        '  <defs><marker id="dot" markerUnits="userSpaceOnUse" markerWidth="6" '
        'markerHeight="6" refX="3" refY="3">'
        '<circle cx="3" cy="3" r="3" fill="#1f4e9c"/></marker></defs>\n'
        f'{line}stroke="#999999" stroke-width="1"/>\n'
        f'  <polyline points="{poly}" fill="none" stroke="#1f4e9c" stroke-width="1.5" '
        'marker-start="url(#dot)" marker-mid="url(#dot)" marker-end="url(#dot)"/>\n'
        "</svg>\n"
    )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _params(tz, matrix) -> dict:
    # The record of decompose and build.
    return {"lambda": tz.lam, "theta": tz.theta, "axis": tz.axis_angle, "matrix": matrix}


def _rows(a) -> tuple:
    # A 2x2 ndarray in the record's form of a matrix.
    return tuple(map(tuple, a.tolist()))


def cmd_decompose(args) -> int:
    tz = decompose((args.entries[:2], args.entries[2:]), _tolerance(args.tol))
    return _emit(_params(tz, tz.rows()), args.json)


def cmd_build(args) -> int:
    if (args.theta is None) == (args.axis is None):
        raise ValueError("give exactly one of --theta or --axis")
    if args.theta is not None:
        theta = _rad(args.theta, args.degrees)
    else:
        theta = 2.0 * _turns(_rad(args.axis, args.degrees), math.pi)
    m = TraceZeroSym2(args.lam, theta).rows()
    return _emit(_params(decompose(m), m), args.json)


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
        if args.lam is not None or args.axis is not None or args.degrees:
            raise ValueError("--from-matrix excludes --lambda/--axis/--degrees")
        tz = decompose((args.from_matrix[:2], args.from_matrix[2:]), tol)
        return tz.lam, tz.axis_angle
    if args.lam is None or args.axis is None:
        raise ValueError("need both --lambda and --axis (or --from-matrix)")
    return args.lam, _rad(args.axis, args.degrees)


def cmd_orbit(args) -> int:
    _bind("geometry", "dynamics")
    tol = _tolerance(args.tol)
    if not 1 <= args.iters <= MAX_ITERS:
        raise ValueError(f"--iters must be between 1 and {MAX_ITERS}")
    # one path (a symlink included), or two names of one file (a hard link)
    out, svg = args.out, args.svg
    if out is not None and svg is not None and (os.path.realpath(out) == os.path.realpath(svg) or (
            os.path.exists(out) and os.path.exists(svg) and os.path.samefile(out, svg))):
        raise ValueError("--out and --svg name the same file")
    lam, phi = _orbit_map(args, tol)
    m = ReflectScale(lam, AxisLine(phi))
    start = _start(args)
    rec = orbit(start, m, args.iters, tol)
    xs, ys = rec.xs, rec.ys
    if args.json and out is None:
        # The record will carry the points, so fail before any file is
        # written; a non-finite point cannot come before truncated_at.
        t, isfinite = rec.truncated_at, math.isfinite
        if not (all(map(isfinite, xs[t:])) and all(map(isfinite, ys[t:]))):
            n = next(n for n in range(t, len(xs)) if not (isfinite(xs[n]) and isfinite(ys[n])))
            raise ValueError(f"orbit point {n} is not finite, so JSON cannot hold it")
    if out is not None:
        _write_text(out, orbit_csv(xs, ys))
    if svg is not None:
        _write_text(svg, orbit_svg(xs, ys, m.axis))
    record = {"start": start, "lambda": lam, "axis": phi, "iters": args.iters,
              "cardinality": rec.cardinality, "convergence": _convergence(start, m, tol),
              "csv": out, "svg": svg}
    if args.json and out is None:
        import json
        # Slice by slice, so that no string holds every point; %r writes a
        # float as json.dumps does, and the check above left only finite ones.
        sys.stdout.write(json.dumps(record, default=_json, allow_nan=False)[:-1] + ', "points": [')
        sys.stdout.writelines(_in_slices("[%d, %r, %r]", ", ", xs, ys))
        sys.stdout.write("]}\n")
        return EXIT_OK
    if out is None:  # slice by slice, as --json
        sys.stdout.writelines(_csv(xs, ys))
    return _emit(record, args.json, ("start", "lambda", "axis", "iters", "csv", "svg"))


def cmd_classify(args) -> int:
    _bind("geometry", "dynamics")
    tol = _tolerance(args.tol)
    phi = _rad(args.axis, args.degrees)
    m = ReflectScale(args.lam, AxisLine(phi))
    start = _start(args)
    record = {"start": start, "lambda": args.lam, "axis": phi,
              "cardinality": classify_orbit_cardinality(start, m, tol),
              "stable_set": stable_set(start, args.lam, tol),
              "convergence": _convergence(start, m, tol)}
    return _emit(record, args.json, ("start", "lambda", "axis"))


def _fma(x: float, y: float, z: float) -> float:
    # x * y + z rounded once: an exact integer over a power of two, divided by
    # int true division, which rounds correctly (math.fma needs Python 3.13).
    (a, b), (c, d), (e, f) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    return (a * c * f + e * b * d) / (b * d * f)


def cmd_compose(args) -> int:
    _bind("geometry")
    alpha = _rad(args.alpha, args.degrees)
    theta = _rad(args.theta, args.degrees)
    direction = Direction.CLOCKWISE if args.cw else Direction.ANTICLOCKWISE
    gamma = compose_rotation_reflection(alpha, theta, direction)
    a, b = _rows(rotation_matrix(alpha, direction)), _rows(matrix_from_params(1.0, theta))
    # Each entry is fma(a_i1, b_1j, a_i0 * b_0j), as a fused BLAS kernel
    # rounds it; so the bytes do not depend on the host's BLAS.
    product = tuple(tuple(_fma(r[1], b[1][j], r[0] * b[0][j]) for j in (0, 1)) for r in a)
    target = _rows(matrix_from_params(1.0, gamma))
    residual = max(abs(x - y) for u, v in zip(product, target) for x, y in zip(u, v))
    record = {"alpha": alpha, "theta": theta, "direction": direction, "gamma": gamma,
              "product": product, "reflection": target, "residual": residual,
              "verified": residual <= 1e-12}
    return _emit(record, args.json, ("alpha", "theta", "direction"))


def cmd_psym(args) -> int:
    _bind("frobenius")
    from .frobenius import psym_witness, scaled
    tol = _tolerance(args.tol)
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
    a = SymMatN.from_matrix([values[i:i + n] for i in range(0, n * n, n)], tol)
    if is_in_psym(a, tol):
        b, k, _ = scaled(a)  # summed scaled where the diagonal's sum could overflow
        c = math.ldexp(b.trace() / n, k) if k > 0 else a.trace() / n  # a subnormal c rounds once
        return _emit({"member": True, "n": n, "c": c}, args.json, ("n",))
    witness = sym0_basis(n)[psym_witness(a, tol)]
    trace = frobenius_inner(witness, a)
    if not math.isfinite(trace):
        raise ValueError("the witness trace overflows float64")
    record = {"member": False, "n": n, "witness": witness.to_list(), "trace": trace}
    return _emit(record, args.json, ("n",))


def cmd_ortho_classify(args) -> int:
    o = classify_orthogonal((args.entries[:2], args.entries[2:]), _tolerance(args.tol))
    return _emit({"variant": o.variant, "angle": o.angle}, args.json)


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form, such as -2e-05, as a value,
    not as an option, as Python 3.12 and later do, and -inf, -nan and -Infinity
    in any case, which the value types reject; its subparsers inherit it."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symdyn",
        description="Scaled planar reflections: decomposition, orbits, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="canonical (lambda, theta) of a trace-zero symmetric matrix")
    p.add_argument("entries", type=float, nargs=4, metavar="E", help="matrix entries, row-major")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("build", help="matrix from a scale and an angle")
    p.add_argument("lam", type=float, help="scale")
    p.add_argument("--theta", type=float, help="matrix angle")
    p.add_argument("--axis", type=float, help="reflection-axis angle (half the matrix angle)")
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
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("classify", help="orbit cardinality, stable set, and convergence verdicts")
    p.add_argument("x", type=float, help="start x")
    p.add_argument("y", type=float, help="start y")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="scale")
    p.add_argument("--axis", type=float, required=True, help="reflection-axis angle")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compose", help="rotation composed with a reflection, as one reflection")
    p.add_argument("--alpha", type=float, required=True, help="rotation angle")
    p.add_argument("--theta", type=float, required=True, help="reflection matrix angle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cw", action="store_true", help="clockwise rotation")
    group.add_argument("--acw", action="store_true", help="anticlockwise rotation")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("psym", help="test the trace pairing of a symmetric matrix file")
    p.add_argument("file", help="whitespace-separated: n then n*n entries, row-major")
    p.set_defaults(func=cmd_psym)

    p = sub.add_parser("ortho-classify", help="classify an orthogonal matrix")
    p.add_argument("entries", type=float, nargs=4, metavar="E", help="matrix entries, row-major")
    p.set_defaults(func=cmd_ortho_classify)

    for name, p in sub.choices.items():
        if name in ("build", "orbit", "classify", "compose"):
            p.add_argument("--degrees", action="store_true", help="angles are degrees")
        if name not in ("build", "compose"):  # build's matrix is exact; compose checks at 1e-12
            p.add_argument("--tol", type=float, default=1e-9,
                           help="comparison tolerance (default 1e-9)")
        p.add_argument("--json", action="store_true", help="emit one JSON record instead of text")
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
    # compose loads numpy, and OpenBLAS starts a thread pool as it loads
    # (70 to 80 ms of a compose process on 2 CPUs) that the CLI never uses.
    # The variable is read then, so it is set here, before any import of
    # numpy, and not in main(), which in-process callers share; a value the
    # user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = main()
    # The process frees every object as it ends, so the collections at exit
    # need not walk them (about 8 ms of a one-shot command). atexit handlers,
    # the flush of stdout and stderr and the exit status stay as they were.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    cli_main()
