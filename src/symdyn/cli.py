"""Command line surface: decomposition, orbits with CSV/SVG output, classification.

Exit codes: 0 on success, 2 on input or precondition violations, 3 on I/O
failures. Angles are radians unless --degrees is given. CSV uses the schema
n,x,y with %.17g decimal output and LF line endings. Each command builds one
record, which _emit prints as key = value text or as one --json line.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from enum import Enum

from .core import (Point2, Tolerance, TraceZeroSym2, classify_orthogonal, decompose,
                   matrix_from_params)
from .dynamics import (
    ConvergesTo,
    Finite,
    Topology,
    classify_convergence,
    classify_orbit_cardinality,
    orbit,
    stable_set,
)
from .frobenius import SymMatN, frobenius_inner, is_in_psym, psym_witness, scaled, sym0_basis
from .geometry import AxisLine, Direction, ReflectScale, compose_rotation_reflection, rotation_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

MAX_ITERS = 1_000_000
# The fewest rows in a slice rendered by a forked child. A child costs about
# 4 ms to fork and read back: on a 2-core host, two slices of 4096 rows drew
# an SVG no faster than one of 8192 (1.05x the time), while two of 8192 took
# 0.67x (CSV) and 0.82x (SVG) the time of one of 16384.
SLICE_ROWS = 8192
SVG_SIZE = 600  # the side of the square SVG viewport, in pixels


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


def _one_thread() -> bool:
    """Whether this process runs a single OS thread. Threads that Python did
    not start, such as a BLAS pool, count too: a forked child has none of
    them, nor any lock they held."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _fork(render, lo: int, hi: int) -> tuple[int, int] | None:
    """Starts a child that writes render(lo, hi) to a pipe and exits 0.
    Returns (pid, read end), or None when no child could be started."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                fh.write(render(lo, hi).encode())
            code = 0
        finally:
            os._exit(code)  # never returns into the caller's code
    os.close(w)
    return pid, r


def _join(child: tuple[int, int]) -> str | None:
    """Reads a child's text to the end and reaps the child; None unless it
    exited 0."""
    pid, r = child
    try:
        with open(r, "rb") as fh:
            text = fh.read().decode()
    finally:
        try:
            ok = os.waitpid(pid, 0)[1] == 0
        except ChildProcessError:  # SIGCHLD is ignored, so the exit status is gone
            ok = False
    return text if ok else None


def _in_slices(render, n: int, sep: str = "") -> str:
    """render(lo, hi) over contiguous slices of range(n), joined by sep.

    There is one slice per CPU the process may use, of at least SLICE_ROWS
    rows each. Every slice but the last is rendered in a forked child; the
    parent renders the last, then joins the children's text in order. A
    slice whose child could not start or did not exit 0 is rendered in the
    parent, so the text is the same for any number of slices. A process
    without fork or sched_getaffinity, or with more than one thread, renders
    one slice.
    """
    k = 1
    if (n >= 2 * SLICE_ROWS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and _one_thread()):
        k = min(len(os.sched_getaffinity(0)), n // SLICE_ROWS)
    cuts = [n * i // k for i in range(k + 1)]
    children = []
    try:
        for lo, hi in zip(cuts, cuts[1:-1]):
            children.append(_fork(render, lo, hi))
        last = render(cuts[-2], n)
    finally:
        # Every child is read and reaped, also when the render above raised.
        texts = [child and _join(child) for child in children]
    texts = [render(lo, hi) if text is None else text
             for text, lo, hi in zip(texts, cuts, cuts[1:])]
    return sep.join(texts + [last])


def orbit_csv(xs, ys) -> str:
    """CSV text for the orbit trace whose n-th point is (xs[n], ys[n]), as
    in OrbitRecord.xs and .ys: header n,x,y then one row per point."""

    def rows(lo: int, hi: int) -> str:
        return "".join(["%d,%.17g,%.17g\n" % row
                        for row in zip(range(lo, hi), xs[lo:hi], ys[lo:hi])])

    return "n,x,y\n" + _in_slices(rows, len(xs))


def orbit_svg(xs, ys, axis: AxisLine) -> str:
    """SVG 1.1 document for the orbit trace whose n-th point is
    (xs[n], ys[n]), as in OrbitRecord.xs and .ys: orbit polyline plus the
    reflection axis.

    The viewport is fixed at SVG_SIZE x SVG_SIZE and scaled to the bounding
    box of the finite points with 10 percent padding; they are joined in
    iteration order, and points that overflowed are left out.
    """
    isfinite = math.isfinite
    if not (all(map(isfinite, xs)) and all(map(isfinite, ys))):
        xs, ys = ([x for x, y in zip(xs, ys) if isfinite(x) and isfinite(y)],
                  [y for x, y in zip(xs, ys) if isfinite(x) and isfinite(y)])
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    # Near either end of the float range the box would overflow or
    # underflow, so there the coordinates are scaled by 2**-k, which is
    # exact; k >= -1000 keeps the 2**-k fallback half-width finite.
    k = math.frexp(max(-x_lo, x_hi, -y_lo, y_hi))[1]
    k = 0 if -512 < k < 512 else max(k, -1000)
    if k:
        xs = [math.ldexp(x, -k) for x in xs]
        ys = [math.ldexp(y, -k) for y in ys]
        x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    cx = 0.5 * (x_lo + x_hi)
    cy = 0.5 * (y_lo + y_hi)
    half = 0.5 * max(x_hi - x_lo, y_hi - y_lo)
    half = half * 1.1 if half > 0.0 else math.ldexp(1.0, -k)
    mid = SVG_SIZE / 2.0
    scale = mid / half
    reach = math.hypot(cx, cy) + 3.0 * half
    ax, ay = reach * math.cos(axis.phi), reach * math.sin(axis.phi)
    line = '  <line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" ' % (
        mid + (-ax - cx) * scale, mid - (-ay - cy) * scale,
        mid + (ax - cx) * scale, mid - (ay - cy) * scale)

    def points(lo: int, hi: int) -> str:
        return " ".join(["%.3f,%.3f" % (mid + (x - cx) * scale, mid - (y - cy) * scale)
                         for x, y in zip(xs[lo:hi], ys[lo:hi])])

    # Each point is formatted once, as "x,y" in the polyline; "%.3f" never
    # prints a space or a comma, so the circles are that text rewritten.
    poly = _in_slices(points, len(xs), " ")
    dots = ('  <circle cx="' + poly.replace(" ", '" r="3" fill="#1f4e9c"/>\n  <circle cx="')
            .replace(",", '" cy="') + '" r="3" fill="#1f4e9c"/>')
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'{line}stroke="#999999" stroke-width="1"/>\n'
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


def _rows(a) -> tuple:
    # A 2x2 ndarray in the record's form of a matrix.
    return tuple(map(tuple, a.tolist()))


def cmd_decompose(args) -> int:
    tz = decompose((args.entries[:2], args.entries[2:]), Tolerance(args.tol))
    return _emit(_params(tz, tz.rows()), args.json)


def cmd_build(args) -> int:
    if (args.theta is None) == (args.axis is None):
        raise ValueError("give exactly one of --theta or --axis")
    if args.theta is not None:
        theta = _rad(args.theta, args.degrees)
    else:
        theta = 2.0 * _rad(args.axis, args.degrees)
    m = TraceZeroSym2(args.lam, theta).rows()
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
        tz = decompose((args.from_matrix[:2], args.from_matrix[2:]), tol)
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
    xs, ys = rec.xs, rec.ys
    if args.json and not args.out:
        # The record will carry the points, so fail before any file is
        # written; a non-finite point cannot come before truncated_at.
        t, isfinite = rec.truncated_at, math.isfinite
        if not (all(map(isfinite, xs[t:])) and all(map(isfinite, ys[t:]))):
            n = next(n for n in range(t, len(xs)) if not (isfinite(xs[n]) and isfinite(ys[n])))
            raise ValueError(f"orbit point {n} is not finite, so JSON cannot hold it")
    if args.out:
        _write_text(args.out, orbit_csv(xs, ys))
    if args.svg:
        _write_text(args.svg, orbit_svg(xs, ys, m.axis))
    record = {"start": start, "lambda": lam, "axis": phi, "iters": args.iters,
              "cardinality": rec.cardinality, "convergence": _convergence(start, m, tol),
              "csv": args.out, "svg": args.svg}
    if not args.out:
        if args.json:
            record["points"] = list(zip(range(len(xs)), xs, ys))
        else:
            sys.stdout.write(orbit_csv(xs, ys))
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
    from fractions import Fraction

    alpha = _rad(args.alpha, args.degrees)
    theta = _rad(args.theta, args.degrees)
    direction = Direction.CLOCKWISE if args.cw else Direction.ANTICLOCKWISE
    gamma = compose_rotation_reflection(alpha, theta, direction)
    a, b = _rows(rotation_matrix(alpha, direction)), _rows(matrix_from_params(1.0, theta))
    # Each entry is fma(a_i1, b_1j, a_i0 * b_0j), one rounding of an exact
    # sum, as a fused BLAS kernel gives it; so the bytes do not depend on
    # the host's BLAS (math.fma needs Python 3.13).
    product = tuple(tuple(float(Fraction(r[1]) * Fraction(b[1][j]) + Fraction(r[0] * b[0][j]))
                          for j in (0, 1)) for r in a)
    target = _rows(matrix_from_params(1.0, gamma))
    residual = max(abs(x - y) for u, v in zip(product, target) for x, y in zip(u, v))
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
    a = SymMatN.from_matrix([values[i:i + n] for i in range(0, n * n, n)], tol)
    if is_in_psym(a, tol):
        # s = 1 unless |a| overflows, where the diagonal's sum could too.
        b, s, _ = scaled(a, tol)
        c = b.trace() / n / s
        return _emit({"member": True, "n": n, "c": c}, args.json, ("n",))
    witness = sym0_basis(n)[psym_witness(a, tol)]
    trace = frobenius_inner(witness, a)
    if not math.isfinite(trace):
        raise ValueError("the witness trace overflows float64")
    record = {"member": False, "n": n, "witness": witness.to_list(), "trace": trace}
    return _emit(record, args.json, ("n",))


def cmd_ortho_classify(args) -> int:
    o = classify_orthogonal((args.entries[:2], args.entries[2:]), Tolerance(args.tol))
    return _emit({"variant": o.variant, "angle": o.angle}, args.json)


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
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("build", help="matrix from a scale and an angle")
    p.add_argument("lam", type=float, help="scale")
    p.add_argument("--theta", type=float, help="matrix angle")
    p.add_argument("--axis", type=float, help="reflection-axis angle (half the matrix angle)")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
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
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("classify", help="orbit cardinality, stable set, and convergence verdicts")
    p.add_argument("x", type=float, help="start x")
    p.add_argument("y", type=float, help="start y")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="scale")
    p.add_argument("--axis", type=float, required=True, help="reflection-axis angle")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compose", help="rotation composed with a reflection, as one reflection")
    p.add_argument("--alpha", type=float, required=True, help="rotation angle")
    p.add_argument("--theta", type=float, required=True, help="reflection matrix angle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cw", action="store_true", help="clockwise rotation")
    group.add_argument("--acw", action="store_true", help="anticlockwise rotation")
    p.add_argument("--degrees", action="store_true", help="angles are degrees")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("psym", help="test the trace pairing of a symmetric matrix file")
    p.add_argument("file", help="whitespace-separated: n then n*n entries, row-major")
    p.set_defaults(func=cmd_psym)

    p = sub.add_parser("ortho-classify", help="classify an orthogonal matrix")
    p.add_argument("entries", type=float, nargs=4, metavar="E", help="matrix entries, row-major")
    p.set_defaults(func=cmd_ortho_classify)

    for name, p in sub.choices.items():
        if name != "compose":  # compose checks its product at a fixed 1e-12
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
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
