"""Independent checker for symdyn command output.

Nothing here comes from symdyn: the expected answers are the paper's closed
forms (orbit cardinality, convergence verdicts, the trace pairing against
the trace-zero basis) and a step-by-step recurrence written out in the same
expression order as the map, so orbit rows must agree bit for bit while
they are finite. ``check()`` returns the failures of one invocation as
``(code, detail)`` pairs; an empty list means the invocation passed. The
parts of an orbit answer (rows, cardinality, each verdict, SVG) are checked
one by one, and all of their failures are returned.

Codes in ``KNOWN_DEFECTS`` are defects of the program that the benchmark
reproduces on purpose. They count as failures like any other; an invocation
with any code outside that set makes ``run.py`` report ``correct`` false.
"""

from __future__ import annotations

import json
import math
import re
import xml.parsers.expat
from array import array
from pathlib import Path

TAU = 2.0 * math.pi
DEFAULT_EPS = 1e-9
# Output numbers printed with %.17g round-trip exactly; values derived
# through trigonometry and BLAS are compared at this relative tolerance.
NUM_TOL = 1e-12

KNOWN_DEFECTS = {
    # An orbit whose iterates leave the range where squared distances are
    # normal floats reports Finite(k) although the closed form says Infinite.
    "false-revisit",
    # An orbit that overflows writes nan/inf coordinates into its SVG.
    "nonfinite-svg",
    # A nan or inf input is accepted with exit 0 instead of exit 2.
    "nonfinite-accepted",
}

_FLAGS = {"--json", "--degrees", "--cw", "--acw"}
_NONFINITE = re.compile(rb"(?<![a-z])(nan|inf|infinity)(?![a-z])")
_FLOAT = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)"


class Failure(Exception):
    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def _require(ok: bool, code: str, detail: str) -> None:
    if not ok:
        raise Failure(code, detail)


def _parse_argv(argv) -> tuple[str, list[str], dict]:
    cmd, rest = argv[0], list(argv[1:])
    pos: list[str] = []
    opts: dict = {}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok in _FLAGS:
            opts[tok] = True
        elif tok.startswith("--"):
            opts[tok] = rest[i + 1]
            i += 1
        else:
            pos.append(tok)
        i += 1
    return cmd, pos, opts


def close(x: float, y: float, eps: float) -> bool:
    """The CLI's documented comparison: |x - y| <= eps * (1 + max(|x|, |y|))."""
    return abs(x - y) <= eps * (1.0 + max(abs(x), abs(y)))


def _near(x: float, y: float, scale: float = 1.0) -> bool:
    return abs(x - y) <= NUM_TOL * (1.0 + abs(scale))


def _ang_near(a: float, b: float) -> bool:
    d = abs(a - b) % TAU
    return min(d, TAU - d) <= NUM_TOL * (1.0 + abs(a))


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _line_angle(phi: float) -> float:
    r = math.fmod(phi, math.pi)
    if r < 0.0:
        r += math.pi
    if r >= math.pi:
        r = 0.0
    return r


def reference_orbit(x: float, y: float, lam: float, axis: float, iters: int):
    """Iterates of reflect-across-axis-then-scale, one step at a time."""
    t = 2.0 * _line_angle(axis)
    c, s = math.cos(t), math.sin(t)
    xs, ys = [x], [y]
    for _ in range(iters):
        rx = x * c + y * s
        ry = x * s - y * c
        x, y = lam * rx, lam * ry
        xs.append(x)
        ys.append(y)
    return xs, ys


def leaves_square_range(xs, ys) -> bool:
    """Whether some iterate's squared norm is outside the normal float range."""
    lo, hi = 2.0 ** -511, 2.0 ** 511
    for x, y in zip(xs, ys):
        r = math.hypot(x, y)
        if not (lo <= r <= hi):
            return True
    return False


def _on_line(x, y, phi, eps) -> bool:
    return abs(x * math.sin(phi) - y * math.cos(phi)) <= eps * (1.0 + math.hypot(x, y))


def _on_perpendicular(x, y, phi, eps) -> bool:
    return abs(x * math.cos(phi) + y * math.sin(phi)) <= eps * (1.0 + math.hypot(x, y))


def cardinality_law(x, y, lam, phi, eps) -> str:
    """Closed-form orbit size: 'Finite(1)', 'Finite(2)' or 'Infinite'."""
    if close(math.hypot(x, y), 0.0, eps):
        return "Finite(1)"
    if close(lam, 0.0, eps):
        return "Finite(2)"
    if close(lam, 1.0, eps):
        return "Finite(1)" if _on_line(x, y, phi, eps) else "Finite(2)"
    if close(lam, -1.0, eps):
        return "Finite(1)" if _on_perpendicular(x, y, phi, eps) else "Finite(2)"
    return "Infinite"


def convergence_law(x, y, lam, phi, eps, discrete: bool):
    """('ConvergesTo', (x, y)), ('NotConvergent',) or ('DivergesToInfinity',)."""
    if close(math.hypot(x, y), 0.0, eps) or close(lam, 0.0, eps):
        return ("ConvergesTo", (0.0, 0.0))
    if close(lam, 1.0, eps) and _on_line(x, y, phi, eps):
        return ("ConvergesTo", (x, y))
    if close(lam, -1.0, eps) and _on_perpendicular(x, y, phi, eps):
        return ("ConvergesTo", (x, y))
    if discrete or close(abs(lam), 1.0, eps):
        return ("NotConvergent",)
    if abs(lam) < 1.0:
        return ("ConvergesTo", (0.0, 0.0))
    return ("DivergesToInfinity",)


def _verdict_text(v) -> str:
    if v[0] == "ConvergesTo":
        return f"ConvergesTo ({_fmt(v[1][0])}, {_fmt(v[1][1])})"
    return v[0]


def _verdict_json(v) -> dict:
    if v[0] == "ConvergesTo":
        return {"kind": "ConvergesTo", "limit": [v[1][0], v[1][1]]}
    return {"kind": v[0]}


def _card_json(card: str) -> dict:
    if card == "Infinite":
        return {"kind": "Infinite"}
    return {"kind": "Finite", "size": int(card[7:-1])}


def _reject_constant(name: str):
    raise Failure("json-nonfinite", f"JSON holds {name}")


def parse_json(text: str):
    """Strict JSON: NaN and Infinity are not JSON and are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Failure("json-invalid", str(exc)) from None


def _kv_lines(lines) -> dict:
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        _require(bool(sep), "text-format", f"not a key = value line: {line[:80]!r}")
        out[key] = value
    return out


def _floats(text: str) -> list[float]:
    return [float(v) for v in re.findall(_FLOAT, text)]


def _finite_prefix(xs, ys) -> int:
    """Number of leading iterates with both coordinates finite; once an
    iterate is inf or nan, every later one is too."""
    for i, (x, y) in enumerate(zip(xs, ys)):
        if not (math.isfinite(x) and math.isfinite(y)):
            return i
    return len(xs)


def _check_points(index, px, py, xs, ys) -> None:
    """Row numbers, then coordinates bit for bit while the recurrence is finite."""
    _require(len(index) == len(xs), "orbit-length", f"{len(index)} points, expected {len(xs)}")
    _require([int(n) for n in index] == list(range(len(xs))), "orbit-index", "rows misnumbered")
    k = _finite_prefix(xs, ys)
    got = array("d", [v for pair in zip(px[:k], py[:k]) for v in pair]).tobytes()
    want = array("d", [v for pair in zip(xs[:k], ys[:k]) for v in pair]).tobytes()
    if got != want:
        i = next(i for i in range(k) if _fmt(px[i]) != _fmt(xs[i]) or _fmt(py[i]) != _fmt(ys[i]))
        raise Failure("orbit-row", f"row {i} is ({_fmt(px[i])}, {_fmt(py[i])}), recurrence "
                                   f"gives ({_fmt(xs[i])}, {_fmt(ys[i])})")


def _check_csv(text: str, xs, ys) -> None:
    lines = text.split("\n")
    _require(lines[0] == "n,x,y" and lines[-1] == "", "csv-format", "header or final LF")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(all(len(r) == 3 for r in rows), "csv-format", "a row without three fields")
    _check_points([r[0] for r in rows], [float(r[1]) for r in rows],
                  [float(r[2]) for r in rows], xs, ys)


def check_svg(data: bytes, goes_nonfinite: bool) -> None:
    """Well-formed XML with a polyline and no nan/inf anywhere."""
    try:
        xml.parsers.expat.ParserCreate().Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise Failure("svg-xml", str(exc)) from None
    _require(b"<polyline" in data, "svg-format", "no polyline")
    low = data.lower()
    bad = _NONFINITE.findall(low) if b"nan" in low or b"inf" in low else []
    if bad:
        code = "nonfinite-svg" if goes_nonfinite else "svg-value"
        raise Failure(code, f"{len(bad)} nan/inf values")


def _check_cardinality(reported: str, law: str, xs, ys) -> None:
    if reported == law:
        return
    if law == "Infinite" and reported.startswith("Finite") and leaves_square_range(xs, ys):
        raise Failure("false-revisit", f"reports {reported}, closed form {law}")
    raise Failure("cardinality", f"reports {reported}, closed form {law}")


def _parts(*checks) -> list[tuple[str, str]]:
    """Run independent checks; every one runs, and all their failures are returned."""
    found = []
    for fn in checks:
        try:
            fn()
        except Failure as exc:
            found.append((exc.code, exc.detail))
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            found.append(("output-shape", f"{type(exc).__name__}: {exc}"))
    return found


def _check_orbit(pos, opts, stdout: str) -> list[tuple[str, str]]:
    """Every part of an orbit answer is checked, so that a known defect in
    one part cannot hide a new failure in another."""
    x, y = float(pos[0]), float(pos[1])
    lam, axis = float(opts["--lambda"]), float(opts["--axis"])
    iters = int(opts.get("--iters", 64))
    eps = float(opts.get("--tol", DEFAULT_EPS))
    phi = _line_angle(axis)
    xs, ys = reference_orbit(x, y, lam, axis, iters)
    law = cardinality_law(x, y, lam, phi, eps)
    conv = {t: convergence_law(x, y, lam, phi, eps, t == "Discrete")
            for t in ("Discrete", "Usual")}
    as_json = bool(opts.get("--json"))
    printed: dict = {}

    def read_stdout() -> None:
        if as_json:
            rec = parse_json(stdout)
            card = rec["cardinality"]
            printed["card"] = f"Finite({card['size']})" if card["kind"] == "Finite" \
                else card["kind"]
            printed["verdicts"] = {t: rec["convergence"][t] for t in conv}
            if "--out" not in opts:
                pts = rec["points"]
                printed["rows"] = lambda: _check_points(
                    [p[0] for p in pts], [p[1] for p in pts], [p[2] for p in pts], xs, ys)
        else:
            lines = stdout.split("\n")
            _require(lines[-1] == "" and len(lines) >= 4, "text-format", "orbit output")
            tail = _kv_lines(lines[-4:-1])
            printed["card"] = tail["cardinality"]
            printed["verdicts"] = {t: tail[f"convergence[{t}]"] for t in conv}
            if "--out" not in opts:
                csv_text = "\n".join(lines[:-4]) + "\n"
                printed["rows"] = lambda: _check_csv(csv_text, xs, ys)

    found = _parts(read_stdout)
    checks = []
    if "--out" in opts:
        checks.append(lambda: _check_csv(Path(opts["--out"]).read_text(), xs, ys))
    if "--svg" in opts:
        nonfinite = not all(math.isfinite(v) for v in xs + ys)
        checks.append(lambda: check_svg(Path(opts["--svg"]).read_bytes(), nonfinite))
    if printed:
        if "rows" in printed:
            checks.append(printed["rows"])
        checks.append(lambda: _check_cardinality(printed["card"], law, xs, ys))
        for t, v in conv.items():
            want = _verdict_json(v) if as_json else _verdict_text(v)
            got = printed["verdicts"][t]
            checks.append(lambda t=t, got=got, want=want: _require(
                got == want, "convergence", f"{t}: {got}, closed form {want}"))
    return found + _parts(*checks)


def _record(opts, stdout: str, keys) -> dict:
    if opts.get("--json"):
        return parse_json(stdout)
    lines = stdout.split("\n")
    _require(lines[-1] == "", "text-format", "missing final newline")
    kv = _kv_lines(lines[:-1])
    _require(list(kv) == list(keys), "text-format", f"keys {list(kv)}")
    return kv


def _matrix(value) -> list[float]:
    return [float(v) for v in value] if isinstance(value, list) else _floats(value)


def _check_canonical(rec, expect: list[float]) -> None:
    """lambda/theta/axis/matrix of decompose and build against a 2x2 matrix."""
    lam, theta, axis = (float(rec[k]) for k in ("lambda", "theta", "axis"))
    _require(lam >= 0.0 and 0.0 <= theta < TAU and axis == theta / 2.0, "canonical-form",
             f"lambda {lam}, theta {theta}, axis {axis}")
    c, s = lam * math.cos(theta), lam * math.sin(theta)
    for got, want in zip([c, s, s, -c] + _matrix(rec["matrix"]), expect + expect):
        _require(_near(got, want, lam), "canonical-value",
                 f"lambda {lam} theta {theta} give {got}, input entry {want}")


def _angle(value: str, degrees: bool) -> float:
    return math.radians(float(value)) if degrees else float(value)


def _check_decompose(pos, opts, stdout) -> None:
    rec = _record(opts, stdout, ("lambda", "theta", "axis", "matrix"))
    _check_canonical(rec, [float(v) for v in pos])


def _check_build(pos, opts, stdout) -> None:
    rec = _record(opts, stdout, ("lambda", "theta", "axis", "matrix"))
    lam, deg = float(pos[0]), bool(opts.get("--degrees"))
    if "--theta" in opts:
        t = _angle(opts["--theta"], deg)
    else:
        t = 2.0 * _angle(opts["--axis"], deg)
    c, s = lam * math.cos(t), lam * math.sin(t)
    _require(_near(float(rec["lambda"]), abs(lam), lam), "canonical-value",
             f"lambda {rec['lambda']} for scale {lam}")
    _check_canonical(rec, [c, s, s, -c])


def _check_classify(pos, opts, stdout) -> None:
    keys = ("cardinality", "stable_set", "convergence[Discrete]", "convergence[Usual]")
    rec = _record(opts, stdout, keys)
    x, y, lam = float(pos[0]), float(pos[1]), float(opts["--lambda"])
    phi = _line_angle(_angle(opts["--axis"], bool(opts.get("--degrees"))))
    eps = float(opts.get("--tol", DEFAULT_EPS))
    law = cardinality_law(x, y, lam, phi, eps)
    stable = "WholePlane" if abs(lam) < 1.0 else "SingletonSelf"
    conv = {t: convergence_law(x, y, lam, phi, eps, t == "Discrete")
            for t in ("Discrete", "Usual")}
    if opts.get("--json"):
        got = (_card_json(law) == rec["cardinality"], rec["stable_set"] == stable,
               all(rec["convergence"][t] == _verdict_json(v) for t, v in conv.items()))
    else:
        got = (rec["cardinality"] == law, rec["stable_set"] == stable,
               all(rec[f"convergence[{t}]"] == _verdict_text(v) for t, v in conv.items()))
    for ok, what in zip(got, ("cardinality", "stable-set", "convergence")):
        _require(ok, what, f"{rec}, closed form {law} {stable} {conv}")


def _mat_mul(a, b) -> list[float]:
    return [a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]]


def _check_compose(pos, opts, stdout) -> None:
    rec = _record(opts, stdout, ("gamma", "product", "reflection", "residual", "verified"))
    deg = bool(opts.get("--degrees"))
    alpha, theta = _angle(opts["--alpha"], deg), _angle(opts["--theta"], deg)
    a = alpha if opts.get("--cw") else -alpha
    rot = [math.cos(a), math.sin(a), -math.sin(a), math.cos(a)]
    ref = [math.cos(theta), math.sin(theta), math.sin(theta), -math.cos(theta)]
    gamma = theta - a
    refl = [math.cos(gamma), math.sin(gamma), math.sin(gamma), -math.cos(gamma)]
    got_gamma = float(rec["gamma"])
    _require(0.0 <= got_gamma < TAU and _ang_near(got_gamma, gamma), "compose-gamma",
             f"gamma {got_gamma}, expected {gamma} mod 2pi")
    for got, want in zip(_matrix(rec["product"]) + _matrix(rec["reflection"]),
                         _mat_mul(rot, ref) + refl):
        _require(_near(got, want), "compose-matrix", f"entry {got}, expected {want}")
    verified = rec["verified"] if opts.get("--json") else rec["verified"] == "true"
    _require(verified is True and float(rec["residual"]) <= 1e-12, "compose-verified",
             f"residual {rec['residual']}, verified {rec['verified']}")


def _check_ortho(pos, opts, stdout) -> None:
    rec = _record(opts, stdout, ("variant", "angle"))
    m = [float(v) for v in pos]
    det = m[0] * m[3] - m[1] * m[2]
    variant = "Rotation" if det > 0 else "Reflection"
    angle = float(rec["angle"])
    c, s = math.cos(angle), math.sin(angle)
    rebuilt = [c, s, -s, c] if variant == "Rotation" else [c, s, s, -c]
    _require(rec["variant"] == variant, "ortho-variant", f"{rec['variant']}, det {det}")
    _require(0.0 <= angle < TAU and all(_near(g, w) for g, w in zip(rebuilt, m)),
             "ortho-angle", f"angle {angle} does not rebuild {m}")


def pairing_vector(a: list[list[float]]) -> list[float]:
    """Tr(B a) for the trace-zero basis B in order: diagonal differences, then
    doubled off-diagonal entries in row-major order."""
    n = len(a)
    out = [a[i][i] - a[i + 1][i + 1] for i in range(n - 1)]
    out += [2.0 * a[i][j] for i in range(n) for j in range(i + 1, n)]
    return out


def basis_element(n: int, k: int) -> list[float]:
    m = [0.0] * (n * n)
    if k < n - 1:
        m[k * n + k], m[(k + 1) * n + k + 1] = 1.0, -1.0
        return m
    k -= n - 1
    for i in range(n):
        for j in range(i + 1, n):
            if k == 0:
                m[i * n + j] = m[j * n + i] = 1.0
                return m
            k -= 1
    raise IndexError("basis index out of range")


def read_matrix(path) -> list[list[float]]:
    tokens = Path(path).read_text().split()
    n = int(tokens[0])
    vals = [float(t) for t in tokens[1:]]
    return [vals[i * n:(i + 1) * n] for i in range(n)]


def _check_psym(pos, opts, stdout) -> None:
    a = read_matrix(pos[0])
    n = len(a)
    eps = float(opts.get("--tol", DEFAULT_EPS))
    thresh = eps * (1.0 + math.sqrt(sum(v * v for row in a for v in row)))
    vec = pairing_vector(a)
    witness = next((k for k, v in enumerate(vec) if abs(v) > thresh), None)
    if witness is None:
        rec = _record(opts, stdout, ("member", "c"))
        member = rec["member"] if opts.get("--json") else rec["member"] == "true"
        c = sum(a[i][i] for i in range(n)) / n
        _require(member is True, "psym-member", "scalar matrix reported as non-member")
        _require(_near(float(rec["c"]), c, c), "psym-c", f"c {rec['c']}, expected {c}")
        return
    rec = _record(opts, stdout, ("member", "witness", "trace"))
    member = rec["member"] if opts.get("--json") else rec["member"] == "true"
    _require(member is False, "psym-member", f"non-member reported as member (witness {witness})")
    _require(_matrix(rec["witness"]) == basis_element(n, witness), "psym-witness",
             f"witness is not basis element {witness}")
    _require(_near(float(rec["trace"]), vec[witness], vec[witness]), "psym-trace",
             f"trace {rec['trace']}, closed form {vec[witness]}")


_CHECKS = {
    "decompose": _check_decompose,
    "build": _check_build,
    "classify": _check_classify,
    "compose": _check_compose,
    "ortho-classify": _check_ortho,
    "psym": _check_psym,
}


def _has_nonfinite_input(argv) -> bool:
    for tok in argv:
        try:
            if not math.isfinite(float(tok)):
                return True
        except ValueError:
            pass
    return False


def check(argv, expect_exit, exit_code: int, stdout: str, stderr: str) -> list[tuple[str, str]]:
    """Failures of one invocation; [] when exit code and output are right."""
    if exit_code == 2 and expect_exit in (2, None):
        if any(line.startswith("error:") for line in stderr.splitlines()):
            return []
        return [("error-line", "exit 2 without an error: line")]
    if exit_code == 0 and expect_exit in (0, None):
        cmd, pos, opts = _parse_argv(argv)
        if cmd == "orbit":
            return _check_orbit(pos, opts, stdout)
        return _parts(lambda: _CHECKS[cmd](pos, opts, stdout))
    if exit_code == 0 and _has_nonfinite_input(argv):
        return [("nonfinite-accepted", "exit 0 on a nan/inf input")]
    return [("exit-code", f"exit {exit_code}, expected {expect_exit}; "
                          f"stderr {stderr.strip()[-200:]!r}")]
