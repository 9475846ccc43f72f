"""Canonical forms for 2x2 trace-zero symmetric and orthogonal matrices.

Every trace-zero symmetric 2x2 matrix is [[l cos t, l sin t], [l sin t, -l cos t]]
for a scale l and a matrix angle t, i.e. a scaled reflection of the plane.
Orthogonal 2x2 matrices split into rotations (det +1) and reflections (det -1).
This module constructs, decomposes and classifies both families.
"""

from __future__ import annotations

import math
from enum import Enum

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np

TAU = 2.0 * math.pi


class NotSymmetricError(ValueError):
    """Input matrix differs from its transpose beyond tolerance."""


class NotTraceZeroError(ValueError):
    """Input matrix has a trace that is not zero within tolerance."""


class NotOrthogonalError(ValueError):
    """Input matrix columns are not orthonormal within tolerance."""


class FrozenInstanceError(AttributeError):
    """An attribute of a frozen value was assigned or deleted."""


_TEXT = (str, bytes, bytearray, memoryview)


def _real(x) -> float:
    # float(x), except for text and bytes, whose digits float() would read.
    if isinstance(x, _TEXT):
        raise TypeError("text is no number")
    return float(x)


def frozen(cls=None, *, finite=True):
    """Make cls an immutable value type whose fields are its own annotations.

    The annotations give the field names in order and are never evaluated.
    A field with a class attribute takes it as its default. cls gets an
    __init__ by position or keyword that stores each field annotated float as
    a Python float (_real), raises ValueError unless all of those are finite
    (finite=False skips only that test), sets the fields and then calls
    __post_init__, if cls has one (which may still set a field with
    object.__setattr__); == and hash over the field tuple, between instances
    of the same class only; repr as Name(field=value, ...); __match_args__;
    and FrozenInstanceError on assigning or deleting any attribute.
    """
    if cls is None:
        return lambda cls: frozen(cls, finite=finite)
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    reals = [n for n in names if annotations[n] in ("float", float)]
    # The __init__ is compiled for cls: setting each field by name costs
    # less per call than a shared __init__ that loops over its arguments.
    params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in names)
    src = (f"def __init__(self{params}):\n"
           + "".join(f"    {n} = {n} if {n}.__class__ is float else _real({n})\n" for n in reals)
           + (f"    if not ({' and '.join(f'_isfinite({n})' for n in reals)}):\n"
              f"        raise ValueError({' and '.join(reals) + ' must be finite'!r})\n"
              if finite and reals else "")
           + "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
           + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "    pass\n")
           + f"def key(self):\n    return ({''.join(f'self.{n}, ' for n in names)})\n")
    ns = {"_cls": cls, "_set": object.__setattr__, "_real": _real, "_isfinite": math.isfinite}
    exec(src, ns)
    key = ns["key"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (ns["__init__"], __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@frozen(finite=False)
class Tolerance:
    """Scale-aware comparison threshold, and the one test behind every verdict.

    d is negligible beside a size when |d| <= eps * size, never when d is not
    finite. With no floor, a verdict on c * p or c * A is that on p or A. x is
    close to y when x - y is negligible beside 1 + max(|x|, |y|), for the
    dimensionless: lam's scale class (orbit, power, convergence and stable-set
    verdicts) and classify_orthogonal's unit-scale tests. The line,
    asymptoticity and Psym tests ask that a distance or pairing be negligible
    beside the norm, matrix preconditions a difference or trace beside the
    largest |entry|. Every verdict is one negligible call and no other code
    reads eps; the origin test is exact. tol decides verdicts only.
    """

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError("eps must be a positive finite real")

    def negligible(self, d: float, size: float) -> bool:
        return math.isfinite(d) and abs(d) <= self.eps * size

    def close(self, x: float, y: float) -> bool:
        return self.negligible(x - y, 1.0 + max(abs(x), abs(y)))


DEFAULT_TOL = Tolerance()


def _reduce(x: float, period: float) -> float:
    # x mod period in [0, period), for the matrix angle and the axis angle.
    r = math.fmod(x, period)
    if r < 0.0:
        r += period
    if r >= period:  # the += above can round up to exactly period
        r = 0.0
    return r + 0.0  # -0.0 (from -0.0 or -period) becomes 0.0


def _turns(x: float, period: float) -> float:
    # x less its whole periods from two up (fmod: exact, keeps the sign); below,
    # and for inf and nan, x as given, so its bytes and the finiteness errors stay.
    return math.fmod(x, period) if 2.0 * period <= abs(x) < math.inf else x


def mod_2pi(x: float) -> float:
    """Reduce an angle to [0, 2*pi). Idempotent on values already in range."""
    return _reduce(x, TAU)


def _canonical_params(lam: float, theta: float) -> tuple[float, float]:
    # Nonnegative scale with the sign absorbed into the angle; the zero
    # matrix pins theta = 0 so decomposition stays a function.
    if lam < 0.0:
        lam, theta = -lam, _turns(theta, TAU) + math.pi
    if lam == 0.0:  # -0.0 included, so the zero matrix has no -0.0 entries
        return 0.0, 0.0
    return lam, mod_2pi(theta)


@frozen(finite=False)
class Point2:
    """A point of the plane, its coordinates Python floats that may be inf or
    nan (finite=False): overflowed traces and infinite starts are points too."""

    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


ORIGIN = Point2(0.0, 0.0)


@frozen
class TraceZeroSym2:
    """Canonical (lam, theta) coordinates of a trace-zero symmetric matrix.

    lam is the nonnegative scale (the eigenvalues are +lam and -lam) and
    theta in [0, 2*pi) is the matrix angle. The fixed line of the underlying
    reflection sits at theta / 2. Construction canonicalizes: a negative scale
    turns theta by pi once its whole periods go, and lam == 0 forces theta = 0.
    """

    lam: float
    theta: float

    def __post_init__(self) -> None:
        lam, theta = _canonical_params(self.lam, self.theta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)

    @property
    def axis_angle(self) -> float:
        return self.theta / 2.0

    def rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The matrix [[l cos t, l sin t], [l sin t, -l cos t]] as a tuple of rows.

        Symmetric with trace exactly zero; matrix() holds the same floats.
        """
        a = self.lam * math.cos(self.theta)
        b = self.lam * math.sin(self.theta)
        d = -a if a != 0.0 else 0.0
        return ((a, b), (b, d))

    def matrix(self) -> np.ndarray:
        return _ndarray(self.rows())


class OrthogonalVariant(Enum):
    ROTATION = "Rotation"
    REFLECTION = "Reflection"


@frozen
class Orthogonal2:
    """A classified 2x2 orthogonal matrix: rotation or reflection plus angle."""

    variant: OrthogonalVariant
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", _reduce(self.angle, TAU))  # mod_2pi, one call less

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        if self.variant is OrthogonalVariant.ROTATION:
            return _ndarray(((c, s), (-s, c)))
        return _ndarray(((c, s), (s, -c)))


def matrix_from_params(lam: float, theta: float) -> np.ndarray:
    """Build [[l cos t, l sin t], [l sin t, -l cos t]] from scale and angle.

    Signs are absorbed canonically: matrix_from_params(-l, t) is bit for bit
    matrix_from_params(l, (t' + pi) mod 2pi), t' = t below 4pi and fmod(t, 2pi)
    from there (_turns). The result is symmetric with trace exactly zero.
    """
    return TraceZeroSym2(lam, theta).matrix()


def _float_rows(m) -> list[list[float]]:
    # The rows of a matrix as lists of floats, from any nested sequence or,
    # through tolist(), an ndarray. TypeError for what is no row of numbers,
    # text or bytes included (_real); OverflowError for an int beyond the
    # float range.
    rows = []
    for row in m.tolist() if hasattr(m, "tolist") else m:
        if isinstance(row, _TEXT):
            raise TypeError("a row of text is no row of numbers")
        rows.append([x if x.__class__ is float else _real(x) for x in row])
    return rows


def _ndarray(rows) -> np.ndarray:
    # numpy loads here, on the first call of a function that returns an array.
    import numpy as np

    return np.array(rows, dtype=float)


MAX_PERIOD = 64  # the longest period _period looks for


def _period(xs, ys, lo: int, hi: int) -> int:
    """The smallest p <= MAX_PERIOD, with lo + p < hi, for which each point of
    the trace (xs, ys) from lo + p to hi - 1 is, bit for bit, the point p
    steps before it; or 0 if there is none. Bytes are compared, not floats:
    0.0 == -0.0, and nan never equals itself. Only a lag at which point lo
    comes back is tried, so a slice where it does not costs one short search."""
    from array import array

    bx, by = (array("d", v[lo:hi]).tobytes() for v in (xs, ys))
    i = 8
    while (i := bx.find(bx[:8], i, 8 * MAX_PERIOD + 8)) > 0:
        if i % 8 == 0 and bx[i:] == bx[:-i] and by[i:] == by[:-i]:
            return i // 8
        i += 1
    return 0


def _as_matrix2(m) -> tuple[float, float, float, float]:
    # The entries x, p, q, y of [[x, p], [q, y]].
    try:
        (x, p), (q, y) = _float_rows(m)
    except (TypeError, ValueError):
        raise ValueError("expected a 2x2 matrix") from None
    except OverflowError:
        raise ValueError("matrix entries must be finite") from None
    if not all(map(math.isfinite, (x, p, q, y))):
        raise ValueError("matrix entries must be finite")
    return x, p, q, y


def _rescale_exponent(values) -> int:
    # k, the binary exponent of the largest |v|, where it lies outside (-256, 256);
    # 0 inside, where its square, or a sum of 64 * 64 such, stays normal. Every
    # rescale is ldexp(v, -k): exact for normal results, the largest in [0.5, 1).
    k = math.frexp(max(map(abs, values)))[1]
    return 0 if -256 < k < 256 else k


def _half_sum(x: float, y: float) -> float:
    # (x + y) / 2 of finite floats: the sum halved, exact down to the smallest
    # subnormal, or each term halved first where the sum overflows to inf.
    s = x + y
    return 0.5 * s if math.isfinite(s) else 0.5 * x + 0.5 * y


def decompose(m, tol: Tolerance = DEFAULT_TOL) -> TraceZeroSym2:
    """Recover canonical (lam, theta) from a symmetric trace-zero matrix.

    Raises NotSymmetricError / NotTraceZeroError when p - q or the trace is not
    negligible beside the largest |entry|, and ValueError when the scale
    overflows float64; tol decides nothing else. Every nonzero matrix keeps its scale, however
    small, and only the zero matrix, -0.0 entries included, gives (0, 0).
    """
    x, p, q, y = _as_matrix2(m)
    top = max(abs(x), abs(p), abs(q), abs(y))
    k = _rescale_exponent((top,))  # so that eps * top does not underflow
    top = math.ldexp(top, -k)
    if not tol.negligible(math.ldexp(p - q, -k), top):
        raise NotSymmetricError(f"not symmetric: off-diagonal entries {p} and {q} differ")
    trace = x + y
    if not tol.negligible(math.ldexp(trace, -k), top):
        raise NotTraceZeroError(f"not trace zero: trace is {trace}")
    a, b = _half_sum(x, -y), _half_sum(p, q)
    lam = math.hypot(a, b)
    if math.isinf(lam):
        raise ValueError("the scale of the matrix overflows float64")
    return TraceZeroSym2(lam, math.atan2(b, a))


def classify_orthogonal(m, tol: Tolerance = DEFAULT_TOL) -> Orthogonal2:
    """Classify an orthogonal 2x2 matrix as a rotation or a reflection.

    Rotation(a) matches [[cos a, sin a], [-sin a, cos a]] and Reflection(b)
    matches [[cos b, sin b], [sin b, -cos b]], angle in [0, 2*pi). A matrix
    whose determinant is near neither +1 nor -1 is rejected, never guessed.
    """
    x, p, q, y = _as_matrix2(m)
    # The Gram matrix of the columns, which is symmetric; Python floats
    # overflow to inf and nan without a warning, and both fail close().
    ok = (
        tol.close(x * x + q * q, 1.0)
        and tol.close(p * p + y * y, 1.0)
        and tol.close(x * p + q * y, 0.0)
    )
    if not ok:
        raise NotOrthogonalError("columns are not orthonormal within tolerance")
    det = x * y - p * q
    if tol.close(det, 1.0):
        return Orthogonal2(OrthogonalVariant.ROTATION, math.atan2(0.5 * (p - q), 0.5 * (x + y)))
    if tol.close(det, -1.0):
        return Orthogonal2(OrthogonalVariant.REFLECTION, math.atan2(0.5 * (p + q), 0.5 * (x - y)))
    raise NotOrthogonalError("determinant is near neither +1 nor -1")


def corollary_witness(a: TraceZeroSym2) -> tuple[Orthogonal2, float]:
    """Factor a trace-zero symmetric matrix as scale times a det -1 orthogonal.

    The witness has eigenvalues +1 and -1 and satisfies
    a.matrix() == lam * witness.matrix() entrywise. The zero matrix gets
    the conventional witness Reflection(0), i.e. [[1, 0], [0, -1]].
    """
    return Orthogonal2(OrthogonalVariant.REFLECTION, a.theta), a.lam
