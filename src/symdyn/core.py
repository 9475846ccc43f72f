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


def frozen(cls):
    """Make cls an immutable value type whose fields are its own annotations.

    The annotations give the field names in order and are never evaluated.
    A field with a class attribute takes it as its default. cls gets an
    __init__ by position or keyword that sets the fields and then calls
    __post_init__, if cls has one (which may still set a field with
    object.__setattr__); == and hash over the field tuple, between instances
    of the same class only; repr as Name(field=value, ...); __match_args__;
    and FrozenInstanceError on assigning or deleting any attribute.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    # The __init__ is compiled for cls: setting each field by name costs
    # less per call than a shared __init__ that loops over its arguments.
    params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in names)
    src = (f"def __init__(self{params}):\n"
           + "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
           + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "    pass\n")
           + f"def key(self):\n    return ({''.join(f'self.{n}, ' for n in names)})\n")
    ns = {"_cls": cls, "_set": object.__setattr__}
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


@frozen
class Tolerance:
    """Scale-aware comparison threshold.

    x and y count as equal when |x - y| <= eps * (1 + max(|x|, |y|)),
    which behaves absolutely near zero and relatively for large values.
    Values whose difference is not finite are never close.
    """

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError("eps must be a positive finite real")
        object.__setattr__(self, "eps", float(self.eps))

    def close(self, x: float, y: float) -> bool:
        d = abs(x - y)
        return math.isfinite(d) and d <= self.eps * (1.0 + max(abs(x), abs(y)))


DEFAULT_TOL = Tolerance()


def _reduce(x: float, period: float) -> float:
    # x mod period in [0, period), for the matrix angle and the axis angle.
    r = math.fmod(x, period)
    if r < 0.0:
        r += period
    if r >= period:  # the += above can round up to exactly period
        r = 0.0
    return r


def mod_2pi(x: float) -> float:
    """Reduce an angle to [0, 2*pi). Idempotent on values already in range."""
    return _reduce(x, TAU)


def _canonical_params(lam: float, theta: float) -> tuple[float, float]:
    # Nonnegative scale with the sign absorbed into the angle; the zero
    # matrix pins theta = 0 so decomposition stays a function.
    if lam < 0.0:
        lam, theta = -lam, theta + math.pi
    if lam == 0.0:  # -0.0 included, so the zero matrix has no -0.0 entries
        return 0.0, 0.0
    return lam, mod_2pi(theta)


@frozen
class Point2:
    """A point of the plane."""

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
    reflection sits at theta / 2. Construction canonicalizes: a negative
    scale flips theta by pi, and lam == 0 forces theta = 0.
    """

    lam: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and math.isfinite(self.theta)):
            raise ValueError("lam and theta must be finite")
        lam, theta = _canonical_params(float(self.lam), float(self.theta))
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
        if not math.isfinite(self.angle):
            raise ValueError("angle must be finite")
        object.__setattr__(self, "angle", mod_2pi(self.angle))

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        if self.variant is OrthogonalVariant.ROTATION:
            return _ndarray(((c, s), (-s, c)))
        return _ndarray(((c, s), (s, -c)))


def matrix_from_params(lam: float, theta: float) -> np.ndarray:
    """Build [[l cos t, l sin t], [l sin t, -l cos t]] from scale and angle.

    Signs are absorbed canonically, so matrix_from_params(-l, t) returns
    bit for bit the same matrix as matrix_from_params(l, (t + pi) mod 2pi).
    The result is symmetric with trace exactly zero.
    """
    return TraceZeroSym2(lam, theta).matrix()


def _float_rows(m) -> list[list[float]]:
    # The rows of a matrix as lists of floats, from any nested sequence or,
    # through tolist(), an ndarray. TypeError for what is no row of numbers,
    # text or bytes included, whose digits float() would read; OverflowError
    # for an int beyond the float range.
    text, rows = (str, bytes, bytearray, memoryview), []
    for row in m.tolist() if hasattr(m, "tolist") else m:
        if isinstance(row, text):
            raise TypeError("a row of text is no row of numbers")
        floats = []
        for x in row:
            if isinstance(x, text):
                raise TypeError("text is no number")
            floats.append(float(x))
        rows.append(floats)
    return rows


def _ndarray(rows) -> np.ndarray:
    # numpy loads here, on the first call of a function that returns an array.
    import numpy as np

    return np.array(rows, dtype=float)


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


def decompose(m, tol: Tolerance = DEFAULT_TOL) -> TraceZeroSym2:
    """Recover canonical (lam, theta) from a symmetric trace-zero matrix.

    Raises NotSymmetricError / NotTraceZeroError when the input violates a
    precondition beyond tol. Matrices whose scale falls at or below tol.eps
    collapse to the canonical zero element (0, 0).
    """
    # Python floats overflow to inf without a numpy warning, and halving
    # before subtracting, which is exact for normal entries, keeps the
    # half-difference finite wherever it is representable.
    x, p, q, y = _as_matrix2(m)
    if not tol.close(p, q):
        raise NotSymmetricError(f"not symmetric: off-diagonal entries {p} and {q} differ")
    trace = x + y
    if not tol.close(trace, 0.0):
        raise NotTraceZeroError(f"not trace zero: trace is {trace}")
    a = 0.5 * x - 0.5 * y
    b = 0.5 * p + 0.5 * q
    lam = math.hypot(a, b)
    if lam <= tol.eps:
        return TraceZeroSym2(0.0, 0.0)
    return TraceZeroSym2(lam, mod_2pi(math.atan2(b, a)))


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
        c = 0.5 * (x + y)
        s = 0.5 * (p - q)
        return Orthogonal2(OrthogonalVariant.ROTATION, mod_2pi(math.atan2(s, c)))
    if tol.close(det, -1.0):
        c = 0.5 * (x - y)
        s = 0.5 * (p + q)
        return Orthogonal2(OrthogonalVariant.REFLECTION, mod_2pi(math.atan2(s, c)))
    raise NotOrthogonalError("determinant is near neither +1 nor -1")


def corollary_witness(a: TraceZeroSym2) -> tuple[Orthogonal2, float]:
    """Factor a trace-zero symmetric matrix as scale times a det -1 orthogonal.

    The witness has eigenvalues +1 and -1 and satisfies
    a.matrix() == lam * witness.matrix() entrywise. The zero matrix gets
    the conventional witness Reflection(0), i.e. [[1, 0], [0, -1]].
    """
    return Orthogonal2(OrthogonalVariant.REFLECTION, a.theta), a.lam
