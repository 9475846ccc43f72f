"""Orbits, powers, convergence, and stable sets of the reflect-then-scale map.

Everything here rides on two exact facts: the square of a reflection is the
identity, so the n-th power of the map is lam**n times either the identity
(n even) or the reflection itself (n odd); and the map scales every pairwise
distance by |lam| per step. The classifiers below are closed-form consequences,
and the orbit iterator reports the closed-form cardinality alongside its trace.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import lru_cache

from .core import DEFAULT_TOL, MAX_PERIOD, ORIGIN, Point2, Tolerance, _ndarray, _period, frozen
from .geometry import ReflectScale, _in_range, point_on_line, point_on_perpendicular

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from array import array

    import numpy as np


@frozen
class Finite:
    """An orbit with exactly `size` distinct points."""

    size: int


@frozen
class Infinite:
    """An orbit with infinitely many distinct points."""


class Topology(Enum):
    DISCRETE = "Discrete"
    USUAL = "Usual"


@frozen
class ConvergesTo:
    limit: Point2


@frozen
class NotConvergent:
    pass


@frozen
class DivergesToInfinity:
    pass


@frozen
class ConvergenceVerdict:
    topology: Topology
    verdict: ConvergesTo | NotConvergent | DivergesToInfinity


class StableSet(Enum):
    WHOLE_PLANE = "WholePlane"
    SINGLETON_SELF = "SingletonSelf"


@frozen
class OrbitRecord:
    """Trace of iterating a reflect-then-scale map from a start point.

    The n-th point is (xs[n], ys[n]): the start at n = 0, then each point
    the map's image of the one before. xs and ys are array('d')s, 8 bytes
    a coordinate, and the only mutable part of a record: treat them as
    read-only. points gives the same trace as Point2s, built anew on each
    read. cardinality is the closed-form classify_orbit_cardinality of the
    start and map. truncated_at is the first n whose point is not a normal
    float (its norm is below sys.float_info.min, infinite or nan), or the
    step count when every point is normal; from there on the floats no
    longer follow the exact orbit. Once the trace repeats, the rest of it
    is filled instead of stepped, as orbit describes.
    """

    start: Point2
    map: ReflectScale
    xs: array[float]
    ys: array[float]
    cardinality: Finite | Infinite
    truncated_at: int

    @property
    def points(self) -> tuple[Point2, ...]:
        """The trace as Point2s, built anew on each read."""
        return tuple(map(Point2, self.xs, self.ys))


def _scales(lam: float, *steps: int) -> list[float]:
    # lam**n for each step count n, every count checked before any power.
    if any(n < 0 for n in steps):
        raise ValueError("step counts must be nonnegative")
    return [lam ** n for n in steps]


# One entry each is enough: the verdicts of one command ask about one frozen
# start, map and tol, so each fact is decided once per command.
@lru_cache(maxsize=1)
def _scale_class(lam: float, tol: Tolerance) -> float:
    # 0, 1 or -1 where lam is close to it, tried in that order; lam otherwise.
    return next((c for c in (0.0, 1.0, -1.0) if tol.close(lam, c)), lam)


@lru_cache(maxsize=1)
def _facts(p: Point2, m: ReflectScale, tol: Tolerance) -> tuple[bool, float, bool]:
    # Whether p is the origin, lam's scale class, and whether p lies on the
    # line the map fixes (the axis for class 1, its perpendicular for -1),
    # within tol (the origin exactly): as T**2 = lam**2 I, these decide every orbit verdict.
    lam = _scale_class(m.lam, tol)
    on_line = {1.0: point_on_line, -1.0: point_on_perpendicular}.get(lam)
    return p.norm() == 0.0, lam, bool(on_line and on_line(p, m.axis, tol))


def power_T(m: ReflectScale, n: int) -> np.ndarray:
    """n-th power of the map as a matrix, in closed form.

    lam**n times the identity for even n, lam**n times the unit reflection
    for odd n.
    """
    [scale] = _scales(m.lam, n)
    if n % 2:
        return ReflectScale(scale, m.axis).matrix()
    return _ndarray(((scale, 0.0), (0.0, scale)))


def is_power_identity(lam: float, n: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the n-th power of the map with scale lam is the identity.

    Holds exactly when n is even and lam is 1 or -1 (within tol); an odd
    power is never the identity because the reflection itself is not.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n % 2 == 0 and abs(_scale_class(lam, tol)) == 1.0


def classify_orbit_cardinality(
    p: Point2, m: ReflectScale, tol: Tolerance = DEFAULT_TOL
) -> Finite | Infinite:
    """Closed-form orbit size: Finite(1), Finite(2), or Infinite.

    The origin is always a fixed point. For lam = 0 everything collapses to
    the origin after one step. For lam = 1 points on the axis are fixed and
    everything else alternates between two points. lam = -1 is itself a
    reflection across the perpendicular axis, so points on that line are
    fixed and everything else alternates. Any other nonzero scale gives
    pairwise-distinct iterates. All membership tests are within tol.
    """
    at_origin, lam, on_fixed_line = _facts(p, m, tol)
    if at_origin or on_fixed_line:
        return Finite(1)
    return Finite(2) if lam in (0.0, 1.0, -1.0) else Infinite()


# The steps between two checks of orbit's trace for a repeat.
CYCLE_CHECK = 4096


def orbit(
    p: Point2, m: ReflectScale, max_iter: int, tol: Tolerance = DEFAULT_TOL
) -> OrbitRecord:
    """Iterate the map max_iter times from p, recording every point in xs, ys.

    Each step repeats apply_T's operations on m.axis.reflection, so the points
    are bit-identical to calling it. The cardinality is the closed form of
    classify_orbit_cardinality: the n-th power of the map is lam**n times
    the identity or the reflection, so the orbit's size follows from lam and
    the start alone, however many steps are taken. truncated_at marks the
    first point that is not a normal float, past which an underflowed or
    overflowed iterate says nothing about the exact orbit.

    Every CYCLE_CHECK steps the last MAX_PERIOD + 1 points are asked for the
    smallest period p by which each equals, byte for byte, the point p steps
    before it (_period). If there is one, the float map, being deterministic,
    takes the last p points round the same cycle for ever, so the rest of xs
    and ys repeats them and is filled without stepping. truncated_at stays
    exact, because every filled point copies one that was already checked.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    from array import array

    lam, tiny, hypot, inf = m.lam, sys.float_info.min, math.hypot, math.inf
    c, s = m.axis.reflection
    x, y = p.x, p.y
    xs, ys = array("d", (x,)), array("d", (y,))
    append_x, append_y = xs.append, ys.append
    truncated_at = max_iter if tiny <= hypot(x, y) < inf else 0
    n = 0
    while n < max_iter:
        for n in range(n + 1, min(n + CYCLE_CHECK, max_iter) + 1):
            x, y = lam * (x * c + y * s), lam * (x * s - y * c)
            append_x(x)
            append_y(y)
            if n <= truncated_at and not tiny <= hypot(x, y) < inf:
                truncated_at = n
        if n < max_iter and (k := _period(xs, ys, n - MAX_PERIOD, n + 1)):
            # Points n + 1, n + 2, ... are points n + 1 - k, n + 2 - k, ... again.
            for v in (xs, ys):
                v.extend((v[-k:] * ((max_iter - n) // k + 1))[:max_iter - n])
            break
    return OrbitRecord(start=p, map=m, xs=xs, ys=ys,
                       cardinality=classify_orbit_cardinality(p, m, tol),
                       truncated_at=truncated_at)


def classify_convergence(
    p: Point2, m: ReflectScale, topology: Topology, tol: Tolerance = DEFAULT_TOL
) -> ConvergenceVerdict:
    """Convergence verdict for the iterate sequence starting at p.

    The origin, and every point when lam = 0, go to the origin; for lam = 1
    or -1 a start on the line the map fixes converges to itself, and any
    other start makes a two-cycle, which does not converge. An infinite
    orbit does not converge in the discrete topology, where only eventually
    constant sequences do; in the usual topology |lam| < 1 contracts it to
    the origin and |lam| > 1 blows it up. Comparisons are within tol.
    """
    verdict: ConvergesTo | NotConvergent | DivergesToInfinity
    at_origin, lam, on_fixed_line = _facts(p, m, tol)
    if at_origin or lam == 0.0:
        verdict = ConvergesTo(ORIGIN)
    elif on_fixed_line:
        verdict = ConvergesTo(p)
    elif abs(lam) == 1.0 or topology is Topology.DISCRETE:
        verdict = NotConvergent()
    elif abs(lam) < 1.0:
        verdict = ConvergesTo(ORIGIN)
    else:
        verdict = DivergesToInfinity()
    return ConvergenceVerdict(topology=topology, verdict=verdict)


def distance_after_n(p: Point2, q: Point2, lam: float, n: int) -> float:
    """Distance between the n-th images of p and q: |lam|**n * d(p, q).

    Exact for any reflection axis, since each step is an isometry followed
    by scaling.
    """
    [scale] = _scales(abs(lam), n)
    return scale * p.distance_to(q)


def is_forward_asymptotic(
    p: Point2, q: Point2, lam: float, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether the iterates of p and q approach each other.

    The distance after n steps is |lam|**n * d(p, q), so this holds exactly
    when p's stable_set is the whole plane or the points coincide within tol.
    """
    if stable_set(p, lam, tol) is StableSet.WHOLE_PLANE:
        return True
    p, q = _in_range(p, q)
    return tol.negligible(p.distance_to(q), max(p.norm(), q.norm()))


def stable_set(p: Point2, lam: float, tol: Tolerance = DEFAULT_TOL) -> StableSet:
    """Which points are forward asymptotic to p: the whole plane or only p.

    The whole plane exactly when lam is 0, or |lam| < 1 and lam is not 1 or
    -1, within tol; independent of p and of the reflection axis.
    """
    return StableSet.WHOLE_PLANE if abs(_scale_class(lam, tol)) < 1.0 else StableSet.SINGLETON_SELF


def cauchy_bound(p: Point2, lam: float, n: int, m: int) -> float:
    """Upper bound (|lam|**n + |lam|**m) * |p| on d(image_n, image_m).

    Comes from the triangle inequality through the origin together with the
    exact iterate norm |lam|**k * |p|.
    """
    a_n, a_m = _scales(abs(lam), n, m)
    return (a_n + a_m) * p.norm()


def distance_to_origin_after_n(p: Point2, lam: float, n: int) -> float:
    """Norm of the n-th image of p: |lam|**n * |p|, for any axis."""
    return distance_after_n(p, ORIGIN, lam, n)
