"""Reflection axes, the reflect-then-scale planar map, and composition with rotations."""

from __future__ import annotations

import math
from enum import Enum

from .core import (DEFAULT_TOL, TAU, Point2, Tolerance, _ndarray, _reduce, _rescale_exponent,
                   _turns, frozen, mod_2pi)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np


class Direction(Enum):
    CLOCKWISE = "Clockwise"
    ANTICLOCKWISE = "Anticlockwise"


def mod_pi(x: float) -> float:
    """Reduce a line angle to [0, pi); a line and its opposite ray coincide."""
    return _reduce(x, math.pi)


@frozen
class AxisLine:
    """The line through the origin at angle phi to the positive x axis.

    phi is reduced to [0, pi). Two attributes are computed once from it:
    direction = (cos phi, sin phi), the unit vector along the line, and
    reflection = (cos 2phi, sin 2phi), the first row of the reflection across
    the line, [[c, s], [s, -c]]. They are not fields: ==, hash and repr see phi.
    """

    phi: float

    def __post_init__(self) -> None:
        phi = _reduce(self.phi, math.pi)  # mod_pi, one call less per axis
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "direction", (math.cos(phi), math.sin(phi)))
        object.__setattr__(self, "reflection", (math.cos(2.0 * phi), math.sin(2.0 * phi)))


@frozen
class ReflectScale:
    """Reflect across `axis`, then scale by `lam`.

    On column vectors this acts as lam * [[cos 2phi, sin 2phi], [sin 2phi, -cos 2phi]]
    where phi is the axis angle; the matrix angle is twice the axis angle.
    """

    lam: float
    axis: AxisLine

    def matrix(self) -> np.ndarray:
        (c, s), lam = self.axis.reflection, self.lam
        return _ndarray(((lam * c, lam * s), (lam * s, lam * -c)))


def reflect_point(p: Point2, axis: AxisLine) -> Point2:
    """Mirror image of p across the axis line.

    An involution that preserves the Euclidean norm; exactly the points on
    the axis are fixed.
    """
    c, s = axis.reflection
    return Point2(p.x * c + p.y * s, p.x * s - p.y * c)


def apply_T(m: ReflectScale, p: Point2) -> Point2:
    """One application of the map: reflect across m.axis, then scale by m.lam."""
    r = reflect_point(p, m.axis)
    return Point2(m.lam * r.x, m.lam * r.y)


def _in_range(*points: Point2) -> tuple[Point2, ...]:
    # The points times 2**-k, k = core._rescale_exponent of their coordinates:
    # where they would overflow or underflow a norm or product, in coordinates
    # where neither does, as in frobenius.scaled; k = 0 keeps them bit for bit.
    k = _rescale_exponent([c for p in points for c in (p.x, p.y)])
    return tuple(Point2(math.ldexp(p.x, -k), math.ldexp(p.y, -k)) for p in points)


def point_on_line(p: Point2, axis: AxisLine, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Scale-aware perpendicular-distance test for p lying on the axis line."""
    [p], (c, s) = _in_range(p), axis.direction
    return tol.negligible(p.x * s - p.y * c, p.norm())


def point_on_perpendicular(p: Point2, axis: AxisLine, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test for p lying on the line through the origin orthogonal to axis."""
    [p], (c, s) = _in_range(p), axis.direction
    return tol.negligible(p.x * c + p.y * s, p.norm())


def _clockwise(alpha: float, direction: Direction) -> float:
    # The clockwise angle of a rotation: anticlockwise by alpha is clockwise by -alpha.
    return alpha if direction is Direction.CLOCKWISE else -alpha


def rotation_matrix(alpha: float, direction: Direction) -> np.ndarray:
    """Rotation of the plane by alpha in the given sense (determinant +1).

    The clockwise template is [[cos a, sin a], [-sin a, cos a]]; the
    anticlockwise matrix is the same template evaluated at -alpha.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    alpha = _clockwise(alpha, direction)
    c, s = math.cos(alpha), math.sin(alpha)
    return _ndarray(((c, s), (-s, c)))


def compose_rotation_reflection(alpha: float, theta_mat: float, direction: Direction) -> float:
    """Matrix angle of the single reflection equal to rotate-after-reflect.

    Rotating the reflected image clockwise by alpha is the reflection at
    matrix angle theta_mat - alpha; anticlockwise gives theta_mat + alpha.
    Each angle sheds its whole periods first (core._turns), so the result,
    reduced mod 2*pi, is within 2 ulps of 2*pi of the exact residue for every
    finite pair. theta_mat is the matrix angle (twice the axis angle).
    """
    if not (math.isfinite(alpha) and math.isfinite(theta_mat)):
        raise ValueError("angles must be finite")
    return mod_2pi(_turns(theta_mat, TAU) - _clockwise(_turns(alpha, TAU), direction))
