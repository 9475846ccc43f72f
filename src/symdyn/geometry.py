"""Reflection axes, the reflect-then-scale planar map, and composition with rotations."""

from __future__ import annotations

import math
from enum import Enum

from .core import DEFAULT_TOL, Point2, Tolerance, _ndarray, _reduce, frozen, mod_2pi

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
    """The line through the origin at angle phi to the positive x axis."""

    phi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", mod_pi(self.phi))


@frozen
class ReflectScale:
    """Reflect across `axis`, then scale by `lam`.

    On column vectors this acts as lam * [[cos 2phi, sin 2phi], [sin 2phi, -cos 2phi]]
    where phi is the axis angle; the matrix angle is twice the axis angle.
    """

    lam: float
    axis: AxisLine

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam):
            raise ValueError("lam must be finite")
        object.__setattr__(self, "lam", float(self.lam))

    def matrix(self) -> np.ndarray:
        t, lam = 2.0 * self.axis.phi, self.lam
        c, s = math.cos(t), math.sin(t)
        return _ndarray(((lam * c, lam * s), (lam * s, lam * -c)))


def reflect_point(p: Point2, axis: AxisLine) -> Point2:
    """Mirror image of p across the axis line.

    An involution that preserves the Euclidean norm; exactly the points on
    the axis are fixed.
    """
    t = 2.0 * axis.phi
    c, s = math.cos(t), math.sin(t)
    return Point2(p.x * c + p.y * s, p.x * s - p.y * c)


def apply_T(m: ReflectScale, p: Point2) -> Point2:
    """One application of the map: reflect across m.axis, then scale by m.lam."""
    r = reflect_point(p, m.axis)
    return Point2(m.lam * r.x, m.lam * r.y)


def _in_range(*points: Point2) -> tuple[Point2, ...]:
    # The points, or each divided by 4 where a norm overflows though every
    # coordinate is finite: both its coordinates then exceed 1e300, where
    # that division is exact, and a bound eps * (1 + |p|) is finite again.
    if not math.isinf(max(p.norm() for p in points)):
        return points
    if not all(math.isfinite(c) for p in points for c in (p.x, p.y)):
        return points
    return tuple(Point2(p.x / 4.0, p.y / 4.0) for p in points)


def point_on_line(p: Point2, axis: AxisLine, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Scale-aware perpendicular-distance test for p lying on the axis line."""
    [p] = _in_range(p)
    d = p.x * math.sin(axis.phi) - p.y * math.cos(axis.phi)
    return abs(d) <= tol.eps * (1.0 + p.norm())


def point_on_perpendicular(p: Point2, axis: AxisLine, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test for p lying on the line through the origin orthogonal to axis."""
    [p] = _in_range(p)
    d = p.x * math.cos(axis.phi) + p.y * math.sin(axis.phi)
    return abs(d) <= tol.eps * (1.0 + p.norm())


def rotation_matrix(alpha: float, direction: Direction) -> np.ndarray:
    """Rotation of the plane by alpha in the given sense (determinant +1).

    The clockwise template is [[cos a, sin a], [-sin a, cos a]]; the
    anticlockwise matrix is the same template evaluated at -alpha.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if direction is Direction.ANTICLOCKWISE:
        alpha = -alpha
    c, s = math.cos(alpha), math.sin(alpha)
    return _ndarray(((c, s), (-s, c)))


def compose_rotation_reflection(alpha: float, theta_mat: float, direction: Direction) -> float:
    """Matrix angle of the single reflection equal to rotate-after-reflect.

    Rotating the reflected image clockwise by alpha is the reflection at
    matrix angle theta_mat - alpha; anticlockwise gives theta_mat + alpha.
    The returned angle is reduced mod 2*pi. theta_mat is the matrix angle
    (twice the axis angle); callers working with axis angles convert once
    at the boundary.
    """
    if not (math.isfinite(alpha) and math.isfinite(theta_mat)):
        raise ValueError("angles must be finite")
    if direction is Direction.CLOCKWISE:
        return mod_2pi(theta_mat - alpha)
    return mod_2pi(theta_mat + alpha)
