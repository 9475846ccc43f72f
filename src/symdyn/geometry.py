"""Reflection axes, the reflect-then-scale planar map, and composition with rotations."""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .core import DEFAULT_TOL, Point2, Tolerance, frozen, mod_2pi

if TYPE_CHECKING:
    import numpy as np


class Direction(Enum):
    CLOCKWISE = "Clockwise"
    ANTICLOCKWISE = "Anticlockwise"


def mod_pi(x: float) -> float:
    """Reduce a line angle to [0, pi); a line and its opposite ray coincide."""
    r = math.fmod(x, math.pi)
    if r < 0.0:
        r += math.pi
    if r >= math.pi:
        r = 0.0
    return r


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

    def matrix(self) -> np.ndarray:
        import numpy as np

        t = 2.0 * self.axis.phi
        c, s = math.cos(t), math.sin(t)
        return self.lam * np.array([[c, s], [s, -c]])


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


def point_on_line(p: Point2, axis: AxisLine, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Scale-aware perpendicular-distance test for p lying on the axis line."""
    d = p.x * math.sin(axis.phi) - p.y * math.cos(axis.phi)
    return abs(d) <= tol.eps * (1.0 + p.norm())


def point_on_perpendicular(p: Point2, axis: AxisLine, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test for p lying on the line through the origin orthogonal to axis."""
    d = p.x * math.cos(axis.phi) + p.y * math.sin(axis.phi)
    return abs(d) <= tol.eps * (1.0 + p.norm())


def rotation_matrix(alpha: float, direction: Direction) -> np.ndarray:
    """Rotation of the plane by alpha in the given sense (determinant +1).

    The clockwise template is [[cos a, sin a], [-sin a, cos a]]; the
    anticlockwise matrix is the same template evaluated at -alpha.
    """
    import numpy as np

    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if direction is Direction.ANTICLOCKWISE:
        alpha = -alpha
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [-s, c]])


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
