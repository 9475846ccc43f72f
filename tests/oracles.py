"""Hand-rolled reference computations the library is checked against.

Nothing here imports symdyn: each helper is a second, independent route to
the same quantity (polar reflection coordinates, explicit 2x2 products,
step-by-step iteration).
"""

import decimal
import math

TAU = 2.0 * math.pi


def ang_dist(a: float, b: float) -> float:
    """Distance between two angles mod 2*pi."""
    d = abs(a - b) % TAU
    return min(d, TAU - d)


def reflection_matrix(axis_angle: float):
    """[[cos 2t, sin 2t], [sin 2t, -cos 2t]] for an axis at angle t."""
    c = math.cos(2.0 * axis_angle)
    s = math.sin(2.0 * axis_angle)
    return [[c, s], [s, -c]]


def reflection_matrix_from_matrix_angle(theta: float):
    """[[cos t, sin t], [sin t, -cos t]] for a matrix angle t."""
    c = math.cos(theta)
    s = math.sin(theta)
    return [[c, s], [s, -c]]


def rotation_cw(alpha: float):
    """Clockwise rotation template [[cos a, sin a], [-sin a, cos a]]."""
    c = math.cos(alpha)
    s = math.sin(alpha)
    return [[c, s], [-s, c]]


def mat_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def fused_mat_mul(a, b):
    """2x2 product with each entry rounded as fma(a_i1, b_1j, a_i0 * b_0j).

    a_i0 * b_0j is rounded to a float first; the rest is exact in decimal (a
    float is a finite decimal, and such a sum is a multiple of 2**-2148 below
    2**2050, which 3000 digits hold), then rounded once by float().
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 3000
        return [[float(decimal.Decimal(a[i][1]) * decimal.Decimal(b[1][j])
                       + decimal.Decimal(a[i][0] * b[0][j])) for j in (0, 1)] for i in (0, 1)]


def mat_vec(a, v):
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def polar_reflect(x0: float, y0: float, alpha: float, theta: float):
    """Reflection coordinates via the secant/cosecant derivation.

    For a point on the line at angle alpha (both coordinates positive) and
    an axis at angle theta, the image is
    (x0 * sec(alpha) * cos(2 theta - alpha), y0 * cosec(alpha) * sin(2 theta - alpha)).
    Only valid where sec and cosec stay finite.
    """
    x1 = x0 * (1.0 / math.cos(alpha)) * math.cos(2.0 * theta - alpha)
    y1 = y0 * (1.0 / math.sin(alpha)) * math.sin(2.0 * theta - alpha)
    return x1, y1


def iterate_map(x: float, y: float, lam: float, axis_angle: float, n: int):
    """n applications of reflect-across-axis-then-scale, one step at a time."""
    m = reflection_matrix(axis_angle)
    for _ in range(n):
        rx, ry = mat_vec(m, (x, y))
        x, y = lam * rx, lam * ry
    return x, y


def dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


def distinct_points(xs, ys, eps: float) -> int:
    """Count the points of a trace, each new unless it revisits a recent one.

    A point revisits the previous point or the one before it when it lies
    within eps * max(|new|, |old|) of it; a true cycle of the map has period
    1 or 2, so no older point needs a look.
    """
    count = 0
    recent = []
    for x, y in zip(xs, ys):
        r = math.hypot(x, y)
        if not any(dist(x, y, ox, oy) <= eps * max(r, orr) for ox, oy, orr in recent):
            count += 1
        recent = [(x, y, r)] + recent[:1]
    return count
