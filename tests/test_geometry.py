import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from symdyn import core, geometry
from symdyn.core import Point2
from symdyn.geometry import AxisLine, Direction, ReflectScale

TAU = 2.0 * math.pi

angles = st.floats(min_value=0.0, max_value=TAU, exclude_max=True, allow_nan=False)
axis_angles = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
lams = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


# --- reflect_point ----------------------------------------------------------


def test_reflect_across_x_axis():
    q = geometry.reflect_point(Point2(3.0, 7.0), AxisLine(0.0))
    assert q == Point2(3.0, -7.0)


def test_point_on_axis_is_fixed():
    q = geometry.reflect_point(Point2(1.0, 1.0), AxisLine(math.pi / 4.0))
    assert abs(q.x - 1.0) <= 1e-12 and abs(q.y - 1.0) <= 1e-12


def test_reflect_matches_polar_oracle_sample():
    # the point (sqrt 3, 1) sits on the line at angle pi/6
    x1, y1 = oracles.polar_reflect(math.sqrt(3.0), 1.0, math.pi / 6.0, math.pi / 4.0)
    q = geometry.reflect_point(Point2(math.sqrt(3.0), 1.0), AxisLine(math.pi / 4.0))
    assert abs(q.x - x1) <= 1e-12 and abs(q.y - y1) <= 1e-12
    assert abs(q.x - 1.0) <= 1e-12 and abs(q.y - math.sqrt(3.0)) <= 1e-12


@given(coords, coords, axis_angles)
def test_reflection_is_an_involution(x, y, phi):
    p = Point2(x, y)
    axis = AxisLine(phi)
    back = geometry.reflect_point(geometry.reflect_point(p, axis), axis)
    assert back.distance_to(p) <= 1e-9 * (1.0 + p.norm())


@given(coords, coords, axis_angles)
def test_reflection_preserves_norm(x, y, phi):
    p = Point2(x, y)
    q = geometry.reflect_point(p, AxisLine(phi))
    assert abs(q.norm() - p.norm()) <= 1e-9 * (1.0 + p.norm())


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), axis_angles)
def test_points_on_axis_are_fixed(t, phi):
    p = Point2(t * math.cos(phi), t * math.sin(phi))
    q = geometry.reflect_point(p, AxisLine(phi))
    assert q.distance_to(p) <= 1e-9 * (1.0 + p.norm())
    assert geometry.point_on_line(p, AxisLine(phi))


@given(st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
       st.floats(min_value=0.01, max_value=math.pi - 0.01, allow_nan=False),
       axis_angles)
def test_points_off_axis_move(r, offset, phi):
    # a point at angle phi + offset (offset away from 0 and pi) is off the line
    p = Point2(r * math.cos(phi + offset), r * math.sin(phi + offset))
    axis = AxisLine(phi)
    assert not geometry.point_on_line(p, axis)
    q = geometry.reflect_point(p, axis)
    assert q.distance_to(p) > 1e-9 * (1.0 + p.norm())


@given(
    st.floats(min_value=0.01, max_value=math.pi / 2.0 - 0.02, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_matrix_route_agrees_with_polar_route(alpha, frac, x0):
    # wedge 0 < alpha <= theta <= 2 theta - alpha < pi/2, point on the line
    # at angle alpha with both coordinates positive
    theta = alpha + frac * ((math.pi / 2.0 + alpha) / 2.0 - 0.005 - alpha)
    y0 = x0 * math.tan(alpha)
    x1, y1 = oracles.polar_reflect(x0, y0, alpha, theta)
    q = geometry.reflect_point(Point2(x0, y0), AxisLine(theta))
    assert abs(q.x - x1) <= 1e-9
    assert abs(q.y - y1) <= 1e-9


# --- apply_T ----------------------------------------------------------------


def test_zero_scale_sends_everything_to_origin():
    m = ReflectScale(0.0, AxisLine(1.234))
    assert geometry.apply_T(m, Point2(5.0, -2.0)) == Point2(0.0, 0.0)


def test_unit_scale_fixes_axis_point():
    m = ReflectScale(1.0, AxisLine(math.pi / 4.0))
    q = geometry.apply_T(m, Point2(1.0, 1.0))
    assert abs(q.x - 1.0) <= 1e-12 and abs(q.y - 1.0) <= 1e-12


def test_scale_two_across_x_axis():
    m = ReflectScale(2.0, AxisLine(0.0))
    q = geometry.apply_T(m, Point2(3.0, 7.0))
    assert abs(q.x - 6.0) <= 1e-12 and abs(q.y + 14.0) <= 1e-12


@given(coords, coords, lams, axis_angles)
def test_apply_scales_norm(x, y, lam, phi):
    p = Point2(x, y)
    q = geometry.apply_T(ReflectScale(lam, AxisLine(phi)), p)
    assert abs(q.norm() - abs(lam) * p.norm()) <= 1e-9 * (1.0 + abs(lam) * p.norm())


@given(lams, axis_angles)
def test_map_matrix_matches_core_parametrization(lam, phi):
    m = ReflectScale(lam, AxisLine(phi))
    expected = core.matrix_from_params(lam, 2.0 * phi)
    assert np.allclose(m.matrix(), expected, atol=1e-12 * (1.0 + abs(lam)), rtol=0.0)


# --- rotation_matrix --------------------------------------------------------


def test_rotation_zero_is_identity():
    assert np.array_equal(geometry.rotation_matrix(0.0, Direction.CLOCKWISE), np.eye(2))


def test_quarter_turn_clockwise():
    v = oracles.mat_vec(geometry.rotation_matrix(math.pi / 2.0, Direction.CLOCKWISE).tolist(), (1.0, 0.0))
    assert abs(v[0]) <= 1e-12 and abs(v[1] + 1.0) <= 1e-12


def test_quarter_turn_anticlockwise():
    v = oracles.mat_vec(geometry.rotation_matrix(math.pi / 2.0, Direction.ANTICLOCKWISE).tolist(), (1.0, 0.0))
    assert abs(v[0]) <= 1e-12 and abs(v[1] - 1.0) <= 1e-12


@given(angles, st.sampled_from(list(Direction)))
def test_rotation_has_det_one(alpha, direction):
    m = geometry.rotation_matrix(alpha, direction)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det - 1.0) <= 1e-12


# --- compose_rotation_reflection ---------------------------------------------


def test_identity_rotation_composes_trivially():
    for direction in Direction:
        assert geometry.compose_rotation_reflection(0.0, 1.2, direction) == 1.2


def test_equal_angles_clockwise_gives_zero():
    g = geometry.compose_rotation_reflection(math.pi / 2.0, math.pi / 2.0, Direction.CLOCKWISE)
    assert g == 0.0
    assert np.array_equal(core.matrix_from_params(1.0, g), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_anticlockwise_example_against_product_oracle():
    alpha, theta = math.pi / 3.0, math.pi / 2.0
    g = geometry.compose_rotation_reflection(alpha, theta, Direction.ANTICLOCKWISE)
    assert abs(g - 5.0 * math.pi / 6.0) <= 1e-12
    prod = oracles.mat_mul(oracles.rotation_cw(-alpha), oracles.reflection_matrix_from_matrix_angle(theta))
    expected = oracles.reflection_matrix_from_matrix_angle(g)
    for i in range(2):
        for j in range(2):
            assert abs(prod[i][j] - expected[i][j]) <= 1e-12


@given(angles, angles)
def test_composition_law_clockwise(alpha, theta):
    g = geometry.compose_rotation_reflection(alpha, theta, Direction.CLOCKWISE)
    lhs = geometry.rotation_matrix(alpha, Direction.CLOCKWISE) @ core.matrix_from_params(1.0, theta)
    assert np.allclose(lhs, core.matrix_from_params(1.0, g), atol=1e-12, rtol=0.0)


@given(angles, angles)
def test_composition_law_anticlockwise(alpha, theta):
    g = geometry.compose_rotation_reflection(alpha, theta, Direction.ANTICLOCKWISE)
    lhs = geometry.rotation_matrix(alpha, Direction.ANTICLOCKWISE) @ core.matrix_from_params(1.0, theta)
    assert np.allclose(lhs, core.matrix_from_params(1.0, g), atol=1e-12, rtol=0.0)


# --- AxisLine ----------------------------------------------------------------


def test_axis_reduces_mod_pi():
    assert AxisLine(math.pi).phi == 0.0
    assert abs(AxisLine(3.0 * math.pi / 2.0).phi - math.pi / 2.0) <= 1e-15
    assert AxisLine(-0.5).phi == pytest.approx(math.pi - 0.5)
    # fmod keeps -1e-17, and adding pi rounds up to pi itself
    assert geometry.mod_pi(-1e-17) == AxisLine(-1e-17).phi == 0.0


def test_axis_and_opposite_axis_reflect_alike():
    p = Point2(2.0, -1.0)
    a = geometry.reflect_point(p, AxisLine(0.7))
    b = geometry.reflect_point(p, AxisLine(0.7 + math.pi))
    assert a.distance_to(b) <= 1e-12


def test_axis_rejects_nonfinite():
    with pytest.raises(ValueError):
        AxisLine(math.inf)


@pytest.mark.parametrize("call", [
    lambda: geometry.rotation_matrix(math.inf, Direction.CLOCKWISE),
    lambda: geometry.compose_rotation_reflection(math.nan, 0.0, Direction.CLOCKWISE),
], ids=["rotation_matrix", "compose_rotation_reflection"])
def test_rotations_reject_nonfinite_angles(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_reflect_scale_rejects_nonfinite_scale(lam):
    with pytest.raises(ValueError):
        ReflectScale(lam, AxisLine(0.3))
