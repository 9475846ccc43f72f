import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from symdyn import dynamics
from symdyn.core import DEFAULT_TOL, Point2
from symdyn.dynamics import (
    ConvergesTo,
    DivergesToInfinity,
    Finite,
    Infinite,
    NotConvergent,
    StableSet,
    Topology,
)
from symdyn.geometry import AxisLine, ReflectScale, apply_T

axis_angles = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True, allow_nan=False)
coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
lams = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)

# scales kept 0.05 away from the classification boundaries at 0, 1, -1
generic_lams = st.one_of(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1.05, max_value=2.0),
    st.floats(min_value=-0.95, max_value=-0.05),
    st.floats(min_value=-2.0, max_value=-1.05),
)


def _mk(lam, phi):
    return ReflectScale(lam, AxisLine(phi))


# --- power_T ------------------------------------------------------------------


def test_square_of_unit_reflection_is_identity():
    assert np.allclose(dynamics.power_T(_mk(1.0, 0.9), 2), np.eye(2), atol=1e-15)


def test_square_of_scale_two():
    m = _mk(2.0, 0.37)
    direct = oracles.mat_mul(m.matrix().tolist(), m.matrix().tolist())
    assert np.allclose(dynamics.power_T(m, 2), direct, atol=1e-12)
    assert np.allclose(dynamics.power_T(m, 2), 4.0 * np.eye(2), atol=1e-12)


def test_cube_of_scale_three_axis_zero():
    m = _mk(3.0, 0.0)
    mat = m.matrix().tolist()
    direct = oracles.mat_mul(oracles.mat_mul(mat, mat), mat)
    assert np.allclose(dynamics.power_T(m, 3), direct, atol=1e-12)
    assert np.allclose(dynamics.power_T(m, 3), 27.0 * np.array([[1.0, 0.0], [0.0, -1.0]]), atol=1e-12)


def test_power_zero_is_identity_even_for_zero_scale():
    assert np.array_equal(dynamics.power_T(_mk(0.0, 1.0), 0), np.eye(2))


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        dynamics.power_T(_mk(1.0, 0.0), -1)


@pytest.mark.parametrize("call", [
    lambda: dynamics.distance_after_n(Point2(1.0, 2.0), Point2(3.0, 4.0), 0.5, -1),
    lambda: dynamics.distance_to_origin_after_n(Point2(1.0, 2.0), 0.5, -1),
    lambda: dynamics.cauchy_bound(Point2(1.0, 2.0), 0.5, 0, -1),
    # every count is checked before any power, so 2**2000's overflow comes second
    lambda: dynamics.cauchy_bound(Point2(1.0, 2.0), 2.0, 2000, -1),
], ids=["distance_after_n", "distance_to_origin_after_n", "cauchy_bound",
        "cauchy_bound-overflowing-n"])
def test_negative_step_counts_are_rejected(call):
    with pytest.raises(ValueError, match="step counts must be nonnegative"):
        call()


@settings(max_examples=150)
@given(lams, axis_angles, coords, coords, st.integers(min_value=0, max_value=20))
@example(3.0, 1.0, 0.0, 2.0, 20)
def test_power_matches_iteration(lam, phi, x, y, n):
    # The rounding error of either side scales with the terms it sums, and
    # they are about |lam|**n |p| (the exact iterate norm), not with one
    # coordinate: the example's x cancels to 0 against terms near 7e9.
    fx, fy = oracles.iterate_map(x, y, lam, phi, n)
    px, py = oracles.mat_vec(dynamics.power_T(_mk(lam, phi), n).tolist(), (x, y))
    bound = 1e-12 * (1.0 + abs(lam) ** n * math.hypot(x, y))
    assert abs(px - fx) <= bound
    assert abs(py - fy) <= bound


# --- is_power_identity ----------------------------------------------------------


def test_power_identity_examples():
    assert dynamics.is_power_identity(1.0, 4)
    assert not dynamics.is_power_identity(-1.0, 3)
    assert not dynamics.is_power_identity(0.5, 2)
    assert dynamics.is_power_identity(-1.0, 2)
    with pytest.raises(ValueError):
        dynamics.is_power_identity(1.0, 0)


def test_power_identity_matches_closed_form_matrix():
    for n in range(1, 9):
        for lam in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            m = _mk(lam, 0.61)
            matches = bool(np.max(np.abs(dynamics.power_T(m, n) - np.eye(2))) <= 1e-12)
            assert dynamics.is_power_identity(lam, n) == matches


# --- classify_orbit_cardinality ---------------------------------------------


def test_fixed_point_on_axis():
    assert dynamics.classify_orbit_cardinality(Point2(1.0, 1.0), _mk(1.0, math.pi / 4.0)) == Finite(1)


def test_generic_scale_is_infinite():
    assert dynamics.classify_orbit_cardinality(Point2(1.0, 0.0), _mk(2.0, 0.8)) == Infinite()


def test_minus_one_two_point_orbit():
    # enumerate (lam R)^n (1, 0) for n = 0..4 by direct iteration
    seen = set()
    for n in range(5):
        x, y = oracles.iterate_map(1.0, 0.0, -1.0, 0.0, n)
        seen.add((round(x, 12), round(y, 12)))
    assert seen == {(1.0, 0.0), (-1.0, 0.0)}
    assert dynamics.classify_orbit_cardinality(Point2(1.0, 0.0), _mk(-1.0, 0.0)) == Finite(2)


def test_origin_is_always_a_singleton():
    assert dynamics.classify_orbit_cardinality(Point2(0.0, 0.0), _mk(7.3, 1.0)) == Finite(1)


def test_zero_scale_two_point_orbit():
    assert dynamics.classify_orbit_cardinality(Point2(2.0, 3.0), _mk(0.0, 1.0)) == Finite(2)


def test_minus_one_fixes_perpendicular_line():
    # -R is the reflection across the perpendicular axis, so (0, 1) is fixed
    m = _mk(-1.0, 0.0)
    q = apply_T(m, Point2(0.0, 1.0))
    assert q.distance_to(Point2(0.0, 1.0)) <= 1e-15
    assert dynamics.classify_orbit_cardinality(Point2(0.0, 1.0), m) == Finite(1)


def test_one_off_axis_two_point_orbit():
    assert dynamics.classify_orbit_cardinality(Point2(1.0, 0.0), _mk(1.0, math.pi / 4.0)) == Finite(2)


# --- orbit ---------------------------------------------------------------------


def test_orbit_period_two_across_diagonal():
    rec = dynamics.orbit(Point2(1.0, 0.0), _mk(1.0, math.pi / 4.0), 10)
    assert rec.cardinality == Finite(2)
    assert len(rec.points) == 11
    for i, p in enumerate(rec.points):
        expected = Point2(1.0, 0.0) if i % 2 == 0 else Point2(0.0, 1.0)
        assert p.distance_to(expected) <= 1e-12


def test_orbit_constant_at_origin():
    rec = dynamics.orbit(Point2(0.0, 0.0), _mk(5.0, 0.3), 5)
    assert rec.cardinality == Finite(1)
    assert all(p == Point2(0.0, 0.0) for p in rec.points)


def test_orbit_contracting_has_no_false_revisit():
    rec = dynamics.orbit(Point2(1.0, 0.0), _mk(0.5, 0.0), 64)
    assert rec.cardinality == Infinite()
    assert len(rec.points) == 65
    # halving along the x axis is exact, so every point is a distinct power of two
    for i, p in enumerate(rec.points):
        assert p.x == 0.5 ** i
        assert p.y == 0.0


def _bits(p):
    # nan != nan, so points are compared by their bytes
    return struct.pack("<2d", p.x, p.y)


@pytest.mark.parametrize("start,lam,phi,max_iter,truncated_at", [
    (Point2(2.0, -1.0), -1.3, 0.77, 12, 12),
    (Point2(1.0, 0.0), 2.0, 0.3, 1100, 1024),  # overflows to inf, then nan
    (Point2(1.0, 0.0), 1e200, 0.3, 5, 2),
    (Point2(1.0, 0.0), 0.5, 0.3, 1100, 1023),  # underflows to 0
    (Point2(1e-310, 0.0), 1e10, 0.3, 5, 0),  # subnormal start
    (Point2(1.0, 0.0), 1.0, math.pi / 4.0, 10, 10),  # alternates from step 1
], ids=["generic", "overflow", "huge-scale", "underflow", "subnormal-start", "period-two"])
def test_orbit_consecutive_points_follow_the_map(start, lam, phi, max_iter, truncated_at):
    # orbit() repeats apply_T's operations inline; every point must be the
    # one apply_T gives, bit for bit, before and after truncated_at
    m = _mk(lam, phi)
    rec = dynamics.orbit(start, m, max_iter)
    assert rec.points[0] == rec.start
    assert len(rec.xs) == len(rec.ys) == max_iter + 1
    for a, b in zip(rec.points, rec.points[1:]):
        assert _bits(b) == _bits(apply_T(m, a))
    assert rec.truncated_at == truncated_at


def test_orbit_rejects_zero_iterations():
    with pytest.raises(ValueError):
        dynamics.orbit(Point2(1.0, 0.0), _mk(1.0, 0.0), 0)


def _empirical_size(rec):
    # the oracle's count of the trace, in the closed form's terms: an orbit
    # with no revisit in its trace has as many points as the trace
    count = oracles.distinct_points(rec.xs, rec.ys, DEFAULT_TOL.eps)
    return Infinite() if count == len(rec.xs) else Finite(count)


def test_long_traces_count_as_the_closed_form():
    # a period-2 orbit revisits its two points for 2000 steps, and a generic
    # one keeps every point distinct for as long
    rec = dynamics.orbit(Point2(1.0, 0.0), _mk(1.0, math.pi / 4.0), 2000)
    assert rec.cardinality == Finite(2)
    assert _empirical_size(rec) == Finite(2)
    rec = dynamics.orbit(Point2(1.0, 0.3), _mk(-1.2, 0.7), 2000)
    assert rec.cardinality == Infinite()
    assert _empirical_size(rec) == Infinite()
    assert len(rec.points) == 2001


@pytest.mark.parametrize("lam,max_iter,truncated_at", [
    (0.5, 1100, 1023),
    (2.0, 1100, 1024),
    (0.9, 5000, 5000),
    (1e200, 5, 2),
])
def test_orbit_leaving_the_normal_floats_fakes_no_revisit(lam, max_iter, truncated_at):
    # squared distances underflow below |p| ~ 1e-154 and overflow above
    # ~ 1e154, and iterates past 2**-1022 or 2**1024 are no longer normal
    # floats; none of these may pass for a cycle
    rec = dynamics.orbit(Point2(1.0, 0.0), _mk(lam, 0.3), max_iter)
    assert rec.cardinality == Infinite()
    assert rec.truncated_at == truncated_at
    assert len(rec.points) == max_iter + 1


def test_orbit_truncates_at_a_start_that_is_not_normal():
    rec = dynamics.orbit(Point2(1e-310, 0.0), _mk(1e10, 0.3), 5)
    assert rec.cardinality == Finite(1)
    assert rec.truncated_at == 0


def test_orbit_cardinality_is_the_closed_form():
    # 1e-11 off the axis is on it within tol, so the closed form says
    # Finite(1), however many steps the trace takes, even though each
    # reflection moves the point by 2e-11 = 2e-8 * |p|
    p = Point2(1e-3, 1e-11)
    m = _mk(1.0, 0.0)
    assert dynamics.classify_orbit_cardinality(p, m) == Finite(1)
    for max_iter in (2, 4, 10):
        assert dynamics.orbit(p, m, max_iter).cardinality == Finite(1)


# scales on and within a few 1e-10 of the classification boundaries
near_band_lams = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0]),
    st.builds(lambda c, k: c + k * 1e-10, st.sampled_from([1.0, -1.0]),
              st.integers(min_value=-20, max_value=20)),
)


@settings(max_examples=200)
@given(near_band_lams, axis_angles, st.floats(min_value=1e-6, max_value=1e3),
       st.sampled_from([0.0, math.pi / 2.0]), st.floats(min_value=-4.0, max_value=4.0),
       st.integers(min_value=1, max_value=64))
def test_orbit_cardinality_matches_the_classifier_near_the_fixed_lines(
        lam, phi, r, turn, k, max_iter):
    # starts at radius r on the axis (turn 0) or its perpendicular (turn
    # pi/2), moved off it by k * eps * r: both sides of the tolerance band
    a = phi + turn
    off = k * DEFAULT_TOL.eps * r
    p = Point2(r * math.cos(a) - off * math.sin(a), r * math.sin(a) + off * math.cos(a))
    m = _mk(lam, phi)
    assert dynamics.orbit(p, m, max_iter).cardinality == dynamics.classify_orbit_cardinality(p, m)


@settings(max_examples=100)
@given(st.sampled_from([0.0, 1.0, -1.0]), axis_angles, coords, coords)
def test_empirical_count_matches_closed_form_on_finite_scales(lam, phi, x, y):
    p = Point2(x, y)
    assume(p.norm() >= 0.1)
    # stay clear of the classifier's tolerance bands around the axis lines
    axis = AxisLine(phi)
    perp = abs(p.x * math.sin(phi) - p.y * math.cos(phi))
    para = abs(p.x * math.cos(phi) + p.y * math.sin(phi))
    assume(perp >= 1e-6 * (1.0 + p.norm()))
    assume(para >= 1e-6 * (1.0 + p.norm()))
    m = ReflectScale(lam, axis)
    analytic = dynamics.classify_orbit_cardinality(p, m)
    rec = dynamics.orbit(p, m, 12)
    assert _empirical_size(rec) == analytic


def test_empirical_count_matches_closed_form_on_fixed_lines():
    # exactly-on-axis and exactly-perpendicular starts, both unit scales
    for phi in (0.0, 0.3, math.pi / 4.0, 2.0):
        u = Point2(3.0 * math.cos(phi), 3.0 * math.sin(phi))
        v = Point2(-3.0 * math.sin(phi), 3.0 * math.cos(phi))
        for lam, p, expected in [
            (1.0, u, Finite(1)),
            (1.0, v, Finite(2)),
            (-1.0, u, Finite(2)),
            (-1.0, v, Finite(1)),
        ]:
            m = _mk(lam, phi)
            assert dynamics.classify_orbit_cardinality(p, m) == expected
            assert _empirical_size(dynamics.orbit(p, m, 12)) == expected


@settings(max_examples=100)
@given(generic_lams, axis_angles, coords, coords)
def test_no_revisit_for_generic_scales(lam, phi, x, y):
    p = Point2(x, y)
    if p.norm() < 0.1:
        p = Point2(x + 1.0, y)
    m = _mk(lam, phi)
    rec = dynamics.orbit(p, m, 50)
    assert rec.cardinality == Infinite()
    assert len({(q.x, q.y) for q in rec.points}) == 51


# --- classify_convergence --------------------------------------------------------


def _verdict(p, m, topology):
    return dynamics.classify_convergence(p, m, topology).verdict


def test_contraction_converges_in_usual_topology():
    v = _verdict(Point2(3.0, 4.0), _mk(0.9, 1.1), Topology.USUAL)
    assert v == ConvergesTo(Point2(0.0, 0.0))


def test_contraction_not_convergent_in_discrete_topology():
    assert _verdict(Point2(3.0, 4.0), _mk(0.9, 1.1), Topology.DISCRETE) == NotConvergent()


def test_fixed_point_converges_discretely():
    v = _verdict(Point2(2.0, 2.0), _mk(1.0, math.pi / 4.0), Topology.DISCRETE)
    assert v == ConvergesTo(Point2(2.0, 2.0))


def test_expansion_diverges():
    assert _verdict(Point2(1.0, 0.0), _mk(-3.0, 0.0), Topology.USUAL) == DivergesToInfinity()


def test_expansion_discrete_not_convergent():
    assert _verdict(Point2(1.0, 0.0), _mk(-3.0, 0.0), Topology.DISCRETE) == NotConvergent()


def test_origin_converges_for_any_scale():
    for topo in Topology:
        assert _verdict(Point2(0.0, 0.0), _mk(-2.0, 0.4), topo) == ConvergesTo(Point2(0.0, 0.0))


def test_zero_scale_converges_to_origin_discretely():
    assert _verdict(Point2(5.0, 1.0), _mk(0.0, 0.4), Topology.DISCRETE) == ConvergesTo(Point2(0.0, 0.0))


def test_unit_scale_off_axis_oscillates():
    for topo in Topology:
        assert _verdict(Point2(1.0, 0.0), _mk(1.0, math.pi / 4.0), topo) == NotConvergent()


def test_minus_one_perpendicular_point_is_constant():
    p = Point2(0.0, 2.0)
    for topo in Topology:
        assert _verdict(p, _mk(-1.0, 0.0), topo) == ConvergesTo(p)


def test_minus_one_generic_point_oscillates():
    for topo in Topology:
        assert _verdict(Point2(1.0, 2.0), _mk(-1.0, 0.0), topo) == NotConvergent()


@settings(max_examples=60)
@given(
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    st.sampled_from([1.0, -1.0]),
    axis_angles,
    coords,
    coords,
)
def test_usual_converges_to_is_confirmed_by_iteration(mag, sign, phi, x, y):
    lam = mag * sign
    p = Point2(x, y)
    m = _mk(lam, phi)
    v = _verdict(p, m, Topology.USUAL)
    assert v == ConvergesTo(Point2(0.0, 0.0))
    # iterate until the exact decay guarantees the 1e-6 ball, then stay there
    horizon = 1
    if p.norm() > 0.0:
        horizon = max(1, math.ceil(math.log(1e-7 / (p.norm() + 1.0)) / math.log(mag)))
    cx, cy = p.x, p.y
    cx, cy = oracles.iterate_map(cx, cy, lam, phi, horizon)
    for _ in range(50):
        cx, cy = oracles.iterate_map(cx, cy, lam, phi, 1)
        assert math.hypot(cx, cy) < 1e-6


@settings(max_examples=60)
@given(axis_angles, coords, coords, st.sampled_from([0.0, 1.0, -1.0]))
def test_discrete_converges_to_means_eventually_constant(phi, x, y, lam):
    p = Point2(x, y)
    m = _mk(lam, phi)
    verdict = _verdict(p, m, Topology.DISCRETE)
    if not isinstance(verdict, ConvergesTo):
        return
    limit = verdict.limit
    cx, cy = p.x, p.y
    for _ in range(6):
        cx, cy = oracles.iterate_map(cx, cy, lam, phi, 1)
        # a start inside the on-axis tolerance band oscillates with diameter
        # up to twice its perpendicular offset, so the constancy window is
        # twice the membership window
        assert oracles.dist(cx, cy, limit.x, limit.y) <= 2e-9 * (1.0 + limit.norm() + p.norm())


# --- distance and norm identities ------------------------------------------------


def test_distance_after_zero_steps():
    p, q = Point2(1.0, 2.0), Point2(4.0, 6.0)
    assert dynamics.distance_after_n(p, q, 3.7, 0) == 5.0


def test_distance_of_equal_points_is_zero():
    p = Point2(1.5, -2.5)
    assert dynamics.distance_after_n(p, p, 9.0, 7) == 0.0


def test_distance_after_three_halvings():
    d = dynamics.distance_after_n(Point2(0.0, 0.0), Point2(3.0, 4.0), 0.5, 3)
    assert abs(d - 5.0 / 8.0) <= 1e-15


@settings(max_examples=150)
@given(coords, coords, coords, coords, lams, axis_angles, st.integers(min_value=0, max_value=30))
def test_distance_identity_matches_iteration(px, py, qx, qy, lam, phi, n):
    ax, ay = oracles.iterate_map(px, py, lam, phi, n)
    bx, by = oracles.iterate_map(qx, qy, lam, phi, n)
    iterated = oracles.dist(ax, ay, bx, by)
    closed = dynamics.distance_after_n(Point2(px, py), Point2(qx, qy), lam, n)
    assert abs(iterated - closed) <= 1e-9 * (1.0 + closed)


def test_cauchy_bound_examples():
    assert dynamics.cauchy_bound(Point2(0.0, 0.0), 3.0, 5, 9) == 0.0
    assert abs(dynamics.cauchy_bound(Point2(3.0, 4.0), 0.5, 1, 2) - 3.75) <= 1e-15
    assert dynamics.cauchy_bound(Point2(1.0, 0.0), 1.0, 0, 1) == 2.0


@settings(max_examples=150)
@given(coords, coords, lams, axis_angles,
       st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_cauchy_bound_dominates_iterated_distance(x, y, lam, phi, n, m):
    ax, ay = oracles.iterate_map(x, y, lam, phi, n)
    bx, by = oracles.iterate_map(x, y, lam, phi, m)
    p = Point2(x, y)
    bound = dynamics.cauchy_bound(p, lam, n, m)
    # the bound is attained exactly for on-axis starts with mixed parity and
    # negative scale, so the slack must cover the rounding of the large powers
    assert oracles.dist(ax, ay, bx, by) <= bound * (1.0 + 1e-12) + 1e-12


@settings(max_examples=150)
@given(coords, coords, lams, axis_angles, st.integers(min_value=0, max_value=30))
def test_norm_identity(x, y, lam, phi, n):
    fx, fy = oracles.iterate_map(x, y, lam, phi, n)
    closed = dynamics.distance_to_origin_after_n(Point2(x, y), lam, n)
    assert abs(math.hypot(fx, fy) - closed) <= 1e-9 * (1.0 + closed)


def test_norm_identity_examples():
    p = Point2(3.0, 4.0)
    assert dynamics.distance_to_origin_after_n(p, 0.5, 0) == 5.0
    assert abs(dynamics.distance_to_origin_after_n(p, 0.5, 2) - 1.25) <= 1e-15
    assert dynamics.distance_to_origin_after_n(Point2(0.0, 0.0), 42.0, 17) == 0.0


# --- forward asymptotics and stable sets -------------------------------------------


def test_equal_points_always_asymptotic():
    p = Point2(2.0, 3.0)
    assert dynamics.is_forward_asymptotic(p, p, 5.0)
    huge = Point2(1.5e308, 1.5e308)  # its norm overflows
    assert dynamics.is_forward_asymptotic(huge, huge, 1.0)


def test_contraction_makes_everything_asymptotic():
    assert dynamics.is_forward_asymptotic(Point2(1.0, 2.0), Point2(3.0, 4.0), 0.99)


def test_unit_scale_keeps_distinct_points_apart():
    assert not dynamics.is_forward_asymptotic(Point2(1.0, 2.0), Point2(3.0, 4.0), 1.0)
    # The distance and the bound eps * (1 + |p|) both overflow to inf here.
    assert not dynamics.is_forward_asymptotic(Point2(1.5e308, 1.5e308),
                                              Point2(-1.5e308, 1e308), 1.0)


def test_stable_set_dichotomy_examples():
    assert dynamics.stable_set(Point2(9.0, -2.0), 0.3) is StableSet.WHOLE_PLANE
    assert dynamics.stable_set(Point2(9.0, -2.0), 1.0) is StableSet.SINGLETON_SELF
    assert dynamics.stable_set(Point2(9.0, -2.0), -1.5) is StableSet.SINGLETON_SELF


@settings(max_examples=100)
@given(coords, coords, coords, coords, lams, axis_angles)
def test_per_step_distance_ratio_is_abs_lam(px, py, qx, qy, lam, phi):
    d0 = oracles.dist(px, py, qx, qy)
    ax, ay = oracles.iterate_map(px, py, lam, phi, 1)
    bx, by = oracles.iterate_map(qx, qy, lam, phi, 1)
    d1 = oracles.dist(ax, ay, bx, by)
    assert abs(d1 - abs(lam) * d0) <= 1e-12 * (1.0 + abs(lam) * d0)


@settings(max_examples=100)
@given(
    st.floats(min_value=0.05, max_value=0.79, allow_nan=False),
    st.sampled_from([1.0, -1.0]),
    axis_angles,
)
def test_sixty_step_contraction_below_one_millionth(mag, sign, phi):
    # |lam|**60 < 1e-6 requires |lam| below 10**(-0.1), about 0.794
    lam = mag * sign
    p, q = Point2(1.0, 0.2), Point2(-0.3, 0.7)
    ax, ay = oracles.iterate_map(p.x, p.y, lam, phi, 60)
    bx, by = oracles.iterate_map(q.x, q.y, lam, phi, 60)
    assert oracles.dist(ax, ay, bx, by) < 1e-6 * p.distance_to(q)


@settings(max_examples=100)
@given(
    st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    st.sampled_from([1.0, -1.0]),
    axis_angles,
    st.integers(min_value=1, max_value=40),
)
def test_no_contraction_at_or_above_unit_scale(mag, sign, phi, n):
    lam = mag * sign
    p, q = Point2(1.0, 0.2), Point2(-0.3, 0.7)
    ax, ay = oracles.iterate_map(p.x, p.y, lam, phi, n)
    bx, by = oracles.iterate_map(q.x, q.y, lam, phi, n)
    assert oracles.dist(ax, ay, bx, by) >= p.distance_to(q) * (1.0 - 1e-12)
