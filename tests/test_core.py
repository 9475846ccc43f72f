import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from symdyn import core
from symdyn.dynamics import (ConvergenceVerdict, ConvergesTo, DivergesToInfinity, Finite,
                             Infinite, NotConvergent, OrbitRecord, Topology, power_T)
from symdyn.frobenius import SymMatN
from symdyn.geometry import AxisLine, Direction, ReflectScale, mod_pi, rotation_matrix

TAU = 2.0 * math.pi

angles = st.floats(min_value=0.0, max_value=TAU, exclude_max=True, allow_nan=False)
scales = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)


# --- matrix_from_params ---------------------------------------------------


def test_zero_scale_gives_zero_matrix():
    m = core.matrix_from_params(0.0, 1.7)
    assert np.array_equal(m, np.zeros((2, 2)))
    # A scale of -0.0 is the zero scale too: +0.0, and no -0.0 entry, so the
    # sign identity of matrix_from_params holds bit for bit at zero.
    assert math.copysign(1.0, core.TraceZeroSym2(-0.0, 1.0).lam) == 1.0
    negative = core.matrix_from_params(-0.0, 1.0)
    assert negative.tobytes() == core.matrix_from_params(0.0, core.mod_2pi(1.0 + math.pi)).tobytes()
    assert negative.tobytes() == np.zeros((2, 2)).tobytes()


def test_angle_zero_is_diag_plus_minus():
    m = core.matrix_from_params(1.0, 0.0)
    assert np.array_equal(m, np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_three_four_five_matrix():
    theta = math.atan2(4.0, 3.0)
    m = core.matrix_from_params(5.0, theta)
    # scalar-trig oracle for the expected entries
    a = 5.0 * math.cos(theta)
    b = 5.0 * math.sin(theta)
    assert m[0, 0] == a and m[0, 1] == b
    assert np.allclose(m, np.array([[3.0, 4.0], [4.0, -3.0]]), atol=1e-9, rtol=0.0)


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        core.matrix_from_params(math.nan, 0.0)
    with pytest.raises(ValueError):
        core.matrix_from_params(1.0, math.inf)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        core.decompose([[math.nan, 0.0], [0.0, 0.0]])


@given(scales, angles)
def test_symmetric_and_trace_exactly_zero(lam, theta):
    m = core.matrix_from_params(lam, theta)
    assert m[0, 1] == m[1, 0]
    assert m[0, 0] + m[1, 1] == 0.0


@given(scales, angles)
def test_negative_scale_absorbed_exactly(lam, theta):
    flipped = core.matrix_from_params(lam, core.mod_2pi(theta + math.pi))
    assert np.array_equal(core.matrix_from_params(-lam, theta), flipped)


@given(scales, angles)
def test_eigenvalues_are_plus_minus_scale(lam, theta):
    m = core.matrix_from_params(lam, theta)
    # characteristic polynomial is x^2 - lam^2: zero trace, det -lam^2
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det + lam * lam) <= 1e-9 * (1.0 + lam * lam)
    # independent spectral oracle
    eig = np.linalg.eigvalsh(m)
    assert abs(eig[0] + lam) <= 1e-9 * (1.0 + lam)
    assert abs(eig[1] - lam) <= 1e-9 * (1.0 + lam)


# --- decompose ------------------------------------------------------------


def test_decompose_zero_matrix():
    tz = core.decompose([[0.0, 0.0], [0.0, 0.0]])
    assert tz.lam == 0.0 and tz.theta == 0.0


def test_decompose_diag():
    tz = core.decompose([[1.0, 0.0], [0.0, -1.0]])
    assert tz.lam == 1.0 and tz.theta == 0.0


def test_decompose_three_four():
    tz = core.decompose([[3.0, 4.0], [4.0, -3.0]])
    assert abs(tz.lam - math.hypot(3.0, 4.0)) <= 1e-12
    assert oracles.ang_dist(tz.theta, math.atan2(4.0, 3.0)) <= 1e-12


def test_decompose_snaps_tiny_scale_to_zero():
    tz = core.decompose([[1e-12, -3e-13], [-3e-13, -1e-12]])
    assert tz.lam == 0.0 and tz.theta == 0.0


def test_decompose_rejects_asymmetric():
    with pytest.raises(core.NotSymmetricError):
        core.decompose([[1.0, 2.0], [3.0, -1.0]])


def test_decompose_rejects_nonzero_trace():
    with pytest.raises(core.NotTraceZeroError):
        core.decompose([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("m", [
    [[1, 2, 3]], [[1, 2, 3], [4, 5, 6]], [1, 2, 3, 4], [[1, 2], [3]],
    np.zeros((3, 3)), np.zeros((2, 2, 1)),
    # rows of digits unpack into characters or ints, which float() would take
    ("00", "00"), ("10", "01"), (b"\x00\x05", b"\x05\x00"),
], ids=["1x3", "2x3", "flat", "ragged", "array-3x3", "array-2x2x1",
        "str-zero", "str-identity", "bytes"])
@pytest.mark.parametrize("fn", [core.decompose, core.classify_orthogonal],
                         ids=["decompose", "classify_orthogonal"])
def test_decompose_rejects_bad_shape(fn, m):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            fn(m)
    assert caught == []


@pytest.mark.parametrize("m", [
    [bytearray(b"\x00\x01"), bytearray(b"\x01\x00")],
    [memoryview(b"\x00\x01"), memoryview(b"\x01\x00")],
    [["0", "1"], ["1", "0"]],
    [[b"0", b"1"], [b"1", b"0"]],
    np.zeros((2, 2, 1)),
], ids=["bytearray-rows", "memoryview-rows", "str-entries", "bytes-entries", "array-2x2x1"])
@pytest.mark.parametrize("fn,message", [
    (core.decompose, "expected a 2x2 matrix"),
    (core.classify_orthogonal, "expected a 2x2 matrix"),
    (SymMatN.from_matrix, "expected a square matrix"),
], ids=["decompose", "classify_orthogonal", "from_matrix"])
def test_matrix_readers_reject_text_bytes_and_nested_entries(fn, message, m):
    # Each input but the array reads as [[0, 1], [1, 0]] if its digits or
    # bytes are taken for numbers; numpy 1.x also reads a one-element array
    # as a float.
    with pytest.raises(ValueError, match=message):
        fn(m)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("lam", [0.0, -0.0, -2.5, 1e-300, 7.0])
def test_array_functions_give_the_bits_of_their_numpy_formulas(lam, n):
    # Each array against the numpy expression that once computed it.
    tz = core.TraceZeroSym2(lam, 2.1)
    rot = core.Orthogonal2(core.OrthogonalVariant.ROTATION, lam + 0.4)
    ref = core.Orthogonal2(core.OrthogonalVariant.REFLECTION, lam - 5.0)
    m = ReflectScale(lam, AxisLine(0.7))
    c, s = math.cos(2.0 * m.axis.phi), math.sin(2.0 * m.axis.phi)
    cr, sr = math.cos(rot.angle), math.sin(rot.angle)
    cf, sf = math.cos(ref.angle), math.sin(ref.angle)
    ca, sa = math.cos(-1.3), math.sin(-1.3)
    a = SymMatN(3, (lam, -0.0, 1.5, 3.0 * lam, 0.0, -lam))
    full = np.empty((3, 3))
    rows, cols = np.triu_indices(3)
    full[rows, cols] = full[cols, rows] = a.packed
    power = lam ** n * (np.eye(2) if n % 2 == 0 else np.array([[c, s], [s, -c]]))
    for got, want in [
        (core.matrix_from_params(lam, 2.1), np.array(tz.rows())),
        (tz.matrix(), np.array(tz.rows())),
        (rot.matrix(), np.array([[cr, sr], [-sr, cr]])),
        (ref.matrix(), np.array([[cf, sf], [sf, -cf]])),
        (m.matrix(), lam * np.array([[c, s], [s, -c]])),
        (rotation_matrix(1.3, Direction.ANTICLOCKWISE), np.array([[ca, sa], [-sa, ca]])),
        (power_T(m, n), power),
        (a.to_matrix(), full),
    ]:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # A float32 scale is multiplied in float64, as numpy promoted it.
    lam32 = np.float32(lam)
    want = lam32 * np.array([[c, s], [s, -c]])
    assert ReflectScale(lam32, AxisLine(0.7)).matrix().tobytes() == want.tobytes()


@pytest.mark.parametrize("fn,m", [
    (core.decompose, [[3.0, 4.0], [4.0, -3.0]]),
    (core.classify_orthogonal, [[0.6, 0.8], [-0.8, 0.6]]),
    (core.classify_orthogonal, [[0.6, 0.8], [0.8, -0.6]]),
], ids=["decompose", "classify_orthogonal-rotation", "classify_orthogonal-reflection"])
def test_list_tuple_and_array_inputs_agree(fn, m):
    assert fn(m) == fn(tuple(map(tuple, m))) == fn(np.array(m))


@given(scales, angles)
def test_round_trip(lam, theta):
    tz = core.decompose(core.matrix_from_params(lam, theta))
    assert abs(tz.lam - lam) <= 1e-9 * lam
    assert oracles.ang_dist(tz.theta, theta) <= 1e-9


# --- classify_orthogonal ---------------------------------------------------


def test_identity_is_rotation_zero():
    o = core.classify_orthogonal(np.eye(2))
    assert o.variant is core.OrthogonalVariant.ROTATION
    assert o.angle == 0.0


def test_swap_is_reflection_half_pi():
    o = core.classify_orthogonal([[0.0, 1.0], [1.0, 0.0]])
    assert o.variant is core.OrthogonalVariant.REFLECTION
    assert oracles.ang_dist(o.angle, math.pi / 2.0) <= 1e-12


def test_rotation_template_point_three():
    o = core.classify_orthogonal(oracles.rotation_cw(0.3))
    assert o.variant is core.OrthogonalVariant.ROTATION
    assert oracles.ang_dist(o.angle, 0.3) <= 1e-12


def test_rejects_non_orthogonal():
    with pytest.raises(core.NotOrthogonalError):
        core.classify_orthogonal([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(core.NotOrthogonalError):
        core.classify_orthogonal(2.0 * np.eye(2))
    # Orthonormal within a loose tolerance, yet its determinant 0.8 is near neither +1 nor -1.
    with pytest.raises(core.NotOrthogonalError, match="determinant is near neither"):
        core.classify_orthogonal([[0.8977750274985375, 0.11027261504014305],
                                  [0.0, 0.8909769639963809]], core.Tolerance(0.1))


@given(angles)
def test_rotation_templates_classify_back(alpha):
    o = core.classify_orthogonal(oracles.rotation_cw(alpha))
    assert o.variant is core.OrthogonalVariant.ROTATION
    assert oracles.ang_dist(o.angle, alpha) < 1e-9


@given(angles)
def test_reflection_templates_classify_back(beta):
    m = oracles.reflection_matrix_from_matrix_angle(beta)
    o = core.classify_orthogonal(m)
    assert o.variant is core.OrthogonalVariant.REFLECTION
    assert oracles.ang_dist(o.angle, beta) < 1e-9


@given(angles)
def test_reflection_matrices_are_unit_scale_trace_zero(beta):
    # every classified reflection is symmetric, trace zero, and of scale 1
    m = core.Orthogonal2(core.OrthogonalVariant.REFLECTION, beta).matrix()
    assert m[0, 1] == m[1, 0]
    assert abs(m[0, 0] + m[1, 1]) <= 1e-15
    tz = core.decompose(m)
    assert abs(tz.lam - 1.0) <= 1e-12
    assert oracles.ang_dist(tz.theta, beta) <= 1e-9


# --- corollary_witness ------------------------------------------------------


def test_witness_for_swap_matrix():
    a = core.decompose([[0.0, 1.0], [1.0, 0.0]])
    b, lam = core.corollary_witness(a)
    assert b.variant is core.OrthogonalVariant.REFLECTION
    assert abs(lam - 1.0) <= 1e-12
    assert oracles.ang_dist(b.angle, math.pi / 2.0) <= 1e-12


def test_witness_for_three_four():
    a = core.decompose([[3.0, 4.0], [4.0, -3.0]])
    b, lam = core.corollary_witness(a)
    assert abs(lam - 5.0) <= 1e-9
    assert np.allclose(b.matrix(), np.array([[0.6, 0.8], [0.8, -0.6]]), atol=1e-9, rtol=0.0)


def test_witness_for_zero_matrix():
    b, lam = core.corollary_witness(core.TraceZeroSym2(0.0, 0.0))
    assert lam == 0.0
    assert b.angle == 0.0
    assert np.array_equal(b.matrix(), np.array([[1.0, 0.0], [0.0, -1.0]]))


@given(scales, angles)
def test_witness_reassembles_exactly(lam, theta):
    a = core.TraceZeroSym2(lam, theta)
    b, scale = core.corollary_witness(a)
    assert np.array_equal(scale * b.matrix(), a.matrix())
    det = b.matrix()[0, 0] * b.matrix()[1, 1] - b.matrix()[0, 1] * b.matrix()[1, 0]
    assert abs(det + 1.0) <= 1e-12
    eig = np.linalg.eigvalsh(b.matrix())
    assert np.allclose(eig, [-1.0, 1.0], atol=1e-12)


# --- types ------------------------------------------------------------------


def test_tolerance_validates():
    with pytest.raises(ValueError):
        core.Tolerance(0.0)
    with pytest.raises(ValueError):
        core.Tolerance(-1e-9)
    t = core.Tolerance(1e-6)
    assert t.close(1.0, 1.0 + 1e-7)
    assert not t.close(1.0, 1.01)
    assert t.close(1e9, 1e9 + 100.0)  # relative for large values


@pytest.mark.parametrize("x,y", [(math.inf, 0.0), (0.0, -math.inf), (math.inf, math.inf),
                                 (math.nan, 0.0)])
def test_close_is_false_when_the_difference_is_not_finite(x, y):
    assert not core.Tolerance().close(x, y)


def test_array_returning_functions_return_ndarrays():
    m = ReflectScale(2.0, AxisLine(0.3))
    for a in (core.matrix_from_params(2.0, 0.3), core.TraceZeroSym2(2.0, 0.3).matrix(),
              core.Orthogonal2(core.OrthogonalVariant.ROTATION, 0.3).matrix(), m.matrix(),
              rotation_matrix(0.3, Direction.CLOCKWISE), power_T(m, 3)):
        assert isinstance(a, np.ndarray) and a.shape == (2, 2)


def test_overflowing_entries_are_rejected_not_accepted():
    # The trace 2e308 and the Gram diagonal 1e400 overflow to inf, which
    # once compared close to 0 and 1.
    with np.errstate(over="ignore"):
        with pytest.raises(core.NotTraceZeroError):
            core.decompose([[1e308, 0.0], [0.0, 1e308]])
        with pytest.raises(core.NotOrthogonalError):
            core.classify_orthogonal([[1e200, 0.0], [0.0, 1e200]])
    # An int beyond the float range is no finite entry either.
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        core.decompose([[10**400, 0], [0, -10**400]])


def test_trace_zero_sym2_canonicalizes():
    tz = core.TraceZeroSym2(-2.0, 0.5)
    assert tz.lam == 2.0
    assert oracles.ang_dist(tz.theta, 0.5 + math.pi) <= 1e-15
    assert core.TraceZeroSym2(0.0, 5.0).theta == 0.0
    with pytest.raises(ValueError):
        core.TraceZeroSym2(math.nan, 0.0)


def test_mod_2pi_range_and_idempotence():
    for x in [-1e-20, -0.1, 0.0, 1.0, TAU, TAU + 0.5, -7.0, 1e9]:
        r = core.mod_2pi(x)
        assert 0.0 <= r < TAU
        assert core.mod_2pi(r) == r


# --- value types --------------------------------------------------------------

_P = core.Point2(1.0, 2.0)
_AXIS = AxisLine(0.5)
_MAP = ReflectScale(2.0, _AXIS)
_ROT = core.OrthogonalVariant.ROTATION

# Each value type with canonical positional arguments, the repr they give,
# and an instance that differs from them in one field or in its class.
VALUES = [
    (core.Tolerance, (1e-06,), "Tolerance(eps=1e-06)", core.Tolerance()),
    (core.Point2, (1.0, 2.0), "Point2(x=1.0, y=2.0)", core.Point2(1.0, -2.0)),
    (core.TraceZeroSym2, (2.0, 0.5), "TraceZeroSym2(lam=2.0, theta=0.5)",
     core.TraceZeroSym2(2.0, 0.25)),
    (core.Orthogonal2, (_ROT, 0.5),
     "Orthogonal2(variant=<OrthogonalVariant.ROTATION: 'Rotation'>, angle=0.5)",
     core.Orthogonal2(core.OrthogonalVariant.REFLECTION, 0.5)),
    (AxisLine, (0.5,), "AxisLine(phi=0.5)", AxisLine(0.25)),
    (ReflectScale, (2.0, _AXIS), "ReflectScale(lam=2.0, axis=AxisLine(phi=0.5))",
     ReflectScale(2.0, AxisLine(0.25))),
    (Finite, (2,), "Finite(size=2)", Finite(1)),
    (Infinite, (), "Infinite()", Finite(2)),
    (ConvergesTo, (_P,), "ConvergesTo(limit=Point2(x=1.0, y=2.0))",
     ConvergesTo(core.ORIGIN)),
    (NotConvergent, (), "NotConvergent()", DivergesToInfinity()),
    (DivergesToInfinity, (), "DivergesToInfinity()", NotConvergent()),
    (ConvergenceVerdict, (Topology.USUAL, NotConvergent()),
     "ConvergenceVerdict(topology=<Topology.USUAL: 'Usual'>, verdict=NotConvergent())",
     ConvergenceVerdict(Topology.DISCRETE, NotConvergent())),
    (OrbitRecord, (_P, _MAP, array("d", [1.0]), array("d", [2.0]), Finite(1), 1),
     "OrbitRecord(start=Point2(x=1.0, y=2.0), map=ReflectScale(lam=2.0, "
     "axis=AxisLine(phi=0.5)), xs=array('d', [1.0]), ys=array('d', [2.0]), "
     "cardinality=Finite(size=1), truncated_at=1)",
     OrbitRecord(_P, _MAP, array("d", [1.0]), array("d", [2.0]), Finite(1), 0)),
    (SymMatN, (2, (1.0, 0.0, -1.0)), "SymMatN(n=2, packed=(1.0, 0.0, -1.0))",
     SymMatN(2, (1.0, 0.0, 1.0))),
]


@pytest.mark.parametrize("cls,args,text,other", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_types_are_frozen_values(cls, args, text, other):
    names = cls.__match_args__
    a = cls(*args)
    b = cls(**dict(zip(names, args)))
    assert tuple(getattr(a, n) for n in names) == args
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != args and a.__eq__(args) is NotImplemented
    assert repr(a) == repr(b) == text
    if cls is OrbitRecord:  # its arrays are mutable, so the record is unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(TypeError):
        cls(*args, 0)
    name = names[0] if names else "size"
    with pytest.raises(AttributeError):
        setattr(a, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b


def test_value_types_keep_defaults_checks_and_canonical_forms():
    assert core.Tolerance() == core.Tolerance(1e-9) == core.Tolerance(eps=1e-9)
    assert core.Tolerance.eps == core.Tolerance().eps == 1e-9
    assert Infinite() == Infinite() and hash(Infinite()) == hash(Infinite())
    assert Finite(1) != Infinite() and NotConvergent() != DivergesToInfinity()
    assert core.Point2(0.0, 0.0) != (0.0, 0.0)
    for bad in (lambda: core.Tolerance(0.0), lambda: AxisLine(math.nan),
                lambda: ReflectScale(math.inf, _AXIS), lambda: SymMatN(2, (1.0, 2.0)),
                lambda: core.Orthogonal2(_ROT, math.inf),
                lambda: SymMatN(2, (math.nan, 0.0, 0.0))):
        with pytest.raises(ValueError):
            bad()
    assert core.TraceZeroSym2(-1.0, 0.0).theta == math.pi
    assert AxisLine(4.0).phi == mod_pi(4.0)
    assert core.Orthogonal2(_ROT, -1.0).angle == core.mod_2pi(-1.0)


def test_scalar_fields_are_stored_as_python_floats():
    # A float32 field would keep its precision: a Python float times a
    # float32 scalar stays float32 under numpy 2's promotion rules.
    x = np.float32(0.3)
    tz, m, tol = core.TraceZeroSym2(x, 1.1), ReflectScale(x, _AXIS), core.Tolerance(x)
    assert [type(v) for v in (tz.lam, tz.theta, m.lam, tol.eps)] == [float] * 4
    assert [type(v) for row in tz.rows() for v in row] == [float] * 4
    assert tz.rows() == core.TraceZeroSym2(float(x), 1.1).rows()
    assert tz.rows()[0][0] == 0.13607884183496033
    assert m.matrix().tobytes() == ReflectScale(float(x), _AXIS).matrix().tobytes()
    assert repr(tol) == "Tolerance(eps=0.30000001192092896)"
