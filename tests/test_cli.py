import hashlib
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from xml.etree import ElementTree

import pytest

import cli_digest
import oracles
from symdyn import cli
from symdyn.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# --- decompose -----------------------------------------------------------------


def test_decompose_three_four(capsys):
    rec = run_json(capsys, "decompose", "3", "4", "4", "-3")
    assert abs(rec["lambda"] - 5.0) <= 1e-9
    assert abs(rec["theta"] - 0.9272952180016122) <= 1e-9
    assert abs(rec["axis"] - 0.4636476090008061) <= 1e-9
    assert len(rec["matrix"]) == 4


def test_decompose_zero_matrix(capsys):
    rec = run_json(capsys, "decompose", "0", "0", "0", "0")
    assert rec["lambda"] == 0.0 and rec["theta"] == 0.0


# A scale at or below eps is a value like any other: tol decides verdicts only.
def test_a_tiny_scale_is_kept(capsys):
    rec = run_json(capsys, "build", "1e-10", "--theta", "1")
    assert (rec["lambda"], rec["theta"]) == (1e-10, 1.0)
    # the smallest subnormal, which halving each entry first rounds to 0
    rec = run_json(capsys, "decompose", "5e-324", "0", "0", "-5e-324")
    assert (rec["lambda"], rec["theta"]) == (5e-324, 0.0)


def test_a_tiny_scale_steps_the_same_from_its_matrix(capsys):
    # --from-matrix steps lam = 1e-10, not 0, as --lambda does.
    start = ("orbit", "1", "1", "--iters", "2")
    from_matrix = run(capsys, *start, "--from-matrix", "1e-10", "0", "0", "-1e-10")
    from_lambda = run(capsys, *start, "--lambda", "1e-10", "--axis", "0")
    assert from_matrix == from_lambda
    assert from_lambda[1].startswith("n,x,y\n0,1,1\n1,1e-10,-1e-10\n2,1.0000000000000001e-20,")
    assert "cardinality = Finite(2)\n" in from_lambda[1]


@pytest.mark.parametrize("argv", [
    ("decompose", "1.7e308", "1e308", "1e308", "-1.7e308"),
    ("orbit", "1", "1", "--from-matrix", "1.7e308", "1e308", "1e308", "-1.7e308", "--iters", "2"),
], ids=["decompose", "orbit"])
def test_a_scale_that_overflows_exits_2(capsys, argv):
    # Each entry is finite, but the hypot of the halves is not.
    assert run(capsys, *argv) == (2, "", "error: the scale of the matrix overflows float64\n")


def test_decompose_asymmetric_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "1", "2", "3", "4")
    assert code == 2
    assert "not symmetric" in err


def test_decompose_nonzero_trace_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "1", "2", "2", "1")
    assert code == 2
    assert "trace" in err


# --- build ---------------------------------------------------------------------


def test_build_from_theta(capsys):
    theta = math.atan2(4.0, 3.0)
    rec = run_json(capsys, "build", "5", "--theta", str(theta))
    assert rec["matrix"] == pytest.approx([3.0, 4.0, 4.0, -3.0], abs=1e-9)


def test_build_from_axis_doubles_the_angle(capsys):
    rec = run_json(capsys, "build", "1", "--axis", "0.45")
    assert abs(rec["theta"] - 0.9) <= 1e-12


def test_build_negative_zero_scale_is_the_zero_matrix(capsys):
    code, out, _ = run(capsys, "build", "-0", "--theta", "1")
    assert code == 0
    assert out == "lambda = 0\ntheta = 0\naxis = 0\nmatrix = [[0, 0], [0, 0]]\n"
    rec = run_json(capsys, "build", "-0", "--theta", "1")
    assert rec == run_json(capsys, "build", "0", "--theta", "1")
    assert [math.copysign(1.0, v) for v in rec["matrix"]] == [1.0] * 4


def test_build_requires_exactly_one_angle(capsys):
    code, _, err = run(capsys, "build", "1")
    assert code == 2
    code, _, err = run(capsys, "build", "1", "--theta", "1", "--axis", "2")
    assert code == 2


def test_build_degrees(capsys):
    rec = run_json(capsys, "build", "1", "--theta", "90", "--degrees")
    assert abs(rec["theta"] - math.pi / 2.0) <= 1e-12
    # 2e16 whole turns: fmod by 360 is exact, where radians() first is not.
    code, out, _ = run(capsys, "build", "1", "--theta", "7200000000000000000", "--degrees")
    assert (code, out.splitlines()[1]) == (0, "theta = 0")
    code, out, err = run(capsys, "build", "1", "--theta", "inf", "--degrees")
    assert (code, out, err) == (2, "", "error: lam and theta must be finite\n")


@pytest.mark.parametrize("axis", [1e308, -1e308, 2.0**1023, -1.7976931348623157e308])
def test_build_huge_axis_is_reduced_before_it_is_doubled(capsys, axis):
    # From two periods up the axis sheds its whole periods of the float pi
    # first (core._turns), so 2 * axis cannot overflow: the matrix angle is
    # twice the exact residue, rounded once.
    theta = 2.0 * float(Fraction(axis) % Fraction(math.pi))
    rec = run_json(capsys, "build", "1", "--axis", repr(axis))
    assert rec == run_json(capsys, "build", "1", "--theta", repr(theta))
    assert all(map(math.isfinite, rec["matrix"])) and rec["lambda"] == 1.0


def test_build_axis_below_the_overflow_is_doubled_as_given(capsys):
    # For a positive scale, doubling the residue of the axis mod pi gives the
    # bytes of doubling the axis as given and reducing mod 2pi.
    axis = math.nextafter(2.0**1023, 0.0)
    rec = run_json(capsys, "build", "1", "--axis", repr(axis))
    assert rec == run_json(capsys, "build", "1", "--theta", repr(2.0 * axis))
    for bad in ("inf", "-inf", "nan"):
        code, out, err = run(capsys, "build", "1", f"--axis={bad}")
        assert (code, out, err) == (2, "", "error: lam and theta must be finite\n")


@pytest.mark.parametrize("angle", [("--theta", "1e43"), ("--theta", "-1.7976931348623157e308"),
                                   ("--axis", "1e300"), ("--theta", "1e20", "--degrees")],
                         ids=["theta", "largest-theta", "axis", "degrees"])
def test_build_negative_scale_is_the_negation_at_any_angle(capsys, angle):
    # -lam at theta is lam at theta + pi; whole periods of theta go before pi
    # is added, so pi is not lost to theta's ulp and the sign is kept.
    neg = run_json(capsys, "build", "-2.5", *angle)["matrix"]
    pos = run_json(capsys, "build", "2.5", *angle)["matrix"]
    assert all(abs(x + y) <= 1e-14 * 2.5 for x, y in zip(neg, pos)), (neg, pos)


# sha256 of the text and the --json stdout just below each switch from which
# core._turns sheds whole periods: 4pi for a matrix angle, 2pi for an axis,
# 720 degrees. Below it an angle keeps its bytes; these are the parent's.
_T4, _A2 = repr(math.nextafter(4.0 * math.pi, 0.0)), repr(math.nextafter(2.0 * math.pi, 0.0))
_UP = ("6052ac048c0dae23356796de3624621e54c92e6be83f63f97614f5678ed8d208",
       "67b1cf3e5db45642a6e47ce7c9be7a2106969b263f98496c2063da81c9b6ae8a")
_DOWN = ("6c5a6daa76a7a2d626a23d630ff09f95c6611075df4438006804066efb4ea61c",
         "4a053ca0aa084fff070e435f3c9c780e6fc03529ec9b0ecdb9c52a47bc7b42ba")
BELOW_SWITCH_DIGESTS = {
    ("build", "-2.5", "--theta", _T4): _UP,
    ("build", "-2.5", "--theta", "-" + _T4): _DOWN,
    ("build", "-2.5", "--axis", _A2): _UP,
    ("build", "-2.5", "--axis", "-" + _A2): _DOWN,
    ("build", "-2.5", "--theta", "719.9999999999999", "--degrees"): _UP,
    ("build", "-2.5", "--theta", "-719.9999999999999", "--degrees"): _DOWN,
    ("compose", "--alpha", _T4, "--theta", _T4, "--cw"): (
        "b18adb51a309be3de9812632610fd816a087a7c0fd0679ba59b90b3b6f123573",
        "b4adc6c5f7971eba7ea3a460ac60fa0ec299d6bd19ed27768d3797b654bf9ece"),
    ("compose", "--alpha", _T4, "--theta", _T4, "--acw"): (
        "fadab79a4a590b339fa337cc43f5abd5fedae1418414d4713bb629c73be81eab",
        "01360566c40d1721504943e55d9f9ed0f56ecf07376822eed07791964b0f6e15"),
}


@pytest.mark.parametrize("argv", BELOW_SWITCH_DIGESTS, ids=[
    "theta", "minus-theta", "axis", "minus-axis", "degrees", "minus-degrees", "cw", "acw"])
def test_angles_below_the_switch_keep_their_bytes(capsys, argv):
    if argv[0] == "compose":
        pytest.importorskip("numpy")
    for flags, digest in zip(((), ("--json",)), BELOW_SWITCH_DIGESTS[argv]):
        code, out, err = run(capsys, *argv, *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, flags, out)


# --- orbit ----------------------------------------------------------------------


def test_orbit_golden_half_scale(capsys, tmp_path):
    out = tmp_path / "a.csv"
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3927",
                     "--iters", "8", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "orbit_half_scale.csv").read_bytes()


def test_orbit_golden_origin(capsys, tmp_path):
    out = tmp_path / "b.csv"
    code, _, _ = run(capsys, "orbit", "0", "0", "--lambda", "2", "--axis", "1",
                     "--iters", "3", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "orbit_origin.csv").read_bytes()


def test_orbit_golden_fixed_point(capsys, tmp_path):
    out = tmp_path / "c.csv"
    code, _, _ = run(capsys, "orbit", "1", "1", "--lambda", "1", "--axis", "0.7853981634",
                     "--iters", "5", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "orbit_fixed_point.csv").read_bytes()


def test_orbit_csv_schema(capsys):
    code, out, _ = run(capsys, "orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3927",
                       "--iters", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,x,y"
    rows = [l for l in lines[1:] if l and l.split(",")[0].isdigit()]
    assert len(rows) == 9
    assert "cardinality = Infinite" in out
    assert "convergence[Usual] = ConvergesTo (0, 0)" in out


def test_orbit_and_classify_print_the_same_cardinality(capsys):
    # 1e-13 off the axis is 1e-10 of |p|, on the axis within tol; the orbit's
    # reflections move the point by 2e-13, which must not turn it into a
    # two-point orbit. 1e-11 is 1e-8 of |p|, off the axis at every scale: its
    # trace flips the sign of y at each step, a two-point orbit.
    for y, size in (("1e-13", 1), ("1e-11", 2)):
        args = ("1e-3", y, "--lambda", "1", "--axis", "0")
        _, orbit_out, _ = run(capsys, "orbit", *args, "--iters", "4")
        _, classify_out, _ = run(capsys, "classify", *args)
        line = f"cardinality = Finite({size})\n"
        assert line in orbit_out and line in classify_out
        orbit_rec = run_json(capsys, "orbit", *args, "--iters", "4")
        classify_rec = run_json(capsys, "classify", *args)
        assert orbit_rec["cardinality"] == classify_rec["cardinality"] == {
            "kind": "Finite", "size": size}


@pytest.mark.parametrize("cmd", ["classify", "orbit"])
@pytest.mark.parametrize("map_args,size", [
    (("--lambda", "1", "--axis", "0.7"), 2),
    (("--lambda", "1", "--axis", "45", "--degrees"), 1),
    (("--lambda", "-1", "--axis", "0.7"), 2),
    (("--lambda", "-1", "--axis", "-45", "--degrees"), 1),
], ids=["off-axis", "on-axis", "off-perpendicular", "on-perpendicular"])
def test_starts_whose_norm_overflows_are_placed_on_their_lines(capsys, cmd, map_args, size):
    # Each coordinate is finite but the norm is not; an infinite bound
    # eps * |p| would put the start on every line.
    argv = (cmd, "1.5e308", "1.5e308", *map_args)
    verdict = "ConvergesTo (1.5e+308, 1.5e+308)" if size == 1 else "NotConvergent"
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert f"cardinality = Finite({size})\n" in out
    assert f"convergence[Discrete] = {verdict}\nconvergence[Usual] = {verdict}\n" in out
    rec = run_json(capsys, *argv)
    assert rec["cardinality"] == {"kind": "Finite", "size": size}
    assert {v["kind"] for v in rec["convergence"].values()} == {verdict.split()[0]}


def test_orbit_verdicts_json(capsys):
    rec = run_json(capsys, "orbit", "1", "1", "--lambda", "1", "--axis", "0.7853981634",
                   "--iters", "5")
    assert rec["cardinality"] == {"kind": "Finite", "size": 1}
    assert rec["convergence"]["Discrete"]["kind"] == "ConvergesTo"
    assert len(rec["points"]) == 6


def test_orbit_from_matrix_round_trip_is_bitwise(capsys, tmp_path):
    # decompose output fed back through --from-matrix must reproduce the
    # (lambda, axis) trajectory byte for byte
    rec = run_json(capsys, "decompose", "0.2", "1.5", "1.5", "-0.2")
    a = tmp_path / "direct.csv"
    b = tmp_path / "viamatrix.csv"
    code, _, _ = run(capsys, "orbit", "0.7", "-0.4", "--lambda", repr(rec["lambda"]),
                     "--axis", repr(rec["axis"]), "--iters", "32", "--out", str(a))
    assert code == 0
    code, _, _ = run(capsys, "orbit", "0.7", "-0.4", "--from-matrix",
                     "0.2", "1.5", "1.5", "-0.2", "--iters", "32", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_orbit_unwritable_path_exits_3(capsys):
    code, _, err = run(capsys, "orbit", "1", "0", "--lambda", "0.5", "--axis", "0",
                       "--iters", "2", "--out", "/nonexistent-dir-xyz/o.csv")
    assert code == 3


@pytest.mark.parametrize("paths,code,line", [
    (("--out", ""), 3, "error: [Errno 2] No such file or directory: ''"),
    (("--out", "", "--json"), 3, "error: [Errno 2] No such file or directory: ''"),
    (("--svg", ""), 3, "error: [Errno 2] No such file or directory: ''"),
    (("--out", "", "--svg", ""), 2, "error: --out and --svg name the same file"),
], ids=["out", "out-json", "svg", "both"])
def test_orbit_empty_path_is_a_path(capsys, tmp_path, monkeypatch, paths, code, line):
    # An empty path names no file, as it would in open(); it is not "no path".
    monkeypatch.chdir(tmp_path)
    got = run(capsys, "orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "2", *paths)
    assert got == (code, "", line + "\n")
    assert list(tmp_path.iterdir()) == []


def test_orbit_needs_a_map(capsys):
    code, _, err = run(capsys, "orbit", "1", "0", "--iters", "2")
    assert code == 2


@pytest.mark.parametrize("flags,named", [
    (("--lambda", "1", "--axis", "0"), "--lambda"),
    # the matrix holds no angle to convert, so --degrees would go unread
    (("--degrees",), "--degrees"),
], ids=["lambda-axis", "degrees"])
def test_orbit_from_matrix_excludes_flags(capsys, tmp_path, flags, named):
    csv = tmp_path / "o.csv"
    code, out, err = run(capsys, "orbit", "1", "0", *flags, "--from-matrix", "1", "0", "0", "-1",
                         "--iters", "2", "--out", str(csv))
    assert (code, out) == (2, "")
    assert err.startswith("error: --from-matrix excludes") and named in err
    assert not csv.exists()


def test_orbit_out_and_svg_on_one_file_exit_2(capsys, tmp_path, monkeypatch):
    # the two paths differ as text, and name one file
    monkeypatch.chdir(tmp_path)
    argv = ("orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "3")
    code, out, err = run(capsys, *argv, "--out", "same.out", "--svg", "./same.out")
    assert (code, out) == (2, "")
    assert err == "error: --out and --svg name the same file\n"
    assert not (tmp_path / "same.out").exists()
    # two names of one file: realpath tells them apart, samefile does not
    (tmp_path / "a.csv").write_text("kept\n")
    try:
        os.link(tmp_path / "a.csv", tmp_path / "b.csv")
    except OSError:
        pytest.skip("this file system makes no hard links")
    code, out, err = run(capsys, *argv, "--out", "a.csv", "--svg", "b.csv")
    assert (code, out, err) == (2, "", "error: --out and --svg name the same file\n")
    assert (tmp_path / "a.csv").read_text() == "kept\n"


def test_orbit_iters_bounds(capsys):
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "1", "--axis", "0", "--iters", "0")
    assert code == 2
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "1", "--axis", "0",
                     "--iters", "1000001")
    assert code == 2


def _assert_svg_marks_each_point(svg, csv) -> None:
    """The SVG holds one marker, whose dot is its only circle; the polyline
    names it at its start, middle and end vertices and has one vertex per
    finite point of the CSV; and no nan or inf appears anywhere."""
    ns = "{http://www.w3.org/2000/svg}"
    root = ElementTree.parse(svg).getroot()
    (marker,), (circle,) = list(root.iter(ns + "marker")), list(root.iter(ns + "circle"))
    assert marker.find(ns + "circle") is circle
    assert (circle.get("r"), circle.get("fill")) == ("3", "#1f4e9c")
    assert marker.get("markerUnits") == "userSpaceOnUse"
    # the dot is centred on the vertex and fits the box that markers clip to
    assert (marker.get("refX"), marker.get("refY")) == (circle.get("cx"), circle.get("cy"))
    r = float(circle.get("r"))
    for c, side in (("cx", "markerWidth"), ("cy", "markerHeight")):
        assert r <= float(circle.get(c)) <= float(marker.get(side)) - r
    (poly,) = root.iter(ns + "polyline")
    url = f"url(#{marker.get('id')})"
    assert [poly.get("marker-" + at) for at in ("start", "mid", "end")] == [url] * 3
    rows = [row.split(",")[1:] for row in csv.read_text().splitlines()[1:]]
    finite = sum(all(math.isfinite(float(v)) for v in row) for row in rows)
    assert len(poly.get("points").split()) == finite >= 1
    low = svg.read_text().lower()  # as bench/check.py check_svg scans it
    assert "nan" not in low and "inf" not in low


def test_orbit_svg_output(capsys, tmp_path):
    svg, csv = tmp_path / "o.svg", tmp_path / "o.csv"
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3927",
                     "--iters", "8", "--out", str(csv), "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg xmlns" in text and "<polyline" in text and "<line" in text
    _assert_svg_marks_each_point(svg, csv)


def test_orbit_svg_degenerate_bbox(capsys, tmp_path):
    svg, csv = tmp_path / "o.svg", tmp_path / "o.csv"
    code, _, _ = run(capsys, "orbit", "0", "0", "--lambda", "2", "--axis", "1",
                     "--iters", "3", "--out", str(csv), "--svg", str(svg))
    assert code == 0
    assert "<polyline" in svg.read_text()
    _assert_svg_marks_each_point(svg, csv)
    # With no finite point the box is empty. The CLI rejects such a start,
    # but the library takes any Point2.
    rec = cli.orbit(cli.Point2(math.inf, 0.0), cli.ReflectScale(1.0, cli.AxisLine(0.3)), 3)
    with pytest.raises(ValueError, match="no point of the orbit trace is finite"):
        cli.orbit_svg(rec.xs, rec.ys, rec.map.axis)


@pytest.mark.parametrize("render", [cli.orbit_csv, lambda xs, ys: cli.orbit_svg(
    xs, ys, cli.AxisLine(0.3))], ids=["csv", "svg"])
@pytest.mark.parametrize("xs,ys", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0])],
                         ids=["longer-xs", "longer-ys"])
def test_renderers_refuse_traces_of_two_lengths(render, xs, ys):
    with pytest.raises(ValueError, match="^xs and ys must have the same length$"):
        render(array("d", xs), array("d", ys))


def test_orbit_svg_box_scales_with_its_coordinates():
    # The largest coordinate, 2**1000, scales the box by 2**-1001, and the
    # others underflow to zeros of either sign under that scale, the zeros
    # in an order where min and max keep a zero whose sign differs from that
    # of the scaled extreme.
    xs = array("d", [2.0**1000, 0.0, -5e-324, -1e-300, -0.0, 3.0])
    ys = array("d", [0.0, 5e-324, -5e-324, -1e-310, -0.0, 0.0])
    svg = cli.orbit_svg(xs, ys, cli.AxisLine(0.3))
    assert (hashlib.sha256(svg.encode()).hexdigest()
            == "884c38bcbb5a911c069a335120fa3e09416c4280e2937b3ee738db50ade03e62")


# --- classify --------------------------------------------------------------------


def test_classify_contracting(capsys):
    rec = run_json(capsys, "classify", "3", "4", "--lambda", "0.9", "--axis", "1.1")
    assert rec["cardinality"] == {"kind": "Infinite"}
    assert rec["stable_set"] == "WholePlane"
    assert rec["convergence"]["Usual"] == {"kind": "ConvergesTo", "limit": [0.0, 0.0]}
    assert rec["convergence"]["Discrete"] == {"kind": "NotConvergent"}


def test_classify_unit_scale(capsys):
    rec = run_json(capsys, "classify", "3", "4", "--lambda", "1.0", "--axis", "1.1")
    assert rec["cardinality"] == {"kind": "Finite", "size": 2}
    assert rec["stable_set"] == "SingletonSelf"
    assert rec["convergence"]["Usual"] == {"kind": "NotConvergent"}


def test_classify_origin(capsys):
    rec = run_json(capsys, "classify", "0", "0", "--lambda", "-2", "--axis", "0")
    assert rec["cardinality"] == {"kind": "Finite", "size": 1}
    assert rec["stable_set"] == "SingletonSelf"
    assert rec["convergence"]["Usual"]["kind"] == "ConvergesTo"


def test_classify_degrees(capsys):
    rec = run_json(capsys, "classify", "2", "2", "--lambda", "1", "--axis", "45", "--degrees")
    assert rec["convergence"]["Discrete"] == {"kind": "ConvergesTo", "limit": [2.0, 2.0]}


# (3, 4) lies on neither the axis 0.3 nor its perpendicular, even at tol 0.2.
@pytest.mark.parametrize("lam,tol", [
    ("0.7", "0.2"), ("0.9999999999", None), ("-0.9999999999", None), ("1.0000000001", None),
    ("1e-10", None), ("0.5", None), ("2", None), ("0.9999999999", "1e-12")])
def test_classify_stable_set_is_whole_exactly_when_usual_converges_to_origin(capsys, lam, tol):
    argv = ("classify", "3", "4", "--axis", "0.3", "--lambda", lam, *(("--tol", tol) if tol else ()))
    rec = run_json(capsys, *argv)
    assert (rec["stable_set"] == "WholePlane") == (
        rec["convergence"]["Usual"] == {"kind": "ConvergesTo", "limit": [0.0, 0.0]})
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = out.splitlines()
    assert f"stable_set = {rec['stable_set']}" in lines
    assert ("stable_set = WholePlane" in lines) == (
        "convergence[Usual] = ConvergesTo (0, 0)" in lines)


# The start and map decide every orbit verdict through three facts (the
# exact origin test, the scale class of lam and the test for the line the map
# fixes), each decided once per command: 1 to 4 negligible calls in all.
@pytest.mark.parametrize("lam", ["0", "1", "-1", "0.7", "2"])
@pytest.mark.parametrize("command", ["classify", "orbit"])
def test_each_orbit_fact_is_decided_once_per_command(monkeypatch, capsys, command, lam):
    from symdyn import dynamics
    dynamics._facts.cache_clear()
    dynamics._scale_class.cache_clear()
    calls, negligible = [], cli.Tolerance.negligible
    monkeypatch.setattr(cli.Tolerance, "negligible",
                        lambda self, *args: calls.append(args) or negligible(self, *args))
    iters = ("--iters", "3") if command == "orbit" else ()
    code, _, err = run(capsys, command, "3", "4", "--lambda", lam, "--axis", "0.3", *iters)
    assert code == 0, err
    assert 1 <= len(calls) <= 4, calls


def test_the_fact_cache_answers_only_for_its_own_arguments():
    from symdyn import dynamics
    from symdyn.geometry import AxisLine, ReflectScale
    p, q, tol = cli.Point2(3.0, 4.0), cli.Point2(-30.0, -40.0), cli.Tolerance()
    near_one = ReflectScale(0.9995, AxisLine(0.3))
    on_y_axis = ReflectScale(1.0, AxisLine(math.pi / 2.0))

    def verdicts(p, m, tol):
        # repr, so that a limit's -0.0 is told from 0.0
        return repr((dynamics.classify_orbit_cardinality(p, m, tol),
                     dynamics.stable_set(p, m.lam, tol),
                     [dynamics.classify_convergence(p, m, t, tol) for t in dynamics.Topology],
                     dynamics.is_power_identity(m.lam, 2, tol),
                     dynamics.is_forward_asymptotic(p, q, m.lam, tol)))

    def fresh(*args):
        dynamics._facts.cache_clear()
        dynamics._scale_class.cache_clear()
        return verdicts(*args)

    # 0.9995 is of class 1 within 1e-3 and of no class within 1e-9; the
    # starts (0.0, 2) and (-0.0, 2) are equal keys, both fixed by the map.
    cases = [(p, near_one, cli.Tolerance(1e-3)), (p, near_one, cli.Tolerance(1e-9)),
             (cli.Point2(0.0, 2.0), on_y_axis, tol), (cli.Point2(-0.0, 2.0), on_y_axis, tol)]
    expected = [fresh(*case) for case in cases]
    assert "Finite(size=2)" in expected[0] and "SingletonSelf" in expected[0]
    assert "Infinite()" in expected[1] and "WholePlane" in expected[1]
    assert expected[2].replace("x=0.0", "x=-0.0") == expected[3] != expected[2]
    for _ in range(3):
        for case, answer in zip(cases + cases[::-1], expected + expected[::-1]):
            assert verdicts(*case) == answer, case


# --- compose ----------------------------------------------------------------------

# compose loads numpy through rotation_matrix and matrix_from_params; the other
# commands run without it.


def test_compose_identity_rotation(capsys):
    pytest.importorskip("numpy")
    rec = run_json(capsys, "compose", "--alpha", "0", "--theta", "1.2", "--cw")
    assert rec["gamma"] == 1.2
    assert rec["residual"] < 1e-12
    assert rec["verified"] is True


def test_compose_equal_angles(capsys):
    pytest.importorskip("numpy")
    half_pi = "1.5707963267948966"
    rec = run_json(capsys, "compose", "--alpha", half_pi, "--theta", half_pi, "--cw")
    assert rec["gamma"] == 0.0
    assert rec["reflection"] == [1.0, 0.0, 0.0, -1.0]


def test_compose_anticlockwise(capsys):
    pytest.importorskip("numpy")
    rec = run_json(capsys, "compose", "--alpha", str(math.pi / 3.0),
                   "--theta", str(math.pi / 2.0), "--acw")
    assert abs(rec["gamma"] - 5.0 * math.pi / 6.0) <= 1e-12
    assert rec["residual"] < 1e-12


def test_compose_product_rounds_each_entry_once(capsys):
    # Each product entry is fma(a_i1, b_1j, a_i0 * b_0j), whatever BLAS numpy
    # was built with; at these angles a_i0 * b_0j + a_i1 * b_1j rounded twice
    # differs in two entries.
    pytest.importorskip("numpy")
    rec = run_json(capsys, "compose", "--alpha", "0.1", "--theta", "0.1", "--cw")
    a, b = oracles.rotation_cw(0.1), oracles.reflection_matrix_from_matrix_angle(0.1)
    fused = oracles.fused_mat_mul(a, b)
    assert rec["product"] == fused[0] + fused[1]
    assert fused != oracles.mat_mul(a, b)
    assert rec["residual"] == max(abs(x - y) for x, y in zip(rec["product"], rec["reflection"]))


def test_compose_requires_direction(capsys):
    code, _, _ = run(capsys, "compose", "--alpha", "1", "--theta", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    # verified compares the residual with a fixed 1e-12
    ("compose", "--alpha", "1e4", "--theta", "0.3", "--cw"),
    # build decomposes the matrix it built, symmetric with trace exactly 0
    ("build", "2", "--theta", "1"),
], ids=["compose", "build"])
def test_compose_takes_no_tolerance(capsys, argv):
    # a --tol would go unread, so the parser refuses it
    code, out, err = run(capsys, *argv, "--tol", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 1" in err


def test_compose_sheds_whole_turns_before_it_subtracts(capsys):
    # theta - alpha is rounded after each angle loses its whole periods, so
    # the residual no longer grows with the ulp of alpha = 1e4.
    pytest.importorskip("numpy")
    rec = run_json(capsys, "compose", "--alpha", "1e4", "--theta", "0.3", "--cw")
    exact = float((Fraction(0.3) - Fraction(1e4)) % Fraction(2.0 * math.pi))
    assert oracles.ang_dist(rec["gamma"], exact) <= 2.0 * math.ulp(2.0 * math.pi)
    assert rec["verified"] is True and rec["residual"] <= 1e-12


def test_compose_degrees(capsys):
    pytest.importorskip("numpy")
    rec = run_json(capsys, "compose", "--alpha", "30", "--theta", "90", "--acw", "--degrees")
    assert abs(rec["gamma"] - math.radians(120.0)) <= 1e-12
    # 1e20 degrees is 280 degrees plus whole turns, which reduce exactly.
    code, out, _ = run(capsys, "compose", "--alpha", "1e20", "--theta", "0", "--cw", "--degrees")
    assert code == 0 and out.endswith("verified = true\n")


# --- psym --------------------------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_psym_scalar_member(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", "4\n3 0 0 0\n0 3 0 0\n0 0 3 0\n0 0 0 3\n")
    rec = run_json(capsys, "psym", path)
    assert rec["member"] is True
    assert rec["c"] == 3.0


def test_psym_offdiagonal_witness(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", "2 0 1 1 0")
    rec = run_json(capsys, "psym", path)
    assert rec["member"] is False
    assert rec["witness"] == [0.0, 1.0, 1.0, 0.0]
    assert rec["trace"] == 2.0


def test_psym_diagonal_witness(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", "2 1 0 0 2")
    rec = run_json(capsys, "psym", path)
    assert rec["member"] is False
    assert rec["witness"] == [1.0, 0.0, 0.0, -1.0]
    assert rec["trace"] == -1.0


def test_psym_asymmetric_exits_2(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", "2 0 1 2 0")
    code, _, err = run(capsys, "psym", path)
    assert code == 2
    assert "not symmetric" in err


def test_psym_dimension_out_of_range_exits_2(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", "65 " + " ".join(["0"] * (65 * 65)))
    code, _, _ = run(capsys, "psym", path)
    assert code == 2
    path = _write(tmp_path, "m1.txt", "1 5")
    code, _, _ = run(capsys, "psym", path)
    assert code == 2


@pytest.mark.parametrize("text,line", [
    ("", "error: empty matrix file"),
    ("2.0 1 0 0 1", "error: first token must be the matrix dimension n"),
    ("65 0", "error: n must be between 2 and 64"),
    ("2 1 2 3", "error: expected 4 entries after the dimension, got 3"),
], ids=["empty", "n-not-an-integer", "n-out-of-range", "entry-count"])
def test_psym_file_errors_exit_2_with_their_line(capsys, tmp_path, text, line):
    code, out, err = run(capsys, "psym", _write(tmp_path, "m.txt", text))
    assert (code, out, err) == (2, "", line + "\n")


def test_psym_missing_file_exits_3(capsys):
    code, _, _ = run(capsys, "psym", "/nonexistent-dir-xyz/m.txt")
    assert code == 3


def test_psym_malformed_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "psym", _write(tmp_path, "m.txt", "2 1 2 3"))
    assert code == 2
    code, _, _ = run(capsys, "psym", _write(tmp_path, "m2.txt", "two 1 2 3 4"))
    assert code == 2


def _psym64(witness: bool) -> str:
    # 1.75 * I plus seeded noise far below the threshold; the diagonal sums
    # to a different float in numpy's pairwise order than left to right. With
    # witness, the last off-diagonal pair is moved, so the witness is the last
    # basis element and every pairing before it is examined.
    rng = random.Random(64)
    n = 64
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1.75 + rng.uniform(-1e-11, 1e-11)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.uniform(-1e-12, 1e-12)
    if witness:
        m[n - 2][n - 1] = m[n - 1][n - 2] = 1e-3
    return f"{n}\n" + "\n".join(" ".join(map(repr, row)) for row in m) + "\n"


# sha256 of psym's stdout for each _psym64 matrix, in text and in JSON.
PSYM64_DIGESTS = {
    (False, False): "d8dc7e1c8f4c8bcd7be955d5c0725cf644f12f3455f87c7d7f13b3d742a555b6",
    (False, True): "3bb932e2c77577622b16f863c1ee1e1569d341816de7633c87abf8186c1ad073",
    (True, False): "71212e452d85dc7a1554782f9648342cd0ad399361bfa3df969beddd50711d6a",
    (True, True): "f37e81d6adbcff90b1fd9a9ff5f5091f025d7f409eafeac2a412dcb5b083a60a",
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("witness", [False, True], ids=["member", "near-scalar"])
def test_psym_n64_bytes_and_time(capsys, tmp_path, witness, as_json):
    text = _psym64(witness)
    path = _write(tmp_path, "m.txt", text)
    start = time.perf_counter()
    code, out, err = run(capsys, "psym", path, *(["--json"] if as_json else []))
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PSYM64_DIGESTS[witness, as_json]
    # About 10 ms for the near-scalar input on a 2-core x86 host.
    assert elapsed < 3.0
    if not witness:  # c is the diagonal's mean summed in numpy's pairwise order
        left_to_right = sum(float(t) for t in text.split()[1::65]) / 64
        assert f"{left_to_right:.17g}" not in out and repr(left_to_right) not in out


def test_psym_n64_builds_only_its_witness(capsys, tmp_path, monkeypatch):
    # The near-scalar witness is the last basis element; psym builds it alone,
    # not the 2,079 elements before it.
    from symdyn.frobenius import SymMatN
    built, post_init = [], SymMatN.__post_init__
    monkeypatch.setattr(SymMatN, "__post_init__", lambda self: built.append(1) or post_init(self))
    code, _, err = run(capsys, "psym", _write(tmp_path, "m.txt", _psym64(True)))
    assert (code, err) == (0, "")
    assert 0 < len(built) < 10


def test_psym_entries_near_the_float_limit(capsys, tmp_path):
    # The threshold eps * |a| is taken in coordinates scaled by a power
    # of two once |a| overflows; before, it was inf and every matrix a member.
    rec = run_json(capsys, "psym", _write(tmp_path, "a.txt", "2  1e200 0  0 0"))
    assert rec == {"member": False, "n": 2, "witness": [1.0, 0.0, 0.0, -1.0], "trace": 1e200}
    rec = run_json(capsys, "psym", _write(tmp_path, "b.txt", "2  1.7e308 0  0 1.7e308"))
    assert rec == {"member": True, "n": 2, "c": 1.7e308}
    code, out, err = run(capsys, "psym", _write(tmp_path, "c.txt", "2  1 1.7e308  1.7e308 1"))
    assert (code, out) == (2, "")
    assert err == "error: the witness trace overflows float64\n"
    code, out, err = run(capsys, "psym", _write(tmp_path, "d.txt", "2  1 1e308  -1e308 1"))
    assert (code, out) == (2, "")
    assert err == "error: not symmetric: entries (0,1) and (1,0) differ\n"


def test_psym_norm_overflow_band(capsys, tmp_path):
    # |a| is about 1.41e308, finite, but the sum of squares it comes from is
    # not, so the threshold and c are taken in rescaled coordinates. A norm
    # that stayed finite here (math.hypot) would leave the diagonal's sum,
    # 2e308, to overflow: c = inf in text, exit 2 in JSON.
    path = _write(tmp_path, "m.txt", "2  1e308 0  0 1e308")
    assert run(capsys, "psym", path) == (0, "member = true\nc = 1e+308\n", "")
    assert run_json(capsys, "psym", path) == {"member": True, "n": 2, "c": 1e308}


def test_psym_subnormal_c_is_rounded_once(capsys, tmp_path):
    # A member whose c is subnormal: trace / n is rounded once, onto the
    # subnormal grid. Divided in rescaled coordinates, then rescaled by
    # ldexp, it would be rounded twice and come out one unit off.
    ulps = [1226428042755801, 1226428042755806, 1226428042755805, 1226428042755801,
            1226428042755804]
    diagonal = [math.ldexp(u, -1074) for u in ulps]
    rows = [" ".join(repr(d) if i == j else "0" for j in range(5)) for i, d in enumerate(diagonal)]
    path = _write(tmp_path, "m.txt", "5\n" + "\n".join(rows))
    c = float(Fraction(sum(ulps), 5) * Fraction(2) ** -1074)
    assert c < sys.float_info.min
    assert run_json(capsys, "psym", path) == {"member": True, "n": 5, "c": c}


# --- ortho-classify -----------------------------------------------------------------


def test_ortho_classify_rotation(capsys):
    rec = run_json(capsys, "ortho-classify", "1", "0", "0", "1")
    assert rec == {"variant": "Rotation", "angle": 0.0}


def test_ortho_classify_reflection(capsys):
    rec = run_json(capsys, "ortho-classify", "0", "1", "1", "0")
    assert rec["variant"] == "Reflection"
    assert abs(rec["angle"] - math.pi / 2.0) <= 1e-12


def test_ortho_classify_rejects_non_orthogonal(capsys):
    code, _, err = run(capsys, "ortho-classify", "2", "0", "0", "2")
    assert code == 2


# --- the --tol range -------------------------------------------------------------------


def _largest_close_to_zero(tol):
    # close(lam, 0) holds from 0 up to some lam below 1; bisect for its end.
    lo, hi = 0.0, 1.0
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        lo, hi = (mid, hi) if tol.close(mid, 0.0) else (lo, mid)
    return lo


def _classes_overlap(eps):
    # Some lam is close to both 0 and 1 exactly when the largest lam close to
    # 0 is, since close(lam, 1) only gains as lam grows toward 1.
    tol = cli.Tolerance(eps)
    return tol.close(_largest_close_to_zero(tol), 1.0)


def test_max_tol_is_the_first_eps_where_the_scale_classes_overlap():
    lo, hi = 0.25, 0.3
    assert not _classes_overlap(lo) and _classes_overlap(hi)
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        lo, hi = (lo, mid) if _classes_overlap(mid) else (mid, hi)
    assert (lo, hi) == (math.nextafter(cli.MAX_TOL, 0.0), cli.MAX_TOL)
    assert hi == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)
    # No lam around the crossing is close to both one ulp below the bound.
    tol = cli.Tolerance(lo)
    lam = _largest_close_to_zero(tol)
    for _ in range(500):
        lam = math.nextafter(lam, 0.0)
    for _ in range(1000):
        assert not (tol.close(lam, 0.0) and tol.close(lam, 1.0)), lam
        lam = math.nextafter(lam, 1.0)


TOL_BOUND_ERROR = ("error: --tol must be below 0.2928932188134525,"
                   " where the scale classes 0 and 1 overlap\n")
TOL_ARGV = {
    "decompose": ["3", "4", "4", "-3"],
    "orbit": ["1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "2"],
    "classify": ["3", "4", "--lambda", "5", "--axis", "0"],
    "psym": ["{file}"],
    "ortho-classify": ["0", "1", "1", "0"],
}


@pytest.mark.parametrize("command", TOL_ARGV)
def test_tol_from_the_bound_up_exits_2(capsys, tmp_path, command):
    path = _write(tmp_path, "m.txt", "2  1 0  0 1")
    argv = [command] + [a.format(file=path) for a in TOL_ARGV[command]]
    code, _, err = run(capsys, *argv, "--tol", repr(math.nextafter(cli.MAX_TOL, 0.0)))
    assert (code, err) == (0, "")
    for tol in (cli.MAX_TOL, 0.5, 10.0, 1e308, math.inf):
        assert run(capsys, *argv, "--tol", repr(tol)) == (2, "", TOL_BOUND_ERROR)


@pytest.mark.parametrize("command", TOL_ARGV)
def test_tol_that_is_not_positive_exits_2(capsys, tmp_path, command):
    # the line names the option given, not the library's eps
    path = _write(tmp_path, "m.txt", "2  1 0  0 1")
    argv = [command] + [a.format(file=path) for a in TOL_ARGV[command]]
    for tol in ("0", "-1", "nan"):
        assert run(capsys, *argv, f"--tol={tol}") == (
            2, "", "error: --tol must be a positive real\n")


@pytest.mark.parametrize("argv", [
    # Past the bound the first class that matches would answer: Finite(1) and
    # ConvergesTo (0, 0) for a scale of 5, a Rotation for determinant -25,
    # and lambda = 0 for a scale of 5.
    ("classify", "3", "4", "--lambda", "5", "--axis", "0", "--tol", "1e308"),
    ("ortho-classify", "3", "4", "4", "-3", "--tol", "10"),
    ("decompose", "3", "4", "4", "-3", "--tol", "10"),
])
def test_tol_where_the_classes_overlap_is_rejected(capsys, argv):
    assert run(capsys, *argv) == (2, "", TOL_BOUND_ERROR)


# --- verdicts at every scale -------------------------------------------------------------

# The rule behind every verdict on a point or a matrix has no absolute floor,
# and each matrix precondition compares beside the largest |entry|, so c * p
# and c * A get the verdicts of p and A. Each argv once got another answer:
# the first two were a fixed point at the origin, the third a member with
# c = 2e-12, the fourth printed the zero element and the last two exited 2.
SCALE_FREE = [
    (("classify", "1e-10", "0", "--lambda", "2", "--axis", "0.3"),
     {"cardinality": {"kind": "Infinite"}, "convergence": {
         "Discrete": {"kind": "NotConvergent"}, "Usual": {"kind": "DivergesToInfinity"}}},
     ["cardinality = Infinite", "convergence[Usual] = DivergesToInfinity"]),
    (("classify", "1e-10", "2e-10", "--lambda", "1", "--axis", "0"),
     {"cardinality": {"kind": "Finite", "size": 2}, "convergence": {
         "Discrete": {"kind": "NotConvergent"}, "Usual": {"kind": "NotConvergent"}}},
     ["cardinality = Finite(2)", "convergence[Usual] = NotConvergent"]),
    (("psym", "{file}"),
     {"member": False, "witness": [1.0, 0.0, 0.0, -1.0], "trace": -2.0000000000000004e-12},
     ["member = false", "witness = [1, 0, 0, -1]"]),
    (("decompose", "1e20", "0", "0", "-99999999999999983616"),
     {"lambda": 1e20, "theta": 0.0, "matrix": [1e20, 0.0, 0.0, -1e20]},
     ["lambda = 1e+20", "theta = 0"]),
    (("decompose", "1e20", "1", "2", "-1e20"),
     {"lambda": 1e20, "matrix": [1e20, 1.5000000000000002, 1.5000000000000002, -1e20]},
     ["lambda = 1e+20", "matrix = [[1e+20, 1.5000000000000002], [1.5000000000000002, -1e+20]]"]),
]


@pytest.mark.parametrize("argv,record,lines", SCALE_FREE,
                         ids=["diverges", "two-cycle", "psym-witness", "trace-ulp", "asymmetry-ulp"])
def test_each_verdict_holds_at_every_scale(capsys, tmp_path, argv, record, lines):
    argv = [a.replace("{file}", _write(tmp_path, "m.txt", "2  1e-12 0  0 3e-12")) for a in argv]
    rec = run_json(capsys, *argv)
    assert {k: rec[k] for k in record} == record
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert set(lines) <= set(out.splitlines()), out


def test_a_scalar_matrix_of_any_size_is_not_trace_zero(capsys):
    # 3e-10 * I once passed the trace-zero test, and decompose printed the
    # zero element, which only the zero matrix gives.
    for extra in ((), ("--json",)):
        assert run(capsys, "decompose", "3e-10", "0", "0", "3e-10", *extra) == (
            2, "", "error: not trace zero: trace is 6e-10\n")


# --- parser-level behavior ------------------------------------------------------------


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["orbit", "--help"]) == 0


# --- full output bytes, text and JSON ---------------------------------------------------

# stdout of every command in both forms, and of both psym outcomes; text and
# JSON are rendered from one record, so each pair pins the same values twice.
PINNED = [
    (("decompose", "3", "4", "4", "-3"),
     "lambda = 5\ntheta = 0.92729521800161219\naxis = 0.46364760900080609\n"
     "matrix = [[3.0000000000000004, 3.9999999999999996], "
     "[3.9999999999999996, -3.0000000000000004]]\n",
     '{"lambda": 5.0, "theta": 0.9272952180016122, "axis": 0.4636476090008061, '
     '"matrix": [3.0000000000000004, 3.9999999999999996, 3.9999999999999996, '
     '-3.0000000000000004]}\n'),
    (("build", "5", "--theta", "0.9272952180016122"),
     "lambda = 5\ntheta = 0.92729521800161208\naxis = 0.46364760900080604\n"
     "matrix = [[3.0000000000000004, 3.9999999999999996], "
     "[3.9999999999999996, -3.0000000000000004]]\n",
     '{"lambda": 5.0, "theta": 0.9272952180016121, "axis": 0.46364760900080604, '
     '"matrix": [3.0000000000000004, 3.9999999999999996, 3.9999999999999996, '
     '-3.0000000000000004]}\n'),
    (("build", "2", "--axis", "30", "--degrees"),
     "lambda = 2\ntheta = 1.0471975511965976\naxis = 0.52359877559829882\n"
     "matrix = [[1.0000000000000002, 1.7320508075688772], "
     "[1.7320508075688772, -1.0000000000000002]]\n",
     '{"lambda": 2.0, "theta": 1.0471975511965976, "axis": 0.5235987755982988, '
     '"matrix": [1.0000000000000002, 1.7320508075688772, 1.7320508075688772, '
     '-1.0000000000000002]}\n'),
    (("orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3927", "--iters", "3"),
     "n,x,y\n0,1,0\n1,0.35355274125561814,0.35355403992973677\n2,0.24999999999999997,0\n"
     "3,0.088388185313904521,0.08838850998243418\ncardinality = Infinite\n"
     "convergence[Discrete] = NotConvergent\nconvergence[Usual] = ConvergesTo (0, 0)\n",
     '{"start": [1.0, 0.0], "lambda": 0.5, "axis": 0.3927, "iters": 3, '
     '"cardinality": {"kind": "Infinite"}, "convergence": {"Discrete": '
     '{"kind": "NotConvergent"}, "Usual": {"kind": "ConvergesTo", "limit": [0.0, 0.0]}}, '
     '"csv": null, "svg": null, "points": [[0, 1.0, 0.0], '
     '[1, 0.35355274125561814, 0.3535540399297368], [2, 0.24999999999999997, 0.0], '
     '[3, 0.08838818531390452, 0.08838850998243418]]}\n'),
    (("orbit", "1", "1", "--lambda", "1", "--axis", "0.7853981634", "--iters", "2"),
     "n,x,y\n0,1,1\n1,0.99999999999489664,1.0000000000051035\n2,1,1\n"
     "cardinality = Finite(1)\nconvergence[Discrete] = ConvergesTo (1, 1)\n"
     "convergence[Usual] = ConvergesTo (1, 1)\n",
     '{"start": [1.0, 1.0], "lambda": 1.0, "axis": 0.7853981634, "iters": 2, '
     '"cardinality": {"kind": "Finite", "size": 1}, "convergence": {"Discrete": '
     '{"kind": "ConvergesTo", "limit": [1.0, 1.0]}, "Usual": {"kind": "ConvergesTo", '
     '"limit": [1.0, 1.0]}}, "csv": null, "svg": null, "points": [[0, 1.0, 1.0], '
     '[1, 0.9999999999948966, 1.0000000000051035], [2, 1.0, 1.0]]}\n'),
    (("classify", "3", "4", "--lambda", "0.9", "--axis", "1.1"),
     "cardinality = Infinite\nstable_set = WholePlane\nconvergence[Discrete] = NotConvergent\n"
     "convergence[Usual] = ConvergesTo (0, 0)\n",
     '{"start": [3.0, 4.0], "lambda": 0.9, "axis": 1.1, "cardinality": {"kind": "Infinite"}, '
     '"stable_set": "WholePlane", "convergence": {"Discrete": {"kind": "NotConvergent"}, '
     '"Usual": {"kind": "ConvergesTo", "limit": [0.0, 0.0]}}}\n'),
    (("classify", "1", "0", "--lambda", "-1", "--axis", "0.3"),
     "cardinality = Finite(2)\nstable_set = SingletonSelf\n"
     "convergence[Discrete] = NotConvergent\nconvergence[Usual] = NotConvergent\n",
     '{"start": [1.0, 0.0], "lambda": -1.0, "axis": 0.3, '
     '"cardinality": {"kind": "Finite", "size": 2}, "stable_set": "SingletonSelf", '
     '"convergence": {"Discrete": {"kind": "NotConvergent"}, '
     '"Usual": {"kind": "NotConvergent"}}}\n'),
    (("compose", "--alpha", "1.0471975512", "--theta", "1.5707963268", "--acw"),
     "gamma = 2.6179938780000001\n"
     "product = [[-0.86602540378869153, 0.49999999999263384], "
     "[0.49999999999263384, 0.86602540378869153]]\n"
     "reflection = [[-0.86602540378869153, 0.49999999999263384], "
     "[0.49999999999263384, 0.86602540378869153]]\nresidual = 0\nverified = true\n",
     '{"alpha": 1.0471975512, "theta": 1.5707963268, "direction": "Anticlockwise", '
     '"gamma": 2.617993878, "product": [-0.8660254037886915, 0.49999999999263384, '
     '0.49999999999263384, 0.8660254037886915], "reflection": [-0.8660254037886915, '
     '0.49999999999263384, 0.49999999999263384, 0.8660254037886915], "residual": 0.0, '
     '"verified": true}\n'),
    (("psym", "member.txt"),
     "member = true\nc = 2\n",
     '{"member": true, "n": 2, "c": 2.0}\n'),
    (("psym", "witness.txt"),
     "member = false\nwitness = [1, 0, 0, 0, -1, 0, 0, 0, 0]\ntrace = -1\n",
     '{"member": false, "n": 3, "witness": [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0], '
     '"trace": -1.0}\n'),
    (("ortho-classify", "0", "1", "1", "0"),
     "variant = Reflection\nangle = 1.5707963267948966\n",
     '{"variant": "Reflection", "angle": 1.5707963267948966}\n'),
    (("ortho-classify", "0", "-1", "1", "0"),
     "variant = Rotation\nangle = 4.7123889803846897\n",
     '{"variant": "Rotation", "angle": 4.71238898038469}\n'),
    # A zero angle is +0.0, whether it came from -0 or from -2*pi, so the
    # axis -0 reflects (1, 0) to (1, 0), not (1, -0); the JSON-only keys echo
    # the input as given.
    (("build", "1", "--axis", "-0"),
     "lambda = 1\ntheta = 0\naxis = 0\nmatrix = [[1, 0], [0, -1]]\n",
     '{"lambda": 1.0, "theta": 0.0, "axis": 0.0, "matrix": [1.0, 0.0, 0.0, -1.0]}\n'),
    (("orbit", "1", "0", "--lambda", "1", "--axis", "-0", "--iters", "1"),
     "n,x,y\n0,1,0\n1,1,0\ncardinality = Finite(1)\nconvergence[Discrete] = ConvergesTo (1, 0)\n"
     "convergence[Usual] = ConvergesTo (1, 0)\n",
     '{"start": [1.0, 0.0], "lambda": 1.0, "axis": -0.0, "iters": 1, '
     '"cardinality": {"kind": "Finite", "size": 1}, "convergence": {"Discrete": '
     '{"kind": "ConvergesTo", "limit": [1.0, 0.0]}, "Usual": {"kind": "ConvergesTo", '
     '"limit": [1.0, 0.0]}}, "csv": null, "svg": null, "points": [[0, 1.0, 0.0], '
     '[1, 1.0, 0.0]]}\n'),
    (("build", "3", "--theta", "-6.283185307179586"),
     "lambda = 3\ntheta = 0\naxis = 0\nmatrix = [[3, 0], [0, -3]]\n",
     '{"lambda": 3.0, "theta": 0.0, "axis": 0.0, "matrix": [3.0, 0.0, 0.0, -3.0]}\n'),
    (("ortho-classify", "1", "-0", "0", "1"),
     "variant = Rotation\nangle = 0\n",
     '{"variant": "Rotation", "angle": 0.0}\n'),
    (("compose", "--theta", "-0", "--alpha", "0", "--cw"),
     "gamma = 0\nproduct = [[1, 0], [0, -1]]\nreflection = [[1, 0], [0, -1]]\nresidual = 0\n"
     "verified = true\n",
     '{"alpha": 0.0, "theta": -0.0, "direction": "Clockwise", "gamma": 0.0, '
     '"product": [1.0, 0.0, 0.0, -1.0], "reflection": [1.0, 0.0, 0.0, -1.0], '
     '"residual": 0.0, "verified": true}\n'),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv,text,js", PINNED, ids=[" ".join(c[0][:2]) for c in PINNED])
def test_output_bytes_are_pinned(capsys, tmp_path, argv, text, js, as_json):
    if argv[0] == "compose":
        pytest.importorskip("numpy")
    (tmp_path / "member.txt").write_text("2\n2 0\n0 2\n")
    (tmp_path / "witness.txt").write_text("3\n1 0 0\n0 2 0\n0 0 1\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    assert out == (js if as_json else text)


# --- non-finite inputs and overflow -------------------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (("orbit", "nan", "0", "--lambda", "0.5", "--axis", "0.3", "--json"), "start point"),
    (("classify", "1", "1", "--lambda", "inf", "--axis", "0.3"), "lam must be finite"),
    (("decompose", "1e308", "0", "0", "1e308"), "trace"),
    (("ortho-classify", "1e200", "0", "0", "1e200"), "orthonormal"),
    (("orbit", "1", "0", "--lambda", "1e200", "--axis", "0.3", "--iters", "5", "--json"),
     "JSON"),
], ids=["orbit-nan-start", "classify-inf-scale", "decompose-inf-trace",
        "ortho-classify-inf-gram", "orbit-json-overflow"])
def test_nonfinite_input_or_result_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_orbit_json_overflow_writes_no_file(capsys, tmp_path):
    svg = tmp_path / "s.svg"
    code, out, err = run(capsys, "orbit", "1", "0", "--lambda", "1e200", "--axis", "0.3",
                         "--iters", "5", "--svg", str(svg), "--json")
    assert (code, out) == (2, "")
    assert err == "error: orbit point 2 is not finite, so JSON cannot hold it\n"
    assert not svg.exists()


@pytest.mark.parametrize("argv,code,first", [
    (("decompose", "1e308", "0", "0", "1e308"), 2, "error: not trace zero"),
    (("decompose", "0", "1e308", "-1e308", "0"), 2, "error: not symmetric"),
    (("ortho-classify", "1e200", "0", "0", "1e200"), 2, "error: columns are not orthonormal"),
    (("decompose", "1e308", "0", "0", "-1e308"), 0, "lambda = 1e+308\ntheta = 0\n"),
], ids=["inf-trace", "inf-asymmetry", "inf-gram", "huge-half-difference"])
def test_overflowing_matrix_prints_no_warning(argv, code, first):
    # a process of its own, so a numpy warning would reach the stderr a user sees
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-W", "default", "-m", "symdyn", *argv],
                         capture_output=True, text=True, timeout=60, env=env)
    assert res.returncode == code
    shown, other = (res.stderr, res.stdout) if code else (res.stdout, res.stderr)
    assert shown.startswith(first)
    assert other == ""
    assert res.stderr.count("\n") == (1 if code else 0)


@pytest.mark.parametrize("argv", [
    ("orbit", "1", "0", "--from-matrix", "1e-5", "-2e-05", "-2e-05", "-1e-5", "--iters", "4"),
    ("classify", "1", "-1e-3", "--lambda", "0.5", "--axis", "0.3"),
    ("build", "2", "--theta", "-1.5e-3"),
])
def test_negative_numbers_in_exponent_form_are_values(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_negative_non_finite_tokens_are_values(capsys):
    # -inf, -nan and -Infinity as tokens of their own reach float and then
    # the value type, which rejects them with its own line, as --theta=-inf does.
    for token in ("-inf", "-nan", "-Infinity"):
        for argv, line in [(("build", "2", "--theta", token), "lam and theta must be finite"),
                           (("build", "2", "--axis", token), "lam and theta must be finite"),
                           (("classify", "1", "1", "--lambda", token, "--axis", "0.3"),
                            "lam must be finite")]:
            assert run(capsys, *argv) == (2, "", f"error: {line}\n"), argv


def test_decompose_output_round_trips_in_exponent_form(capsys, tmp_path):
    # %.17g prints 2e-05 in exponent form, and --from-matrix must read it back.
    entries = ("1e-5", "-2e-05", "-2e-05", "-1e-5")
    code, out, _ = run(capsys, "decompose", *entries)
    assert code == 0
    printed = out.split("matrix = ")[1].replace("[", "").replace("]", "").split(", ")
    assert any(v.startswith("-") and "e" in v for v in printed)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "orbit", "1", "0", "--from-matrix", *entries, "--out", str(a))[0] == 0
    assert run(capsys, "orbit", "1", "0", "--from-matrix", *(v.strip() for v in printed),
               "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ("1", "0", "--lambda", "1e200", "--axis", "0.3", "--iters", "5"),
    ("1", "0", "--lambda", "2", "--axis", "0.3", "--iters", "1100"),
    ("1e-310", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "3"),
    # point 1 overflows, so the polyline is the start alone
    ("1e300", "0", "--lambda", "1e200", "--axis", "0.3", "--iters", "1"),
], ids=["huge-scale", "overflow-to-inf", "subnormal-start", "one-finite-point"])
def test_orbit_svg_has_only_finite_coordinates(capsys, tmp_path, argv):
    svg, csv = tmp_path / "o.svg", tmp_path / "o.csv"
    code, _, err = run(capsys, "orbit", *argv, "--out", str(csv), "--svg", str(svg))
    assert code == 0, err
    assert "<polyline" in svg.read_text()
    _assert_svg_marks_each_point(svg, csv)
    # a renderer that stores coordinates in float32 can hold the axis line
    (line,) = ElementTree.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}line")
    for at in ("x1", "y1", "x2", "y2"):
        assert abs(float(line.get(at))) <= 10 * cli.SVG_SIZE, (at, line.get(at))


# Tokens at the ends of the float range; -inf, -nan and -Infinity are tokens
# of their own, which cli._Parser reads as values.
EDGE_TOKENS = ("0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308",
               "1.7976931348623157e308", "-1.7976931348623157e308",
               "inf", "-inf", "nan", "-nan", "-Infinity")


def _any_float(rng: random.Random) -> str:
    # An edge token, a value of ordinary size, or a double drawn by its 64
    # bits, so that every exponent, the subnormal ones included, is as likely.
    r = rng.random()
    if r < 0.2:
        return rng.choice(EDGE_TOKENS)
    if r < 0.5:
        return repr(rng.uniform(-4.0, 4.0))
    return repr(array("d", rng.randbytes(8))[0])


def _negated(token: str) -> str:
    return token[1:] if token.startswith("-") else "-" + token


def _whole_range_argv(rng: random.Random, command: str, tmp_path) -> list[str]:
    f = lambda: _any_float(rng)
    a, b = f(), f()
    trace_zero = [a, b, b, _negated(a)]
    if command == "decompose":
        argv = trace_zero if rng.random() < 0.5 else [f() for _ in range(4)]
    elif command == "ortho-classify":
        t = rng.uniform(-7.0, 7.0)
        c, s = repr(math.cos(t)), repr(math.sin(t))
        argv = rng.choice([[c, s, _negated(s), c], [c, s, s, _negated(c)], [f() for _ in range(4)]])
    elif command == "build":
        argv = [f(), *rng.choice([["--theta", f()], ["--axis", f()], ["--theta", a, "--axis", b]])]
    elif command == "orbit":
        argv = [f(), f(), *(["--from-matrix", *trace_zero] if rng.random() < 0.3
                            else ["--lambda", f(), "--axis", f()])]
        argv += ["--iters", rng.choice(["1", "2", "7", "64", "200", "0", "1000001"])]
        if rng.random() < 0.4:
            argv += ["--out", str(tmp_path / rng.choice(["o.csv", "o.csv", "no/o.csv"]))]
        if rng.random() < 0.4:
            argv += ["--svg", str(tmp_path / "o.svg")]
    elif command == "classify":
        argv = [f(), f(), "--lambda", f(), "--axis", f()]
    elif command == "compose":
        argv = ["--alpha", f(), "--theta", f(), rng.choice(["--cw", "--acw"])]
    else:  # psym: a symmetric, scalar or arbitrary matrix file, or none
        n, shape = rng.choice([2, 3, 4]), rng.random()
        rows = [[f() for _ in range(n)] for _ in range(n)]
        if shape < 0.3:
            rows = [[a if i == j else "0" for j in range(n)] for i in range(n)]
        elif shape < 0.7:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        path = tmp_path / "m.txt"
        path.write_text(f"{n}\n" + "\n".join(" ".join(row) for row in rows) + "\n")
        argv = [str(path if rng.random() < 0.95 else tmp_path / "missing.txt")]
    # build takes no --tol, and --from-matrix no --degrees: such draws only
    # test the parser's refusal, which tests of their own cover.
    if (command in ("build", "orbit", "classify", "compose") and "--from-matrix" not in argv
            and rng.random() < 0.3):
        argv.append("--degrees")
    if command not in ("build", "compose") and rng.random() < 0.2:
        argv += ["--tol", rng.choice(["1e-12", "0.1", f()])]
    if rng.random() < 0.5:
        argv.append("--json")
    return [command, *argv]


WHOLE_RANGE = GOLDEN / "wholerange.sha256"
WHOLE_RANGE_COMMANDS = ("decompose", "build", "orbit", "classify", "psym", "ortho-classify",
                        "compose")


def _whole_range_runs(tmp_path):
    """Yield (index, argv, code, out, err, digest) for each of 1500 whole-range
    argv, run in-process through main().

    One seeded stream picks each command and each command draws its argv from
    a stream of its own, so a command's argv do not depend on which others
    run. compose loads numpy: where it is missing, a compose argv is drawn but
    not run, and its code and digest are None. The digest is cli_digest's, as
    in golden/rounds.sha256, with tmp_path written as {tmp}.
    """
    pick = random.Random(2024)
    streams = {c: random.Random(f"{c}/2024") for c in WHOLE_RANGE_COMMANDS}
    tmp, written = str(tmp_path), (tmp_path / "o.csv", tmp_path / "o.svg")
    for index in range(1500):
        command = pick.choice(WHOLE_RANGE_COMMANDS)
        argv = _whole_range_argv(streams[command], command, tmp_path)
        if command == "compose" and not cli_digest.HAS_NUMPY:
            yield index, argv, None, "", "", None
            continue
        for path in written:
            path.unlink(missing_ok=True)
        try:
            code, out, err, digest = cli_digest.run(argv, tmp)
        except Exception as exc:
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        yield index, argv, code, out, err, digest


def test_whole_float_range_gives_an_answer_or_exit_2(tmp_path):
    # Inputs from every part of the float range, on every command: each run
    # exits 0, 2 or 3, and what it writes holds no NaN or infinity, in JSON,
    # SVG or a text record. compose's verified is not asserted: its residual
    # grows with |alpha| (ROADMAP item 15). Each run's output bytes are the
    # ones golden/wholerange.sha256 pins; a change of output writes it again,
    #     PYTHONPATH=src python tests/test_cli.py > tests/golden/wholerange.sha256
    # and its diff lists the argv that moved.
    def reject(constant):
        raise AssertionError(f"JSON holds {constant}")

    pinned = {}
    for line in WHOLE_RANGE.read_text().splitlines():
        index, command, digest = line.split()
        pinned[int(index)] = (command, digest)
    assert len(pinned) == 1500, "the manifest pins one line per argv"
    svg, codes, moved = tmp_path / "o.svg", set(), []
    for index, argv, code, out, err, digest in _whole_range_runs(tmp_path):
        if digest is None:
            continue
        if pinned[index] != (argv[0], digest):
            moved.append(f"{index}: {' '.join(argv).replace(str(tmp_path), '{tmp}')}")
        codes.add((argv[0], code))
        assert code in (0, 2, 3), (argv, code, err)
        if code == 2:
            assert err.startswith(("error:", "usage:")), (argv, err)
        if code:
            continue
        if "--json" in argv:
            json.loads(out, parse_constant=reject)
        elif argv[0] != "orbit" or "--out" in argv:
            assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), (argv, out)
        if svg.exists():
            text = svg.read_text().lower()
            assert "nan" not in text and "inf" not in text, argv
    # every command both answered and refused some input
    commands = [c for c in WHOLE_RANGE_COMMANDS if cli_digest.HAS_NUMPY or c != "compose"]
    assert codes >= {(c, k) for c in commands for k in (0, 2)}, sorted(codes)
    assert not moved, "output bytes moved:\n" + "\n".join(moved)


# sha256 of the --out CSV and --svg files; the goldens cover only short orbits
@pytest.mark.parametrize("argv,csv_sha,svg_sha", [
    ("0.8 -1.1 --lambda 1.00001 --axis 0.7 --iters 5000",
     "974cfb223d7df2e34cab023c7cda5831f1a227022862988ce2077fbd5fb4e116",
     "46029b20de17c5e78e9c220538d3240795286989187bfe61ed6d231961530ca6"),
    ("1 0 --lambda 2 --axis 0.3 --iters 1100",
     "eeee72175c3a34f906540c1ae32797028b8352782d1791bd634f9e0d5bb9369f",
     "0338953fc8a7ba84974a36aa2721e165c4be266302707d50fc37ba854d4d95a4"),
    ("1 0 --lambda 0.5 --axis 0.3 --iters 1100",
     "696b9861c2aed5156cbda029a721238d7f84bc33adb41e90cf1be947766621ed",
     "55ea00d06effdcdd24db5acfcdfee0b380fedd8477bcc40f2a6de2b11849e1a8"),
    ("1e-310 0 --lambda 1e10 --axis 0.3 --iters 5",
     "07a56e70dd5c54ce31e0e7905b92d5fcde5bedd8a78286662503bd2b066d324a",
     "8af2b114905f5219a8dc97b22453eede46fc5ba1029fb51c375f8c38c799b2e9"),
    ("0 0 --lambda 2 --axis 1 --iters 3",
     "c4c5575123f7dd4e06ed65161f8b077a66987b3f64ac2076156abcb594ff4d7f",
     "3a9a25a3f11a7c61128a1c480c4c2b1fb5ec33073d0451f9b6bde17858bbda7d"),
], ids=["near-unit-5000", "overflow", "underflow", "subnormal-start", "degenerate-box"])
def test_orbit_file_bytes_are_pinned(capsys, tmp_path, argv, csv_sha, svg_sha):
    csv, svg = tmp_path / "o.csv", tmp_path / "o.svg"
    code, _, err = run(capsys, "orbit", *argv.split(), "--out", str(csv), "--svg", str(svg))
    assert code == 0, err
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha


# --- rendering in slices ----------------------------------------------------------------

# sha256 of the CSV (the --out file, or all of stdout) and of the SVG of a
# 40000-step orbit: 40001 rows make five slices of at most cli.SLICE_ROWS
# rows, and the CSV and the polyline's points are the bytes of one unsliced
# render. The overflow orbit's CSV rows are inf or nan from step 1025 on,
# across four slice boundaries; the lam = -1 orbit's float trace repeats
# with period 10 from step 8 on, so it is filled and formatted by cycles.
SLICED = [
    ("0.8 -1.1 --lambda 1.00001 --axis 0.7", True,
     "56b5bbf806ee4d1c9ceb1a30ad0acb6a882838ab525bc2b722b748e9276a74f4",
     "666bce3841b474cb947146f1a114b101a10bf0ed5de41da4902d7081d847e76b"),
    ("0.3 0.2 --lambda 2 --axis 0.4", True,
     "8fdfe61a3d19e4f3a35f26aab4bf839731c64ed02f2bebad5ae3ded2890ee452",
     "c72ce4ed3078b21b519f0a2bb90a928226cbc6703c7a79003e937f99419a3af8"),
    ("0.3 0.2 --lambda 0.5 --axis 0.4", True,
     "18e0bc4728f6edb10e7be53927729eab761a65b8388fea8d7409686717ad88d7",
     "15e2b22a612d903cec1afb3d1d196e803776943a41831fbc3805b13e88fd245a"),
    ("0.8 -1.1 --lambda 0.99999 --axis 0.7", False,
     "5aaf52b40d69c099143b9a5b2a95a539066bd91b94da86093ce99ade5af28f12",
     "3830be08d47dc1aeb2bad303f69b952e925702e461cde141f310ea15c8a32be2"),
    ("1.634027572458791 0.5246117441466955 --lambda -1 --axis 2.5463961090569596", True,
     "2e5001389c9e2e045075af88dcc73ea63bac1795e5412681c011732fdd8dd62b",
     "0c837014df4c62181a066c71404915e51bd4c63fde600c6a0039a5ef8a7bfe96"),
]


@pytest.mark.parametrize("args,to_file,csv_sha,svg_sha", SLICED,
                         ids=["near-unit", "overflow", "underflow", "stdout", "period-ten"])
def test_sliced_rendering_gives_the_same_bytes(capsys, tmp_path, args, to_file, csv_sha,
                                               svg_sha):
    csv, svg = tmp_path / "o.csv", tmp_path / "o.svg"
    argv = ["orbit", *args.split(), "--iters", "40000", "--svg", str(svg)]
    code, out, err = run(capsys, *argv, *(["--out", str(csv)] if to_file else []))
    assert (code, err) == (0, "")
    text = csv.read_bytes() if to_file else out.encode()
    assert hashlib.sha256(text).hexdigest() == csv_sha
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha


# sha256 of the stdout of a 40000-step --json orbit, whose points are written
# slice by slice: the near-unit orbit of SLICED, a lam = -1 orbit whose
# trace alternates between two points from step 1 on, and the period-10
# orbit of SLICED.
SLICED_JSON = [
    ("0.8 -1.1 --lambda 1.00001 --axis 0.7",
     "946d82f0915a2fdd611a768bad2dfde9e59a6614023591ea39abc7c5accdd87b"),
    ("1.5655594644316941 -0.48350133349607777 --lambda -1 --axis 0.24515641675334418",
     "02de061dfc1a9c2671e748b0913db9c3da7c2455620b8901faeb26a06c6a3928"),
    ("1.634027572458791 0.5246117441466955 --lambda -1 --axis 2.5463961090569596",
     "ef3cc0a89c5e02cd6bbcfd11aafdf6cc5ee3987337238cd0c500b23bf94a46ed"),
]


@pytest.mark.parametrize("args,sha", SLICED_JSON, ids=["near-unit", "two-cycle", "period-ten"])
def test_sliced_json_gives_the_same_bytes(capsys, args, sha):
    code, out, err = run(capsys, "orbit", *args.split(), "--iters", "40000", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_rendering_starts_no_process():
    # The library calls are pure: in a process of one thread, where a child
    # could be forked safely, an orbit of many slices renders in the process
    # itself, to the same bytes as the CLI's files.
    _, _, csv_sha, svg_sha = SLICED[0]
    code = (
        "import hashlib, os, sys\n"
        "def refuse(*args):\n"
        "    raise AssertionError('rendering started a process')\n"
        "os.fork = os.pipe = refuse\n"
        "from symdyn import AxisLine, Point2, ReflectScale, orbit\n"
        "from symdyn.cli import orbit_csv, orbit_svg\n"
        "m = ReflectScale(1.00001, AxisLine(0.7))\n"
        "rec = orbit(Point2(0.8, -1.1), m, 40000)\n"
        "svg = orbit_svg(rec.xs, rec.ys, m.axis)\n"
        "for text in (orbit_csv(rec.xs, rec.ys), svg):\n"
        "    print(hashlib.sha256(text.encode()).hexdigest())\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _fresh(code).split() == [csv_sha, svg_sha, "False"]


# Traces that repeat p points, bit for bit, except at one value. Each break
# swaps the sign of a zero or of a nan, or moves a value one ulp: float
# comparison cannot see the first two, and %.3f in the SVG not the third.
# Each kind gives the j-th point of a cycle, and the break.
BREAKS = {
    "signed-zero": (lambda j: ((0.0, -0.0)[j % 2], 1.0 + j), lambda x, y: (-x, y)),
    "nan-sign": (lambda j: ((math.nan, 1.0 + j), (2.0 + j, -math.nan))[j % 2],
                 lambda x, y: (-x, y) if math.isnan(x) else (x, -y)),
    "one-ulp": (lambda j: ((0.1, 0.3)[j % 2] + j // 2, 1.0 + j),
                lambda x, y: (math.nextafter(x, math.inf), y)),
}
# The row that breaks: the first, a middle or the last row of a slice; or,
# across a slice boundary, every p-th row from the last row of one slice on,
# so that the next slice repeats as a whole, through other points.
ROWS = cli.SLICE_ROWS
AT = {"unbroken": (), "first": (ROWS,), "middle": (ROWS + ROWS // 2,),
      "last": (2 * ROWS - 1,), "boundary": range(ROWS - 1, 2 * ROWS + 3)}


@pytest.mark.parametrize("p", [1, 3, 10])
@pytest.mark.parametrize("at", AT)
@pytest.mark.parametrize("kind", BREAKS)
def test_periodic_slices_render_as_every_row(monkeypatch, tmp_path, kind, at, p):
    point, move = BREAKS[kind]
    # a finite start, then 2 * ROWS + 2 points of the cycle
    points = [(0.7, 0.7)] + [point(j % p) for j in range(2 * ROWS + 2)]
    for n in AT[at][::p]:
        points[n] = move(*points[n])
    xs, ys = array("d", [x for x, _ in points]), array("d", [y for _, y in points])
    assert cli._period(xs, ys, ROWS, 2 * ROWS) == (p if at in ("unbroken", "boundary") else 0)
    text = cli.orbit_csv(xs, ys)
    assert text == "n,x,y\n" + "".join(
        "%d,%.17g,%.17g\n" % (n, x, y) for n, (x, y) in enumerate(points))
    axis = cli.AxisLine(0.3)
    csv, svg = tmp_path / "o.csv", tmp_path / "o.svg"
    csv.write_text(text)
    svg.write_text(cli.orbit_svg(xs, ys, axis))
    _assert_svg_marks_each_point(svg, csv)
    # JSON holds no nan, so only the finite breaks render as JSON rows
    if kind != "nan-sign":
        assert _json_rows(xs, ys) == json.dumps(list(zip(range(len(xs)), xs, ys)))
    # and the same vertices as when each slice is formatted row by row
    monkeypatch.setattr(cli, "_period", lambda *args: 0)
    assert svg.read_text() == cli.orbit_svg(xs, ys, axis)


# Period 2: an exact orbit that is not a fixed point alternates between two points.
@pytest.mark.parametrize("at", AT)
@pytest.mark.parametrize("kind", BREAKS)
def test_two_point_slices_render_as_every_row(monkeypatch, tmp_path, kind, at):
    test_periodic_slices_render_as_every_row(monkeypatch, tmp_path, kind, at, 2)


def _json_rows(xs, ys):
    return "[" + "".join(cli._in_slices("[%d, %r, %r]", ", ", xs, ys)) + "]"


def test_json_rows_are_the_bytes_of_json_dumps():
    # Every form repr gives a float: signed zeros, a subnormal, small and large
    # exponents and plain decimals; the last two slices repeat with period 2.
    rng = random.Random(25)
    forms = (-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e+16, 1e22, -1e22)
    values = [rng.choice(forms) if rng.random() < 0.5 else
              math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1023))
              for _ in range(4 * ROWS)]
    xs = array("d", values[:ROWS + 5] + [-0.0, 5e-324] * ROWS)
    ys = array("d", values[2 * ROWS:3 * ROWS + 5] + [1e22, 1e-05] * ROWS)
    text = _json_rows(xs, ys)
    assert text == json.dumps(list(zip(range(len(xs)), xs, ys)))
    for form in ("-0.0", "5e-324", "1e-05", "1e+16", "1e+22"):
        assert f" {form}," in text or f" {form}]" in text, form


# --- start-up ----------------------------------------------------------------------------


def _fresh(code):
    """stdout of code run in a process of its own, with -S, so that no .pth
    file imports anything first."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


# symdyn.__all__, in its order, each name with the submodule that defines it
PUBLIC = {
    "AxisLine": "geometry", "ConvergenceVerdict": "dynamics", "ConvergesTo": "dynamics",
    "DEFAULT_TOL": "core", "Direction": "geometry", "DivergesToInfinity": "dynamics",
    "Finite": "dynamics", "Infinite": "dynamics", "NotConvergent": "dynamics",
    "NotOrthogonalError": "core", "NotSymmetricError": "core", "NotTraceZeroError": "core",
    "ORIGIN": "core", "OrbitRecord": "dynamics", "Orthogonal2": "core",
    "OrthogonalVariant": "core", "Point2": "core", "ReflectScale": "geometry",
    "StableSet": "dynamics", "SymMatN": "frobenius", "Tolerance": "core",
    "Topology": "dynamics", "TraceZeroSym2": "core", "apply_T": "geometry",
    "cauchy_bound": "dynamics", "classify_convergence": "dynamics",
    "classify_orbit_cardinality": "dynamics", "classify_orthogonal": "core",
    "compose_rotation_reflection": "geometry", "corollary_witness": "core",
    "decompose": "core", "distance_after_n": "dynamics",
    "distance_to_origin_after_n": "dynamics", "frobenius_inner": "frobenius",
    "is_forward_asymptotic": "dynamics", "is_in_psym": "frobenius",
    "is_power_identity": "dynamics", "is_scalar_matrix": "frobenius",
    "matrix_from_params": "core", "mod_2pi": "core", "mod_pi": "geometry", "orbit": "dynamics",
    "point_on_line": "geometry", "point_on_perpendicular": "geometry", "power_T": "dynamics",
    "psym_dimension": "frobenius", "reflect_point": "geometry", "rotation_matrix": "geometry",
    "stable_set": "dynamics", "sym0_basis": "frobenius",
}
SUBMODULES = ["core", "geometry", "dynamics", "frobenius"]
LOADED = "sorted(m for m in sys.modules if m.startswith('symdyn.'))"


def test_import_symdyn_loads_no_submodule():
    # A name is imported from its submodule on first use; Point2 needs core alone.
    out = _fresh(f"import sys, symdyn\nprint({LOADED})\nsymdyn.Point2\nprint({LOADED})\n")
    assert out.splitlines() == ["[]", "['symdyn.core']"]


def test_public_names_are_their_submodules_objects():
    out = _fresh(
        "import importlib, symdyn\n"
        "print(symdyn.__all__)\n"
        f"for name, module in {PUBLIC!r}.items():\n"
        "    owner = importlib.import_module('symdyn.' + module)\n"
        "    assert getattr(symdyn, name) is getattr(owner, name), name\n"
    )
    assert out == f"{list(PUBLIC)}\n"


def test_star_import_binds_every_public_name():
    out = _fresh("scope = {}\nexec('from symdyn import *', scope)\nprint(sorted(scope))\n")
    assert out == f"{sorted([*PUBLIC, '__builtins__'])}\n"


def test_submodules_resolve_after_a_bare_import():
    out = _fresh(
        "import symdyn\n"
        "listed = dir(symdyn)\n"
        f"print([n for n in ['__all__', *{SUBMODULES!r}] if n not in listed])\n"
        f"print([getattr(symdyn, m).__name__ for m in {SUBMODULES!r}])\n"
        "print(symdyn.core.decompose([[3, 4], [4, -3]]).lam)\n"
        "try:\n"
        "    symdyn.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    assert out.splitlines() == [
        "[]", str([f"symdyn.{m}" for m in SUBMODULES]), "5.0",
        "module 'symdyn' has no attribute 'no_such_name'"]


def test_two_by_two_commands_load_no_numpy(tmp_path):
    # Importing numpy costs more than the rest of a one-shot command; only
    # compose and the library functions that return arrays load it, and psym
    # runs on Python floats whatever its outcome. dataclasses and the modules
    # it loads cost about 8 ms more, typing 4 to 10 ms, and json loads only
    # for --json. The child runs with -S, so that no .pth file loads any of
    # them first; what the interpreter itself loaded before symdyn does not
    # count. The array extension module loads only for orbit, whose cases
    # come last.
    out, svg = str(tmp_path / "o.csv"), str(tmp_path / "o.svg")
    psym = {name: _write(tmp_path, f"{name}.txt", text) for name, text in (
        ("member", "3  2 0 0  0 2 0  0 0 2"), ("non-member", "2  1 0.5  0.5 3"),
        ("non-symmetric", "2  0 1  2 0"), ("overflow", "2  1 1.7e308  1.7e308 1"))}
    cases = [([*argv, *fmt], 0) for argv in (
        ["decompose", "3", "4", "4", "-3"], ["build", "5", "--theta", "0.9"],
        ["classify", "3", "4", "--lambda", "0.9", "--axis", "1.1"],
        ["ortho-classify", "0", "1", "1", "0"]) for fmt in ([], ["--json"])]
    cases += [
        (["decompose", "1", "2", "3", "-1"], 2),
        (["psym", psym["member"]], 0),
        (["psym", psym["non-member"], "--json"], 0),
        (["psym", psym["non-symmetric"]], 2),
        (["psym", psym["overflow"]], 2),
        (["orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "8",
          "--out", out, "--svg", svg], 0),
        (["orbit", "1", "0", "--from-matrix", "0.2", "1.5", "1.5", "-0.2", "--iters", "4"], 0),
    ]
    code = (
        "import sys\n"
        "unloaded = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'}\n"
        "unloaded -= set(sys.modules)\n"
        "def check(when):\n"
        "    assert 'numpy' not in sys.modules, when\n"
        "    assert not unloaded & set(sys.modules), (when, unloaded & set(sys.modules))\n"
        "json_before = 'json' in sys.modules\n"
        "array_before = 'array' in sys.modules\n"
        "import symdyn\n"
        f"assert not {LOADED}, 'import symdyn loaded a submodule'\n"
        "check('import symdyn')\n"
        "from symdyn.cli import main\n"
        "assert main(['decompose', '3', '4', '4', '-3']) == 0\n"
        "assert json_before or 'json' not in sys.modules, 'text decompose loaded json'\n"
        f"for argv, expected in {cases!r}:\n"
        "    assert main(argv) == expected, argv\n"
        "    check(argv)\n"
        "    if argv[0] != 'orbit':\n"
        "        assert array_before or 'array' not in sys.modules, (argv, 'loaded array')\n"
    )
    _fresh(code)
    assert os.path.getsize(out) and os.path.getsize(svg)


def test_psym_dimension_loads_no_numpy():
    # The dimension comes from the Psym theorem; no basis is built for it.
    out = _fresh("import sys, symdyn\nprint(symdyn.psym_dimension(8), 'numpy' in sys.modules)\n")
    assert out == "1 False\n"


# Each command's successful inputs, one input it must exit 2 on, and the
# symdyn modules it loads besides symdyn.cli, whether it prints text or JSON
# and whatever its outcome. {tmp} is the directory of psym's matrix files.
COMMAND_MODULES = {
    "decompose": ([["3", "4", "4", "-3"]], ["1", "2", "3", "-1"], ["core"]),
    "build": ([["5", "--theta", "0.9"], ["-0", "--axis", "1"]], ["5"], ["core"]),
    "ortho-classify": ([["0", "1", "1", "0"], ["0", "-1", "1", "0"]], ["1", "1", "1", "1"],
                       ["core"]),
    "classify": ([["3", "4", "--lambda", "0.9", "--axis", "1.1"]],
                 ["inf", "4", "--lambda", "0.9", "--axis", "1.1"],
                 ["core", "dynamics", "geometry"]),
    "orbit": ([["1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "8"],
               ["1", "0", "--lambda", "-1", "--axis", "0.3", "--iters", "8",
                "--out", "{tmp}/o.csv", "--svg", "{tmp}/o.svg"]],
              ["1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "0"],
              ["core", "dynamics", "geometry"]),
    "compose": ([["--alpha", "0.3", "--theta", "1", "--cw"]],
                ["--alpha", "inf", "--theta", "1", "--cw"], ["core", "geometry"]),
    "psym": ([["{tmp}/member.txt"], ["{tmp}/other.txt"]], ["{tmp}/asymmetric.txt"],
             ["core", "frobenius"]),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_its_modules(tmp_path, command):
    # Each module a one-shot command does not load is also one it does not
    # compile, where no bytecode is cached. An exit-2 input takes the error
    # paths, which must reach no name of a module the command did not load.
    ok, bad, modules = COMMAND_MODULES[command]
    for name, text in (("member", "3  2 0 0  0 2 0  0 0 2"), ("other", "2  1 0.5  0.5 3"),
                       ("asymmetric", "2  0 1  2 0")):
        _write(tmp_path, f"{name}.txt", text)
    cases = [([command, *argv, *fmt], 0) for argv in ok for fmt in ([], ["--json"])]
    cases = [([a.replace("{tmp}", str(tmp_path)) for a in argv], code)
             for argv, code in [*cases, ([command, *bad], 2)]]
    path = ""
    if command == "compose":  # -S leaves site-packages, and so numpy, off the path
        numpy = pytest.importorskip("numpy")
        path = f"sys.path.append({os.path.dirname(os.path.dirname(numpy.__file__))!r})\n"
    out = _fresh(
        f"import sys\n{path}"
        "from symdyn.cli import main\n"
        f"for argv, expected in {cases!r}:\n"
        "    assert main(argv) == expected, argv\n"
        f"print({LOADED})\n"
    )
    assert out.splitlines()[-1] == str([f"symdyn.{m}" for m in ["cli", *modules]])


def _traced_names() -> list:
    # The names bench/tracing.py replaces in the symdyn.cli namespace: its
    # TRACED table, read without importing the bench, and SymMatN.
    import ast
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]]
    return [*ast.literal_eval(table), "SymMatN"]


def test_cli_resolves_the_names_the_bench_wraps():
    # Before any command runs, each name the bench wraps is an attribute of
    # symdyn.cli, and the object of the module that defines it; so is every
    # public name, which is the package's own object.
    out = _fresh(
        "import importlib, symdyn\n"
        "from symdyn import cli\n"
        f"for name in {_traced_names()!r}:\n"
        "    value = getattr(cli, name)\n"
        "    owner = importlib.import_module(value.__module__)\n"
        "    assert getattr(owner, name) is value, name\n"
        "    print(name, owner.__name__)\n"
        "for name in symdyn.__all__:\n"
        "    assert getattr(cli, name) is getattr(symdyn, name), name\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    owners = dict(line.split() for line in out.splitlines()[:-1])
    assert owners["orbit"] == "symdyn.dynamics" and owners["SymMatN"] == "symdyn.frobenius"
    assert owners["rotation_matrix"] == "symdyn.geometry" and owners["decompose"] == "symdyn.core"
    assert owners["orbit_csv"] == owners["build_parser"] == "symdyn.cli"
    assert out.splitlines()[-1] == "module 'symdyn.cli' has no attribute 'no_such_name'"


def test_a_name_set_on_cli_before_its_module_loads_is_the_one_called(tmp_path):
    # The bench's span wrappers and the tests' monkeypatches replace names of
    # symdyn.cli; a renderer or command that binds its modules' names later
    # keeps them. Here no symdyn module but cli and core has loaded when the
    # stubs are set, and the renderers, given plain arrays, load no other.
    out, svg = str(tmp_path / "o.csv"), str(tmp_path / "o.svg")
    psym = _write(tmp_path, "m.txt", "2  1 0  0 1")
    code = (
        "import sys\n"
        "from array import array\n"
        "from symdyn import cli\n"
        "calls, seen = [], []\n"
        "cli._period = lambda *args: calls.append('_period') or 0\n"
        "cli.is_in_psym = lambda *args: calls.append('is_in_psym') or True\n"
        "xs, ys = array('d', [1.0, -1.0] * 3), array('d', [0.5, 0.5] * 3)\n"
        "cli.orbit_csv(xs, ys)\n"
        "seen.append(calls[:])\n"
        "axis = cli.AxisLine(0.3)\n"
        "cli.orbit_svg(xs, ys, axis)\n"
        "seen.append(calls[:])\n"
        f"assert {LOADED} == ['symdyn.cli', 'symdyn.core', 'symdyn.geometry'], {LOADED}\n"
        "from symdyn.dynamics import orbit\n"
        "cli.orbit = lambda *args: calls.append('orbit') or orbit(*args)\n"
        "calls.clear()\n"
        "argv = ['orbit', '1', '0', '--lambda', '-1', '--axis', '0.3', '--iters', '4',\n"
        f"        '--out', {out!r}, '--svg', {svg!r}]\n"
        "assert cli.main(argv) == 0\n"
        "seen.append(calls[:])\n"
        "calls.clear()\n"
        f"assert cli.main(['psym', {psym!r}]) == 0\n"
        "seen.append(calls[:])\n"
        "print(seen)\n"
    )
    assert _fresh(code).splitlines()[-1] == str([
        ["_period"], ["_period", "_period"], ["orbit", "_period", "_period"], ["is_in_psym"]])


COMPOSE = ["compose", "--alpha", "0.3", "--theta", "1", "--cw"]


def _compose_as_main(blas_threads=None) -> dict:
    """A fresh process runs symdyn as __main__, as python -m does, for
    compose, with OPENBLAS_NUM_THREADS set to blas_threads or unset. Returns
    its exit code, the modules the run loaded, its OS thread count (None
    without /proc/self/task) and the variable's value afterwards."""
    code = (
        "import os, runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['symdyn', *{COMPOSE!r}]\n"
        "try:\n"
        "    runpy.run_module('symdyn', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "task = '/proc/self/task'\n"
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "import json\n"
        "print(json.dumps({'status': status, 'loaded': loaded, 'threads': threads,\n"
        "                  'blas': os.environ.get('OPENBLAS_NUM_THREADS')}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or _cpus() < 2,
                    reason="needs /proc/self/task and 2 CPUs")
def test_cli_starts_no_blas_thread_pool():
    # OpenBLAS starts one thread per CPU as numpy loads, which costs compose
    # 70 to 80 ms on 2 CPUs; the CLI runs no BLAS operation.
    pytest.importorskip("numpy")
    state = _compose_as_main()
    assert (state["status"], state["blas"]) == (0, "1")
    assert "numpy" in state["loaded"]
    assert state["threads"] == 1


def test_a_blas_thread_count_the_user_set_stands():
    pytest.importorskip("numpy")
    state = _compose_as_main("2")
    assert (state["status"], state["blas"]) == (0, "2")


def test_main_leaves_the_environment_alone(capsys, monkeypatch):
    # In-process callers of main, such as the bench's tracer and these tests,
    # keep their environment; only the process entry point sets a default.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert run(capsys, "decompose", "3", "4", "4", "-3")[0] == 0
    assert dict(os.environ) == before


def test_compose_loads_no_fractions_or_decimal():
    # Each fused product entry is an exact integer sum over a power of two.
    pytest.importorskip("numpy")
    state = _compose_as_main()
    assert state["status"] == 0 and "numpy" in state["loaded"]
    assert not {"fractions", "decimal"} & set(state["loaded"])


def test_only_the_process_entry_point_freezes_the_collector():
    # cli_main freezes every object before the process exits, so the
    # collections at exit skip them; main, which in-process callers share,
    # leaves the collector alone. The atexit hook runs after the freeze.
    decompose = ["decompose", "3", "4", "4", "-3"]
    out = _fresh(
        "import atexit, gc, runpy, sys\n"
        "from symdyn.cli import main\n"
        f"assert main({decompose!r}) == 0\n"
        "print('main', gc.get_freeze_count())\n"
        "atexit.register(lambda: print('exit', gc.get_freeze_count() > 0))\n"
        f"sys.argv = ['symdyn', *{decompose!r}]\n"
        "runpy.run_module('symdyn', run_name='__main__', alter_sys=True)\n"
    ).splitlines()
    assert out[4] == "main 0" and out[-1] == "exit True"
    assert out[:4] == out[5:9]


@pytest.mark.parametrize("argv,code", [
    (["decompose", "3", "4", "4", "-3"], 0),
    (["decompose", "1", "2", "3", "-1"], 2),
    (["orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3", "--out", "{tmp}/no/o.csv"], 3),
])
def test_a_process_prints_and_exits_as_main_returns(capsys, tmp_path, argv, code):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    res = subprocess.run([sys.executable, "-m", "symdyn", *argv], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (res.returncode, res.stdout, res.stderr) == run(capsys, *argv)
    assert res.returncode == code


# --- scripts ----------------------------------------------------------------------------


# contraction_rates.py asserts d_n = |lam|^n d_0 on every cell of its table.
# The scripts call apply_T, stable_set, orbit, classify_convergence, orbit_csv
# and orbit_svg as library calls, which the rest of this file reaches only
# through the CLI. At
# 20000 steps each of its default scales reaches a trace that repeats with
# period 1 or 2 (1.05 after overflowing to nan), so orbit fills the rest and
# the renderers format each such slice's p points once; the lam = -1 orbit
# of the last case settles on period 10. None of them needs numpy.
@pytest.mark.parametrize("script,args", [
    ("orbit_gallery.py", ["--outdir", "{tmp}"]),
    ("contraction_rates.py", []),
    ("orbit_gallery.py", ["--iters", "20000", "--outdir", "{tmp}"]),
    ("orbit_gallery.py", ["--x", "1.634027572458791", "--y", "0.5246117441466955",
                          "--axis", "2.5463961090569596", "--lams", "-1.0",
                          "--iters", "20000", "--outdir", "{tmp}"]),
])
def test_script_runs(tmp_path, script, args):
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    argv += [a.replace("{tmp}", str(tmp_path / "out")) for a in args]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for index, argv, _, _, _, digest in _whole_range_runs(pathlib.Path(tmp)):
            print(index, argv[0], digest)
