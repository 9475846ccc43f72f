import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

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


def test_build_requires_exactly_one_angle(capsys):
    code, _, err = run(capsys, "build", "1")
    assert code == 2
    code, _, err = run(capsys, "build", "1", "--theta", "1", "--axis", "2")
    assert code == 2


def test_build_degrees(capsys):
    rec = run_json(capsys, "build", "1", "--theta", "90", "--degrees")
    assert abs(rec["theta"] - math.pi / 2.0) <= 1e-12


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


def test_orbit_needs_a_map(capsys):
    code, _, err = run(capsys, "orbit", "1", "0", "--iters", "2")
    assert code == 2


def test_orbit_from_matrix_excludes_flags(capsys):
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "1", "--axis", "0",
                     "--from-matrix", "1", "0", "0", "-1", "--iters", "2")
    assert code == 2


def test_orbit_iters_bounds(capsys):
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "1", "--axis", "0", "--iters", "0")
    assert code == 2
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "1", "--axis", "0",
                     "--iters", "1000001")
    assert code == 2


def test_orbit_svg_output(capsys, tmp_path):
    svg = tmp_path / "o.svg"
    code, _, _ = run(capsys, "orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3927",
                     "--iters", "8", "--out", str(tmp_path / "o.csv"), "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg xmlns" in text and "<polyline" in text and "<line" in text


def test_orbit_svg_degenerate_bbox(capsys, tmp_path):
    svg = tmp_path / "o.svg"
    code, _, _ = run(capsys, "orbit", "0", "0", "--lambda", "2", "--axis", "1",
                     "--iters", "3", "--out", str(tmp_path / "o.csv"), "--svg", str(svg))
    assert code == 0
    assert "<polyline" in svg.read_text()


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


# --- compose ----------------------------------------------------------------------


def test_compose_identity_rotation(capsys):
    rec = run_json(capsys, "compose", "--alpha", "0", "--theta", "1.2", "--cw")
    assert rec["gamma"] == 1.2
    assert rec["residual"] < 1e-12
    assert rec["verified"] is True


def test_compose_equal_angles(capsys):
    half_pi = "1.5707963267948966"
    rec = run_json(capsys, "compose", "--alpha", half_pi, "--theta", half_pi, "--cw")
    assert rec["gamma"] == 0.0
    assert rec["reflection"] == [1.0, 0.0, 0.0, -1.0]


def test_compose_anticlockwise(capsys):
    rec = run_json(capsys, "compose", "--alpha", str(math.pi / 3.0),
                   "--theta", str(math.pi / 2.0), "--acw")
    assert abs(rec["gamma"] - 5.0 * math.pi / 6.0) <= 1e-12
    assert rec["residual"] < 1e-12


def test_compose_requires_direction(capsys):
    code, _, _ = run(capsys, "compose", "--alpha", "1", "--theta", "1")
    assert code == 2


def test_compose_degrees(capsys):
    rec = run_json(capsys, "compose", "--alpha", "30", "--theta", "90", "--acw", "--degrees")
    assert abs(rec["gamma"] - math.radians(120.0)) <= 1e-12


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


def test_psym_missing_file_exits_3(capsys):
    code, _, _ = run(capsys, "psym", "/nonexistent-dir-xyz/m.txt")
    assert code == 3


def test_psym_malformed_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "psym", _write(tmp_path, "m.txt", "2 1 2 3"))
    assert code == 2
    code, _, _ = run(capsys, "psym", _write(tmp_path, "m2.txt", "two 1 2 3 4"))
    assert code == 2


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
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv,text,js", PINNED, ids=[" ".join(c[0][:2]) for c in PINNED])
def test_output_bytes_are_pinned(capsys, tmp_path, argv, text, js, as_json):
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


def test_negative_infinity_is_still_not_a_value(capsys):
    code, _, err = run(capsys, "build", "2", "--theta", "-inf")
    assert code == 2
    assert "expected one argument" in err


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
], ids=["huge-scale", "overflow-to-inf", "subnormal-start"])
def test_orbit_svg_has_only_finite_coordinates(capsys, tmp_path, argv):
    svg = tmp_path / "o.svg"
    code, _, err = run(capsys, "orbit", *argv, "--out", str(tmp_path / "o.csv"),
                       "--svg", str(svg))
    assert code == 0, err
    text = svg.read_text()
    assert "<polyline" in text
    assert "nan" not in text and "inf" not in text


# --- scripts ----------------------------------------------------------------------------


@pytest.mark.parametrize("script,args", [
    ("orbit_gallery.py", ["--outdir", "{tmp}"]),
    ("contraction_rates.py", []),
])
def test_script_runs(tmp_path, script, args):
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    argv += [a.replace("{tmp}", str(tmp_path / "out")) for a in args]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
