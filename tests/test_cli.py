import errno
import hashlib
import json
import math
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

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
    # 1e-11 off the axis is on it within tol; the orbit's reflections move
    # the point by 2e-11, which must not turn it into a two-point orbit
    args = ("1e-3", "1e-11", "--lambda", "1", "--axis", "0")
    _, orbit_out, _ = run(capsys, "orbit", *args, "--iters", "4")
    _, classify_out, _ = run(capsys, "classify", *args)
    line = "cardinality = Finite(1)\n"
    assert line in orbit_out and line in classify_out
    orbit_rec = run_json(capsys, "orbit", *args, "--iters", "4")
    classify_rec = run_json(capsys, "classify", *args)
    assert orbit_rec["cardinality"] == classify_rec["cardinality"] == {"kind": "Finite", "size": 1}


@pytest.mark.parametrize("cmd", ["classify", "orbit"])
@pytest.mark.parametrize("map_args,size", [
    (("--lambda", "1", "--axis", "0.7"), 2),
    (("--lambda", "1", "--axis", "45", "--degrees"), 1),
    (("--lambda", "-1", "--axis", "0.7"), 2),
    (("--lambda", "-1", "--axis", "-45", "--degrees"), 1),
], ids=["off-axis", "on-axis", "off-perpendicular", "on-perpendicular"])
def test_starts_whose_norm_overflows_are_placed_on_their_lines(capsys, cmd, map_args, size):
    # Each coordinate is finite but the norm is not; an infinite bound
    # eps * (1 + |p|) would put the start on every line.
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


def test_compose_takes_no_tolerance(capsys):
    # verified compares the residual with a fixed 1e-12, so a --tol would go unread
    code, out, err = run(capsys, "compose", "--alpha", "1e4", "--theta", "0.3", "--cw",
                         "--tol", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 1" in err


def test_compose_degrees(capsys):
    pytest.importorskip("numpy")
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


# sha256 of stdout, taken with the basis search that read each pairing
# through frobenius_inner (13 to 30 s per run on a 2-core x86 host).
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
    # About 0.35 s for the near-scalar input on a 2-core x86 host.
    assert elapsed < 3.0
    if not witness:  # c is the diagonal's mean summed in numpy's pairwise order
        left_to_right = sum(float(t) for t in text.split()[1::65]) / 64
        assert f"{left_to_right:.17g}" not in out and repr(left_to_right) not in out


def test_psym_entries_near_the_float_limit(capsys, tmp_path):
    # The threshold eps * (1 + |a|) is taken in coordinates scaled by a power
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


# sha256 of the --out CSV and --svg files; the goldens cover only short orbits
@pytest.mark.parametrize("argv,csv_sha,svg_sha", [
    ("0.8 -1.1 --lambda 1.00001 --axis 0.7 --iters 5000",
     "974cfb223d7df2e34cab023c7cda5831f1a227022862988ce2077fbd5fb4e116",
     "96d8a9a3faded98769bb482e8e252915eaebf4e8cab841c0fa4d02dadb0e4a6c"),
    ("1 0 --lambda 2 --axis 0.3 --iters 1100",
     "eeee72175c3a34f906540c1ae32797028b8352782d1791bd634f9e0d5bb9369f",
     "c1f25beb29544a6e13b3f0d6366f226410bc604327377ff13849c15174281be5"),
    ("1 0 --lambda 0.5 --axis 0.3 --iters 1100",
     "696b9861c2aed5156cbda029a721238d7f84bc33adb41e90cf1be947766621ed",
     "88a1eda21e52f801c8e40ab02d169709f646deb9bdb2972acef8e295ccc863c7"),
    ("1e-310 0 --lambda 1e10 --axis 0.3 --iters 5",
     "07a56e70dd5c54ce31e0e7905b92d5fcde5bedd8a78286662503bd2b066d324a",
     "54e359bc9e0b615e5a1ed70d196bc9470fa1f9c4ded461bdda9ce816003b3d92"),
    ("0 0 --lambda 2 --axis 1 --iters 3",
     "c4c5575123f7dd4e06ed65161f8b077a66987b3f64ac2076156abcb594ff4d7f",
     "2f0ce50cfbd82930b78e26cc5669c3e2b4396611ba1386edb6ed7aacb68de522"),
], ids=["near-unit-5000", "overflow", "underflow", "subnormal-start", "degenerate-box"])
def test_orbit_file_bytes_are_pinned(capsys, tmp_path, argv, csv_sha, svg_sha):
    csv, svg = tmp_path / "o.csv", tmp_path / "o.svg"
    code, _, err = run(capsys, "orbit", *argv.split(), "--out", str(csv), "--svg", str(svg))
    assert code == 0, err
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha


# --- rendering in forked slices ----------------------------------------------------------

# sha256 of the CSV (the --out file, or all of stdout) and of the SVG of a
# 40000-step orbit, taken before the renderers split their rows. 40001 rows
# make three slices of at least cli.SLICE_ROWS. The overflow orbit's rows
# are inf or nan from step 1025 on, across both slice boundaries.
SLICED = [
    ("0.8 -1.1 --lambda 1.00001 --axis 0.7", True,
     "56b5bbf806ee4d1c9ceb1a30ad0acb6a882838ab525bc2b722b748e9276a74f4",
     "eaad98e51a986751cc284c588e2413695e6abfcdc58de51ec36d3a00147597fd"),
    ("0.3 0.2 --lambda 2 --axis 0.4", True,
     "8fdfe61a3d19e4f3a35f26aab4bf839731c64ed02f2bebad5ae3ded2890ee452",
     "3862c993e18daadf97bd6963f02c109757a6786d5075e1defa2cd046b869c9b5"),
    ("0.3 0.2 --lambda 0.5 --axis 0.4", True,
     "18e0bc4728f6edb10e7be53927729eab761a65b8388fea8d7409686717ad88d7",
     "c5d59c2675b81f1cf9644420542fc765ce79ebac5be5ff1c8620fd6a2696e663"),
    ("0.8 -1.1 --lambda 0.99999 --axis 0.7", False,
     "5aaf52b40d69c099143b9a5b2a95a539066bd91b94da86093ce99ade5af28f12",
     "7337d98ced22fa4e8c3e9a0aac34af102be673c7598ddc3f07145387801b5c41"),
]
# Forcing the split in a test process that may run a BLAS thread pool makes
# Python 3.12 and later warn about the fork; the renderer itself forks only
# when the process runs one thread.
forked_in_threads = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")


def _sliced_digests(capsys, tmp_path, args, to_file):
    csv, svg = tmp_path / "o.csv", tmp_path / "o.svg"
    argv = ["orbit", *args.split(), "--iters", "40000", "--svg", str(svg)]
    code, out, err = run(capsys, *argv, *(["--out", str(csv)] if to_file else []))
    assert (code, err) == (0, "")
    text = csv.read_bytes() if to_file else out.encode()
    return hashlib.sha256(text).hexdigest(), hashlib.sha256(svg.read_bytes()).hexdigest()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split(monkeypatch, cpus, fork=os.fork, one_thread=True) -> list:
    """Makes the renderers see cpus CPUs, and one thread unless one_thread
    is false; os.fork becomes fork, and each call appends to the list
    returned."""
    calls = []

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if one_thread:
        monkeypatch.setattr(cli, "_one_thread", lambda: True)
    monkeypatch.setattr(os, "fork", counted)
    return calls


@forked_in_threads
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("args,to_file,csv_sha,svg_sha", SLICED,
                         ids=["near-unit", "overflow", "underflow", "stdout"])
def test_sliced_rendering_gives_the_same_bytes(capsys, tmp_path, monkeypatch, cpus, args,
                                               to_file, csv_sha, svg_sha):
    forks = _split(monkeypatch, cpus)
    assert _sliced_digests(capsys, tmp_path, args, to_file) == (csv_sha, svg_sha)
    assert bool(forks) == (cpus > 1)
    _assert_no_child_left()


def _fork_fails():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _child_fails(fork=os.fork):  # the real fork, bound before any test patches it
    pid = fork()
    if pid == 0:
        os._exit(1)
    return pid


@forked_in_threads
@pytest.mark.parametrize("fork,sigchld", [
    (_fork_fails, signal.SIG_DFL),
    (_child_fails, signal.SIG_DFL),
    (os.fork, signal.SIG_IGN),
], ids=["fork-fails", "child-fails", "sigchld-ignored"])
def test_sliced_rendering_redoes_a_failed_slice(capsys, tmp_path, monkeypatch, fork, sigchld):
    # With SIGCHLD ignored the kernel reaps the children, so waitpid raises
    # ChildProcessError, an OSError that must not become exit 3.
    forks = _split(monkeypatch, 3, fork)
    old = signal.signal(signal.SIGCHLD, sigchld)
    try:
        args, to_file, csv_sha, svg_sha = SLICED[0]
        assert _sliced_digests(capsys, tmp_path, args, to_file) == (csv_sha, svg_sha)
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert len(forks) == 4  # two children for each renderer
    _assert_no_child_left()


def test_sliced_rendering_does_not_fork_beside_a_thread(capsys, tmp_path, monkeypatch):
    forks = _split(monkeypatch, 3, _fork_fails, one_thread=False)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    thread.start()
    try:
        args, to_file, csv_sha, svg_sha = SLICED[0]
        assert _sliced_digests(capsys, tmp_path, args, to_file) == (csv_sha, svg_sha)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_thread_check_counts_os_threads():
    # In a fresh process without numpy there is one thread, so large orbits
    # render in forked slices; a second thread turns that off.
    code = (
        "import threading\n"
        "from symdyn.cli import _one_thread\n"
        "alone = _one_thread()\n"
        "done = threading.Event()\n"
        "thread = threading.Thread(target=done.wait, args=(60,))\n"
        "thread.start()\n"
        "print(alone, _one_thread())\n"
        "done.set()\n"
        "thread.join()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "False"]


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
    # count.
    out, svg = str(tmp_path / "o.csv"), str(tmp_path / "o.svg")
    psym = {name: _write(tmp_path, f"{name}.txt", text) for name, text in (
        ("member", "3  2 0 0  0 2 0  0 0 2"), ("non-member", "2  1 0.5  0.5 3"),
        ("non-symmetric", "2  0 1  2 0"), ("overflow", "2  1 1.7e308  1.7e308 1"))}
    cases = [([*argv, *fmt], 0) for argv in (
        ["decompose", "3", "4", "4", "-3"], ["build", "5", "--theta", "0.9"],
        ["classify", "3", "4", "--lambda", "0.9", "--axis", "1.1"],
        ["ortho-classify", "0", "1", "1", "0"]) for fmt in ([], ["--json"])]
    cases += [
        (["orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "8",
          "--out", out, "--svg", svg], 0),
        (["orbit", "1", "0", "--from-matrix", "0.2", "1.5", "1.5", "-0.2", "--iters", "4"], 0),
        (["decompose", "1", "2", "3", "-1"], 2),
        (["psym", psym["member"]], 0),
        (["psym", psym["non-member"], "--json"], 0),
        (["psym", psym["non-symmetric"]], 2),
        (["psym", psym["overflow"]], 2),
    ]
    code = (
        "import sys\n"
        "unloaded = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'}\n"
        "unloaded -= set(sys.modules)\n"
        "def check(when):\n"
        "    assert 'numpy' not in sys.modules, when\n"
        "    assert not unloaded & set(sys.modules), (when, unloaded & set(sys.modules))\n"
        "json_before = 'json' in sys.modules\n"
        "import symdyn\n"
        f"assert not {LOADED}, 'import symdyn loaded a submodule'\n"
        "check('import symdyn')\n"
        "from symdyn.cli import main\n"
        "assert main(['decompose', '3', '4', '4', '-3']) == 0\n"
        "assert json_before or 'json' not in sys.modules, 'text decompose loaded json'\n"
        f"for argv, expected in {cases!r}:\n"
        "    assert main(argv) == expected, argv\n"
        "    check(argv)\n"
    )
    _fresh(code)
    assert os.path.getsize(out) and os.path.getsize(svg)


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
