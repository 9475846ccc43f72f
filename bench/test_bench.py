"""Self-tests of the benchmark's input generator and checker.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402
from run import tail  # noqa: E402

GOLDEN = BENCH.parent / "tests" / "golden"


def _csv(xs, ys) -> str:
    return "n,x,y\n" + "".join(f"{i},{x:.17g},{y:.17g}\n" for i, (x, y) in enumerate(zip(xs, ys)))


def test_flags_false_revisit_from_underflow():
    argv = ("orbit", "1", "0", "--lambda", "0.5", "--axis", "0.3", "--iters", "1100")
    xs, ys = check.reference_orbit(1.0, 0.0, 0.5, 0.3, 1100)
    stdout = _csv(xs, ys) + ("cardinality = Finite(538)\n"
                             "convergence[Discrete] = NotConvergent\n"
                             "convergence[Usual] = ConvergesTo (0, 0)\n")
    found = check.check(argv, 0, 0, stdout, "")
    assert [code for code, _ in found] == ["false-revisit"]
    assert "false-revisit" in check.KNOWN_DEFECTS
    fixed = stdout.replace("Finite(538)", "Infinite")
    assert check.check(argv, 0, 0, fixed, "") == []
    # The known defect does not hide a new failure in another part.
    wrong = stdout.replace("ConvergesTo (0, 0)", "NotConvergent")
    assert [code for code, _ in check.check(argv, 0, 0, wrong, "")] == \
        ["false-revisit", "convergence"]


GOLDEN_ORBITS = [
    ("orbit_half_scale.csv", ("1", "0", "--lambda", "0.5", "--axis", "0.3927", "--iters", "8"),
     ("Infinite", "NotConvergent", "ConvergesTo (0, 0)")),
    ("orbit_origin.csv", ("0", "0", "--lambda", "2", "--axis", "1", "--iters", "3"),
     ("Finite(1)", "ConvergesTo (0, 0)", "ConvergesTo (0, 0)")),
    ("orbit_fixed_point.csv",
     ("1", "1", "--lambda", "1", "--axis", "0.7853981634", "--iters", "5"),
     ("Finite(1)", "ConvergesTo (1, 1)", "ConvergesTo (1, 1)")),
]


@pytest.mark.parametrize("name,args,lines", GOLDEN_ORBITS)
def test_accepts_golden_orbits(name, args, lines):
    golden = GOLDEN / name
    x, y, lam, axis, iters = (float(args[0]), float(args[1]), float(args[3]),
                              float(args[5]), int(args[7]))
    assert _csv(*check.reference_orbit(x, y, lam, axis, iters)) == golden.read_text()
    stdout = ("cardinality = {}\nconvergence[Discrete] = {}\n"
              "convergence[Usual] = {}\n").format(*lines)
    assert check.check(("orbit", *args, "--out", str(golden)), 0, 0, stdout, "") == []


def test_flags_wrong_psym_witness_and_trace(tmp_path):
    path = tmp_path / "m.txt"
    rows = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.25], [0.0, 0.25, 2.0]]
    inputs.write_matrix(path, rows)
    witness = "witness = [0, 0, 0, 0, 0, 1, 0, 1, 0]\n"
    good = "member = false\n" + witness + "trace = 0.5\n"
    assert check.check(("psym", str(path)), 0, 0, good, "") == []
    assert check.check(("psym", str(path)), 0, 0, good.replace("0.5", "0.25"), "")[0][0] \
        == "psym-trace"
    first = "witness = [1, 0, 0, 0, -1, 0, 0, 0, 0]\n"
    assert check.check(("psym", str(path)), 0, 0, good.replace(witness, first), "")[0][0] \
        == "psym-witness"


def test_exit_codes_and_error_lines():
    argv = ("decompose", "1.0", "2.0", "3.0", "-1.0")
    assert check.check(argv, 2, 2, "", "error: not symmetric\n") == []
    assert check.check(argv, 2, 2, "", "")[0][0] == "error-line"
    assert check.check(argv, 0, 2, "", "error: x\n")[0][0] == "exit-code"
    nan_orbit = ("orbit", "nan", "0", "--lambda", "0.5", "--axis", "0.3", "--json")
    assert check.check(nan_orbit, 2, 0, '{"start": [NaN, 0.0]}', "")[0][0] \
        == "nonfinite-accepted"
    with pytest.raises(check.Failure):
        check.parse_json('{"x": NaN}')


def test_same_seed_same_inputs(tmp_path):
    for w in inputs.WORKLOADS:
        (tmp_path / w).mkdir()
        first = inputs.make_round(w, 7, tmp_path / w)
        files = {p.name: p.read_bytes() for p in (tmp_path / w).iterdir()}
        second = inputs.make_round(w, 7, tmp_path / w)
        assert first == second
        assert files == {p.name: p.read_bytes() for p in (tmp_path / w).iterdir()}
        assert first != inputs.make_round(w, 8, tmp_path / w)


def test_tail_percentile():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(i) for i in range(1, 22)]) == (11.0, 100.0 * 11 / 21)
    assert tail([float(i) for i in range(1, 21)]) == (18.0, 90.0)
    assert tail([float(i) for i in range(1, 12)]) == (10.0, 100.0 * 10 / 11)


def test_numbers_are_plain_decimals(tmp_path):
    assert inputs._f(-2.081372987472463e-05) == "-0.00002081372987472463"
    for x in (-2.081372987472463e-05, 3e-300, -0.0, 1e17, 0.1):
        assert float(inputs._f(x)) == x
    for w in inputs.WORKLOADS:
        for seed in range(5):
            for inv in inputs.make_round(w, seed, tmp_path):
                negative = [a for a in inv.argv if a[:1] == "-" and a[1:2].isdigit()]
                assert all("e" not in a for a in negative), inv.argv
