import pathlib
import shutil
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).parent

FAIL_THEN_PASS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Without libcst hypothesis writes no patch, so this passes with or
    # without tests/conftest.py; with libcst it needs the conftest.
    pytest.importorskip("hypothesis")
    shutil.copy(TESTS / "conftest.py", tmp_path)
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)  # its filterwarnings
    (tmp_path / "test_order.py").write_text(FAIL_THEN_PASS)
    res = subprocess.run([sys.executable, "-m", "pytest", "-rA", "-p", "no:cacheprovider",
                          "test_order.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "FAILED test_order.py::test_fails" in res.stdout
    assert "PASSED test_order.py::test_passes" in res.stdout
