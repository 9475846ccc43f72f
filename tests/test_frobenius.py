import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn import core, frobenius
from symdyn.frobenius import SymMatN

entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def sym_matrices(n):
    count = n * (n + 1) // 2
    return st.lists(entries, min_size=count, max_size=count).map(
        lambda vals: SymMatN(n, tuple(vals))
    )


# --- SymMatN ------------------------------------------------------------------


def test_from_matrix_round_trips():
    a = SymMatN.from_matrix([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert a.n == 3
    assert np.array_equal(a.to_matrix(), np.array([[1, 2, 3], [2, 4, 5], [3, 5, 6]], dtype=float))


def test_from_matrix_rejects_asymmetry():
    with pytest.raises(core.NotSymmetricError):
        SymMatN.from_matrix([[1.0, 2.0], [3.0, 4.0]])


def test_from_matrix_is_safe_near_the_float_limit():
    # The mean of two finite mirror entries is finite, equal ones pack as
    # themselves, and telling mirrors apart raises no overflow warning.
    assert SymMatN.from_matrix([[1.0, 1.7e308], [1.7e308, 1.0]]).packed == (1.0, 1.7e308, 1.0)
    near = SymMatN.from_matrix([[-1.7e308, 1.7e308], [1.7e308 * (1 - 1e-12), 0.0]])
    assert math.isfinite(near.packed[1]) and near.packed[1] <= 1.7e308
    assert near.packed[0] == -1.7e308
    with pytest.raises(core.NotSymmetricError):
        SymMatN.from_matrix([[1.0, 1e308], [-1e308, 1.0]])


def test_from_matrix_rejects_small_and_nonsquare():
    with pytest.raises(ValueError):
        SymMatN.from_matrix([[1.0]])
    with pytest.raises(ValueError):
        SymMatN.from_matrix([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0]])


@pytest.mark.parametrize("m", [
    [["a", "b"], ["b", "a"]],  # non-numeric
    [[1.0, None], [None, 1.0]],  # not a number at all
    [[1.0, 2.0], [2.0]],  # ragged
    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],  # 3-D
    np.ones((2, 2, 2)),
    [1.0, 2.0],  # 1-D
    ["12", "21"],  # 1-D, of strings
    3.0,
    [[10**400, 0], [0, 1]],  # beyond the float range
    [[math.nan, 0.0], [0.0, 1.0]],
], ids=["strings", "none", "ragged", "3d-list", "3d-array", "1d", "1d-strings", "scalar",
        "huge-int", "nan"])
def test_from_matrix_rejects_what_is_no_square_matrix_of_floats(m):
    with pytest.raises(ValueError):
        SymMatN.from_matrix(m)


def test_from_matrix_reads_an_ndarray_as_its_rows():
    m = np.array([[1.5, -2.0, 0.25], [-2.0, 3.0, 1e-300], [0.25, 1e-300, -7.0]])
    a = SymMatN.from_matrix(m)
    assert a == SymMatN.from_matrix(m.tolist())
    assert np.array_equal(a.to_matrix(), m)


@pytest.mark.parametrize("n", [2, 3, 5, 64])
def test_identity_and_to_list_agree_with_numpy(n):
    assert SymMatN.identity(n) == SymMatN.from_matrix(np.eye(n))
    a = _spread(random.Random(7000 + n), n)
    assert a.to_list() == a.to_matrix().ravel().tolist()


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def test_trace_is_numpys_bit_for_bit():
    # numpy sums the diagonal pairwise: a plain loop under 8 terms, eight
    # running sums from 8 on, two halves above 128. Mixed magnitudes make the
    # order show in the bits.
    rng = random.Random(4242)
    diagonals = [[-0.0] * n for n in (2, 7, 8, 9, 64, 200)]
    for n in [*range(2, 65), 129, 200, 300]:
        for _ in range(12):
            lo = rng.uniform(-300.0, 300.0)
            hi = rng.uniform(lo, 300.0)
            diagonals.append([rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
                              for _ in range(n)])
    for diag in diagonals:
        n = len(diag)
        packed = [0.0] * (n * (n + 1) // 2)
        for k, v in zip(frobenius._diagonal(n), diag):
            packed[k] = v
        a = SymMatN(n, tuple(packed))
        assert _bits(a.trace()) == _bits(float(np.trace(a.to_matrix()))), diag


def test_packed_length_is_validated():
    with pytest.raises(ValueError):
        SymMatN(2, (1.0, 2.0))


# --- frobenius_inner ------------------------------------------------------------


def test_identity_pairs_to_dimension():
    i3 = SymMatN.identity(3)
    assert frobenius.frobenius_inner(i3, i3) == 3.0


def test_offdiagonal_unit_pairs_to_two():
    e = SymMatN.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    # (E12 + E21)^2 = I, so the trace is 2
    assert frobenius.frobenius_inner(e, e) == 2.0


@settings(max_examples=50)
@given(sym_matrices(3))
def test_pairing_with_identity_is_trace(a):
    assert abs(
        frobenius.frobenius_inner(a, SymMatN.identity(3)) - float(np.trace(a.to_matrix()))
    ) <= 1e-9 * (1.0 + a.frobenius_norm())


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        frobenius.frobenius_inner(SymMatN.identity(2), SymMatN.identity(3))


@settings(max_examples=50)
@given(sym_matrices(3), sym_matrices(3))
def test_pairing_is_symmetric(a, b):
    x = frobenius.frobenius_inner(a, b)
    y = frobenius.frobenius_inner(b, a)
    assert abs(x - y) <= 1e-9 * (1.0 + abs(x))


@settings(max_examples=50)
@given(sym_matrices(3), sym_matrices(3), sym_matrices(3), st.floats(min_value=-5, max_value=5))
def test_pairing_is_bilinear(a, b, c, t):
    lhs = frobenius.frobenius_inner(
        SymMatN.from_matrix(a.to_matrix() + t * b.to_matrix()), c
    )
    rhs = frobenius.frobenius_inner(a, c) + t * frobenius.frobenius_inner(b, c)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


@settings(max_examples=50)
@given(sym_matrices(4))
def test_pairing_is_positive_definite(a):
    v = frobenius.frobenius_inner(a, a)
    assert v >= 0.0
    # squaring entries below ~1e-154 underflows, so only assert strict
    # positivity when some entry is comfortably representable squared
    if any(abs(x) > 1e-150 for x in a.packed):
        assert v > 0.0


# --- sym0_basis -------------------------------------------------------------------


def test_basis_size_two():
    basis = frobenius.sym0_basis(2)
    assert len(basis) == 2
    assert np.array_equal(basis[0].to_matrix(), np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert np.array_equal(basis[1].to_matrix(), np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n,count", [(2, 2), (3, 5), (4, 9), (6, 20)])
def test_basis_counts_and_trace_zero(n, count):
    basis = frobenius.sym0_basis(n)
    assert len(basis) == count
    for b in basis:
        assert np.trace(b.to_matrix()) == 0.0


def test_basis_is_linearly_independent():
    # independent route: rank of the stacked flattened basis vectors
    for n in (2, 3, 4):
        rows = np.array([b.to_matrix().ravel() for b in frobenius.sym0_basis(n)])
        assert np.linalg.matrix_rank(rows) == n * (n + 1) // 2 - 1


def test_basis_rejects_small_n():
    with pytest.raises(ValueError):
        frobenius.sym0_basis(1)


def _spread(rng: random.Random, n: int) -> SymMatN:
    # Entries of either sign with magnitudes from 1e-300 to 1e150.
    count = n * (n + 1) // 2
    return SymMatN(n, tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 150.0)
                            for _ in range(count)))


@pytest.mark.parametrize("n", [2, 3, 8, 9, 17, 64])
def test_pairings_are_frobenius_inner_bit_for_bit(n):
    # n >= 8 reaches numpy's blocked summation in the trace.
    rng = random.Random(8000 + n)
    basis = frobenius.sym0_basis(n)
    for _ in range(1 if n == 64 else 4):
        a = _spread(rng, n)
        got = frobenius._pairings(a)
        want = [frobenius.frobenius_inner(b, a) for b in basis]
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 17])
def test_witness_is_the_first_pairing_over_the_threshold(n):
    rng = random.Random(9000 + n)
    basis = frobenius.sym0_basis(n)
    for k in range(6):
        if k % 2:  # c * I plus noise on both sides of the threshold
            c = rng.uniform(-3.0, 3.0)
            m = [[c * (i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = m[i][j] + rng.choice((-1, 1)) * 10 ** rng.uniform(-11, -8)
            a = SymMatN.from_matrix(m)
        else:
            a = _spread(rng, n)
        thresh = 1e-9 * (1.0 + a.frobenius_norm())
        over = [i for i, b in enumerate(basis) if abs(frobenius.frobenius_inner(b, a)) > thresh]
        assert frobenius.psym_witness(a) == (over[0] if over else None)


# --- is_scalar_matrix ---------------------------------------------------------------


def test_scalar_matrix_examples():
    assert frobenius.is_scalar_matrix(SymMatN.from_matrix(3.0 * np.eye(4)))
    assert not frobenius.is_scalar_matrix(SymMatN.from_matrix(np.diag([1.0, 2.0])))
    nudged = np.eye(2) + 1e-12 * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert frobenius.is_scalar_matrix(SymMatN.from_matrix(nudged))


# --- is_in_psym -----------------------------------------------------------------------


def test_scalar_matrices_belong():
    assert frobenius.is_in_psym(SymMatN.from_matrix(5.0 * np.eye(2)))


def test_offdiagonal_unit_does_not_belong():
    assert not frobenius.is_in_psym(SymMatN.from_matrix([[0.0, 1.0], [1.0, 0.0]]))


def test_distinct_diagonal_does_not_belong():
    a = SymMatN.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert not frobenius.is_in_psym(a)
    # the pairing against diag(1, -1, 0) is 1 - 2 = -1 by hand
    witness = frobenius.sym0_basis(3)[0]
    assert frobenius.frobenius_inner(witness, a) == -1.0


def test_a_pairing_equal_to_the_threshold_does_not_count():
    # For a = diag(t, 0) this t is exactly eps * (1 + |a|): the test is strict.
    t = 1.0000000010000002e-09
    a = SymMatN(2, (t, 0.0, 0.0))
    assert 1e-9 * (1.0 + a.frobenius_norm()) == t
    assert frobenius.psym_witness(a) is None
    assert frobenius.is_scalar_matrix(a)


@pytest.mark.parametrize("packed,member", [
    ((1e200, 0.0, 0.0), False),
    ((1e200, 1e200, 1e200), False),
    ((1.7e308, 0.0, 1.7e308), True),
    ((1.7e308, 0.0, -1.7e308), False),
    ((1.7e308, 1e290, 1.7e308), True),
    ((1e300, 0.0, 1e300 * (1.0 + 1e-10)), True),
    ((1e300, 0.0, 1e300 * (1.0 + 1e-8)), False),
])
def test_membership_with_entries_beyond_the_norm_range(packed, member):
    # |a| overflows here, so the threshold eps * (1 + |a|) is taken in
    # coordinates scaled by a power of two instead of becoming inf; no
    # overflow warning is raised (pytest turns them into errors).
    a = SymMatN(2, packed)
    assert frobenius.is_in_psym(a) is member
    assert frobenius.is_scalar_matrix(a) is member


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_membership_matches_scalar_test(n, data):
    a = data.draw(sym_matrices(n))
    assert frobenius.is_in_psym(a) == frobenius.is_scalar_matrix(a)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_scalars_and_perturbed_scalars(n):
    rng = np.random.default_rng(1234 + n)
    for _ in range(10):
        c = rng.uniform(-10.0, 10.0)
        scalar = SymMatN.from_matrix(c * np.eye(n))
        assert frobenius.is_in_psym(scalar)
        assert frobenius.is_scalar_matrix(scalar)
        i = rng.integers(0, n)
        j = rng.integers(0, n)
        bumped = c * np.eye(n)
        bumped[i, j] += 1e-3
        bumped[j, i] = bumped[i, j]
        perturbed = SymMatN.from_matrix(bumped)
        assert not frobenius.is_in_psym(perturbed)
        assert not frobenius.is_scalar_matrix(perturbed)


@settings(max_examples=60)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    entries,
    entries,
    entries,
)
def test_pairing_formula_for_two_by_two(gamma, theta, a, b, c):
    # Tr of (scaled reflection) @ [[a, b], [b, c]] in closed form
    lhs = float(np.trace(core.matrix_from_params(gamma, theta) @ np.array([[a, b], [b, c]])))
    rhs = gamma * (a * math.cos(theta) + 2.0 * b * math.sin(theta) - c * math.cos(theta))
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


# --- psym_dimension ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complement_dimension_is_one(n):
    assert frobenius.psym_dimension(n) == 1


def test_complement_rank_oracle():
    # full space dimension via flattened-vector rank, independently of the Gram route
    for n in (2, 3, 4):
        basis = frobenius.sym0_basis(n) + [SymMatN.identity(n)]
        rows = np.array([b.to_matrix().ravel() for b in basis])
        assert np.linalg.matrix_rank(rows) == n * (n + 1) // 2


def test_dimension_rejects_small_n():
    with pytest.raises(ValueError):
        frobenius.psym_dimension(1)
