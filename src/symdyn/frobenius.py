"""Frobenius trace pairing on symmetric n x n matrices.

The trace-zero symmetric matrices form a codimension-1 subspace; its
orthogonal complement under the pairing Tr(AB) is exactly the scalar
matrices. The operations here make both sides of that statement checkable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import (DEFAULT_TOL, NotSymmetricError, Tolerance, _float_rows, _half_sum, _ndarray,
                   _rescale_exponent, frozen)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import numpy as np


@frozen
class SymMatN:
    """An n x n real symmetric matrix, n >= 2, stored as the packed upper triangle.

    `packed` holds the n(n+1)/2 entries with i <= j in row-major order, as
    Python floats.
    """

    n: int
    packed: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        expected = self.n * (self.n + 1) // 2
        if len(self.packed) != expected:
            raise ValueError(f"packed storage needs {expected} entries, got {len(self.packed)}")
        if not all(map(math.isfinite, self.packed)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "packed", tuple(map(float, self.packed)))

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOL) -> "SymMatN":
        """Ingest a full square matrix, a list of rows or an ndarray, validating
        symmetry within tol: each mirror difference negligible beside the
        largest |entry|.

        Mirror entries are averaged so the packed form is exactly symmetric;
        the mean of two finite entries is finite.
        """
        try:
            rows = _float_rows(m)
        except TypeError:  # a scalar, a 1-D or 3-D array, or an entry that is no number
            raise ValueError("expected a square matrix") from None
        except OverflowError:  # an int beyond the float range
            raise ValueError("entries must be finite") from None
        n, flat = len(rows), [x for row in rows for x in row]
        if any(len(row) != n for row in rows):
            raise ValueError("expected a square matrix")
        if not all(map(math.isfinite, flat)):
            raise ValueError("entries must be finite")
        top = max(map(abs, flat), default=0.0)
        k = _rescale_exponent((top,))  # so that eps * top does not underflow
        packed, top = [], math.ldexp(top, -k)
        for i in range(n):
            for j in range(i, n):
                x, y = rows[i][j], rows[j][i]
                if not tol.negligible(math.ldexp(x - y, -k), top):
                    raise NotSymmetricError(
                        f"not symmetric: entries ({i},{j}) and ({j},{i}) differ"
                    )
                packed.append(_half_sum(x, y))
        return cls(n, tuple(packed))

    @classmethod
    def identity(cls, n: int) -> "SymMatN":
        packed = [0.0] * (n * (n + 1) // 2)
        for k in _diagonal(n)[:-1]:
            packed[k] = 1.0
        return cls(n, tuple(packed))

    def to_matrix(self) -> np.ndarray:
        v, n = self.to_list(), self.n
        return _ndarray([v[i:i + n] for i in range(0, n * n, n)])

    def to_list(self) -> list[float]:
        """The n * n entries as one row-major list: to_matrix().ravel().tolist()."""
        p, d = self.packed, _diagonal(self.n)
        return [p[d[min(i, j)] + abs(j - i)] for i in range(self.n) for j in range(self.n)]

    def trace(self) -> float:
        """The sum of the diagonal, rounded as numpy's trace() rounds it."""
        p = self.packed
        # 0.0 + turns an all -0.0 sum into 0.0, as numpy's reduction does.
        return 0.0 + _pairwise_sum([p[k] for k in _diagonal(self.n)[:-1]])

    def frobenius_norm(self) -> float:
        """The Frobenius norm; inf when it overflows."""
        return math.sqrt(frobenius_inner(self, self))


def frobenius_inner(a: SymMatN, b: SymMatN) -> float:
    """Trace of the matrix product: the Frobenius inner product on SymMatN.

    Symmetric, bilinear, and positive definite. It is summed left to right
    over the packed entries, each off-diagonal product counted twice, and is
    inf when the trace overflows.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    p, q, d = a.packed, b.packed, _diagonal(a.n)
    total = 0.0
    for i in range(a.n):
        total += p[d[i]] * q[d[i]]
        for k in range(d[i] + 1, d[i + 1]):
            total += 2.0 * p[k] * q[k]
    return total


def _pairwise_sum(xs: list[float]) -> float:
    # numpy's pairwise summation: a plain loop under 8 terms; up to 128, eight
    # running sums combined as a tree, then the remainder; above, two halves
    # split at a multiple of 8.
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    if n < 8:
        m, total = 0, 0.0
    else:
        m, r = n - n % 8, xs[:8]
        for i in range(8, m, 8):
            r = [x + y for x, y in zip(r, xs[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[m:]:
        total += x
    return total


def _diagonal(n: int) -> list[int]:
    # Packed index of (i, i) for i < n, then the length: row i is [d[i], d[i + 1]).
    return [i * n - i * (i - 1) // 2 for i in range(n + 1)]


def sym0_basis(n: int) -> Sequence[SymMatN]:
    """Integer basis of the trace-zero symmetric matrices of size n.

    Consecutive diagonal differences diag(..., 1, -1, ...) followed by the
    symmetrized off-diagonal units, n(n+1)/2 - 1 matrices in total. The
    result is a read-only Sequence, not a list: it builds element k when it
    is read, so a caller that needs one witness builds one SymMatN. A slice,
    or the basis plus a list, is a list.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return _Sym0Basis(n)


class _Sym0Basis(Sequence):
    # sym0_basis(n) as the nonzero entries of each element; an element is
    # built from its entries each time it is read, and never kept.

    def __init__(self, n: int) -> None:
        d = _diagonal(n)
        self._n = n
        self._entries = ([((d[i], 1.0), (d[i + 1], -1.0)) for i in range(n - 1)]
                         + [((k, 1.0),) for i in range(n) for k in range(d[i] + 1, d[i + 1])])

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._unit(e) for e in self._entries[k]]
        return self._unit(self._entries[k])

    def _unit(self, entries) -> SymMatN:
        n = self._n
        packed = [0.0] * (n * (n + 1) // 2)
        for k, v in entries:
            packed[k] = v
        return SymMatN(n, tuple(packed))

    def __add__(self, other):
        return list(self) + other if isinstance(other, list) else NotImplemented


def scaled(a: SymMatN) -> tuple[SymMatN, int, float]:
    """(2**-k * a, k, |2**-k * a|), |a| the Frobenius norm and k that of
    core._rescale_exponent over the entries: a where its norm and pairings
    neither overflow nor underflow. That is exact for every entry left in the
    normal range; the others lie far below any pairing threshold."""
    k = _rescale_exponent(a.packed)
    b = SymMatN(a.n, tuple(math.ldexp(v, -k) for v in a.packed)) if k else a
    return b, k, b.frobenius_norm()


def _pairings(a: SymMatN) -> list[float]:
    # Tr(B a) for each B of sym0_basis(a.n), as the floats frobenius_inner
    # gives: a_ii - a_(i+1)(i+1) for each diagonal difference, then 2 a_ij.
    p, d = a.packed, _diagonal(a.n)
    out = [p[d[i]] - p[d[i + 1]] for i in range(a.n - 1)]
    return out + [2.0 * v for i in range(a.n) for v in p[d[i] + 1:d[i + 1]]]


def psym_witness(a: SymMatN, tol: Tolerance = DEFAULT_TOL) -> int | None:
    """Index in sym0_basis(a.n) of the first B with Tr(B a) not negligible
    beside |a|, the Frobenius norm, in the coordinates of scaled(a); or None
    when a is in Psym. The threshold scales with |a| because the pairing does."""
    b, _, norm = scaled(a)
    return next((k for k, v in enumerate(_pairings(b)) if not tol.negligible(v, norm)), None)


def is_in_psym(a: SymMatN, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether Tr(B a) vanishes for every trace-zero symmetric B: by
    bilinearity, whether psym_witness finds no basis element that pairs."""
    return psym_witness(a, tol) is None


# The Psym theorem: Psym is exactly the scalar matrices c * I.
is_scalar_matrix = is_in_psym


def psym_dimension(n: int) -> int:
    """Dimension of Psym, the complement of the trace-zero symmetric n x n
    matrices under Tr(AB): 1 for every n >= 2. By the Psym theorem, Psym is
    the scalar matrices c * I: the pairings of a with sym0_basis(n),
    a_ii - a_(i+1)(i+1) and 2 a_ij (_pairings), all vanish exactly when a = c * I."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return 1
