"""Frobenius trace pairing on symmetric n x n matrices.

The trace-zero symmetric matrices form a codimension-1 subspace; its
orthogonal complement under the pairing Tr(AB) is exactly the scalar
matrices. The operations here make both sides of that statement checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import DEFAULT_TOL, NotSymmetricError, Tolerance

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SymMatN:
    """An n x n real symmetric matrix, n >= 2, stored as the packed upper triangle.

    `packed` holds the n(n+1)/2 entries with i <= j in row-major order.
    """

    n: int
    packed: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        expected = self.n * (self.n + 1) // 2
        if len(self.packed) != expected:
            raise ValueError(f"packed storage needs {expected} entries, got {len(self.packed)}")
        if not all(math.isfinite(v) for v in self.packed):
            raise ValueError("entries must be finite")

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOL) -> "SymMatN":
        """Ingest a full square array, validating symmetry within tol.

        Mirror entries are averaged so the packed form is exactly symmetric.
        """
        import numpy as np

        arr = np.asarray(m, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square matrix")
        n = arr.shape[0]
        if n < 2:
            raise ValueError("n must be at least 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        packed = []
        for i in range(n):
            for j in range(i, n):
                if not tol.close(arr[i, j], arr[j, i]):
                    raise NotSymmetricError(
                        f"not symmetric: entries ({i},{j}) and ({j},{i}) differ"
                    )
                packed.append(0.5 * (arr[i, j] + arr[j, i]) if i != j else float(arr[i, i]))
        return cls(n, tuple(packed))

    @classmethod
    def identity(cls, n: int) -> "SymMatN":
        import numpy as np

        return cls.from_matrix(np.eye(n))

    def to_matrix(self) -> np.ndarray:
        import numpy as np

        out = np.empty((self.n, self.n))
        k = 0
        for i in range(self.n):
            for j in range(i, self.n):
                out[i, j] = self.packed[k]
                out[j, i] = self.packed[k]
                k += 1
        return out

    def frobenius_norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(self.to_matrix()))


def frobenius_inner(a: SymMatN, b: SymMatN) -> float:
    """Trace of the matrix product: the Frobenius inner product on SymMatN.

    Symmetric, bilinear, and positive definite.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return float((a.to_matrix() @ b.to_matrix()).trace())


def sym0_basis(n: int) -> list[SymMatN]:
    """Integer basis of the trace-zero symmetric matrices of size n.

    Consecutive diagonal differences diag(..., 1, -1, ...) followed by the
    symmetrized off-diagonal units, n(n+1)/2 - 1 matrices in total.
    """
    import numpy as np

    if n < 2:
        raise ValueError("n must be at least 2")
    out: list[SymMatN] = []
    for i in range(n - 1):
        m = np.zeros((n, n))
        m[i, i] = 1.0
        m[i + 1, i + 1] = -1.0
        out.append(SymMatN.from_matrix(m))
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            m[j, i] = 1.0
            out.append(SymMatN.from_matrix(m))
    return out


def is_scalar_matrix(a: SymMatN, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a equals c * I within tol, for some real c, read off its entries.

    Each diagonal entry must lie within eps * (1 + |a|) of the next, and each
    off-diagonal pair a_ij + a_ji within the same bound, |a| the Frobenius
    norm. That is the threshold is_in_psym puts on the pairings, so the two
    tests give the same answer on every input, as the theorem says they must.
    """
    m = a.to_matrix()
    thresh = tol.eps * (1.0 + a.frobenius_norm())
    if any(abs(m[i, i] - m[i + 1, i + 1]) > thresh for i in range(a.n - 1)):
        return False
    return all(abs(m[i, j] + m[j, i]) <= thresh
               for i in range(a.n) for j in range(i + 1, a.n))


def is_in_psym(a: SymMatN, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether Tr(B a) vanishes for every trace-zero symmetric B.

    Bilinearity reduces the quantifier to the finite basis; the threshold
    scales with the Frobenius norm of a because the pairing does.
    """
    thresh = tol.eps * (1.0 + a.frobenius_norm())
    return all(abs(frobenius_inner(b, a)) <= thresh for b in sym0_basis(a.n))


def psym_dimension(n: int) -> int:
    """Dimension of the orthogonal complement of the trace-zero subspace.

    Computed, not assumed: the Gram matrix of the trace-zero basis must have
    full rank n(n+1)/2 - 1, appending the identity must raise the rank by
    one, and the complement dimension is the remaining gap (always 1).
    """
    import numpy as np

    if n < 2:
        raise ValueError("n must be at least 2")
    basis = sym0_basis(n)
    full = n * (n + 1) // 2
    gram = np.array([[frobenius_inner(x, y) for y in basis] for x in basis])
    r0 = int(np.linalg.matrix_rank(gram))
    ext = basis + [SymMatN.identity(n)]
    gram_ext = np.array([[frobenius_inner(x, y) for y in ext] for x in ext])
    r1 = int(np.linalg.matrix_rank(gram_ext))
    if r0 != full - 1 or r1 != full:
        raise ArithmeticError("trace-zero basis failed its rank cross-check")
    return full - r0
