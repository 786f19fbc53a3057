"""Small exact linear-algebra helpers over the integers and rationals.

Everything here works on tuples-of-tuples so results can be stored on
frozen dataclasses and used as dict keys.
"""
from __future__ import annotations

from fractions import Fraction

IntMatrix = tuple[tuple[int, ...], ...]


def mat_vec(mat: IntMatrix, vec: tuple[int, ...]) -> tuple[int, ...]:
    if mat and len(mat[0]) != len(vec):
        raise ValueError("matrix/vector size mismatch")
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in mat)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix size mismatch")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(len(a))
    )


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def rational_inverse(mat) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square matrix by fraction-exact Gauss-Jordan."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def left_integer_kernel(mat: IntMatrix) -> list[tuple[int, ...]]:
    """Z-basis of {x in Z^n : x @ mat == 0} for an n-row integer matrix.

    Works by integer (unimodular) row reduction of [mat | I]; the identity
    parts of the rows whose mat-part vanishes form a kernel basis.  Kernels
    of integer matrices are saturated, so this basis spans the full lattice
    kernel, not a finite-index sublattice.
    """
    n = len(mat)
    k = len(mat[0]) if n else 0
    aug = [list(mat[i]) + [int(j == i) for j in range(n)] for i in range(n)]
    row = 0
    for col in range(k):
        while True:
            nz = [r for r in range(row, n) if aug[r][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(aug[r][col]))
            r0 = nz[0]
            for r1 in nz[1:]:
                q = aug[r1][col] // aug[r0][col]
                if q:
                    aug[r1] = [a - q * b for a, b in zip(aug[r1], aug[r0])]
        nz = [r for r in range(row, n) if aug[r][col] != 0]
        if nz:
            aug[row], aug[nz[0]] = aug[nz[0]], aug[row]
            row += 1
    return [tuple(aug[r][k:]) for r in range(row, n)]

