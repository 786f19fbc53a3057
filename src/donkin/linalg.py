"""Small exact linear-algebra helpers over the integers.

Everything here works on tuples-of-tuples so results can be stored on
immutable records and used as dict keys.
"""
from __future__ import annotations

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


def adjugate(mat) -> tuple[int, IntMatrix]:
    """(det, adj) of a square integer matrix, with mat @ adj == det * I, by
    fraction-free (Bareiss) Gauss-Jordan on [mat | I].

    After the k-th pivot every entry is a (k+1)-minor (Sylvester's identity),
    so each division by the previous pivot is exact, and at the end the left
    half is p * I and the right half p * mat^-1 for the last pivot p, which is
    det up to the sign of the row swaps.
    """
    n = len(mat)
    aug = [list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev, sign = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            sign = -sign
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], top)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in aug)


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

