"""Weyl dimension formula written from the Dynkin diagrams alone.

The benchmark checks donkin's output against this module, so it shares no
code with donkin: roots come from closing the simple roots under simple
reflections, and the dimension from the product over positive roots of
(lambda + rho, beta) / (rho, beta).  Node numbering is Bourbaki's, as in
donkin's README.
"""
from __future__ import annotations

import functools
import re


def _diagram(letter: str, n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges (0-based) and squared root lengths of a connected Dynkin diagram."""
    path = [(i, i + 1) for i in range(n - 1)]
    if letter == "A" and n >= 1:
        return path, [2] * n
    if letter == "B" and n >= 2:
        return path, [2] * (n - 1) + [1]  # node n short
    if letter == "C" and n >= 2:
        return path, [1] * (n - 1) + [2]  # node n long
    if letter == "D" and n >= 4:
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)], [2] * n
    if letter == "E" and n in (6, 7, 8):
        # 1 - 3 - 4 - ... - n, with node 2 on node 4
        return [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)] + [(1, 3)], [2] * n
    if letter == "F" and n == 4:
        return path, [2, 2, 1, 1]
    if letter == "G" and n == 2:
        return path, [1, 3]  # node 1 short
    raise ValueError(f"no Dynkin diagram {letter}{n}")


@functools.lru_cache(maxsize=None)
def _positive_roots(letter: str, n: int):
    """Positive roots in simple-root coordinates, and the squared lengths."""
    edges, lengths = _diagram(letter, n)
    # twice the inner product (alpha_i, alpha_j), an integer matrix
    gram2 = [[2 * lengths[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram2[i][j] = gram2[j][i] = -max(lengths[i], lengths[j])

    def reflect(beta, i):
        # s_i(beta) = beta - 2 (beta, alpha_i) / (alpha_i, alpha_i) alpha_i
        k = sum(beta[j] * gram2[j][i] for j in range(n)) // lengths[i]
        return beta[:i] + (beta[i] - k,) + beta[i + 1:]

    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                gamma = reflect(beta, i)
                if gamma not in roots:
                    roots.add(gamma)
                    nxt.append(gamma)
        frontier = nxt
    return [r for r in roots if min(r) >= 0], lengths


def _simple_dim(letter: str, n: int, lam) -> int:
    positive, lengths = _positive_roots(letter, n)
    num = den = 1
    for beta in positive:
        # (omega_i, alpha_j) = delta_ij |alpha_j|^2 / 2; the halves cancel
        num *= sum(c * (l + 1) * s for c, l, s in zip(beta, lam, lengths))
        den *= sum(c * s for c, s in zip(beta, lengths))
    if num % den:
        raise ArithmeticError(f"Weyl formula does not divide for {letter}{n} {lam}")
    return num // den


_FACTOR = re.compile(r"([A-GT])(\d+)$")


def parse_type(text: str) -> list[tuple[str, int]]:
    """Factors of a type string such as ``E8`` or ``A3.A1.T1``."""
    factors = []
    for part in text.split("."):
        m = _FACTOR.match(part)
        if not m:
            raise ValueError(f"bad group type {text!r}")
        factors.append((m.group(1), int(m.group(2))))
    return factors


def weyl_dim(gtype: str, lam) -> int:
    """Dimension of the irreducible character with dominant highest weight lam.

    ``lam`` is in fundamental-weight coordinates, factor by factor in the
    order of ``gtype``; torus coordinates add nothing to the dimension.
    """
    lam = tuple(lam)
    factors = parse_type(gtype)
    if len(lam) != sum(n for _, n in factors):
        raise ValueError(f"weight {lam} does not fit {gtype}")
    dim, pos = 1, 0
    for letter, n in factors:
        part = lam[pos:pos + n]
        pos += n
        if letter == "T":
            continue
        if min(part) < 0:
            raise ValueError(f"{lam} is not dominant for {gtype}")
        dim *= _simple_dim(letter, n, part)
    return dim
