"""Root data for the simple types and their products, plus Weyl-group combinatorics.

Conventions (fixed once, used everywhere):

* Bourbaki node numbering for every simple type.  In particular the G2 node 1
  is the short simple root, B_n has its short root last, C_n its long root
  last, and the E-series carries the branch node at position 2.
* Weights are integer tuples in fundamental-weight coordinates, one entry per
  coordinate of the (possibly product) group; torus coordinates are
  unconstrained integers.
* The Cartan matrix is stored with ``cartan[i][j] = <alpha_j, alpha_i^vee>``,
  so column ``j`` is the simple root ``alpha_j`` written in fundamental-weight
  coordinates.  Torus coordinates contribute zero rows and columns.
"""
from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from operator import mul

from . import linalg
from .errors import BadIndex, DimensionMismatch, NotDominant, UnknownType

Weight = tuple[int, ...]

_TYPE_RE = re.compile(r"([A-GT])(\d+)$")

# The one alias table.  The tables freely spell low-rank classical groups
# (SO3 = B1, Sp2 = C1, Sp4 = C2, SO2 = D1, SO4 = D2, SO6 = D3); each alias maps
# to its normalized parts, each part with the rows that take the written
# factor's fundamental-weight coordinates to the part's.
_ALIASES: dict[tuple[str, int], tuple[tuple[tuple[str, int], linalg.IntMatrix], ...]] = {
    ("B", 1): ((("A", 1), ((1,),)),),
    ("C", 1): ((("A", 1), ((1,),)),),
    ("C", 2): ((("B", 2), ((0, 1), (1, 0))),),  # Sp4 = Spin5 swaps the two nodes
    ("D", 1): ((("T", 1), ((1,),)),),
    ("D", 2): ((("A", 1), ((1, 0),)), (("A", 1), ((0, 1),))),
    ("D", 3): ((("A", 3), ((0, 1, 0), (1, 0, 0), (0, 0, 1))),),  # D3 nodes 2,1,3: A3's path
}

_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
    "T": lambda n: 0,
}


def _is_canonical(letter: str, rank: int) -> bool:
    return rank >= 1 and {
        "A": True,
        "B": rank >= 2,
        "C": rank >= 3,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
        "T": True,
    }.get(letter, False)


class SimpleType(namedtuple("SimpleType", "letter rank")):
    """One factor of a group type: a simple-type letter plus rank.

    ``T`` denotes a central torus factor whose rank is its dimension.
    A factor is canonical or an alias (B1, C1, C2, D1, D2, D3), which
    :func:`normalize_type` resolves.
    """

    __slots__ = ()

    def __new__(cls, letter: str, rank: int):
        if not (_is_canonical(letter, rank) or (letter, rank) in _ALIASES):
            raise UnknownType(f"bad simple type {letter}{rank}")
        return super().__new__(cls, letter, rank)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)

    @property
    def is_torus(self) -> bool:
        return self.letter == "T"

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise UnknownType(f"cannot parse simple type {text!r}")
        return cls(m.group(1), int(m.group(2)))


class GroupType(namedtuple("GroupType", "factors")):
    """An ordered product of simple and torus factors, e.g. ``A1.B6``."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "GroupType":
        text = text.strip()
        if text in ("1", ""):
            return cls(())
        return cls(tuple(SimpleType.parse(p) for p in text.split(".")))

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def __str__(self) -> str:
        return ".".join(str(f) for f in self.factors) if self.factors else "1"

    def torus_rank(self) -> int:
        return sum(f.rank for f in self.factors if f.is_torus)


@functools.lru_cache(maxsize=None)
def normal_parts(gtype: GroupType) -> tuple[tuple[SimpleType, int, linalg.IntMatrix], ...]:
    """The normalized parts of a written type, in normal-form order.

    One ``(part, written factor index, rows)`` per part, where ``rows`` take
    the written factor's fundamental-weight coordinates to the part's.  The
    semisimple parts are sorted by letter then descending rank and the torus
    parts come last; equal keys keep their written order.
    """
    parts = []
    for pos, f in enumerate(gtype.factors):
        canonical = (((f.letter, f.rank), linalg.identity(f.rank)),)
        for part, rows in _ALIASES.get((f.letter, f.rank), canonical):
            parts.append((SimpleType(*part), pos, rows))
    parts.sort(key=lambda t: (t[0].letter, 0 if t[0].is_torus else -t[0].rank))
    return tuple(parts)


def normalize_type(gtype: GroupType) -> GroupType:
    """Canonical form: aliases resolved, factors sorted, tori merged.

    Sorting is by letter then descending rank (so ``D3.B1`` becomes
    ``A3.A1``); all torus rank is collected into one trailing ``T`` factor.
    Idempotent, and preserves total rank.
    """
    if isinstance(gtype, str):
        gtype = GroupType.parse(gtype)
    parts = [part for part, _, _ in normal_parts(gtype)]
    semis = [f for f in parts if not f.is_torus]
    torus = sum(f.rank for f in parts if f.is_torus)
    if torus:
        semis.append(SimpleType("T", torus))
    return GroupType(tuple(semis))


# ---------------------------------------------------------------------------
# Cartan data per simple type

def _simple_cartan(letter: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and integer symmetrizer d (d_i * a_ij symmetric)."""
    n = rank
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, down=-1, up=-1):
        a[i][j] = down
        a[j][i] = up

    if letter == "A":
        for i in range(n - 1):
            bond(i, i + 1)
        d = [1] * n
    elif letter == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        # short root last: a[n-1][n-2] = -2
        bond(n - 2, n - 1, down=-1, up=-2)
        d = [2] * (n - 1) + [1]
    elif letter == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, down=-2, up=-1)
        d = [1] * (n - 1) + [2]
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
        d = [1] * n
    elif letter == "E":
        # path 1-3-4-5-...-n with 2 attached to 4 (Bourbaki)
        chain = [0] + list(range(2, n))
        for u, v in zip(chain, chain[1:]):
            bond(u, v)
        bond(1, 3)
        d = [1] * n
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, down=-1, up=-2)
        bond(2, 3)
        d = [2, 2, 1, 1]
    elif letter == "G":
        bond(0, 1, down=-3, up=-1)
        d = [1, 3]
    else:  # torus
        a = [[0] * n for _ in range(n)]
        d = [0] * n
    return a, d


@functools.lru_cache(maxsize=None)
def cartan_matrix(gtype: GroupType) -> linalg.IntMatrix:
    """Cartan matrix of ``normalize_type(gtype)``, block diagonal over its
    factors; torus coordinates give zero rows and columns."""
    gtype = normalize_type(gtype)
    cartan = [[0] * gtype.rank for _ in range(gtype.rank)]
    offset = 0
    for fac in gtype.factors:
        block, _ = _simple_cartan(fac.letter, fac.rank)
        for i, row in enumerate(block):
            cartan[offset + i][offset:offset + fac.rank] = row
        offset += fac.rank
    return tuple(map(tuple, cartan))


def _positive_roots(columns, simple) -> list[tuple[Weight, Weight]]:
    """(root in fw coordinates, coroot) for each positive root spanned by the
    simple roots ``simple``, by height, ties by root coordinates; ``columns``
    are the Cartan matrix's columns.

    One upward reflection walk: s_i permutes the positive roots other than
    alpha_i (Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, §10.2, Lemma B), so every positive root is reached from a simple
    root by steps beta -> s_i beta = beta - c alpha_i with c = <beta, alpha_i^vee>
    < 0.  The coroot steps to beta^vee - <alpha_i, beta^vee> alpha_i^vee.
    """
    n = len(columns)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    found = {unit[i]: (columns[i], unit[i]) for i in simple}
    queue = list(found)
    for rc in queue:
        fw, cv = found[rc]
        for i in simple:
            c = fw[i]
            if c < 0:
                up = rc[:i] + (rc[i] - c,) + rc[i + 1:]
                if up not in found:
                    k = sum(map(mul, cv, columns[i]))
                    found[up] = (tuple(x - c * a for x, a in zip(fw, columns[i])),
                                 cv[:i] + (cv[i] - k,) + cv[i + 1:])
                    queue.append(up)
    return [found[rc] for rc in sorted(found, key=lambda rc: (sum(rc), rc))]


class RootDatum:
    """Immutable root/coroot data for a normalized group type.

    Positive roots and coroots come together from one reflection walk over
    the Cartan matrix (``_positive_roots``), factor by factor.  They are
    full-length vectors: roots in fundamental-weight coordinates, coroots as
    integer functionals on those coordinates (coefficients on the simple
    coroots).  Torus coordinates carry no roots and zero Cartan rows.

    The W-invariant inner product on fw coordinates is G = (A^{-1})^T D per
    semisimple block, zero on torus coordinates.  It is kept as the integer
    matrix ``gram`` = L * G, where ``gram_scale`` L is the lcm of the
    denominators of G.  A block is adj(A)^T D / det(A) (``linalg.adjugate``),
    whose reduced denominator is det(A) over the gcd of det(A) and the
    numerators.
    """

    def __init__(self, gtype: GroupType):
        gtype = normalize_type(gtype)
        self.gtype = gtype
        self.rank = gtype.rank
        n = self.rank
        self.cartan = cartan = cartan_matrix(gtype)
        self.torus = torus = tuple(row[i] == 0 for i, row in enumerate(cartan))
        # column i of the Cartan matrix = alpha_i in fw coordinates
        self._columns = columns = tuple(zip(*cartan))
        blocks = []  # (offset, numerators of G's block, det A) per semisimple factor
        roots: list[tuple[Weight, Weight]] = []  # (root, coroot), factor by factor
        offset = 0
        for fac in gtype.factors:
            r = fac.rank
            if not fac.is_torus:
                block, d = _simple_cartan(fac.letter, r)
                det, adj = linalg.adjugate(block)
                nums = [[adj[j][i] * d[j] for j in range(r)] for i in range(r)]
                blocks.append((offset, nums, det))
                roots += _positive_roots(columns, range(offset, offset + r))
            offset += r
        expected = sum(_POSITIVE_ROOT_COUNTS[f.letter](f.rank) for f in gtype.factors)
        if len(roots) != expected:
            raise AssertionError(f"{gtype}: got {len(roots)} roots, expected {expected}")
        self.positive_roots = tuple(root for root, _ in roots)
        self.positive_coroots = tuple(coroot for _, coroot in roots)
        self.gram_scale = scale = math.lcm(*(
            det // math.gcd(det, *(x for row in nums for x in row)) for _, nums, det in blocks))
        gram = [[0] * n for _ in range(n)]
        for offset, nums, det in blocks:
            for i, row in enumerate(nums):
                gram[offset + i][offset:offset + len(row)] = [x * scale // det for x in row]
        self.gram = tuple(map(tuple, gram))
        self.rho: Weight = tuple(0 if torus[i] else 1 for i in range(n))
        self._simple = tuple(i for i in range(n) if not torus[i])
        # per-i plan of weyl_orbit and of the decomposition's symmetry check: s_i
        # moves coordinate i and i's Dynkin neighbours j (by -c * a_ji); the
        # simple j < i are split into the unmoved and the moved, with their
        # Cartan entries
        plans = []
        for i in self._simple:
            col = self._columns[i]
            moved = tuple((j, col[j]) for j in self._simple if j != i and col[j])
            plans.append((i, moved,
                          tuple(j for j in self._simple if j < i and not col[j]),
                          tuple((j, a) for j, a in moved if j < i)))
        self._orbit_plans = tuple(plans)
        # sum of positive coroots; any dominance-compatible height functional
        self.height_functional: Weight = tuple(
            sum(cv[i] for cv in self.positive_coroots) for i in range(n))

    # -- basics ------------------------------------------------------------

    def check_weight(self, w: Weight) -> None:
        if len(w) != self.rank:
            raise DimensionMismatch(
                f"weight of length {len(w)} against rank {self.rank}")

    def simple_indices(self) -> tuple[int, ...]:
        return self._simple

    def reflect(self, w: Weight, i: int) -> Weight:
        """Simple reflection s_i (0-based coordinate index)."""
        c = w[i]
        if c == 0:
            return w
        col = self._columns[i]
        return tuple(w[j] - c * col[j] for j in range(self.rank))

    def height(self, w: Weight) -> int:
        return sum(map(mul, self.height_functional, w))

    def pairing(self, w: Weight, coroot: Weight) -> int:
        return sum(c * x for c, x in zip(coroot, w))

    def scaled_inner(self, v: Weight, w: Weight) -> int:
        """gram_scale * <v, w>, an exact int."""
        return sum(x * sum(map(mul, row, w)) for x, row in zip(v, self.gram) if x)

    def group_dimension(self) -> int:
        """Dimension of the group: rank + number of roots."""
        return self.rank + 2 * len(self.positive_roots)

    def __repr__(self):
        return f"RootDatum({self.gtype})"


@functools.lru_cache(maxsize=None)
def _datum_cache(gtype: GroupType) -> RootDatum:
    return RootDatum(gtype)


def build_root_datum(gtype) -> RootDatum:
    """Root datum for a (normalizable) group type; cached and immutable."""
    return _datum_cache(normalize_type(gtype))


# ---------------------------------------------------------------------------
# Weyl combinatorics

def is_dominant(rd: RootDatum, w: Weight) -> bool:
    rd.check_weight(w)
    return all(w[i] >= 0 for i in rd.simple_indices())


def _dominant(w: Weight, simple, columns) -> Weight:
    """Reflect ``w`` by s_i at its first negative simple coordinate until none is left."""
    while True:
        for i in simple:
            c = w[i]
            if c < 0:
                w = tuple([x - c * a for x, a in zip(w, columns[i])])
                break
        else:
            return w


def weyl_orbit(rd: RootDatum, dominant: dict[Weight, int]) -> dict[Weight, int]:
    """Every point of the Weyl orbits of the dominant weights ``{mu: m}``,
    each with its orbit's m, in print order: descending height, ties by
    ascending weight.

    Walks Snow's orbit trees ("Weyl group orbits", ACM TOMS 16, 1990), which
    need no visited set.  Every orbit point u other than its dominant mu
    has a first negative simple coordinate i, and its parent is s_i u, a
    higher orbit point with (s_i u)[i] = -u[i] > 0.  From a point v the walk
    therefore keeps u = s_i v (for v[i] = c > 0) only when i is u's first
    negative simple coordinate, that is when u[j] = v[j] - c * a_ji >= 0 for
    every simple j < i; this is tested on v before u is built.  Each point
    thus has exactly one parent, the parents climb to mu (the ``_dominant``
    path), and every point is emitted once.

    All trees are walked at once, one height level at a time.  Every simple
    root has height 2 under ``height_functional`` (the sum of the positive
    coroots, which is 2 rho-check), so a child s_i v lies 2 v[i] below its
    parent.  A level's parents all lie on higher levels, so the level is
    complete when the walk reaches it; it is sorted once and appended.  The
    walk counts what it emits and raises AssertionError at the first level
    that repeats a point.
    """
    heights = []
    for w in dominant:
        rd.check_weight(w)
        if any(w[i] < 0 for i in rd._simple):
            raise NotDominant(f"{w} is not dominant")
        heights.append(rd.height(w))
    if not heights:
        return {}
    top = max(heights)
    # levels[k] holds the (point, m) pairs of height top - k
    levels: list[list[tuple[Weight, int]] | None] = [[] for _ in range(2 * top + 1)]
    for (w, m), h in zip(dominant.items(), heights):
        levels[top - h].append((w, m))
    plans = rd._orbit_plans
    out: dict[Weight, int] = {}
    emitted = 0
    for k, level in enumerate(levels):
        if not level:
            continue
        levels[k] = None  # free its pairs: out holds its points from here on
        level.sort()
        out.update(level)
        emitted += len(level)
        if emitted != len(out):
            raise AssertionError(f"weyl_orbit emitted a point twice at height {top - k}")
        for v, m in level:
            for i, moved, lower_unmoved, lower_moved in plans:
                c = v[i]
                if c > 0:
                    for j in lower_unmoved:
                        if v[j] < 0:
                            break
                    else:
                        for j, a in lower_moved:
                            if v[j] < c * a:
                                break
                        else:
                            u = list(v)
                            u[i] = -c
                            for j, a in moved:
                                u[j] -= c * a
                            levels[k + 2 * c].append((tuple(u), m))
    return out


def weyl_dim(rd: RootDatum, lam: Weight) -> int:
    """Dimension of the dual Weyl module, by the product formula."""
    rd.check_weight(lam)
    if not is_dominant(rd, lam):
        raise NotDominant(f"{lam} is not dominant")
    num = den = 1
    for cv in rd.positive_coroots:
        num *= rd.pairing(lam, cv) + rd.pairing(rd.rho, cv)
        den *= rd.pairing(rd.rho, cv)
    if num % den:
        raise AssertionError("Weyl dimension formula did not divide")
    return num // den


def highest_roots(rd: RootDatum) -> tuple[Weight, ...]:
    """The highest root of each simple factor, in factor order; a torus
    factor has none."""
    out = []
    offset = 0
    for fac in rd.gtype.factors:
        block = range(offset, offset + fac.rank)
        offset += fac.rank
        if not fac.is_torus:
            out.append(max((r for r in rd.positive_roots if any(r[i] for i in block)),
                           key=rd.height))
    return tuple(out)


# ---------------------------------------------------------------------------
# Dynkin subdiagrams

def _component_order(comp: list[int], cartan, adj) -> tuple[SimpleType, list[int]]:
    """Classify one connected induced subdiagram and order its nodes Bourbaki-style."""
    m = len(comp)
    if m == 1:
        return SimpleType("A", 1), list(comp)
    deg = {u: len(adj[u]) for u in comp}

    def walk(start, first):
        # path from start through first to the far leaf
        order = [start, first]
        while True:
            nxt = [v for v in adj[order[-1]] if v != order[-2]]
            if not nxt:
                return order
            if len(nxt) > 1:
                raise UnknownType("not a Dynkin subdiagram")
            order.append(nxt[0])

    triple = [(u, v) for u in comp for v in adj[u] if cartan[u][v] * cartan[v][u] == 3]
    double = [(u, v) for u in comp for v in adj[u] if cartan[u][v] == -2]
    if triple:
        if m != 2:
            raise UnknownType("not a Dynkin subdiagram")
        u, v = next((u, v) for u, v in double or triple if cartan[u][v] == -3)
        return SimpleType("G", 2), [u, v]  # short node first
    if double:
        u, v = double[0]  # cartan[u][v] == -2: u is the short node
        if m == 2:
            return SimpleType("B", 2), [v, u]  # long, short
        if deg[u] == 2 and deg[v] == 2:
            if m != 4:
                raise UnknownType("not a Dynkin subdiagram")
            long_leaf = next(x for x in adj[v] if x != u)
            short_leaf = next(x for x in adj[u] if x != v)
            return SimpleType("F", 4), [long_leaf, v, u, short_leaf]
        if deg[u] == 1:
            # short leaf: type B, path ends at u
            order = walk(u, v)[::-1]
            return SimpleType("B", m), order
        if deg[v] == 1:
            order = walk(v, u)[::-1]
            return SimpleType("C", m), order
        raise UnknownType("not a Dynkin subdiagram")
    # simply laced
    branch = [u for u in comp if deg[u] >= 3]
    if not branch:
        ends = sorted(u for u in comp if deg[u] == 1)
        return SimpleType("A", m), walk(ends[0], adj[ends[0]][0]) if m > 1 else list(comp)
    if len(branch) > 1 or deg[branch[0]] > 3:
        raise UnknownType("not a Dynkin subdiagram")
    c = branch[0]
    arms = sorted((walk(c, v)[1:] for v in adj[c]),
                  key=lambda arm: (len(arm), arm[0]))
    l1, l2, l3 = (len(a) for a in arms)
    if l1 == 1 and l2 == 1:
        tail = arms[2]
        leaves = sorted([arms[0][0], arms[1][0]])
        return SimpleType("D", m), tail[::-1] + [c] + leaves
    if l1 == 1 and l2 == 2 and m in (6, 7, 8):
        near, far = arms[1]
        return SimpleType("E", m), [far, arms[0][0], near, c] + arms[2]
    raise UnknownType("not a Dynkin subdiagram")


def _classify_nodes(cartan, nodes) -> list[tuple[SimpleType, list[int]]]:
    """Split a node subset of a Cartan matrix (:func:`cartan_matrix`) into
    classified components with Bourbaki node order.

    ``nodes`` are 1-based coordinate indices; torus coordinates (a zero
    diagonal entry) are invalid.  The returned node lists are 0-based
    coordinate indices.
    """
    idx = sorted(set(nodes))
    for i in idx:
        if not 1 <= i <= len(cartan) or cartan[i - 1][i - 1] == 0:
            raise BadIndex(f"node {i} outside a diagram of rank {len(cartan)}")
    sel = [i - 1 for i in idx]
    adj = {u: [v for v in sel if v != u and cartan[u][v] != 0] for u in sel}
    comps = []
    seen: set[int] = set()
    for u in sel:
        if u in seen:
            continue
        comp = [u]
        seen.add(u)
        queue = [u]
        while queue:
            x = queue.pop()
            for v in adj[x]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    out = []
    for comp in comps:
        stype, order = _component_order(comp, cartan, adj)
        block, _ = _simple_cartan(stype.letter, stype.rank)
        got = [[cartan[u][v] for v in order] for u in order]
        if got != block:
            raise AssertionError(f"subdiagram classification failed near nodes {comp}")
        out.append((stype, order))
    out.sort(key=lambda t: (t[0].letter, -t[0].rank, t[1][0]))
    return out
