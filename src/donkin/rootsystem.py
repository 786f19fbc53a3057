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
from operator import itemgetter, mul

from . import linalg
from .errors import BadIndex, DimensionMismatch, NotDominant, UnknownType

Weight = tuple[int, ...]

_TYPE_RE = re.compile(r"([A-GT])([0-9]+)$")

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
        if m:
            try:
                return cls(m.group(1), int(m.group(2)))
            except ValueError:  # a rank past Python's limit on the digits of int
                pass
        raise UnknownType(f"cannot parse simple type {text!r}")


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


@functools.lru_cache(maxsize=None)
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
    coroots).  Torus coordinates carry no roots and zero Cartan rows.  Each
    factor's walk ends at its highest root: ``highest_roots``, in factor order.

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
        cartan = cartan_matrix(gtype)
        # the simple coordinates: a torus coordinate has a zero Cartan row
        self.simple = tuple(i for i, row in enumerate(cartan) if row[i])
        # column i of the Cartan matrix = alpha_i in fw coordinates
        self.columns = columns = tuple(zip(*cartan))
        blocks = []  # (offset, numerators of G's block, det A) per semisimple factor
        roots: list[tuple[Weight, Weight]] = []  # (root, coroot), factor by factor
        highest = []
        offset = 0
        for fac in gtype.factors:
            r = fac.rank
            if not fac.is_torus:
                block, d = _simple_cartan(fac.letter, r)
                det, adj = linalg.adjugate(block)
                nums = [[adj[j][i] * d[j] for j in range(r)] for i in range(r)]
                blocks.append((offset, nums, det))
                roots += _positive_roots(columns, range(offset, offset + r))
                highest.append(roots[-1][0])
            offset += r
        expected = sum(_POSITIVE_ROOT_COUNTS[f.letter](f.rank) for f in gtype.factors)
        if len(roots) != expected:
            raise AssertionError(f"{gtype}: got {len(roots)} roots, expected {expected}")
        self.positive_roots = tuple(root for root, _ in roots)
        self.positive_coroots = tuple(coroot for _, coroot in roots)
        self.highest_roots = tuple(highest)
        self.gram_scale = scale = math.lcm(*(
            det // math.gcd(det, *(x for row in nums for x in row)) for _, nums, det in blocks))
        gram = [[0] * n for _ in range(n)]
        for offset, nums, det in blocks:
            for i, row in enumerate(nums):
                gram[offset + i][offset:offset + len(row)] = [x * scale // det for x in row]
        self.gram = tuple(map(tuple, gram))
        self.rho: Weight = tuple(int(i in self.simple) for i in range(n))
        # sum of positive coroots; any dominance-compatible height functional
        self.height_functional: Weight = tuple(
            sum(cv[i] for cv in self.positive_coroots) for i in range(n))

    # -- basics ------------------------------------------------------------

    def dominant(self, w) -> Weight:
        """``w`` as a tuple, if it is a dominant weight of this datum: it has
        the rank's length (else DimensionMismatch) and no negative simple
        coordinate (else NotDominant).  The one weight gate of the package."""
        w = tuple(w)
        if len(w) != self.rank:
            raise DimensionMismatch(f"weight of length {len(w)} against rank {self.rank}")
        if any(w[i] < 0 for i in self.simple):
            raise NotDominant(f"{w} is not dominant")
        return w

    def reflect(self, w: Weight, i: int) -> Weight:
        """Simple reflection s_i (0-based coordinate index)."""
        c = w[i]
        if c == 0:
            return w
        col = self.columns[i]
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


# Generated kernels: source made only of a rank, Cartan integers and fixed names
# (no user text reaches ``exec``), written with %-formatting, as f-strings (each
# parsed by a parser of its own in Python 3.11) kept 0.1 MB more RSS per job.

def _times(a, v):  # a * v, for an integer a != 0
    return ("-" if a < 0 else "") + ("%d * " % abs(a) if abs(a) != 1 else "") + v


def _tup(items):
    return "(%s%s)" % (", ".join(items), "," if len(items) == 1 else "")


def _image(col, i, x="v"):
    """Coordinate j of s_i x = x - x_i * alpha_i, alpha_i = ``col``, in x0, x1, ...;
    the off-diagonal a_ji are <= 0, so each moved x_j gains a multiple of x_i."""
    xi = "%s%d" % (x, i)
    return ["-" + xi if j == i else "%s%d + %s" % (x, j, _times(-a, xi)) if a else "%s%d" % (x, j)
            for j, a in enumerate(col)]


def _compiled(source: str, filename: str, *names: str) -> list:
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return [namespace[name] for name in names]


@functools.lru_cache(maxsize=None)
def _expander(rd: RootDatum):
    """``weyl_orbit``'s child step for ``rd``, compiled on first use.  For G2::

        def expand(level, levels, k):
            for (v0, v1), m in level:
                if v0 > 0:
                    levels[k + 2 * v0].append(((-v0, v1 + v0), m))
                if v1 > 0 and v0 >= -3 * v1:
                    levels[k + 2 * v1].append(((v0 + 3 * v1, -v1), m))
                pass
    """
    body = []
    for i in rd.simple:
        col = rd.columns[i]
        test = ["v%d > 0" % i]
        test += ["v%d >= 0" % j for j in rd.simple if j < i and not col[j]]
        test += ["v%d >= %s" % (j, _times(col[j], "v%d" % i))
                 for j in rd.simple if j < i and col[j]]
        body.append("        if %s:\n            levels[k + 2 * v%d].append((%s, m))\n"
                    % (" and ".join(test), i, _tup(_image(col, i))))
    source = ("def expand(level, levels, k):\n    for %s, m in level:\n%s        pass\n"
              % (_tup(["v%d" % j for j in range(rd.rank)]), "".join(body)))
    return _compiled(source, "<weyl_orbit>", "expand")[0]


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
    complete when the walk reaches it; it is sorted once by point (its
    points are distinct) and appended, and its children come from
    ``_expander``.  The walk counts what it emits and raises AssertionError
    at the first level that repeats a point.
    """
    heights = [rd.height(rd.dominant(w)) for w in dominant]
    if not heights:
        return {}
    top = max(heights)
    # levels[k] holds the (point, m) pairs of height top - k
    levels: list[list[tuple[Weight, int]] | None] = [[] for _ in range(2 * top + 1)]
    for (w, m), h in zip(dominant.items(), heights):
        levels[top - h].append((w, m))
    expand = _expander(rd)
    out: dict[Weight, int] = {}
    emitted = 0
    for k, level in enumerate(levels):
        if not level:
            continue
        levels[k] = None  # free its pairs: out holds its points from here on
        level.sort(key=itemgetter(0))
        out.update(level)
        emitted += len(level)
        if emitted != len(out):
            raise AssertionError(f"weyl_orbit emitted a point twice at height {top - k}")
        expand(level, levels, k)
    return out


def weyl_dim(rd: RootDatum, lam: Weight) -> int:
    """Dimension of the dual Weyl module, by the product formula."""
    lam = rd.dominant(lam)
    num = den = 1
    for cv in rd.positive_coroots:
        num *= rd.pairing(lam, cv) + rd.pairing(rd.rho, cv)
        den *= rd.pairing(rd.rho, cv)
    if num % den:
        raise AssertionError("Weyl dimension formula did not divide")
    return num // den


# ---------------------------------------------------------------------------
# Dynkin subdiagrams

@functools.lru_cache(maxsize=None)
def _component_type(block) -> tuple[SimpleType, tuple[int, ...]]:
    """Type and Bourbaki order of one connected Cartan block, nodes 0..m-1.

    The type is the simple type whose :func:`_simple_cartan` block ``block``
    reproduces under some order of its nodes, and the order is the first
    such, filled position by position (Bourbaki node 1 first) with the nodes
    tried in ascending order.  D4's three leaves instead go (largest,
    smallest, middle): the triality choice the shipped maps carry.
    """
    m = len(block)

    def orders(want, prefix):
        p = len(prefix)
        if p == m:
            yield prefix
        for u in range(m):
            if u not in prefix and all(block[u][v] == want[p][q] and block[v][u] == want[q][p]
                                       for q, v in enumerate(prefix)):
                yield from orders(want, prefix + (u,))

    for letter in "ABCDEFG":
        if _is_canonical(letter, m):
            order = next(orders(_simple_cartan(letter, m)[0], ()), None)
            if order is not None:
                if (letter, m) == ("D", 4):
                    order = (order[3], order[1], order[0], order[2])
                return SimpleType(letter, m), order
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
        stype, order = _component_type(tuple(tuple(cartan[u][v] for v in comp) for u in comp))
        out.append((stype, [comp[i] for i in order]))
    out.sort(key=lambda t: (t[0].letter, -t[0].rank, t[1][0]))
    return out
