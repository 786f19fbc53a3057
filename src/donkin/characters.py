"""Formal characters: dual Weyl characters, the exterior algebra, decomposition
into the dual-Weyl basis, and restrictedness tests.

A formal character is a finite map from weights (fundamental-weight
coordinates) to integer multiplicities.  Freudenthal's recursion, in the
orbit-sum form of Moody and Patera, gives the dominant multiplicities of dual
Weyl modules: one root string per orbit of each dominant weight's stabilizer,
each string cut short at the first dominant weight already done.  They are
memoized and kept in a text cache file checked at first use against the Weyl
dimension formula.  One Racah–Speiser pass over the support decomposes a
W-invariant character (Humphreys §24), with no Freudenthal run.  Its symmetry
check and fold, and the exterior algebra's product by (1 + e^w), run as
straight-line code generated from the Cartan integers and compiled once per
root datum (the product once per rank).
"""
from __future__ import annotations

import functools
import os
import tempfile
import threading
from collections import namedtuple
from operator import mul, sub

from .errors import NegativeInput, NotSymmetric
from .rootsystem import (
    GroupType,
    RootDatum,
    Weight,
    _compiled,
    _dominant,
    _image,
    _tup,
    build_root_datum,
    normalize_type,
    weyl_dim,
    weyl_orbit,
)


class FormalCharacter(namedtuple("FormalCharacter", "ambient support")):
    """Finite weight -> multiplicity map over a fixed ambient group type.

    The character owns the dict it is given: it is kept as ``support``, not
    copied, unless it holds a zero multiplicity, which is dropped in a copy.
    Callers hand over a fresh dict and do not change it afterwards.
    """

    __slots__ = ()

    def __new__(cls, ambient: GroupType, support: dict[Weight, int]):
        if 0 in support.values():
            support = {w: m for w, m in support.items() if m}
        return super().__new__(cls, normalize_type(ambient), support)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)

    def dim(self) -> int:
        return sum(self.support.values())

    def __repr__(self):
        return f"FormalCharacter({self.ambient}, {len(self.support)} weights, dim {self.dim()})"


# ---------------------------------------------------------------------------
# Freudenthal's recursion

_DOMINANT_MULTS: dict[tuple[str, Weight], dict[Weight, int]] = {}
_ON_DISK: dict[tuple[str, Weight], dict[Weight, int]] = {}
_LOCK = threading.Lock()


@functools.lru_cache(maxsize=None)
def _reflections(rd: RootDatum) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per positive root alpha: (i, index of s_i alpha) for each simple i with
    <alpha, alpha_i^vee> < 0; s_i alpha is a higher root of alpha's factor."""
    index = {alpha: n for n, alpha in enumerate(rd.positive_roots)}
    return tuple(tuple((i, index[rd.reflect(alpha, i)]) for i in rd.simple if alpha[i] < 0)
                 for alpha in rd.positive_roots)


@functools.lru_cache(maxsize=None)
def _root_orbits(rd: RootDatum, walls: tuple[int, ...]
                 ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Moody–Patera's plan for a dominant mu whose zero simple coordinates
    are ``walls`` (the set J): one (beta, weight) per W_J-orbit O of roots
    that holds a positive root, and the plan position of each positive
    root's orbit.  Roots are given by their index in ``rd.positive_roots``.

    W_J fixes mu, so the root string sum S(mu, alpha) of ``_freudenthal`` is
    constant on O.  beta is O's J-dominant member, the fold of each of its
    positive roots under the s_j, j in J, and it is positive.  The weight is
    twice the number of positive roots in O.  W_J maps the positive roots
    outside Phi_J to themselves, so there it is 2|O|.  An orbit inside Phi_J
    holds each of its roots with its negative, and S(mu, -alpha) =
    S(mu, alpha) there, so it is |O|.  The weights times S(mu, beta) sum to
    2 * sum over alpha > 0 of S(mu, alpha).  A root alpha folds through
    ``_reflections``: at its first wall j with <alpha, alpha_j^vee> < 0, to
    the fold of s_j alpha, a later root and so folded first.
    """
    reflections = _reflections(rd)
    fold = list(range(len(reflections)))
    for n in reversed(range(len(fold))):
        fold[n] = next((fold[up] for j, up in reflections[n] if j in walls), n)
    position: dict[int, int] = {}
    orbit_of = [position.setdefault(b, len(position)) for b in fold]
    return tuple((b, 2 * orbit_of.count(k)) for b, k in position.items()), tuple(orbit_of)


@functools.lru_cache(maxsize=None)
def _orbit_size(rd: RootDatum, positive: tuple[bool, ...]) -> int:
    """|W mu| for a dominant mu with these positive coordinates: Macdonald's
    |W| / |W_mu| (Math. Ann. 199, 1972), the product of (<rho,a> + 1) / <rho,a>
    over the positive coroots a with <mu,a> > 0."""
    num = den = 1
    for cv in rd.positive_coroots:
        if any(c and p for c, p in zip(cv, positive)):
            h = rd.pairing(rd.rho, cv)
            num, den = num * (h + 1), den * h
    return num // den


def _cached_entry_ok(rd: RootDatum, lam: Weight, mults: dict[Weight, int]) -> bool:
    """Whether an entry read from the cache file can be the dominant
    multiplicities of nabla(lam): dominant full-length weights, positive
    multiplicities, m(lam) = 1, and the sum of m * |W mu| equal to the Weyl
    dimension, which one changed, added or deleted weight always moves."""
    total = 0
    for mu, m in mults.items():
        if len(mu) != rd.rank or m <= 0 or any(mu[i] < 0 for i in rd.simple):
            return False
        total += m * _orbit_size(rd, tuple(c > 0 for c in mu))
    return mults.get(lam) == 1 and total == weyl_dim(rd, lam)


def _freudenthal(rd: RootDatum, lam: Weight) -> dict[Weight, int]:
    """Dominant multiplicities of the dual Weyl module, by Freudenthal's recursion
    in the orbit-sum form of Moody and Patera ("Fast recursion formula for
    weight multiplicities", Bull. AMS 7, 1982).

    Freudenthal's formula reads
    (|lam + rho|^2 - |mu + rho|^2) m(mu) = 2 sum_{alpha > 0} S(mu, alpha), with
    S(mu, alpha) = sum_{k >= 1} m(mu + k alpha) <mu + k alpha, alpha>.  At a
    dominant mu the right side is the sum over ``_root_orbits`` of
    weight * S(mu, beta): one root string per orbit of mu's stabilizer
    W_J, weighted 2|O| for an orbit outside Phi_J and |O| for one inside.
    These S(mu, beta) are kept for every dominant mu.  A string from a lower
    weight in the direction of a root gamma that reaches such a mu stops
    there and adds S(mu, gamma), which is S(mu, beta) for the beta of
    gamma's orbit in mu's plan.

    The dominant mu are the dominant weights <= lam.  Covers among them differ
    by a positive root, so one walk down from lam finds and computes them, one
    height level at a time: m(mu) reads only higher levels, which are done,
    and then mu adds its dominant children mu - alpha to their own levels.

    An entry read from the cache file is used if ``_cached_entry_ok`` passes
    it, else recomputed.  Runs on ints only: inner products are taken with
    the integer Gram matrix ``rd.gram``, whose scale cancels in the quotient.
    """
    lam = tuple(lam)
    key = (str(rd.gtype), lam)
    with _LOCK:
        cached = _DOMINANT_MULTS.get(key)
        on_disk = _ON_DISK.pop(key, None)
    if cached is not None:
        return cached
    if on_disk is not None and _cached_entry_ok(rd, lam, on_disk):
        mults = on_disk
    else:
        simple, columns = rd.simple, rd.columns
        # (alpha, its height, the (i, alpha[i]) with alpha[i] > 0, G alpha, <alpha, alpha>):
        # <mu + k alpha, alpha> = <mu, alpha> + k <alpha, alpha>
        roots = []
        for alpha in rd.positive_roots:
            g_alpha = tuple(sum(map(mul, row, alpha)) for row in rd.gram)
            above = tuple((i, a) for i, a in enumerate(alpha) if a > 0)
            roots.append((alpha, rd.height(alpha), above, g_alpha, sum(map(mul, alpha, g_alpha))))
        lam_rho = tuple(a + r for a, r in zip(lam, rd.rho))
        clam = rd.scaled_inner(lam_rho, lam_rho)
        mults = {lam: 1}
        # m(nu) of every nu = mu + k beta looked up so far: the dominant
        # representative of nu lies above mu, so its multiplicity is already
        # final (computed, or 0 for a weight outside the module)
        folded: dict[Weight, int] = {}
        # sums[mu] = (plan position of each positive root's orbit, S(mu, beta)
        # per orbit) for the dominant mu done so far
        sums: dict[Weight, tuple[tuple[int, ...], list[int]]] = {}
        # levels[d] holds the dominant weights of height height(lam) - d as keys
        levels: list[dict[Weight, None] | None] = [{} for _ in range(rd.height(lam) + 1)]
        levels[0][lam] = None
        for d, level in enumerate(levels):
            levels[d] = None
            for mu in level:
                if d:
                    mu_rho = tuple(m + r for m, r in zip(mu, rd.rho))
                    denom = clam - rd.scaled_inner(mu_rho, mu_rho)
                    total = 0
                    plan, orbit_of = _root_orbits(rd, tuple(i for i in simple if not mu[i]))
                    row = []
                    for b, weight in plan:
                        beta, _, _, g_beta, bb = roots[b]
                        ip = sum(map(mul, mu, g_beta))
                        s = 0
                        nu = mu
                        while True:
                            nu = tuple([x + y for x, y in zip(nu, beta)])
                            m_nu = folded.get(nu)
                            if m_nu is None:
                                m_nu = folded[nu] = mults.get(_dominant(nu, simple, columns), 0)
                            if m_nu == 0:
                                break
                            ip += bb
                            s += m_nu * ip
                            hit = sums.get(nu)
                            if hit is not None:
                                s += hit[1][hit[0][b]]
                                break
                        row.append(s)
                        total += weight * s
                    sums[mu] = (orbit_of, row)
                    q, r = divmod(total, denom)
                    if r:
                        raise AssertionError("Freudenthal multiplicity not integral")
                    if q:
                        mults[mu] = q
                # mu - alpha is dominant iff mu[i] >= alpha[i] wherever alpha[i] > 0
                for alpha, h, above, _, _ in roots:
                    for i, a in above:
                        if mu[i] < a:
                            break
                    else:
                        levels[d + h][tuple([m - a for m, a in zip(mu, alpha)])] = None
    with _LOCK:
        _DOMINANT_MULTS.setdefault(key, mults)
    return mults


def dual_weyl_character(rd: RootDatum, lam: Weight) -> FormalCharacter:
    """Character of the dual Weyl module with highest weight ``lam``, its
    support in print order (see ``weyl_orbit``)."""
    lam = rd.dominant(lam)
    return FormalCharacter(rd.gtype, weyl_orbit(rd, _freudenthal(rd, lam)))


# ---------------------------------------------------------------------------
# The exterior algebra

def _check_genuine(chi: FormalCharacter):
    if any(m < 0 for m in chi.support.values()):
        raise NegativeInput("exterior powers need a genuine character")


@functools.lru_cache(maxsize=None)
def _exterior_step(rank: int):
    """``exterior_algebra``'s product by (1 + e^w) at one rank, compiled on
    first use (see ``rootsystem._compiled``).  For rank 2::

        def step(out, w):
            (w0, w1) = w
            nxt = dict(out)
            get = nxt.get
            for (v0, v1), m in out.items():
                u = (v0 + w0, v1 + w1)
                nxt[u] = get(u, 0) + m
            return nxt
    """
    v, w = (_tup(["%s%d" % (x, j) for j in range(rank)]) for x in "vw")
    source = ("def step(out, w):\n    %s = w\n    nxt = dict(out)\n    get = nxt.get\n"
              "    for %s, m in out.items():\n        u = %s\n        nxt[u] = get(u, 0) + m\n"
              "    return nxt\n" % (w, v, _tup(["v%d + w%d" % (j, j) for j in range(rank)])))
    return _compiled(source, "<exterior_algebra>", "step")[0]


def exterior_algebra(chi: FormalCharacter) -> FormalCharacter:
    """Sum of all exterior powers: the product of (1 + e^w) over the weight
    copies w, one ``_exterior_step`` per copy; total dimension 2**dim."""
    _check_genuine(chi)
    step = _exterior_step(chi.ambient.rank)
    out: dict[Weight, int] = {(0,) * chi.ambient.rank: 1}
    for w, mult in chi.support.items():
        for _ in range(mult):
            out = step(out, w)
    result = FormalCharacter(chi.ambient, out)
    if result.dim() != 2 ** chi.dim():
        raise AssertionError("exterior algebra dimension check failed")
    return result


# ---------------------------------------------------------------------------
# Decomposition into the dual-Weyl basis

class DualWeylDecomposition(namedtuple("DualWeylDecomposition", "ambient terms exact")):
    """Multiplicities of dual Weyl characters; exact iff all nonnegative."""

    __slots__ = ()

    def items_sorted(self):
        """The terms by descending height, ties by weight: their print order."""
        height = build_root_datum(self.ambient).height
        return sorted(self.terms.items(), key=lambda t: (-height(t[0]), t[0]))


@functools.lru_cache(maxsize=None)
def _racah_kernels(rd: RootDatum):
    """``check`` and ``fold`` for ``rd``: the passes of ``_check_symmetric``
    and ``decompose_dual_weyl`` over a support, from one source compiled on
    first use (see ``rootsystem._compiled``).  For G2::

        def check(support):
            get = support.get
            d = 0
            for (v0, v1), m in support.items():
                if v0 > 0:
                    if get((-v0, v1 + v0)) != m:
                        return False
                    d += 1
                elif v0 < 0:
                    d -= 1
                if v1 > 0:
                    if get((v0 + 3 * v1, -v1)) != m:
                        return False
                    d += 1
                elif v1 < 0:
                    d -= 1
            return not d

        def fold(support):
            sums = {}
            get = sums.get
            for (x0, x1), m in support.items():
                x0 += 1
                x1 += 1
                while True:
                    if x0 <= 0:
                        if not x0:
                            break
                        (x0, x1, m) = (-x0, x1 + x0, -m)
                    elif x1 <= 0:
                        if not x1:
                            break
                        (x0, x1, m) = (x0 + 3 * x1, -x1, -m)
                    else:
                        x = (x0, x1)
                        sums[x] = get(x, 0) + m
                        break
            return sums
    """
    check = fold = ""
    for i in rd.simple:
        col = rd.columns[i]
        check += ("        if v%d > 0:\n            if get(%s) != m:\n"
                  "                return False\n            d += 1\n"
                  "        elif v%d < 0:\n            d -= 1\n" % (i, _tup(_image(col, i)), i))
        # on the wall x_i = 0 nothing is added; else x goes to s_i x, and m changes sign
        moved = [(t, e) for t, e, a in zip(range(rd.rank), _image(col, i, "x"), col) if a]
        fold += ("            %s x%d <= 0:\n                if not x%d:\n"
                 "                    break\n                %s = %s\n"
                 % ("elif" if fold else "if", i, i, _tup(["x%d" % t for t, _ in moved] + ["m"]),
                    _tup([e for _, e in moved] + ["-m"])))
    v, x = (_tup(["%s%d" % (c, j) for j in range(rd.rank)]) for c in "vx")
    source = ("def check(support):\n    get = support.get\n    d = 0\n"
              "    for %s, m in support.items():\n%s    return not d\n\n"
              % (v, check or "        pass\n"))
    # with no simple index every x is dominant and off the walls
    source += ("def fold(support):\n    sums = {}\n    get = sums.get\n"
               "    for %s, m in support.items():\n%s        while True:\n%s            %s:\n"
               "                x = %s\n                sums[x] = get(x, 0) + m\n"
               "                break\n    return sums\n"
               % (x, "".join("        x%d += 1\n" % i for i in rd.simple), fold,
                  "else" if fold else "if True", x))
    return _compiled(source, "<racah>", "check", "fold")


def _check_symmetric(rd: RootDatum, support: dict[Weight, int]) -> None:
    """Raise NotSymmetric unless ``support`` is invariant under every simple
    reflection s_i, hence under W.

    s_i pairs the weights with u[i] > 0 one to one with those with u[i] < 0.
    So it is enough that each u with u[i] > 0 has its multiplicity at s_i u
    too, and that both sides of the support have the same size.  Once the
    first holds for every i, no i has more weights with u[i] > 0 than with
    u[i] < 0, so ``check`` counts both sides over all i at once.  NotSymmetric
    names the lowest failing i, with the first u failing the first test, else
    the first u[i] < 0 with no partner.
    """
    if _racah_kernels(rd)[0](support):
        return
    for i in rd.simple:
        u = next((u for u in support if u[i] > 0 and support.get(rd.reflect(u, i)) != support[u]),
                 None)
        if u is None:
            u = next((u for u in support if u[i] < 0 and rd.reflect(u, i) not in support), None)
        if u is not None:
            v = rd.reflect(u, i)
            raise NotSymmetric(f"not Weyl-invariant: {u} has multiplicity {support[u]} "
                               f"but its reflection s{i + 1}{u} = {v} has {support.get(v, 0)}")
    raise AssertionError("symmetry check failed with no weight to name")


def decompose_dual_weyl(chi: FormalCharacter) -> DualWeylDecomposition:
    """One-pass Racah–Speiser decomposition of a Weyl-symmetric character
    over its own group, ``chi.ambient``.

    The input is checked first to be W-invariant (NotSymmetric names a weight
    and its reflection whose multiplicities differ), as the rule would
    decompose any other input wrongly.  A weight nu of multiplicity m adds
    (-1)^k m at x - rho, where k reflections, each at the first negative
    simple coordinate, fold nu + rho to the dominant x, or nothing if x is on
    a wall (Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, §24).
    """
    rd = build_root_datum(chi.ambient)
    _check_symmetric(rd, chi.support)
    rho = rd.rho
    sums = _racah_kernels(rd)[1](chi.support)
    terms = {tuple(map(sub, x, rho)): m for x, m in sums.items() if m}
    return DualWeylDecomposition(rd.gtype, terms, all(m >= 0 for m in terms.values()))


def is_restricted(rd: RootDatum, lam: Weight, p: int) -> bool:
    """True iff every non-torus coordinate of the dominant weight is <= p-1."""
    lam = rd.dominant(lam)
    return all(lam[i] <= p - 1 for i in rd.simple)


def min_prime_greater(n: int) -> int:
    """Smallest prime strictly greater than n; p is a prime iff
    ``min_prime_greater(p - 1) == p``."""
    p = max(2, n + 1)
    while any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        p += 1
    return p


# ---------------------------------------------------------------------------
# Persistent character cache
#
# A text file: a header line, then one line "TYPE LAMBDA MU:M MU:M ..." per
# entry, every weight as comma-separated integers.  A line that does not parse
# is skipped, and a file with another header (an old binary one too) ignored.
# Entries read wait in _ON_DISK until _freudenthal checks them at first use.

_CACHE_HEADER = "donkin character cache 2"


def _cache_path() -> str:
    default = os.path.join(os.path.expanduser("~"), ".cache", "donkin")
    return os.path.join(os.environ.get("DONKIN_CACHE_DIR", default), "characters.txt")


def _text_weight(text: str) -> Weight:
    return tuple(map(int, text.split(",")))


def save_cache_file() -> str:
    """Write the checked and the not yet used dominant multiplicities to the
    cache file; returns its path."""
    path = _cache_path()
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    with _LOCK:
        entries = sorted({**_ON_DISK, **_DOMINANT_MULTS}.items())
    lines = [_CACHE_HEADER]
    for (tname, lam), mults in entries:
        pairs = [",".join(map(str, mu)) + f":{m}" for mu, m in sorted(mults.items())]
        lines.append(" ".join([tname, ",".join(map(str, lam)), *pairs]))
    # a temp file of its own per writer, so concurrent saves cannot interleave
    fd, tmp = tempfile.mkstemp(dir=directory, prefix="characters.txt.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_cache_file() -> int:
    """Read the cache file's entries, unchecked, for ``_freudenthal``;
    returns how many were read (0 for a missing or wrong-header file)."""
    try:
        with open(_cache_path(), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError):
        return 0
    if lines[0] != _CACHE_HEADER:
        return 0
    entries = {}
    for line in lines[1:]:
        try:
            tname, lam, *pairs = line.split(" ")
            entries[tname, _text_weight(lam)] = {
                _text_weight(mu): int(m) for mu, m in (pair.split(":") for pair in pairs)}
        except ValueError:
            continue
    with _LOCK:
        _ON_DISK.update(entries)
    return len(entries)
