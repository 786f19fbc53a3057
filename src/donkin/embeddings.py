"""Weight-lattice maps for the subgroup-embedding clause catalog.

Every :class:`WeightMap` stores a ``target rank x source rank`` integer matrix
acting on *normalized-vocabulary* fundamental-weight coordinates (the
coordinates of ``normalize_type(source)`` / ``normalize_type(target)``); the
``source``/``target`` fields keep the spelling the map was built from.  The
classical clauses are constructed in epsilon coordinates and converted, so the
tables' nonstandard spellings (B1 for SO3, C1 for Sp2, D1 for SO2, ...) pick
the intended classical group.

Tags: ``diag`` (diagonal into a power), ``levi`` (Levi subgroup up to central
torus), ``auto`` (diagram-folding fixed points), ``class`` (same-form block
splits and SL/SO, SL/Sp), ``max`` (maximal-rank subgroups of exceptional
groups; type-level only, no weight map), ``resirr`` (restricted irreducible
representations), ``tensor`` (tensor-product embeddings), ``alias``
(respelling).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import (
    AmbientMismatch,
    BadIndex,
    NotAClassicalSplit,
    NotAMaxRankSubgroup,
    NotARestrictedEmbedding,
    NotATensorEmbedding,
    TypeMismatch,
    UnknownPair,
)
from .characters import FormalCharacter, dual_weyl_character
from .rootsystem import (
    GroupType,
    RootDatum,
    SimpleType,
    Weight,
    _classify_nodes,
    build_root_datum,
    normalize_type,
)


@dataclass(frozen=True)
class WeightMap:
    """Integer-matrix restriction map between weight lattices."""

    source: GroupType
    target: GroupType
    matrix: tuple[tuple[int, ...], ...]
    _source_rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.matrix) != normalize_type(self.target).rank:
            raise TypeMismatch("matrix rows do not match target rank")
        rank = normalize_type(self.source).rank
        if self.matrix and len(self.matrix[0]) != rank:
            raise TypeMismatch("matrix columns do not match source rank")
        object.__setattr__(self, "_source_rank", rank)

    def apply(self, w: Weight) -> Weight:
        """Image of one weight: the matrix times ``w``."""
        if len(w) != self._source_rank:
            raise AmbientMismatch(
                f"weight of length {len(w)} under a map from {self.source}")
        return tuple([sum(map(mul, row, w)) for row in self.matrix])


def identity_map(gtype: GroupType) -> WeightMap:
    return WeightMap(gtype, gtype, linalg.identity(normalize_type(gtype).rank))


def compose(m1: WeightMap, m2: WeightMap) -> WeightMap:
    """First restrict along ``m1``, then along ``m2``."""
    if normalize_type(m1.target) != normalize_type(m2.source):
        raise TypeMismatch(f"{m1.target} -> {m2.source} do not compose")
    return WeightMap(m1.source, m2.target, linalg.mat_mul(m2.matrix, m1.matrix))


def restrict_character(chi: FormalCharacter, wmap: WeightMap) -> FormalCharacter:
    """Pushforward of the multiplicity map; total dimension is preserved."""
    if chi.ambient != normalize_type(wmap.source):
        raise AmbientMismatch(f"{chi.ambient} vs map source {wmap.source}")
    apply = wmap.apply
    out: dict[Weight, int] = {}
    for w, m in chi.support.items():
        v = apply(w)
        out[v] = out.get(v, 0) + m
    return FormalCharacter(normalize_type(wmap.target), out)


@dataclass(frozen=True)
class Clause:
    """A clause-catalog membership: tag, instance parameters, prime bound."""

    tag: str
    params: tuple
    p_min: int = 1


@dataclass(frozen=True)
class EmbeddingStep:
    """One arrow of a table chain, with its optional transcription p-bound."""

    tag: str
    sub: GroupType
    amb: GroupType
    p_bound: int | None = None  # as written: constraint "p > p_bound"

    def __str__(self):
        ann = f",p>{self.p_bound}" if self.p_bound is not None else ""
        return f"{self.sub} -[{self.tag}{ann}]-> {self.amb}"


def min_prime_greater(n: int) -> int:
    """Smallest prime strictly greater than n (n >= 0)."""
    p = max(2, n + 1)
    while any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        p += 1
    return p


# ---------------------------------------------------------------------------
# epsilon-coordinate scaffolding for the classical types

def _eps_to_fw(letter: str, n: int) -> list[list[int]]:
    """Fundamental-weight coordinates of a classical weight given in
    epsilon coordinates (for A, the input has n+1 entries)."""
    if letter == "A":
        return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n + 1)]
                for i in range(n)]
    if letter == "B":
        rows = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
                for i in range(n - 1)]
        rows.append([2 if j == n - 1 else 0 for j in range(n)])
        return rows
    if letter == "C":
        rows = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
                for i in range(n - 1)]
        rows.append([1 if j == n - 1 else 0 for j in range(n)])
        return rows
    if letter == "D":
        if n == 1:  # SO2: a torus; its character lattice is Z epsilon
            return [[1]]
        rows = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
                for i in range(n - 1)]
        rows[n - 2] = [0] * n
        rows[n - 2][n - 2], rows[n - 2][n - 1] = 1, -1
        rows.append([1 if j >= n - 2 else 0 for j in range(n)])
        return rows
    raise UnknownPair(f"no epsilon coordinates for {letter}{n}")


def _fw_to_eps(letter: str, n: int) -> list[list[Fraction]]:
    """Section of :func:`_eps_to_fw`; for A it is the gl-lift with eps_{n+1}=0."""
    if letter == "A":
        return [[Fraction(1) if j >= i else Fraction(0) for j in range(n)]
                for i in range(n + 1)]
    square = _eps_to_fw(letter, n)
    return [list(row) for row in linalg.rational_inverse(square)]


def _so_dim(f: SimpleType) -> int | None:
    """Dimension of the orthogonal space a factor names, or None."""
    if f.letter == "B":
        return 2 * f.rank + 1
    if f.letter == "D":
        return 2 * f.rank
    return None


def _eps_rank(f: SimpleType) -> int:
    return f.rank


# ---------------------------------------------------------------------------
# vocabulary conversion (normalized coordinates <-> written coordinates)

def _alias_block(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the map written-factor coordinates -> normalized coordinates."""
    if (letter, rank) == ("D", 3):
        return ((0, 1, 0), (1, 0, 0), (0, 0, 1))  # D3 nodes (2,1,3) are A3's path
    if (letter, rank) == ("C", 2):
        return ((0, 1), (1, 0))  # Sp4 = Spin5 swaps the two nodes
    return linalg.identity(rank)


def normalization_map(gtype: GroupType) -> WeightMap:
    """Coordinate map from a written spelling onto its normalized form."""
    from .rootsystem import _ALIASES
    norm = normalize_type(gtype)
    pieces: list[tuple[SimpleType, int, tuple[tuple[int, ...], ...]]] = []
    offset = 0
    for f in gtype.factors:
        block = _alias_block(f.letter, f.rank)
        parts = _ALIASES.get((f.letter, f.rank), ((f.letter, f.rank),))
        sub_off = 0
        for letter, rank in parts:
            full_rows = []
            for i in range(rank):
                row = [0] * gtype.rank
                for j in range(f.rank):
                    row[offset + j] = block[sub_off + i][j]
                full_rows.append(tuple(row))
            pieces.append((SimpleType(letter, rank), offset, tuple(full_rows)))
            sub_off += rank
        offset += f.rank
    semis = [p for p in pieces if not p[0].is_torus]
    tori = [p for p in pieces if p[0].is_torus]
    semis.sort(key=lambda p: (p[0].letter, -p[0].rank, p[1]))
    rows: list[tuple[int, ...]] = []
    for _, _, blk in semis + tori:
        rows.extend(blk)
    return WeightMap(gtype, norm, tuple(rows))


def _denormalization_rows(gtype: GroupType) -> tuple[tuple[int, ...], ...]:
    """Inverse of :func:`normalization_map` (a signed permutation; here 0/1)."""
    fwd = normalization_map(gtype).matrix
    n = len(fwd)
    inv = [[fwd[i][j] for i in range(n)] for j in range(n)]
    return tuple(tuple(r) for r in inv)


def _export(sub: GroupType, amb: GroupType, core_rows) -> WeightMap:
    """Wrap a written-vocabulary core matrix into normalized semantics."""
    p_sub = normalization_map(sub).matrix
    p_amb_inv = _denormalization_rows(amb)
    mat = linalg.mat_mul(p_sub, linalg.mat_mul(tuple(tuple(r) for r in core_rows),
                                               p_amb_inv))
    return WeightMap(amb, sub, mat)


# ---------------------------------------------------------------------------
# clause: diagonal embeddings

def diag_map(h: GroupType, s: int) -> WeightMap:
    """Restriction along the diagonal H -> H^s: sums coordinates blockwise."""
    if s < 1:
        raise BadIndex("need at least one copy")
    r = h.rank
    core = [[0] * (r * s) for _ in range(r)]
    for c in range(s):
        for i in range(r):
            core[i][c * r + i] = 1
    source = GroupType(h.factors * s)
    return _export(h, source, core)


# ---------------------------------------------------------------------------
# clause: Levi subgroups

def levi_map(rd: RootDatum, nodes) -> tuple[WeightMap, GroupType]:
    """Restriction X(T_G) -> X(T_L) for the Levi on a set of diagram nodes.

    Rows select the chosen fundamental-weight coordinates (reordered to the
    subdiagram's Bourbaki numbering); the central-torus rows are an integral
    basis of the functionals vanishing on the Levi's root lattice.
    """
    comps = _classify_nodes(rd, nodes)
    n = rd.rank
    rows: list[tuple[int, ...]] = []
    for _, order in comps:
        for node in order:
            rows.append(tuple(int(j == node) for j in range(n)))
    selected_cols = tuple(
        tuple(rd.cartan[i][j] for j in sorted({nd for _, o in comps for nd in o}))
        for i in range(n))
    kernel = linalg.left_integer_kernel(selected_cols) if selected_cols and selected_cols[0] else \
        [tuple(int(j == i) for j in range(n)) for i in range(n)]
    if not any(True for _, o in comps for _ in o):
        kernel = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    rows.extend(kernel)
    facs = [st for st, _ in comps]
    corank = n - sum(st.rank for st in facs)
    if corank:
        facs.append(SimpleType("T", corank))
    target = normalize_type(GroupType(tuple(facs)))
    return WeightMap(rd.gtype, target, tuple(rows)), target


# ---------------------------------------------------------------------------
# clause: diagram foldings

def _folding_entry(amb: SimpleType):
    """(folded vocabulary type, node orbits per folded node, 1-based)."""
    if amb.letter == "A" and amb.rank % 2 == 1 and amb.rank >= 3:
        n = (amb.rank + 1) // 2
        orbits = tuple(tuple({i, amb.rank + 1 - i}) for i in range(1, n)) + ((n,),)
        return [(f"C{n}", orbits)]
    if amb.letter == "D" and amb.rank >= 4:
        n = amb.rank
        entries = [(f"B{n - 1}",
                    tuple((i,) for i in range(1, n - 1)) + ((n - 1, n),))]
        if n == 4:
            entries.append(("G2", ((1, 3, 4), (2,))))
        return entries
    if (amb.letter, amb.rank) == ("E", 6):
        return [("F4", ((2,), (4,), (3, 5), (1, 6)))]
    return []


def folding_map(amb: GroupType, sub: GroupType) -> WeightMap:
    """Restriction to the fixed points of a diagram automorphism.

    Rows sum the ambient coordinates over each node orbit.  Single-factor
    pairs only; products fold factorwise through :func:`step_map`.
    """
    if len(amb.factors) != 1:
        raise UnknownPair(f"{amb} is not simple")
    sub_n = normalize_type(sub)
    for vocab, orbits in _folding_entry(amb.factors[0]):
        if normalize_type(GroupType.parse(vocab)) == sub_n:
            n = amb.rank
            core = [[int(j + 1 in orb) for j in range(n)] for orb in orbits]
            return _export(GroupType.parse(vocab), amb, core)
    raise UnknownPair(f"({amb}, {sub}) is not a diagram folding")


# ---------------------------------------------------------------------------
# clause: classical block embeddings (same-form splits and SL/SO, SL/Sp)

def _class_group_ok(subs: list[SimpleType], amb: SimpleType):
    """Validity of one ambient factor receiving the given sub factors.

    Returns (kind, p_min) or None.  Kinds: 'spectator', 'so_split' (defect 0
    or 1 allowed, p>2), 'sp_split', 'sl_so' (p>2), 'sl_sp'.
    """
    if len(subs) == 1 and subs[0] == amb:
        return ("spectator", 1)
    if amb.letter in ("B", "D"):
        dims = [_so_dim(f) for f in subs]
        if all(d is not None for d in dims):
            defect = _so_dim(amb) - sum(dims)
            if defect in (0, 1):
                return ("so_split", 3)
        return None
    if amb.letter == "C":
        if all(f.letter == "C" for f in subs) and sum(f.rank for f in subs) == amb.rank:
            return ("sp_split", 1)
        return None
    if amb.letter == "A" and len(subs) == 1:
        r = amb.rank + 1  # SL_r
        f = subs[0]
        if f.letter in ("B", "D") and _so_dim(f) == r and r >= 3:
            return ("sl_so", 3)
        if f.letter == "C" and 2 * f.rank == r:
            return ("sl_sp", 1)
    return None


def _grouped_assignments(sub_factors, amb_factors, group_ok):
    """First grouping of sub factors among amb factors accepted by group_ok.

    Yields a list aligned with amb_factors: (sub-index tuple, kind, p_min).
    Deterministic: sub subsets are explored in increasing bitmask order.
    """
    m = len(sub_factors)

    def rec(ai, remaining):
        if ai == len(amb_factors):
            if not remaining:
                return []
            return None
        rem = sorted(remaining)
        for size in range(1, len(rem) + 1):
            for combo in itertools.combinations(rem, size):
                ok = group_ok([sub_factors[i] for i in combo], amb_factors[ai])
                if ok is None:
                    continue
                rest = rec(ai + 1, remaining - set(combo))
                if rest is not None:
                    return [(combo, ok[0], ok[1])] + rest
        return None

    return rec(0, frozenset(range(m)))


@dataclass
class StepMatch:
    legal: bool
    reason: str
    p_min: int = 1
    payload: object = None


@functools.lru_cache(maxsize=None)
def _match_class(sub_key: str, amb_key: str) -> StepMatch:
    sub, amb = GroupType.parse(sub_key), GroupType.parse(amb_key)
    assign = _grouped_assignments(list(sub.factors), list(amb.factors), _class_group_ok)
    if assign is None:
        return StepMatch(False, "no classical block split matches")
    if all(kind == "spectator" for _, kind, _ in assign):
        return StepMatch(False, "no factor is actually split")
    p = max(p for _, _, p in assign)
    return StepMatch(True, "classical split", p, tuple(assign))


def _class_core(sub: GroupType, amb: GroupType, assign) -> list[list[Fraction]]:
    sub_offsets = []
    off = 0
    for f in sub.factors:
        sub_offsets.append(off)
        off += f.rank
    core = [[Fraction(0)] * amb.rank for _ in range(sub.rank)]
    amb_off = 0
    for (combo, kind, _), af in zip(assign, amb.factors):
        if kind == "spectator":
            so = sub_offsets[combo[0]]
            for i in range(af.rank):
                core[so + i][amb_off + i] = Fraction(1)
        elif kind in ("so_split", "sp_split"):
            amb_f2e = _fw_to_eps(af.letter, af.rank)
            axis = 0
            for si in combo:
                f = sub.factors[si]
                e2f = _eps_to_fw(f.letter, f.rank)
                for i in range(f.rank):  # sub fw row i of this factor
                    row = [Fraction(0)] * af.rank
                    for k in range(f.rank):  # sub eps coordinate k <- amb axis
                        if e2f[i][k]:
                            for j in range(af.rank):
                                row[j] += e2f[i][k] * amb_f2e[axis + k][j]
                    for j in range(af.rank):
                        core[sub_offsets[si] + i][amb_off + j] = row[j]
                axis += f.rank
            # remaining axes restrict to zero
        else:  # sl_so / sl_sp
            si = combo[0]
            f = sub.factors[si]
            r = af.rank + 1
            amb_f2e = _fw_to_eps("A", af.rank)  # r rows (gl lift)
            e2f = _eps_to_fw(f.letter, f.rank)
            # ambient eps_k restricts to +eps_k, eps_{r+1-k} to -eps_k
            for i in range(f.rank):
                row = [Fraction(0)] * af.rank
                for k in range(f.rank):
                    if e2f[i][k]:
                        for j in range(af.rank):
                            row[j] += e2f[i][k] * (amb_f2e[k][j] - amb_f2e[r - 1 - k][j])
                for j in range(af.rank):
                    core[sub_offsets[si] + i][amb_off + j] = row[j]
        amb_off += af.rank
    return core


def classical_map(sub: GroupType, amb: GroupType) -> WeightMap:
    """Weight map for a classical block embedding, spectator factors allowed."""
    m = _match_class(str(sub), str(amb))
    if not m.legal:
        raise NotAClassicalSplit(f"({sub}, {amb}): {m.reason}")
    core = _class_core(sub, amb, m.payload)
    return _export_fraction(sub, amb, core)


def _export_fraction(sub, amb, core) -> WeightMap:
    rows = []
    for row in core:
        out = []
        for x in row:
            fx = Fraction(x)
            if fx.denominator != 1:
                raise AssertionError("non-integral restriction matrix")
            out.append(int(fx))
        rows.append(tuple(out))
    return _export(sub, amb, rows)


# ---------------------------------------------------------------------------
# clause: maximal-rank subgroups of exceptional groups (type level only)

_MAX_RANK: dict[tuple[str, str], int] = {
    ("A2.E6", "E8"): 7,
    ("D8", "E8"): 3,
    ("A1.E7", "E8"): 3,
    ("A5.A2.A1", "E8"): 7,
    ("A3.D5", "E8"): 7,
    ("A4.A4", "E8"): 7,
    ("A1.D6", "E7"): 3,
    ("B4", "F4"): 3,
    ("A3.A1", "F4"): 5,
    ("A1.A1", "G2"): 1,
}


def max_rank_step(sub: GroupType, amb: GroupType) -> Clause:
    key = (str(normalize_type(sub)), str(normalize_type(amb)))
    if key not in _MAX_RANK:
        raise NotAMaxRankSubgroup(f"({sub}, {amb}) is not a listed maximal-rank pair")
    return Clause("max", key, _MAX_RANK[key])


# ---------------------------------------------------------------------------
# clause: restricted irreducible representations

def _resirr_weights(sub: SimpleType, amb_rank_plus_1: int):
    """Ordered weight list of the defining module, or None if not listed.

    Returns (weights, p_min); the weights are the sub group's weights of its
    (amb_rank+1)-dimensional module, sorted by height then lexicographically,
    both descending.
    """
    n = amb_rank_plus_1 - 1
    key = normalize_type(GroupType((sub,)))
    rd = build_root_datum(key)
    if str(key) == "A1":
        chi = dual_weyl_character(rd, (n,))
        p = min_prime_greater(n)
    elif str(key) == "A2" and n == 7:
        chi = dual_weyl_character(rd, (1, 1))
        p = 5
    elif str(key) == "G2" and n == 6:
        chi = dual_weyl_character(rd, (1, 0))
        p = 5
    else:
        return None
    weights = []
    for w, m in chi.support.items():
        weights.extend([w] * m)
    weights.sort(key=lambda w: (rd.height(w), w), reverse=True)
    return weights, p


@functools.lru_cache(maxsize=None)
def _match_resirr(sub_key: str, amb_key: str) -> StepMatch:
    sub, amb = GroupType.parse(sub_key), GroupType.parse(amb_key)
    if len(sub.factors) != len(amb.factors):
        return StepMatch(False, "factor counts differ")

    def pair_ok(s: SimpleType, a: SimpleType):
        # A1 -> A1 is the n=1 member of the (A_n, A1) family, not a spectator
        if s == a and (s.letter, s.rank) != ("A", 1):
            return ("spectator", 1)
        if a.letter != "A":
            return ("spectator", 1) if s == a else None
        got = _resirr_weights(s, a.rank + 1)
        if got is None:
            return ("spectator", 1) if s == a else None
        return ("resirr", got[1])

    assignment = _bijective_assignment(sub.factors, amb.factors, pair_ok)
    if assignment is None:
        return StepMatch(False, "no restricted-irreducible matching")
    if all(kind == "spectator" for _, kind, _ in assignment):
        return StepMatch(False, "no factor is actually embedded")
    p = max(p for _, _, p in assignment)
    return StepMatch(True, "restricted irreducible", p, tuple(assignment))


def _bijective_assignment(sub_factors, amb_factors, pair_ok):
    """Assign each amb factor its own sub factor; returns per-amb
    (sub_index, kind, p) tuples or None.  Deterministic backtracking."""
    n = len(amb_factors)
    if len(sub_factors) != n:
        return None

    def rec(ai, used):
        if ai == n:
            return []
        for si in range(n):
            if si in used:
                continue
            ok = pair_ok(sub_factors[si], amb_factors[ai])
            if ok is None:
                continue
            rest = rec(ai + 1, used | {si})
            if rest is not None:
                return [(si, ok[0], ok[1])] + rest
        return None

    return rec(0, frozenset())


def _resirr_core(sub: GroupType, amb: GroupType, assignment):
    sub_offsets = []
    off = 0
    for f in sub.factors:
        sub_offsets.append(off)
        off += f.rank
    core = [[0] * amb.rank for _ in range(sub.rank)]
    amb_off = 0
    for (si, kind, _), af in zip(assignment, amb.factors):
        so = sub_offsets[si]
        f = sub.factors[si]
        if kind == "spectator":
            for i in range(af.rank):
                core[so + i][amb_off + i] = 1
        else:
            weights, _ = _resirr_weights(f, af.rank + 1)
            # columns: image of the j-th ambient fundamental weight is the
            # partial sum of the first j module weights (gl lift kills (1..1))
            partial = [tuple(0 for _ in range(f.rank))]
            for w in weights:
                partial.append(tuple(a + b for a, b in zip(partial[-1], w)))
            if any(partial[-1]):
                raise AssertionError("module weights do not sum to zero")
            inv = _denormalization_rows(GroupType((f,)))
            for j in range(af.rank):
                col = linalg.mat_vec(inv, partial[j + 1])
                for i in range(f.rank):
                    core[so + i][amb_off + j] = col[i]
        amb_off += af.rank
    return core


def resirr_map(sub: GroupType, amb: GroupType) -> WeightMap:
    """Weight map determined by the ordered weight list of the defining module."""
    m = _match_resirr(str(sub), str(amb))
    if not m.legal:
        raise NotARestrictedEmbedding(f"({sub}, {amb}): {m.reason}")
    return _export(sub, amb, _resirr_core(sub, amb, m.payload))


# ---------------------------------------------------------------------------
# clause: tensor-product embeddings (p > 2)

def _tensor_pair_ok(s: SimpleType, a: SimpleType):
    if s == a:
        return ("spectator", 1, None)
    r = _so_dim(s) if s.letter in ("B", "D") else (2 * s.rank if s.letter == "C" else None)
    if r is None:
        return None
    if s.letter in ("B", "D"):
        amb_so = _so_dim(a) if a.letter in ("B", "D") else None
        if amb_so is not None and amb_so % r == 0 and amb_so // r >= 2:
            return ("tensor", 3, ("sym", amb_so // r))  # V2 symmetric, dim s
        if a.letter == "C" and (2 * a.rank) % (2 * r) == 0 and (2 * a.rank) // (2 * r) >= 1:
            return ("tensor", 3, ("alt", (2 * a.rank) // r))  # V2 symplectic
    if s.letter == "C":
        if a.letter == "D" and (2 * a.rank) % (2 * r) == 0 and (2 * a.rank) // (2 * r) >= 1:
            return ("tensor", 3, ("alt", (2 * a.rank) // r))
        if a.letter == "C" and a.rank % s.rank == 0 and a.rank // s.rank >= 2:
            return ("tensor", 3, ("sym", a.rank // s.rank))
    return None


@functools.lru_cache(maxsize=None)
def _match_tensor(sub_key: str, amb_key: str) -> StepMatch:
    sub, amb = GroupType.parse(sub_key), GroupType.parse(amb_key)
    if len(sub.factors) != len(amb.factors):
        return StepMatch(False, "factor counts differ")

    def pair_ok(s, a):
        got = _tensor_pair_ok(s, a)
        if got is None:
            return None
        return ((got[0], got[2]), got[1])

    assignment = _bijective_assignment(sub.factors, amb.factors, pair_ok)
    if assignment is None:
        return StepMatch(False, "no tensor-embedding matching")
    if all(kind == "spectator" for _, (kind, _), _ in assignment):
        return StepMatch(False, "no factor is actually tensored")
    p = max(p for _, _, p in assignment)
    return StepMatch(True, "tensor embedding", p, tuple(assignment))


def _tensor_core(sub: GroupType, amb: GroupType, assignment):
    sub_offsets = []
    off = 0
    for f in sub.factors:
        sub_offsets.append(off)
        off += f.rank
    core = [[Fraction(0)] * amb.rank for _ in range(sub.rank)]
    amb_off = 0
    for (si, (kind, info), _), af in zip(assignment, amb.factors):
        so = sub_offsets[si]
        f = sub.factors[si]
        if kind == "spectator":
            for i in range(af.rank):
                core[so + i][amb_off + i] = Fraction(1)
        else:
            s = info[1]
            amb_f2e = _fw_to_eps(af.letter, af.rank)
            e2f = _eps_to_fw(f.letter, f.rank)
            # each sub epsilon coordinate is the sum of its s ambient axes
            for i in range(f.rank):
                row = [Fraction(0)] * af.rank
                for k in range(f.rank):
                    if not e2f[i][k]:
                        continue
                    for copy in range(s):
                        axis = k * s + copy
                        for j in range(af.rank):
                            row[j] += e2f[i][k] * amb_f2e[axis][j]
                for j in range(af.rank):
                    core[so + i][amb_off + j] = row[j]
        amb_off += af.rank
    return core


def tensor_map(sub: GroupType, amb: GroupType) -> WeightMap:
    """Weight map for a tensor-product embedding: the retained factor's
    epsilon coordinates each absorb s ambient axes.

    A retained SO2 factor (written D1) sits under the ambient spin group as a
    double-cover torus, so its row is rescaled to the primitive character of
    that cover; this only relabels central characters.
    """
    m = _match_tensor(str(sub), str(amb))
    if not m.legal:
        raise NotATensorEmbedding(f"({sub}, {amb}): {m.reason}")
    core = _tensor_core(sub, amb, m.payload)
    off = 0
    for f in sub.factors:
        if (f.letter, f.rank) == ("D", 1):
            core[off] = _primitive_row(core[off])
        off += f.rank
    return _export_fraction(sub, amb, core)


def _primitive_row(row):
    import math
    scale = 1
    for x in row:
        d = Fraction(x).denominator
        scale = scale * d // math.gcd(scale, d)
    scaled = [Fraction(x) * scale for x in row]
    g = 0
    for x in scaled:
        g = math.gcd(g, int(x))
    if g > 1:
        scaled = [x / g for x in scaled]
    return scaled


# ---------------------------------------------------------------------------
# alias and auto steps, generic matching

@functools.lru_cache(maxsize=None)
def _match_auto(sub_key: str, amb_key: str) -> StepMatch:
    sub, amb = GroupType.parse(sub_key), GroupType.parse(amb_key)
    if len(sub.factors) != len(amb.factors):
        return StepMatch(False, "factor counts differ")

    def pair_ok(s: SimpleType, a: SimpleType):
        if s == a:
            return ("spectator", 1)
        sn = normalize_type(GroupType((s,)))
        for vocab, _ in _folding_entry(a):
            if normalize_type(GroupType.parse(vocab)) == sn:
                return ("fold", 1)
        return None

    assignment = _bijective_assignment(sub.factors, amb.factors, pair_ok)
    if assignment is None:
        return StepMatch(False, "no diagram-folding matching")
    if all(kind == "spectator" for _, kind, _ in assignment):
        return StepMatch(False, "no factor is actually folded")
    return StepMatch(True, "diagram folding", 1, tuple(assignment))


def _auto_map(sub: GroupType, amb: GroupType) -> WeightMap:
    m = _match_auto(str(sub), str(amb))
    if not m.legal:
        raise UnknownPair(f"({sub}, {amb}): {m.reason}")
    maps = []
    for (si, kind, _), af in zip(m.payload, amb.factors):
        f = sub.factors[si]
        if kind == "spectator":
            maps.append((si, identity_map(GroupType((f,)))))
        else:
            maps.append((si, folding_map(GroupType((af,)), GroupType((f,)))))
    return _product_map(sub, amb, maps)


def _product_map(sub: GroupType, amb: GroupType, factor_maps) -> WeightMap:
    """Assemble per-factor normalized maps into one map over the products.

    Factor maps are already normalized-vocabulary per factor, so each block
    is sandwiched back into the written vocabularies before the final export.
    """
    sub_offsets = []
    off = 0
    for f in sub.factors:
        sub_offsets.append(off)
        off += f.rank
    core = [[0] * amb.rank for _ in range(sub.rank)]
    amb_off = 0
    for (si, fmap), af in zip(factor_maps, amb.factors):
        f = sub.factors[si]
        p_sub_inv = _denormalization_rows(GroupType((f,)))
        p_amb = normalization_map(GroupType((af,))).matrix
        block = linalg.mat_mul(p_sub_inv, linalg.mat_mul(fmap.matrix, p_amb))
        for i in range(f.rank):
            for j in range(af.rank):
                core[sub_offsets[si] + i][amb_off + j] = block[i][j]
        amb_off += af.rank
    return _export(sub, amb, core)


def _alias_squeeze(sub: GroupType, amb: GroupType) -> WeightMap | None:
    """Coordinate map for a respelling step (normalized forms must agree)."""
    if normalize_type(sub) != normalize_type(amb):
        return None
    # both normalize to the same thing, so route through the normal form
    p_amb = normalization_map(amb).matrix
    p_sub_inv = _denormalization_rows(sub)
    return WeightMap(amb, sub, linalg.mat_mul(p_sub_inv, p_amb))


# ---------------------------------------------------------------------------
# Levi steps by type matching (for table chains)
#
# The written sub type's semisimple part (alias-expanded) must appear as the
# components of an induced subdiagram of the normalized ambient, and the
# corank plus ambient torus must cover the sub's central torus.  The search
# runs over node subsets of the normalized ambient diagram, so everything
# below works in normalized coordinates on both sides.

def _expanded_parts(gtype: GroupType):
    """Alias-expanded factors of a written type in normalized coordinate
    order, as (part, written position, normalized offset) triples."""
    from .rootsystem import _ALIASES
    parts = []
    for pos, f in enumerate(gtype.factors):
        for letter, rank in _ALIASES.get((f.letter, f.rank), ((f.letter, f.rank),)):
            parts.append((SimpleType(letter, rank), pos))
    semis = sorted(((p, pos) for p, pos in parts if not p.is_torus),
                   key=lambda t: (t[0].letter, -t[0].rank))
    tori = [(p, pos) for p, pos in parts if p.is_torus]
    out = []
    off = 0
    for p, pos in semis + tori:
        out.append((p, pos, off))
        off += p.rank
    return out


@functools.lru_cache(maxsize=None)
def _match_levi(sub_key: str, amb_key: str) -> StepMatch:
    sub, amb = GroupType.parse(sub_key), GroupType.parse(amb_key)
    rd = build_root_datum(amb)
    want = sorted(
        ((p.letter, p.rank) for p, _, _ in _expanded_parts(sub) if not p.is_torus))
    total = sum(r for _, r in want)
    candidates = [i + 1 for i in range(rd.rank) if not rd.torus[i]]
    if total > len(candidates):
        return StepMatch(False, "subgroup rank exceeds the ambient diagram")
    hit = None
    for nodes in itertools.combinations(candidates, total):
        try:
            comps = _classify_nodes(rd, nodes)
        except Exception:
            continue
        if sorted((st.letter, st.rank) for st, _ in comps) == want:
            hit = comps
            break
    if hit is None and total > 0:
        return StepMatch(False, "no Levi subdiagram matches")
    comps = hit or []
    if sub.torus_rank() > rd.rank - total:
        return StepMatch(False, "not enough central torus for the sub type")
    return StepMatch(True, "Levi subgroup", 1,
                     tuple((str(st), tuple(order)) for st, order in comps))


def _levi_step_map(sub: GroupType, amb: GroupType) -> WeightMap:
    m = _match_levi(str(sub), str(amb))
    if not m.legal:
        raise BadIndex(f"({sub}, {amb}): {m.reason}")
    rd = build_root_datum(amb)
    n = rd.rank
    # align sorted subdiagram components with the sub's alias-expanded parts
    comps = sorted(((SimpleType.parse(st), list(order)) for st, order in m.payload),
                   key=lambda t: (t[0].letter, -t[0].rank, t[1][0] if t[1] else 0))
    parts = _expanded_parts(sub)
    rows: list[tuple[int, ...]] = [None] * normalize_type(sub).rank
    ci = 0
    used: list[int] = []
    for p, _, off in parts:
        if p.is_torus:
            continue
        st, order = comps[ci]
        if (st.letter, st.rank) != (p.letter, p.rank):
            raise AssertionError("component alignment failed")
        for i, node in enumerate(order):
            rows[off + i] = tuple(int(j == node) for j in range(n))
        used.extend(order)
        ci += 1
    if used:
        sel_cols = tuple(tuple(rd.cartan[i][j] for j in sorted(used))
                         for i in range(n))
        kernel = linalg.left_integer_kernel(sel_cols)
    else:
        kernel = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    kpos = 0
    for p, _, off in parts:
        if p.is_torus:
            for i in range(p.rank):
                rows[off + i] = kernel[kpos]
                kpos += 1
    return WeightMap(amb, sub, tuple(rows))


# ---------------------------------------------------------------------------
# diag steps by type matching

@functools.lru_cache(maxsize=None)
def _match_diag(sub_key: str, amb_key: str) -> StepMatch:
    sub, amb = GroupType.parse(sub_key), GroupType.parse(amb_key)

    def group_ok(subs, af):
        return ("copies", 1) if len(subs) == 1 and subs[0] == af else None

    # reversed roles: every ambient factor must equal its sub factor, each sub
    # factor may own several ambient copies
    m = len(amb.factors)

    def rec(si, remaining):
        if si == len(sub.factors):
            return [] if not remaining else None
        f = sub.factors[si]
        rem = sorted(remaining)
        candidates = [i for i in rem if amb.factors[i] == f]
        for size in range(1, len(candidates) + 1):
            for combo in itertools.combinations(candidates, size):
                rest = rec(si + 1, remaining - set(combo))
                if rest is not None:
                    return [combo] + rest
        return None

    assignment = rec(0, frozenset(range(m)))
    if assignment is None:
        return StepMatch(False, "ambient is not a power of the subgroup")
    return StepMatch(True, "diagonal embedding", 1, tuple(assignment))


def _diag_step_map(sub: GroupType, amb: GroupType) -> WeightMap:
    m = _match_diag(str(sub), str(amb))
    if not m.legal:
        raise TypeMismatch(f"({sub}, {amb}): {m.reason}")
    amb_offsets = []
    off = 0
    for f in amb.factors:
        amb_offsets.append(off)
        off += f.rank
    core = [[0] * amb.rank for _ in range(sub.rank)]
    so = 0
    for f, combo in zip(sub.factors, m.payload):
        for ai in combo:
            for i in range(f.rank):
                core[so + i][amb_offsets[ai] + i] = 1
        so += f.rank
    return _export(sub, amb, core)


# ---------------------------------------------------------------------------
# step dispatch

def match_step(sub: GroupType, amb: GroupType, tag: str) -> StepMatch:
    """Legality verdict for one chain step, with its minimal allowed prime."""
    if tag == "alias":
        ok = normalize_type(sub) == normalize_type(amb)
        return StepMatch(ok, "respelling" if ok else "normal forms differ", 1)
    if tag == "levi":
        return _match_levi(str(sub), str(amb))
    if tag == "diag":
        return _match_diag(str(sub), str(amb))
    if tag == "auto":
        return _match_auto(str(sub), str(amb))
    if tag == "class":
        return _match_class(str(sub), str(amb))
    if tag == "resirr":
        return _match_resirr(str(sub), str(amb))
    if tag == "tensor":
        return _match_tensor(str(sub), str(amb))
    if tag == "max":
        key = (str(normalize_type(sub)), str(normalize_type(amb)))
        if key in _MAX_RANK:
            return StepMatch(True, "maximal-rank subgroup", _MAX_RANK[key])
        return StepMatch(False, "not a listed maximal-rank pair")
    return StepMatch(False, f"unknown tag {tag!r}")


def step_map(step: EmbeddingStep) -> WeightMap | None:
    """Weight map realizing one chain step, or None for map-less max steps."""
    if step.tag == "max":
        return None
    if step.tag == "alias":
        m = _alias_squeeze(step.sub, step.amb)
        if m is None:
            raise TypeMismatch(f"alias step {step} does not normalize equal")
        return m
    if step.tag == "levi":
        return _levi_step_map(step.sub, step.amb)
    if step.tag == "diag":
        return _diag_step_map(step.sub, step.amb)
    if step.tag == "auto":
        return _auto_map(step.sub, step.amb)
    if step.tag == "class":
        return classical_map(step.sub, step.amb)
    if step.tag == "resirr":
        return resirr_map(step.sub, step.amb)
    if step.tag == "tensor":
        return tensor_map(step.sub, step.amb)
    raise TypeMismatch(f"unknown tag {step.tag!r}")


def chain_restriction_map(steps) -> WeightMap | None:
    """Composed restriction map from the chain's ambient end to its start.

    Returns None if any step carries no weight map (max-rank steps).
    """
    total: WeightMap | None = None
    for step in reversed(list(steps)):
        m = step_map(step)
        if m is None:
            return None
        total = m if total is None else compose(total, m)
    return total
