"""Weight-lattice maps for the subgroup-embedding clause catalog.

Every :class:`WeightMap` stores a ``target rank x source rank`` integer matrix
acting on *normalized-vocabulary* fundamental-weight coordinates (the
coordinates of ``normalize_type(source)`` / ``normalize_type(target)``); the
``source``/``target`` fields keep the spelling the map was built from.  The
clauses build a core matrix in the written coordinates, the classical ones
through epsilon coordinates, so the tables' nonstandard spellings (B1 for
SO3, C1 for Sp2, D1 for SO2, ...) pick the intended classical group;
:func:`normalization_map` then moves it onto the normalized coordinates with
the rows of the one alias table, ``rootsystem._ALIASES``.  An ``alias`` step
names the same group under two spellings, so its map is the identity.

The catalog is one clause table, ``_CLAUSES``, from each chain tag to a
matcher (legality verdict, minimal prime and payload, cached only by
:func:`match_step`) and a builder, which takes the matcher's payload and
checks nothing.  :func:`check_step` is the one legality gate: it adds the
check of a step's ``p>k`` annotation against the matcher's minimal prime,
and :func:`step_map`, :func:`chain_restriction_map` and the verifier all
read its verdict.  Tags: ``diag`` (diagonal into a power), ``levi`` (Levi
subgroup up to central torus), ``auto`` (diagram-folding fixed points),
``class`` (same-form block splits and SL/SO, SL/Sp), ``max`` (maximal-rank
subgroups of exceptional groups; type-level only, so its builder is None),
``resirr`` (restricted irreducible representations), ``tensor``
(tensor-product embeddings), ``alias`` (respelling).  ``class`` and
``tensor`` judge a step by the dimension and form of each factor's natural
module, :func:`_natural`, with one prime-bound rule, :func:`_p_min`, and
build every block with one epsilon builder, :func:`_eps_restriction`.  The
clauses over product groups share one factor search,
:func:`_grouped_assignments`, and one block assembler, :func:`_assemble`;
``auto``, ``resirr`` and ``tensor`` pair the factors one to one, so each is
a row of one factory, :func:`_paired`, from a pair test and a block function.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Iterator
from operator import add, itemgetter, sub as subtract

from . import linalg
from .errors import AmbientMismatch, IllegalStep, TypeMismatch, UnknownType
from .characters import FormalCharacter, dual_weyl_character, min_prime_greater
from .rootsystem import (
    GroupType,
    SimpleType,
    Weight,
    _classify_nodes,
    build_root_datum,
    cartan_matrix,
    normal_parts,
    normalize_type,
)


class WeightMap:
    """Integer-matrix restriction map between weight lattices."""

    __slots__ = ("source", "target", "matrix", "_source_rank")

    def __init__(self, source: GroupType, target: GroupType,
                 matrix: tuple[tuple[int, ...], ...]):
        if len(matrix) != normalize_type(target).rank:
            raise TypeMismatch("matrix rows do not match target rank")
        rank = normalize_type(source).rank
        if matrix and len(matrix[0]) != rank:
            raise TypeMismatch("matrix columns do not match source rank")
        self.source, self.target, self.matrix, self._source_rank = source, target, matrix, rank

    def images(self, weights) -> Iterator[Weight]:
        """Images of ``weights`` (a sized, re-iterable collection), in order.

        The one restriction kernel.  Each matrix row is a lazy stream over all
        the weights: a +-1 entry j is the stream of coordinates ``w[j]``, any
        other entry ``a`` scales that stream by ``a``, and a row's terms are
        summed stream by stream; ``zip`` of the row streams yields the images.
        """
        rank = self._source_rank
        if not set(map(len, weights)) <= {rank}:
            bad = next(len(w) for w in weights if len(w) != rank)
            raise AmbientMismatch(
                f"weight of length {bad} under a map from {self.source}")
        n = len(weights)
        if not self.matrix:
            return itertools.repeat((), n)
        rows = []
        for row in self.matrix:
            terms = sorted(((a, j) for j, a in enumerate(row) if a), reverse=True)
            if not terms:
                rows.append(itertools.repeat(0, n))
                continue
            (a, j), *rest = terms
            stream = map(itemgetter(j), weights)
            if a != 1:
                stream = map(a.__mul__, stream)
            for a, j in rest:  # the largest coefficient came first: add or subtract
                term = map(itemgetter(j), weights)
                if abs(a) != 1:
                    term = map(abs(a).__mul__, term)
                stream = map(add if a > 0 else subtract, stream, term)
            rows.append(stream)
        return zip(*rows)


def compose(m1: WeightMap, m2: WeightMap) -> WeightMap:
    """First restrict along ``m1``, then along ``m2``."""
    if normalize_type(m1.target) != normalize_type(m2.source):
        raise TypeMismatch(f"{m1.target} -> {m2.source} do not compose")
    return WeightMap(m1.source, m2.target, linalg.mat_mul(m2.matrix, m1.matrix))


def restrict_character(chi: FormalCharacter, wmap: WeightMap) -> FormalCharacter:
    """Pushforward of the multiplicity map; total dimension is preserved.

    The images of the whole support come from one :meth:`WeightMap.images`
    call; equal images add up their multiplicities, keyed in the order the
    support first reaches them.
    """
    if chi.ambient != normalize_type(wmap.source):
        raise AmbientMismatch(f"{chi.ambient} vs map source {wmap.source}")
    support = chi.support
    out: dict[Weight, int] = {}
    get = out.get
    for v, m in zip(wmap.images(support), support.values()):
        out[v] = get(v, 0) + m
    return FormalCharacter(normalize_type(wmap.target), out)


class EmbeddingStep(namedtuple("EmbeddingStep", "tag sub amb p_bound", defaults=(None,))):
    """One arrow of a table chain, with its optional transcription p-bound
    (as written: the constraint "p > p_bound")."""

    __slots__ = ()

    def __str__(self):
        ann = f",p>{self.p_bound}" if self.p_bound is not None else ""
        return f"{self.sub} -[{self.tag}{ann}]-> {self.amb}"


# immutable, as match_step's cache hands one instance to every caller
class StepMatch(namedtuple("StepMatch", "legal reason p_min payload", defaults=(1, None))):
    __slots__ = ()


# ---------------------------------------------------------------------------
# epsilon-coordinate scaffolding for the classical types

def _eps_to_fw(letter: str, n: int) -> list[list[int]]:
    """Fundamental-weight coordinates of a B, C or D weight given in epsilon
    coordinates."""
    if letter not in ("B", "C", "D"):
        raise AssertionError(f"no epsilon coordinates for {letter}{n}")
    if letter == "D" and n == 1:  # SO2: a torus; its character lattice is Z epsilon
        return [[1]]
    # the rows e_i - e_{i+1} that every type shares
    rows = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
            for i in range(n - 1)]
    if letter == "B":
        rows.append([2 if j == n - 1 else 0 for j in range(n)])
    elif letter == "C":
        rows.append([1 if j == n - 1 else 0 for j in range(n)])
    else:
        rows.append([1 if j >= n - 2 else 0 for j in range(n)])
    return rows


def _fw_to_eps(letter: str, n: int) -> tuple[int, linalg.IntMatrix]:
    """(det, rows) with ``rows / det`` a section of :func:`_eps_to_fw`: its
    adjugate over its determinant, which is 1 or 2.  For A it is the gl-lift
    with eps_{n+1}=0, over 1."""
    if letter == "A":
        return 1, [[int(j >= i) for j in range(n)] for i in range(n + 1)]
    return linalg.adjugate(_eps_to_fw(letter, n))


_SO2 = SimpleType("D", 1)


def _eps_restriction(f: SimpleType, a: SimpleType, axes) -> list[list[int]]:
    """Block of a classical sub factor ``f`` in an ambient factor ``a``: the
    k-th epsilon coordinate of ``f`` restricts from the signed sum of the
    (axis, sign) pairs in ``axes[k]``, rows of :func:`_fw_to_eps`, so the
    block is divided by its ``det``.  A retained SO2 factor (written D1) can
    sit under the ambient spin group as a double-cover torus, so its row is
    divided down to the primitive character of that cover instead; this only
    relabels central characters."""
    det, amb_f2e = _fw_to_eps(a.letter, a.rank)
    rows = [[sum(sign * amb_f2e[axis][j] for axis, sign in ax) for j in range(a.rank)]
            for ax in axes]
    block = linalg.mat_mul(_eps_to_fw(f.letter, f.rank), rows)
    if f == _SO2:
        det = math.gcd(*block[0]) or 1
    if any(x % det for row in block for x in row):
        raise AssertionError("non-integral restriction matrix")
    return [[x // det for x in row] for row in block]


def _natural(f: SimpleType) -> tuple[int, bool] | None:
    """(dimension, alternating?) of the natural module and invariant form of
    the group a factor names: SO_{2n+1}, Sp_{2n} or SO_{2n} for B_n, C_n or
    D_n; None for any other letter."""
    return {"B": (2 * f.rank + 1, False), "C": (2 * f.rank, True),
            "D": (2 * f.rank, False)}.get(f.letter)


# The prime bound of a classical step: none (1) when every form it involves is
# alternating, else p > 2, as in characteristic 2 a symmetric form is
# alternating and only a quadratic form pins down the orthogonal group.
def _p_min(*alternating: bool) -> int:
    return 1 if all(alternating) else 3


# ---------------------------------------------------------------------------
# vocabulary conversion: written coordinates <-> normalized coordinates, by
# the rows that rootsystem.normal_parts reads from the alias table

def normalization_map(gtype: GroupType) -> WeightMap:
    """Coordinate map from a written spelling onto its normalized form: the
    rows of :func:`normal_parts`, each moved to its written factor's columns."""
    offsets = _offsets(gtype)
    rows = []
    for _, pos, block in normal_parts(gtype):
        for part_row in block:
            row = [0] * gtype.rank
            row[offsets[pos]:offsets[pos] + len(part_row)] = part_row
            rows.append(tuple(row))
    return WeightMap(gtype, normalize_type(gtype), tuple(rows))


def _denormalization_rows(gtype: GroupType) -> tuple[tuple[int, ...], ...]:
    """Inverse of :func:`normalization_map`, a 0/1 permutation: its transpose."""
    return tuple(zip(*normalization_map(gtype).matrix))


def _export(sub: GroupType, amb: GroupType, core) -> WeightMap:
    """Wrap a written-vocabulary integer core matrix into normalized semantics."""
    mat = linalg.mat_mul(normalization_map(sub).matrix,
                         linalg.mat_mul(core, _denormalization_rows(amb)))
    return WeightMap(amb, sub, mat)


# ---------------------------------------------------------------------------
# the factor search and the block assembler of the product clauses

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


def _product_verdict(sub: GroupType, amb: GroupType, group_ok, reasons) -> StepMatch:
    """Verdict of a product clause from its first accepted factor grouping.

    ``reasons`` are the texts for no grouping, for spectators only, and for a
    legal step; the step's prime bound is the largest of its groups'.
    """
    no_match, idle, legal = reasons
    assign = _grouped_assignments(sub.factors, amb.factors, group_ok)
    if assign is None:
        return StepMatch(False, no_match)
    if all(kind == "spectator" for _, kind, _ in assign):
        return StepMatch(False, idle)
    return StepMatch(True, legal, max(p for _, _, p in assign), tuple(assign))


def _paired(pair_ok, block, *reasons):
    """(matcher, builder) of a clause that gives every amb factor one sub
    factor: ``pair_ok(s, a)`` returns ("spectator", 1), (payload, p_min) or
    None, and ``block(s, a, payload)`` is the pair's block in the map; a
    spectator's is the identity.
    """
    def match(sub: GroupType, amb: GroupType) -> StepMatch:
        if len(sub.factors) != len(amb.factors):
            return StepMatch(False, "factor counts differ")
        return _product_verdict(
            sub, amb, lambda subs, a: pair_ok(subs[0], a) if len(subs) == 1 else None,
            reasons)

    def build(sub: GroupType, amb: GroupType, assign) -> WeightMap:
        return _export(sub, amb, _assemble(sub, amb, [
            (si, ai, None if got == "spectator"
             else block(sub.factors[si], amb.factors[ai], got))
            for ai, ((si,), got, _) in enumerate(assign)]))

    return match, build


def _offsets(gtype: GroupType) -> list[int]:
    return list(itertools.accumulate((f.rank for f in gtype.factors[:-1]), initial=0))


def _assemble(sub: GroupType, amb: GroupType, blocks) -> list[list]:
    """The ``sub.rank x amb.rank`` core matrix made of per-factor blocks.

    ``blocks`` yields (sub factor index, amb factor index, block); the block's
    rows belong to the sub factor and its columns to the amb factor, and None
    is the identity block of a spectator.  Entries outside the blocks are zero.
    """
    sub_off, amb_off = _offsets(sub), _offsets(amb)
    core = [[0] * amb.rank for _ in range(sub.rank)]
    for si, ai, block in blocks:
        if block is None:
            block = linalg.identity(amb.factors[ai].rank)
        for i, row in enumerate(block):
            core[sub_off[si] + i][amb_off[ai]:amb_off[ai] + len(row)] = row
    return core


# ---------------------------------------------------------------------------
# clause: respelling

def _match_alias(sub: GroupType, amb: GroupType) -> StepMatch:
    ok = normalize_type(sub) == normalize_type(amb)
    return StepMatch(ok, "respelling" if ok else "normal forms differ", 1)


def _alias_map(sub: GroupType, amb: GroupType, _payload) -> WeightMap:
    """A respelling names the same group, so on normalized coordinates its
    map is the identity."""
    return WeightMap(amb, sub, linalg.identity(amb.rank))


# ---------------------------------------------------------------------------
# clause: diagonal embeddings

def _match_diag(sub: GroupType, amb: GroupType) -> StepMatch:
    # sides swapped: each sub factor takes a group of ambient copies of itself
    assign = _grouped_assignments(
        amb.factors, sub.factors,
        lambda copies, f: ("copies", 1) if all(g == f for g in copies) else None)
    if assign is None:
        return StepMatch(False, "ambient is not a power of the subgroup")
    return StepMatch(True, "diagonal embedding", 1, tuple(assign))


def _diag_map(sub: GroupType, amb: GroupType, assign) -> WeightMap:
    """Restriction along the diagonal: sums each sub factor's ambient copies."""
    return _export(sub, amb, _assemble(
        sub, amb, [(si, ai, None) for si, (copies, _, _) in enumerate(assign)
                   for ai in copies]))


# ---------------------------------------------------------------------------
# clause: Levi subgroups
#
# The semisimple factors of the sub's normal form must appear as the
# components of an induced subdiagram of the normalized ambient, and the
# corank plus ambient torus must cover the sub's central torus.  The search
# runs over node subsets of the normalized ambient diagram, so everything
# below works in normalized coordinates on both sides.

def _match_levi(sub: GroupType, amb: GroupType) -> StepMatch:
    cartan = cartan_matrix(amb)
    norm = normalize_type(sub)
    want = sorted((f.letter, f.rank) for f in norm.factors if not f.is_torus)
    total = sum(r for _, r in want)
    candidates = [i + 1 for i, row in enumerate(cartan) if row[i]]
    if total > len(candidates):
        return StepMatch(False, "subgroup rank exceeds the ambient diagram")
    hit = None
    for nodes in itertools.combinations(candidates, total):
        try:
            comps = _classify_nodes(cartan, nodes)
        except UnknownType:
            continue
        if sorted((st.letter, st.rank) for st, _ in comps) == want:
            hit = comps
            break
    if hit is None and total > 0:
        return StepMatch(False, "no Levi subdiagram matches")
    if norm.torus_rank() > len(cartan) - total:
        return StepMatch(False, "not enough central torus for the sub type")
    # components come sorted by (letter, -rank, first node), as the normal
    # form's semisimple factors are
    return StepMatch(True, "Levi subgroup", 1,
                     tuple((st, tuple(order)) for st, order in hit or []))


def _levi_map(sub: GroupType, amb: GroupType, comps) -> WeightMap:
    """Restriction to a Levi subgroup up to central torus.

    Rows select the subdiagram's fundamental-weight coordinates in its
    Bourbaki numbering; the central-torus rows are an integral basis of the
    functionals vanishing on the Levi's root lattice.
    """
    cartan = cartan_matrix(amb)
    unit = linalg.identity(len(cartan))
    used = sorted(node for _, order in comps for node in order)
    rows = [unit[node] for _, order in comps for node in order]
    if used:
        kernel = linalg.left_integer_kernel(
            tuple(tuple(row[j] for j in used) for row in cartan))
    else:
        kernel = unit
    rows.extend(kernel[:normalize_type(sub).torus_rank()])
    return WeightMap(amb, sub, tuple(rows))


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


def _fold_pair_ok(s: SimpleType, a: SimpleType):
    """("spectator", 1), or ((folded vocabulary, node orbits), 1), or None."""
    if s == a:
        return ("spectator", 1)
    sn = normalize_type(GroupType((s,)))
    for vocab, orbits in _folding_entry(a):
        if normalize_type(GroupType.parse(vocab)) == sn:
            return ((vocab, orbits), 1)
    return None


def _fold_block(s: SimpleType, a: SimpleType, fold):
    """A folded factor's rows sum the ambient coordinates over each node
    orbit, moved from the folded vocabulary to the sub factor's spelling (no
    folded ambient factor is an alias spelling)."""
    vocab, orbits = fold
    core = [[int(j + 1 in orb) for j in range(a.rank)] for orb in orbits]
    return linalg.mat_mul(
        _denormalization_rows(GroupType((s,))),
        linalg.mat_mul(normalization_map(GroupType.parse(vocab)).matrix, core))


# ---------------------------------------------------------------------------
# clause: classical block embeddings (same-form splits and SL/SO, SL/Sp)

def _class_group_ok(subs: list[SimpleType], amb: SimpleType):
    """(kind, p_min) of one ambient factor receiving the given sub factors,
    from their natural modules, or None.  Kinds: 'spectator'; 'sl', one
    factor on the whole natural module of SL_{r+1} (an orthogonal one needs
    r+1 >= 3); 'split', factors of the ambient's form on orthogonal
    subspaces whose complement has dimension 0, or 1 for a symmetric form."""
    if len(subs) == 1 and subs[0] == amb:
        return ("spectator", 1)
    nat = [_natural(f) for f in subs]
    if None in nat:
        return None
    if amb.letter == "A":
        if len(subs) == 1 and nat[0][0] == amb.rank + 1 and (nat[0][1] or nat[0][0] >= 3):
            return ("sl", _p_min(nat[0][1]))
        return None
    amb_nat = _natural(amb)
    if amb_nat is None or any(alt != amb_nat[1] for _, alt in nat):
        return None
    defect = amb_nat[0] - sum(dim for dim, _ in nat)
    if defect == 0 or (defect == 1 and not amb_nat[1]):
        return ("split", _p_min(amb_nat[1]))
    return None


def _match_class(sub: GroupType, amb: GroupType) -> StepMatch:
    verdict = _product_verdict(sub, amb, _class_group_ok, (
        "no classical block split matches", "no factor is actually split",
        "classical split"))
    # a split SO2 (written D1) lifts to a double-cover torus of the ambient
    # spin group, so the spin weights restrict to half its characters
    if verdict.legal and any(sub.factors[si] == _SO2
                             for combo, kind, _ in verdict.payload if kind == "split"
                             for si in combo):
        return StepMatch(False, "a split SO2 factor lifts to a double-cover torus")
    return verdict


def _class_map(sub: GroupType, amb: GroupType, assign) -> WeightMap:
    """Weight map for a classical block embedding, spectator factors allowed."""
    blocks = []
    for ai, (combo, kind, _) in enumerate(assign):
        af = amb.factors[ai]
        if kind == "spectator":
            blocks.append((combo[0], ai, None))
        elif kind == "split":
            # the sub factors take consecutive ambient epsilon axes; the
            # remaining axes restrict to zero
            axis = 0
            for si in combo:
                f = sub.factors[si]
                blocks.append((si, ai, _eps_restriction(
                    f, af, [((axis + k, 1),) for k in range(f.rank)])))
                axis += f.rank
        else:  # sl: on the gl lift, eps_k restricts to +eps_k, eps_{r+1-k} to -eps_k
            f = sub.factors[combo[0]]
            blocks.append((combo[0], ai, _eps_restriction(
                f, af, [((k, 1), (af.rank - k, -1)) for k in range(f.rank)])))
    return _export(sub, amb, _assemble(sub, amb, blocks))


# ---------------------------------------------------------------------------
# clause: maximal-rank subgroups of exceptional groups (type level only)
#
# Each pair drops one node of the ambient's extended diagram (Borel-de
# Siebenthal).  The rule "smallest prime above the dropped node's highest-root
# coefficient c" gives seven of these bounds; the catalog differs on three,
# and the shipped annotations side with the catalog:
#   A3.D5 in E8 (node 6, c = 4): rule 5, catalog 7
#   A2.E6 in E8 (node 7, c = 3): rule 5, catalog 7
#   A1.A1 in G2 (node 2, c = 2): rule 3, catalog 1

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


def _match_max(sub: GroupType, amb: GroupType) -> StepMatch:
    key = (str(normalize_type(sub)), str(normalize_type(amb)))
    if key in _MAX_RANK:
        return StepMatch(True, "maximal-rank subgroup", _MAX_RANK[key])
    return StepMatch(False, "not a listed maximal-rank pair")


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
    return tuple(weights), p


def _resirr_pair_ok(s: SimpleType, a: SimpleType):
    """("spectator", 1), or (the module's ordered weights, p_min), or None."""
    # A1 -> A1 is the n=1 member of the (A_n, A1) family, not a spectator
    if s == a and (s.letter, s.rank) != ("A", 1):
        return ("spectator", 1)
    got = _resirr_weights(s, a.rank + 1) if a.letter == "A" else None
    if got is None:
        return ("spectator", 1) if s == a else None
    return got


def _resirr_block(s: SimpleType, a: SimpleType, weights):
    """The block determined by the ordered weight list of the defining module:
    the j-th ambient fundamental weight restricts to the sum of the first j
    module weights (the gl lift kills (1..1))."""
    partial = list(itertools.accumulate(weights, lambda u, v: tuple(map(add, u, v))))
    if any(partial[-1]):
        raise AssertionError("module weights do not sum to zero")
    inv = _denormalization_rows(GroupType((s,)))
    return list(zip(*(linalg.mat_vec(inv, w) for w in partial[:a.rank])))


# ---------------------------------------------------------------------------
# clause: tensor-product embeddings (p > 2)

def _tensor_pair_ok(s: SimpleType, a: SimpleType):
    """("spectator", 1), or (copies, p_min) for V(a) = V(s) (x) V2 with
    ``copies`` = dim V2, or None.  V2's form makes the product's the
    ambient's: alternating, so of even dimension, exactly when one of s and
    a is alternating."""
    if s == a:
        return ("spectator", 1)
    nat_s, nat_a = _natural(s), _natural(a)
    if nat_s is None or nat_a is None:
        return None
    copies, rest = divmod(nat_a[0], nat_s[0])
    alternating_v2 = nat_s[1] != nat_a[1]
    if rest or copies < 2 or (alternating_v2 and copies % 2):
        return None
    return (copies, _p_min(nat_s[1], nat_a[1], alternating_v2))


def _tensor_block(s: SimpleType, a: SimpleType, copies):
    """The retained factor's epsilon coordinates each absorb ``copies``
    ambient axes."""
    return _eps_restriction(s, a, [tuple((k * copies + t, 1) for t in range(copies))
                                   for k in range(s.rank)])


# ---------------------------------------------------------------------------
# the clause table

_CLAUSES = {
    "alias": (_match_alias, _alias_map),
    "levi": (_match_levi, _levi_map),
    "diag": (_match_diag, _diag_map),
    "auto": _paired(_fold_pair_ok, _fold_block, "no diagram-folding matching",
                    "no factor is actually folded", "diagram folding"),
    "class": (_match_class, _class_map),
    "max": (_match_max, None),
    "resirr": _paired(_resirr_pair_ok, _resirr_block, "no restricted-irreducible matching",
                      "no factor is actually embedded", "restricted irreducible"),
    "tensor": _paired(_tensor_pair_ok, _tensor_block, "no tensor-embedding matching",
                      "no factor is actually tensored", "tensor embedding"),
}


@functools.lru_cache(maxsize=None)
def match_step(sub: GroupType, amb: GroupType, tag: str) -> StepMatch:
    """Legality verdict for one chain step, with its minimal allowed prime;
    cached, so every caller of a step gets the one StepMatch."""
    clause = _CLAUSES.get(tag)
    if clause is None:
        return StepMatch(False, f"unknown tag {tag!r}")
    return clause[0](sub, amb)


def check_step(step: EmbeddingStep) -> StepMatch:
    """The one legality gate for a chain step: the clause's verdict, unless
    the step's ``p>k`` annotation disagrees with the clause's minimal prime;
    transcriptions are validated, not trusted."""
    m = match_step(step.sub, step.amb, step.tag)
    # p_min 1 means no bound, which p>1 (and p>0) also say: every prime is > 1
    if m.legal and step.p_bound is not None and (
            min_prime_greater(step.p_bound) != max(m.p_min, 2)):
        return StepMatch(False, f"annotated p>{step.p_bound} disagrees with the catalog "
                                f"bound (minimal prime {m.p_min})", m.p_min)
    return m


def step_map(step: EmbeddingStep) -> WeightMap | None:
    """Weight map realizing one chain step, or None for a map-less max step;
    a step that :func:`check_step` rejects raises IllegalStep."""
    m = check_step(step)
    if not m.legal:
        raise IllegalStep(f"({step.sub}, {step.amb}): {m.reason}")
    build = _CLAUSES[step.tag][1]
    return None if build is None else build(step.sub, step.amb, m.payload)


def chain_restriction_map(steps) -> WeightMap | None:
    """Composed restriction map from the chain's ambient end to its start.

    Returns None if any step carries no weight map (max-rank steps); the
    steps under it build no map, but one that :func:`check_step` rejects
    still raises IllegalStep.
    """
    steps = list(steps)
    total: WeightMap | None = None
    while steps:
        m = step_map(steps.pop())
        if m is None:
            for step in reversed(steps):
                verdict = check_step(step)
                if not verdict.legal:
                    raise IllegalStep(f"({step.sub}, {step.amb}): {verdict.reason}")
            return None
        total = m if total is None else compose(total, m)
    return total
