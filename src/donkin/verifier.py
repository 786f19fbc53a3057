"""Validation of orbit records: step legality (by the catalog's one step
gate, ``embeddings.check_step``), endpoint matching, prime-bound
composition, and character-level spot checks.

Verdicts are data, not exceptions, so a run over a whole table reports every
failure.  :func:`verify_record` is the one gate for a row, and
:func:`spot_check` runs it before the character check, which
:func:`spot_check_table` shares between the rows of a table.
"""
from __future__ import annotations

import functools
from collections import namedtuple

from .characters import FormalCharacter, decompose_dual_weyl, dual_weyl_character
from .embeddings import chain_restriction_map, check_step, restrict_character
from .errors import UnknownType
from .nilpotent import OrbitRecord
from .rootsystem import GroupType, build_root_datum, normalize_type

# smallest good prime per simple-type letter (E depends on the rank)
_GOOD = {"A": 2, "B": 3, "C": 3, "D": 3, "F": 5, "G": 5, "T": 2}


def good_prime_bound(g: GroupType) -> int:
    """Smallest prime that is good for every factor; max over a product."""
    bound = 2
    for f in normalize_type(g).factors:
        if f.letter == "E":
            bound = max(bound, 7 if f.rank == 8 else 5)
        elif f.letter in _GOOD:
            bound = max(bound, _GOOD[f.letter])
        else:
            raise UnknownType(f"no good-prime data for {f}")
    return bound


# steps holds one embeddings.StepMatch per step of record.chain
class VerificationReport(namedtuple(
        "VerificationReport",
        "record steps p_min good_bound start_ok end_ok passed notes", defaults=((),))):
    __slots__ = ()

    def as_dict(self):
        return {
            "label": self.record.label,
            "ambient": str(self.record.ambient) if self.record.ambient else None,
            "passed": self.passed,
            "p_min": self.p_min,
            "good_bound": self.good_bound,
            "start_ok": self.start_ok,
            "end_ok": self.end_ok,
            "steps": [{"step": str(step), "legal": v.legal, "reason": v.reason,
                       "p_min": v.p_min}
                      for step, v in zip(self.record.chain or (), self.steps)],
            "notes": list(self.notes),
        }


def verify_record(rec: OrbitRecord) -> VerificationReport:
    """The one gate for a table row: step legality, endpoint matching and
    the prime-bound comparison, each failed condition adding one note.

    A chain row passes exactly when it has no note; an illegal step's note
    reads ``illegal step (SUB, AMB): REASON``.  TORUS records pass
    unconditionally: restriction to a torus trivially preserves characters of
    modules with a good filtration.
    """
    bound = good_prime_bound(rec.ambient) if rec.ambient is not None else None
    if rec.is_torus:
        return VerificationReport(rec, (), 1, bound, True, True, True,
                                  ("torus centralizer",))
    verdicts = tuple(check_step(s) for s in rec.chain)
    notes = [f"illegal step ({step.sub}, {step.amb}): {v.reason}"
             for step, v in zip(rec.chain, verdicts) if not v.legal]
    p_min = max((v.p_min for v in verdicts), default=1)
    start_ok = normalize_type(rec.chain[0].sub) == normalize_type(rec.centralizer)
    if not start_ok:
        notes.append(f"chain starts at {rec.chain[0].sub}, centralizer is {rec.centralizer}")
    if any(a.amb != b.sub for a, b in zip(rec.chain, rec.chain[1:])):
        notes.append("chain is not contiguous")
    end_ok = (rec.ambient is None
              or normalize_type(rec.chain_end()) == normalize_type(rec.ambient))
    if not end_ok:
        notes.append(f"chain ends at {rec.chain_end()}, ambient is {rec.ambient}")
    if bound is not None and p_min > bound:
        notes.append(f"composed bound p>={p_min} exceeds the good-prime bound {bound}")
    return VerificationReport(rec, verdicts, p_min, bound, start_ok, end_ok,
                              not notes, tuple(notes))


# status is "PASS", "FAIL" or "SKIPPED"
class SpotVerdict(namedtuple("SpotVerdict", "record status detail terms", defaults=(None,))):
    __slots__ = ()

    def as_dict(self):
        return {"label": self.record.label, "status": self.status,
                "detail": self.detail,
                "terms": {",".join(map(str, k)): v for k, v in self.terms.items()}
                if self.terms is not None else None}


class _Suffix:
    """A kept node of one table's suffix trie: ∇(λ) restricted along
    ``steps``, a run of chain steps in chain order, from the character of
    ``parent``, the node at their ambient end, or from ``ambient()``, the
    table's ∇(λ), when there is none.  Its map and character are made on
    first use and shared by the rows at and below the node."""

    __slots__ = ("ambient", "parent", "steps", "map", "chi", "dec")

    def __init__(self, ambient, parent, steps):
        self.ambient, self.parent, self.steps = ambient, parent, steps
        self.map = self.chi = False
        self.dec = None

    def restriction_map(self):
        """The composite map of ``steps``, or None if a step here or above
        has no map; no map is built below such a step."""
        if self.map is False:
            above = self.parent is None or self.parent.restriction_map()
            self.map = above and chain_restriction_map(self.steps)
        return self.map

    def character(self) -> FormalCharacter | None:
        """The restricted character, or None under a map-less (max-rank)
        step, for which no character is made."""
        if self.chi is False:
            total = self.restriction_map()
            self.chi = total and restrict_character(
                self.parent.character() if self.parent else self.ambient(), total)
        return self.chi


def spot_check(rec: OrbitRecord, suffix: _Suffix | None) -> SpotVerdict:
    """:func:`verify_record`, then demand an exact nonnegative dual-Weyl
    decomposition of ∇(λ) of the ambient group restricted along the chain,
    over the group the restricted character carries (the chain's start).
    ``suffix`` is the row's node of its table's suffix trie (see
    :func:`spot_check_table`), None for a row with no chain.

    Torus rows, rows with no ambient group and chains with a map-less
    (maximal-rank) step are SKIPPED; a row that :func:`verify_record` fails
    is a FAIL naming its notes, so ``verify-tables`` and ``spot-check`` fail
    the same rows for the same causes.
    """
    if rec.is_torus:
        return SpotVerdict(rec, "SKIPPED", "torus centralizer carries no map data")
    if rec.ambient is None:
        return SpotVerdict(rec, "SKIPPED", "record has no ambient group")
    report = verify_record(rec)
    if not report.passed:
        return SpotVerdict(rec, "FAIL", "; ".join(report.notes))
    restricted = suffix.character()
    if restricted is None:
        return SpotVerdict(rec, "SKIPPED", "chain contains a map-less max-rank step")
    if restricted.dim() != suffix.ambient().dim():
        return SpotVerdict(rec, "FAIL", "restriction changed the dimension")
    # the rows of one chain share one decomposition
    dec = suffix.dec = suffix.dec or decompose_dual_weyl(restricted)
    if not dec.exact:
        return SpotVerdict(rec, "FAIL",
                           "decomposition has negative multiplicities", dec.terms)
    return SpotVerdict(rec, "PASS",
                       f"exact decomposition with {len(dec.terms)} terms in "
                       f"{dec.ambient}", dec.terms)


def spot_check_table(recs, lam) -> list[SpotVerdict]:
    """The :func:`spot_check` verdict of every row of one table at ``lam``,
    in table order; every row's ambient group is the first row's, as the
    table parser gives them.

    The chains make a trie rooted at the ambient group.  A node is kept
    where a row's chain ends or where chains branch, so ∇(λ) is restricted
    once per unbranched run of steps, along its composite map, and only
    when a row at or below asks.  The trie is walked depth-first, subtrees
    in the table order of their first row, and a node is freed when its
    subtree is done.  A ``lam`` that is not a dominant weight of the ambient
    group is bad input, not a verdict: the ambient root datum's ``dominant``
    raises DimensionMismatch or NotDominant.
    """
    ambient = functools.cache(
        lambda: dual_weyl_character(build_root_datum(recs[0].ambient), tuple(lam)))
    verdicts = [None] * len(recs)
    # (rows sharing the last ``depth`` steps of their chains, depth, the
    # nearest kept node above them and its number of steps from the ambient end)
    stack = [(range(len(recs)), 0, None, 0)]
    while stack:
        rows, depth, node, start = stack.pop()
        ends, kids = [], {}
        for i in rows:
            chain = recs[i].chain or ()
            if len(chain) == depth:
                ends.append(i)
            else:
                kids.setdefault(chain[-depth - 1], []).append(i)
        if depth > start and (ends or len(kids) != 1):
            chain = recs[rows[0]].chain
            node = _Suffix(ambient, node, chain[len(chain) - depth:len(chain) - start])
            start = depth
        for i in ends:
            verdicts[i] = spot_check(recs[i], node)
        stack += [(below, depth + 1, node, start) for below in reversed(kids.values())]
    return verdicts
