"""Validation of orbit records: step legality (by the catalog's one step
gate, ``embeddings.check_step``), endpoint matching, prime-bound
composition, and character-level spot checks.

Verdicts are data, not exceptions, so a run over a whole table reports every
failure.  :func:`verify_record` is the one gate for a row, and
:func:`spot_check` runs it before the character check.
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


@functools.lru_cache(maxsize=1)
def _ambient_character(gtype: GroupType, lam: tuple[int, ...]) -> FormalCharacter:
    """∇(lam) of the ambient group, shared read-only by the records of a table."""
    return dual_weyl_character(build_root_datum(gtype), lam)


def spot_check(rec: OrbitRecord, lam) -> SpotVerdict:
    """:func:`verify_record`, then restrict ∇(lam) of the ambient group
    along the chain and demand an exact nonnegative dual-Weyl decomposition
    of the result, over the group the restricted character carries (the
    chain's start).

    Torus rows, rows with no ambient group and chains with a map-less
    (maximal-rank) step are SKIPPED; a row that :func:`verify_record` fails
    is a FAIL naming its notes, so ``verify-tables`` and ``spot-check`` fail
    the same rows for the same causes.  A ``lam`` that is not a dominant
    weight of the ambient group is bad input, not a verdict: the ambient
    root datum's ``dominant`` raises DimensionMismatch or NotDominant.
    """
    if rec.is_torus:
        return SpotVerdict(rec, "SKIPPED", "torus centralizer carries no map data")
    if rec.ambient is None:
        return SpotVerdict(rec, "SKIPPED", "record has no ambient group")
    report = verify_record(rec)
    if not report.passed:
        return SpotVerdict(rec, "FAIL", "; ".join(report.notes))
    total = chain_restriction_map(rec.chain)
    if total is None:
        return SpotVerdict(rec, "SKIPPED", "chain contains a map-less max-rank step")
    chi = _ambient_character(build_root_datum(rec.ambient).gtype, tuple(lam))
    restricted = restrict_character(chi, total)
    if restricted.dim() != chi.dim():
        return SpotVerdict(rec, "FAIL", "restriction changed the dimension")
    dec = decompose_dual_weyl(restricted)
    if not dec.exact:
        return SpotVerdict(rec, "FAIL",
                           "decomposition has negative multiplicities", dec.terms)
    return SpotVerdict(rec, "PASS",
                       f"exact decomposition with {len(dec.terms)} terms in "
                       f"{dec.ambient}", dec.terms)
