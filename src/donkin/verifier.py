"""Batch validation of orbit records: step legality, endpoint matching,
prime-bound composition, and character-level spot checks.

Verdicts are data, not exceptions, so a run over a whole table reports every
failure.  Reports come back in input order.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .characters import (
    FormalCharacter,
    decompose_dual_weyl,
    dual_weyl_character,
    min_prime_greater,
)
from .embeddings import (
    EmbeddingStep,
    chain_restriction_map,
    match_step,
    restrict_character,
)
from .errors import IllegalStep, UnknownType
from .nilpotent import OrbitRecord
from .rootsystem import GroupType, build_root_datum, is_dominant, normalize_type

# smallest good prime per simple-type letter (E depends on the rank)
_GOOD = {"A": 2, "B": 3, "C": 3, "D": 3, "F": 5, "G": 5, "T": 2}


def good_prime_bound(g: GroupType) -> int:
    """Smallest prime that is good for every factor; max over a product."""
    if isinstance(g, str):
        g = GroupType.parse(g)
    bound = 2
    for f in normalize_type(g).factors:
        if f.letter == "E":
            bound = max(bound, 7 if f.rank == 8 else 5)
        elif f.letter in _GOOD:
            bound = max(bound, _GOOD[f.letter])
        else:
            raise UnknownType(f"no good-prime data for {f}")
    return bound


@dataclass(frozen=True)
class StepVerdict:
    step: EmbeddingStep
    legal: bool
    reason: str
    p_min: int = 1

    def as_dict(self):
        return {"step": str(self.step), "legal": self.legal,
                "reason": self.reason, "p_min": self.p_min}


def check_step(step: EmbeddingStep) -> StepVerdict:
    """Legality of one chain step against the clause catalog.

    An annotated ``p>k`` bound must agree with the catalog's own constraint;
    transcriptions are validated, not trusted.
    """
    m = match_step(step.sub, step.amb, step.tag)
    if not m.legal:
        return StepVerdict(step, False, m.reason)
    if step.p_bound is not None and min_prime_greater(step.p_bound) != m.p_min:
        return StepVerdict(
            step, False,
            f"annotated p>{step.p_bound} disagrees with the catalog bound "
            f"(minimal prime {m.p_min})", m.p_min)
    return StepVerdict(step, True, m.reason, m.p_min)


@dataclass(frozen=True)
class VerificationReport:
    record: OrbitRecord
    steps: tuple[StepVerdict, ...]
    p_min: int
    good_bound: int | None
    start_ok: bool
    end_ok: bool
    passed: bool
    notes: tuple[str, ...] = ()

    def as_dict(self):
        return {
            "label": self.record.label,
            "ambient": str(self.record.ambient) if self.record.ambient else None,
            "passed": self.passed,
            "p_min": self.p_min,
            "good_bound": self.good_bound,
            "start_ok": self.start_ok,
            "end_ok": self.end_ok,
            "steps": [s.as_dict() for s in self.steps],
            "notes": list(self.notes),
        }


def _end_mismatch(rec: OrbitRecord) -> str | None:
    """Why a chain does not end at its record's ambient group, or None."""
    if normalize_type(rec.chain_end()) == normalize_type(rec.ambient):
        return None
    return f"chain ends at {rec.chain_end()}, ambient is {rec.ambient}"


def verify_record(rec: OrbitRecord) -> VerificationReport:
    """Step-wise legality, endpoint matching, and prime-bound comparison.

    TORUS records pass unconditionally: restriction to a torus trivially
    preserves characters of modules with a good filtration.
    """
    if rec.is_torus:
        bound = good_prime_bound(rec.ambient) if rec.ambient else None
        return VerificationReport(rec, (), 1, bound, True, True, True,
                                  ("torus centralizer",))
    verdicts = tuple(check_step(s) for s in rec.chain)
    notes = []
    p_min = max((v.p_min for v in verdicts), default=1)
    start_ok = normalize_type(rec.chain[0].sub) == normalize_type(rec.centralizer)
    if not start_ok:
        notes.append(f"chain starts at {rec.chain[0].sub}, centralizer is {rec.centralizer}")
    continuity = all(
        rec.chain[i].amb == rec.chain[i + 1].sub for i in range(len(rec.chain) - 1))
    if not continuity:
        notes.append("chain is not contiguous")
    end_note = _end_mismatch(rec) if rec.ambient is not None else None
    end_ok = end_note is None
    if not end_ok:
        notes.append(end_note)
    bound = good_prime_bound(rec.ambient) if rec.ambient is not None else None
    bound_ok = bound is None or p_min <= bound
    if not bound_ok:
        notes.append(f"composed bound p>={p_min} exceeds the good-prime bound {bound}")
    passed = (all(v.legal for v in verdicts) and start_ok and end_ok
              and continuity and bound_ok)
    return VerificationReport(rec, verdicts, p_min, bound, start_ok, end_ok,
                              passed, tuple(notes))


@dataclass(frozen=True)
class SpotVerdict:
    record: OrbitRecord
    status: str  # "PASS" | "FAIL" | "SKIPPED"
    detail: str
    terms: dict | None = None

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
    """Restrict the ambient dual Weyl character along the chain and demand an
    exact nonnegative dual-Weyl decomposition at the bottom.

    Records with map-less steps (maximal-rank steps) or no chain at all are
    reported SKIPPED rather than failed; a chain that ends elsewhere than the
    ambient group or has an illegal step is a FAIL naming its cause.
    """
    if rec.is_torus:
        return SpotVerdict(rec, "SKIPPED", "torus centralizer carries no map data")
    if rec.ambient is None:
        return SpotVerdict(rec, "SKIPPED", "record has no ambient group")
    end_note = _end_mismatch(rec)
    if end_note is not None:
        return SpotVerdict(rec, "FAIL", end_note)
    try:
        total = chain_restriction_map(rec.chain)
    except IllegalStep as exc:
        return SpotVerdict(rec, "FAIL", f"illegal step {exc}")
    if total is None:
        return SpotVerdict(rec, "SKIPPED", "chain contains a map-less max-rank step")
    amb_rd = build_root_datum(rec.ambient)
    lam = tuple(lam)
    if not is_dominant(amb_rd, lam):
        return SpotVerdict(rec, "FAIL", f"{lam} is not dominant for {rec.ambient}")
    chi = _ambient_character(amb_rd.gtype, lam)
    restricted = restrict_character(chi, total)
    if restricted.dim() != chi.dim():
        return SpotVerdict(rec, "FAIL", "restriction changed the dimension")
    sub_rd = build_root_datum(normalize_type(total.target))
    dec = decompose_dual_weyl(sub_rd, restricted)
    if not dec.exact:
        return SpotVerdict(rec, "FAIL",
                           "decomposition has negative multiplicities", dec.terms)
    return SpotVerdict(rec, "PASS",
                       f"exact decomposition with {len(dec.terms)} terms in "
                       f"{sub_rd.gtype}", dec.terms)


@dataclass
class Summary:
    reports: list = field(default_factory=list)

    @property
    def passed(self):
        return sum(1 for r in self.reports if r.passed)

    @property
    def failed(self):
        return sum(1 for r in self.reports if not r.passed)


def verify_all(records) -> Summary:
    """Verify records in input order; exit status belongs to the CLI."""
    s = Summary()
    for rec in records:
        s.reports.append(verify_record(rec))
    return s
