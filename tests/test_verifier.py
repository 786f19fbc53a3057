import pytest

from conftest import serialize_orbit_tables
from donkin.embeddings import _CLAUSES, EmbeddingStep, check_step, match_step
from donkin.errors import UnknownType
from donkin.nilpotent import OrbitRecord, parse_orbit_tables
from donkin.rootsystem import GroupType, SimpleType
from donkin.verifier import (
    _ambient_character,
    good_prime_bound,
    spot_check,
    verify_record,
)

G = GroupType.parse


def test_good_prime_bound():
    assert good_prime_bound(G("A5")) == 2
    assert good_prime_bound(G("B3")) == 3
    assert good_prime_bound(G("C4")) == 3
    assert good_prime_bound(G("D8")) == 3
    assert good_prime_bound(G("G2")) == 5
    assert good_prime_bound(G("F4")) == 5
    assert good_prime_bound(G("E6")) == 5
    assert good_prime_bound(G("E7")) == 5
    assert good_prime_bound(G("E8")) == 7
    assert good_prime_bound(G("E7.A1")) == 5
    assert good_prime_bound(G("T3")) == 2
    with pytest.raises(UnknownType):
        good_prime_bound(G("H4"))


def test_check_step_examples():
    v = check_step(EmbeddingStep("class", G("B1.B6"), G("D8"), 2))
    assert v.legal and v.p_min == 3
    v = check_step(EmbeddingStep("auto", G("G2"), G("D4")))
    assert v.legal and v.p_min == 1
    v = check_step(EmbeddingStep("levi", G("G2"), G("E8")))
    assert not v.legal
    # annotation disagreeing with the catalog is a transcription error
    v = check_step(EmbeddingStep("class", G("B1.B6"), G("D8"), 4))
    assert not v.legal and "disagrees" in v.reason


def test_verify_record_examples():
    recs = parse_orbit_tables(
        "A2\tE6\tE6 -[levi]-> A2.E6 -[max,p>5]-> E8\n")
    rep = verify_record(recs[0])
    assert rep.passed and rep.p_min == 7 and rep.good_bound == 7

    recs = parse_orbit_tables(
        "A1\tA1\tA1 -[levi]-> A1.A1 -[max]-> G2\n")
    rep = verify_record(recs[0])
    assert rep.passed and rep.p_min == 1


def test_verify_torus_record():
    rec = OrbitRecord("D5A2", G("T1"), None, G("E8"))
    rep = verify_record(rec)
    assert rep.passed and "torus centralizer" in rep.notes


def test_endpoint_mismatch_fails():
    rec = parse_orbit_tables("A1\tA1\tA1 -[levi]-> E7\n")[0]
    rep = verify_record(rec._replace(ambient=G("E8")))
    assert not rep.passed and not rep.end_ok
    assert rep.notes == ("chain ends at E7, ambient is E8",)


def test_start_mismatch_fails():
    recs = parse_orbit_tables("A1\tB2\tA1 -[levi]-> E8\n")
    rep = verify_record(recs[0])
    assert not rep.passed and not rep.start_ok


def test_noncontiguous_chain_fails():
    steps = (EmbeddingStep("levi", G("A1"), G("A2")),
             EmbeddingStep("levi", G("A3"), G("E8")))
    rec = OrbitRecord("x", G("A1"), steps, G("E8"))
    rep = verify_record(rec)
    assert not rep.passed and any("contiguous" in n for n in rep.notes)


def test_verify_all_ordering_and_counts():
    text = ("good\tE7\tE7 -[levi]-> E8\n"
            "bad\tG2\tG2 -[levi]-> E8\n"
            "torus\tT1\tTORUS\n")
    reports = [verify_record(r) for r in parse_orbit_tables(text)]
    assert [r.record.label for r in reports] == ["good", "bad", "torus"]
    assert [r.passed for r in reports] == [True, False, True]


def test_shipped_tables_all_pass(shipped_tables):
    for name, recs in shipped_tables.items():
        reports = [verify_record(r) for r in recs]
        bad = [r.record.label for r in reports if not r.passed]
        assert not bad, (name, bad)
        bound = 7 if name == "e8" else 5
        for rep in reports:
            assert rep.p_min <= bound


def test_corrupted_row_reported_with_label(shipped_tables):
    recs = list(shipped_tables["g2"])
    broken = OrbitRecord("BROKEN", G("B2"), recs[0].chain, recs[0].ambient)
    reports = [verify_record(r) for r in recs + [broken]]
    failures = [r for r in reports if not r.passed]
    assert len(failures) == 1 and failures[0].record.label == "BROKEN"
    assert parse_orbit_tables(serialize_orbit_tables(recs)) == recs


def _mutations(rec):
    """The row with a wrong centralizer type, with its first step under a
    tag whose clause rejects it, and with its last step's p> annotation
    contradicting the catalog."""
    first, last = rec.chain[0], rec.chain[-1]
    torus = GroupType(rec.centralizer.factors + (SimpleType("T", 1),))
    tag = next(t for t in sorted(_CLAUSES)
               if not match_step(first.sub, first.amb, t).legal)
    # p>k names the least prime above k, never k itself; p>1 is no bound,
    # as minimal prime 1 is, so a step with no bound gets p>2
    p_bound = max(check_step(last).p_min, 2)
    return [
        rec._replace(centralizer=torus),
        rec._replace(chain=(first._replace(tag=tag), *rec.chain[1:])),
        rec._replace(chain=(*rec.chain[:-1], last._replace(p_bound=p_bound))),
    ]


def test_spot_check_fails_every_row_verify_record_fails(shipped_tables):
    """spot_check runs the verify_record gate: a shipped row mutated in its
    centralizer, a step's tag or a p> annotation is a FAIL naming the
    gate's notes, also under a max step."""
    for name, recs in shipped_tables.items():
        zero = (0,) * recs[0].ambient.rank
        for rec in recs:
            if rec.is_torus:
                continue
            for bad in _mutations(rec):
                report = verify_record(bad)
                assert not report.passed and report.notes, (name, rec.label)
                v = spot_check(bad, zero)
                assert (v.status, v.detail) == ("FAIL", "; ".join(report.notes)), \
                    (name, rec.label, v.detail)


def test_spot_check_lambda_zero(shipped_tables):
    for name, recs in shipped_tables.items():
        zero = (0,) * recs[0].ambient.rank
        for rec in recs:
            v = spot_check(rec, zero)
            assert v.status in ("PASS", "SKIPPED"), (name, rec.label, v.detail)
            if v.status == "PASS":
                assert list(v.terms.values()) == [1]
                assert not any(next(iter(v.terms)))  # the subgroup's zero weight


def test_spot_check_skips_max_and_torus(shipped_tables):
    g2 = shipped_tables["g2"]
    assert all(spot_check(r, (0, 0)).status == "SKIPPED" for r in g2)
    torus = next(r for r in shipped_tables["e8"] if r.is_torus)
    assert spot_check(torus, (0,) * 8).status == "SKIPPED"


@pytest.mark.parametrize("name,lam", [
    ("e6", (1, 0, 0, 0, 0, 0)),
    ("f4", (0, 0, 0, 1)),
    ("e7", (0, 0, 0, 0, 0, 0, 1)),
    ("e8", (0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_spot_check_nontrivial(shipped_tables, name, lam):
    for rec in shipped_tables[name]:
        v = spot_check(rec, lam)
        assert v.status in ("PASS", "SKIPPED"), (rec.label, v.detail)


def test_spot_check_rejects_nondominant(shipped_tables):
    rec = next(r for r in shipped_tables["e7"] if not r.is_torus)
    v = spot_check(rec, (-1, 0, 0, 0, 0, 0, 0))
    assert v.status == "FAIL"


def test_spot_check_ambient_memo_never_goes_stale(shipped_tables):
    """The shared ambient character follows the type and λ: a run that reuses
    it gives the verdicts of a run that rebuilds it for every record."""
    order = [("e8", (0, 0, 0, 0, 0, 0, 0, 1)), ("e7", (0, 0, 0, 0, 0, 0, 1)),
             ("e8", (1, 0, 0, 0, 0, 0, 0, 0)), ("e8", (0, 0, 0, 0, 0, 0, 0, 1))]

    def run(clear):
        out = []
        for name, lam in order:
            for rec in shipped_tables[name]:
                if clear:
                    _ambient_character.cache_clear()
                v = spot_check(rec, lam)
                out.append((name, lam, rec.label, v.status, v.terms))
        return out

    shared = run(clear=False)
    assert {s for *_, s, _ in shared} == {"PASS", "SKIPPED"}
    assert shared == run(clear=True)
