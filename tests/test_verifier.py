import pytest

from conftest import serialize_orbit_tables
import donkin.verifier
from donkin.characters import decompose_dual_weyl, dual_weyl_character, min_prime_greater
from donkin.embeddings import (
    _CLAUSES,
    EmbeddingStep,
    chain_restriction_map,
    check_step,
    match_step,
    restrict_character,
)
from donkin.errors import NotDominant, UnknownType
from donkin.nilpotent import OrbitRecord, parse_orbit_tables
from donkin.rootsystem import GroupType, SimpleType, build_root_datum, normalize_type
from donkin.verifier import good_prime_bound, spot_check_table, verify_record

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
                [v] = spot_check_table([bad], zero)
                assert (v.status, v.detail) == ("FAIL", "; ".join(report.notes)), \
                    (name, rec.label, v.detail)


def test_spot_check_lambda_zero(shipped_tables):
    for name, recs in shipped_tables.items():
        zero = (0,) * recs[0].ambient.rank
        for rec, v in zip(recs, spot_check_table(recs, zero)):
            assert v.record is rec
            assert v.status in ("PASS", "SKIPPED"), (name, rec.label, v.detail)
            if v.status == "PASS":
                assert list(v.terms.values()) == [1]
                assert not any(next(iter(v.terms)))  # the subgroup's zero weight


def test_spot_check_skips_max_and_torus(shipped_tables):
    g2 = shipped_tables["g2"]
    assert all(v.status == "SKIPPED" for v in spot_check_table(g2, (0, 0)))
    torus = next(r for r in shipped_tables["e8"] if r.is_torus)
    assert spot_check_table([torus], (0,) * 8)[0].status == "SKIPPED"


@pytest.mark.parametrize("name,lam", [
    ("e6", (1, 0, 0, 0, 0, 0)),
    ("f4", (0, 0, 0, 1)),
    ("e7", (0, 0, 0, 0, 0, 0, 1)),
    ("e8", (0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_spot_check_nontrivial(shipped_tables, name, lam):
    recs = shipped_tables[name]
    for rec, v in zip(recs, spot_check_table(recs, lam)):
        assert v.status in ("PASS", "SKIPPED"), (rec.label, v.detail)


def test_spot_check_rejects_nondominant(shipped_tables):
    """A weight that is not dominant is bad input, not a verdict: the row's
    check raises NotDominant from dual_weyl_character."""
    rec = next(r for r in shipped_tables["e7"] if not r.is_torus)
    with pytest.raises(NotDominant, match=r"^\(-1, 0, 0, 0, 0, 0, 0\) is not dominant$"):
        spot_check_table([rec], (-1, 0, 0, 0, 0, 0, 0))


# two highest weights per table: the spot-check jobs of perfbench/workloads.py
SPOT_LAMBDAS = {
    "e8": [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0)],
    "e7": [(0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2)],
    "e6": [(0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0)],
    "f4": [(0, 0, 0, 1), (1, 0, 0, 0)],
    "g2": [(1, 0), (0, 1)],
}


def _per_row_verdict(rec, chi):
    """(status, detail, terms) of ∇(λ) = ``chi`` restricted along the row's
    whole chain on its own, with nothing shared between rows."""
    if rec.is_torus:
        return "SKIPPED", "torus centralizer carries no map data", None
    report = verify_record(rec)
    if not report.passed:
        return "FAIL", "; ".join(report.notes), None
    total = chain_restriction_map(rec.chain)
    if total is None:
        return "SKIPPED", "chain contains a map-less max-rank step", None
    dec = decompose_dual_weyl(restrict_character(chi, total))
    assert dec.exact, rec.label
    return "PASS", f"exact decomposition with {len(dec.terms)} terms in {dec.ambient}", dec.terms


def test_spot_check_table_matches_the_per_row_route(shipped_tables):
    """Every verdict of the suffix trie, for each table at two weights run
    one after another, is the verdict of restricting ∇(λ) along the row's
    own chain."""
    statuses = set()
    for name, lams in SPOT_LAMBDAS.items():
        recs = shipped_tables[name]
        for lam in lams:
            chi = dual_weyl_character(build_root_datum(recs[0].ambient), lam)
            got = [(v.record, v.status, v.detail, v.terms) for v in spot_check_table(recs, lam)]
            assert got == [(rec, *_per_row_verdict(rec, chi)) for rec in recs], (name, lam)
            statuses.update(status for _, status, _, _ in got)
    assert statuses == {"PASS", "SKIPPED"}


def test_illegal_step_below_a_shared_suffix_fails_that_row_alone(shipped_tables):
    """E6A1 and E6(a3)A1 share the chain A1 -[levi]-> G2 -[auto]-> D4
    -[levi]-> E8, and two more rows end in its last two steps.  An illegal
    first step FAILs E6A1 with verify_record's notes; every other verdict
    stays as it was."""
    recs = shipped_tables["e8"]
    i = next(i for i, r in enumerate(recs) if r.label == "E6A1")
    assert [r.label for r in recs if r.chain == recs[i].chain] == ["E6A1", "E6(a3)A1"]
    assert sum(r.chain[-2:] == recs[i].chain[-2:] for r in recs if r.chain) == 4
    bad = _mutations(recs[i])[1]
    lam = (0, 0, 0, 0, 0, 0, 0, 1)
    before = spot_check_table(recs, lam)
    after = spot_check_table([*recs[:i], bad, *recs[i + 1:]], lam)
    assert (after[i].status, after[i].detail) == ("FAIL", "; ".join(verify_record(bad).notes))
    assert before[i].status == "PASS"
    assert after[:i] + after[i + 1:] == before[:i] + before[i + 1:]


def test_e8_restricts_each_shared_suffix_once(shipped_tables, monkeypatch):
    """The weights that e8 at ω7 feeds restrict_character: one restriction
    per kept node of the suffix trie, 9 of them of the whole ambient support
    and 6 of a node's, against 17 of the ambient support (17 × 9,121 =
    155,057) when every row restricts alone.  The two rows of one chain,
    E6A1 and E6(a3)A1, share the last restriction, of G2's 37 weights.
    Maps are built for those 15 nodes and asked of the 6 nodes that end in
    a map-less max step, and of no node below one."""
    sizes, runs = [], []

    def counted(chi, wmap):
        sizes.append(len(chi.support))
        return restrict_character(chi, wmap)

    def mapped(steps):
        runs.append(steps)
        return chain_restriction_map(steps)

    monkeypatch.setattr(donkin.verifier, "restrict_character", counted)
    monkeypatch.setattr(donkin.verifier, "chain_restriction_map", mapped)
    verdicts = spot_check_table(shipped_tables["e8"], (0, 0, 0, 0, 0, 0, 1, 0))
    assert sum(v.status == "PASS" for v in verdicts) == 17
    assert (len(sizes), sum(sizes)) == (15, 88_883)
    assert len(runs) == 21
    assert sum(chain_restriction_map(steps) is None for steps in runs) == 6


# Label-blind verdicts (ROADMAP item 14): mutant rows of the shipped tables
# that the row-level checks let through.  An escape count may only go down,
# and a change that lowers one updates its pin here.
CHAIN_SWAP_ESCAPES = {"e8": 224, "e7": 132, "e6": 8, "f4": 16, "g2": 0}


def test_chain_swaps_escape_verify_record(shipped_tables):
    """Row A given row B's chain, for each ordered pair of rows of one table
    with equal normalized centralizer type and different chains: 380
    mutants.  ``verify_record`` never reads a label, so a swapped chain that
    is legal for the centralizer type passes."""
    escapes = {}
    for name, recs in shipped_tables.items():
        swaps = [a._replace(chain=b.chain) for a in recs for b in recs
                 if normalize_type(a.centralizer) == normalize_type(b.centralizer)
                 and a.chain != b.chain]
        escapes[name] = sum(verify_record(rec).passed for rec in swaps)
    assert escapes == CHAIN_SWAP_ESCAPES


def test_p_bound_mutants_are_all_rejected(shipped_tables):
    """The control family: each distinct legal shipped step with its p>k
    changed to every k in 0..11 that names another minimal prime than the
    catalog's.  ``check_step`` rejects every one of the 1,776."""
    steps = {s for recs in shipped_tables.values() for r in recs if r.chain for s in r.chain}
    mutants = []
    for step in steps:
        m = check_step(step)
        if m.legal:
            mutants += [step._replace(p_bound=k) for k in range(12)
                        if min_prime_greater(k) != max(m.p_min, 2)]
    assert len(mutants) == 1776
    assert [step for step in mutants if check_step(step).legal] == []
