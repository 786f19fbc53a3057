"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (integer equality); the stated wall-clock budgets
are asserted too.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""
import random
import time

import pytest

from conftest import (
    algebra_basis,
    check_form_invariance,
    commutant_dimension,
    exterior_power,
    grading_element,
    image,
    jordan_type_of,
    nilpotent_with_form,
    valid_partitions,
)
from donkin.characters import (
    decompose_dual_weyl,
    dual_weyl_character,
    exterior_algebra,
    is_restricted,
)
from donkin.embeddings import EmbeddingStep, step_map
from donkin.nilpotent import (
    centralizer_dimension,
    reductive_dimension,
    unipotent_dimension,
)
from donkin.rootsystem import (
    GroupType,
    build_root_datum,
    is_dominant,
    weyl_dim,
)
from donkin.verifier import good_prime_bound, verify_record


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text}: PASS")


def test_criterion_1_dimension_facts():
    t0 = time.perf_counter()
    g2 = build_root_datum("G2")
    assert dual_weyl_character(g2, (1, 0)).dim() == 7
    a2 = build_root_datum("A2")
    assert dual_weyl_character(a2, (1, 1)).dim() == 8
    a1 = build_root_datum("A1")
    for n in range(21):
        assert dual_weyl_character(a1, (n,)).dim() == n + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"dimension facts 7 / 8 / n+1 (n<=20), {elapsed:.2f}s")


def test_criterion_2_exterior_algebra_decompositions():
    t0 = time.perf_counter()
    a2 = build_root_datum("A2")
    ea = exterior_algebra(dual_weyl_character(a2, (1, 1)))
    assert ea.dim() == 256
    dec = decompose_dual_weyl(a2, ea)
    assert dec.exact and all(m > 0 for m in dec.terms.values())
    assert all(is_restricted(a2, lam, 5) for lam in dec.terms)
    assert sum(m * weyl_dim(a2, lam) for lam, m in dec.terms.items()) == 256

    g2 = build_root_datum("G2")
    ea7 = exterior_algebra(dual_weyl_character(g2, (1, 0)))
    assert ea7.dim() == 128
    dec7 = decompose_dual_weyl(g2, ea7)
    assert dec7.exact and all(m > 0 for m in dec7.terms.values())
    assert all(is_restricted(g2, lam, 5) for lam in dec7.terms)
    assert sum(m * weyl_dim(g2, lam) for lam, m in dec7.terms.items()) == 128
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"exterior algebras 256 / 128 restricted at p=5, {elapsed:.2f}s")


def test_criterion_3_a1_family():
    t0 = time.perf_counter()
    a1 = build_root_datum("A1")
    for n in range(1, 11):
        chi = dual_weyl_character(a1, (n,))
        for k in range(n + 2):
            dec = decompose_dual_weyl(a1, exterior_power(chi, k))
            assert dec.exact, (n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"all exterior powers of nabla(n), n<=10, decompose "
               f"nonnegatively, {elapsed:.2f}s")


def test_criterion_4_table_verification(shipped_tables):
    t0 = time.perf_counter()
    total = 0
    for name, recs in shipped_tables.items():
        reports = [verify_record(r) for r in recs]
        assert all(r.passed for r in reports), [r.record.label for r in reports if not r.passed]
        for rep in reports:
            assert rep.good_bound == good_prime_bound(rep.record.ambient)
            assert rep.p_min <= rep.good_bound
            assert rep.good_bound <= (7 if name == "e8" else 5)
        total += len(recs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, f"{total} table rows verified, prime bounds within good "
               f"characteristic, {elapsed:.2f}s")


def test_criterion_5_levi_fundamental_weights():
    e8 = GroupType.parse("E8")
    for top, target_name in ((8, "E7.T1"), (7, "E6.T2")):
        m = step_map(EmbeddingStep("levi", GroupType.parse(target_name), e8))
        target = m.target
        assert str(target) == target_name
        sub_rank = top - 1
        images = []
        for i in range(sub_rank):
            w = tuple(int(j == i) for j in range(8))
            images.append(image(m, w)[:sub_rank])
        expected = [tuple(int(j == i) for j in range(sub_rank))
                    for i in range(sub_rank)]
        assert images == expected
    _report(5, "E8 Levi maps carry the fundamental weights onto those of "
               "E7 and E6")


def test_criterion_6_classical_oracle():
    t0 = time.perf_counter()
    cases = 0
    for kind in ("GL", "Sp", "SO"):
        for n in range(1, 9):
            for jt in valid_partitions(kind, n):
                x, gram = nilpotent_with_form(jt)
                if kind != "GL":
                    assert check_form_invariance(x, gram), jt
                assert jordan_type_of(x) == jt.partition(), jt
                basis = algebra_basis(kind, n, gram)
                dim_z = commutant_dimension(x, basis)
                assert dim_z == centralizer_dimension(jt), jt
                dim_red = commutant_dimension(x, basis, extra=[grading_element(jt)])
                assert dim_red == reductive_dimension(jt), jt
                assert dim_red + unipotent_dimension(jt) == dim_z, jt
                cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, f"{cases} Jordan types: kernel oracle matches centralizer "
               f"and reductive-type dimensions, {elapsed:.2f}s")


def test_criterion_7_character_engine_invariants():
    t0 = time.perf_counter()
    rng = random.Random(20250810)
    pool = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
            "D4", "G2", "F4"]
    checked = 0
    while checked < 50:
        rd = build_root_datum(rng.choice(pool))
        lam = [0] * rd.rank
        for _ in range(3):
            lam[rng.randrange(rd.rank)] += rng.randint(0, 1)
        lam = tuple(lam)
        if not is_dominant(rd, lam):
            continue
        chi = dual_weyl_character(rd, lam)
        assert chi.dim() == weyl_dim(rd, lam), (rd.gtype, lam)
        for i in rd.simple_indices():
            assert {rd.reflect(w, i): m for w, m in chi.support.items()} \
                == chi.support
        checked += 1
    e8 = build_root_datum("E8")
    adj = dual_weyl_character(e8, (0,) * 7 + (1,))
    assert adj.dim() == weyl_dim(e8, (0,) * 7 + (1,)) == 248
    for i in range(8):
        assert {e8.reflect(w, i): m for w, m in adj.support.items()} == adj.support

    for name, lam in (("A1", (7,)), ("A2", (1, 1)), ("B2", (1, 0))):
        rd = build_root_datum(name)
        chi = dual_weyl_character(rd, lam)
        total = sum(exterior_power(chi, k).dim() for k in range(chi.dim() + 1))
        assert total == 2 ** chi.dim()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, f"Freudenthal = Weyl formula on 50 random weights + E8 "
               f"adjoint, Weyl-invariance, exterior power sums, {elapsed:.2f}s")
