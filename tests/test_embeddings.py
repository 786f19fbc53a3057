import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import donkin.embeddings as emb
import donkin.rootsystem as rootsystem
from conftest import CLASSIFIED_DIAGRAMS, external_product, image, levi_oracle
from donkin.characters import (
    FormalCharacter,
    decompose_dual_weyl,
    dual_weyl_character,
    min_prime_greater,
)
from donkin.embeddings import (
    EmbeddingStep,
    WeightMap,
    chain_restriction_map,
    check_step,
    compose,
    match_step,
    normalization_map,
    restrict_character,
    step_map,
)
from donkin.errors import AmbientMismatch, IllegalStep, TypeMismatch, UnknownType
from donkin.verifier import verify_record
from donkin.linalg import identity, mat_vec
from donkin.rootsystem import (
    GroupType,
    SimpleType,
    build_root_datum,
    normalize_type,
)

G = GroupType.parse


def fw(rank, i):
    return tuple(int(j == i) for j in range(rank))


def identity_map(gtype):
    return WeightMap(gtype, gtype, identity(normalize_type(gtype).rank))


def step(tag, sub, amb):
    """The map of the step ``sub -[tag]-> amb``."""
    return step_map(EmbeddingStep(tag, G(sub), G(amb)))


def levi(sub, amb):
    """The map of the step ``sub -[levi]-> amb`` and its target type."""
    m = step("levi", sub, amb)
    return m, m.target


def diag(sub, amb):
    return step("diag", sub, amb)


# ---------------------------------------------------------------------------
# Levi maps

def test_levi_e8_e7_fundamental_weights():
    m, target = levi("E7.T1", "E8")
    assert str(target) == "E7.T1"
    images = [image(m, fw(8, i))[:7] for i in range(7)]
    assert images == [fw(7, i) for i in range(7)]
    assert image(m, fw(8, 7))[:7] == (0,) * 7


def test_levi_e8_e6_fundamental_weights():
    m, target = levi("E6.T2", "E8")
    assert str(target) == "E6.T2"
    images = [image(m, fw(8, i))[:6] for i in range(6)]
    assert images == [fw(6, i) for i in range(6)]


def test_levi_identity():
    m, target = levi("A2", "A2")
    assert str(target) == "A2"
    assert m.matrix == ((1, 0), (0, 1))


def test_levi_kernel_rows_kill_levi_roots():
    e8 = build_root_datum("E8")
    m, _ = levi("E7.T1", "E8")
    torus_row = m.matrix[7]
    for i in range(7):
        assert sum(a * b for a, b in zip(torus_row, e8.columns[i])) == 0


@pytest.mark.parametrize("amb", ["B2", "C2"])
def test_levi_written_d1_takes_a_torus_slot(amb):
    """D1 (SO2) is the torus T1: B2.D1 has rank 3 and is no Levi of a rank-2 group."""
    m = match_step(G("B2.D1"), G(amb), "levi")
    assert (m.legal, m.reason) == (False, "not enough central torus for the sub type")
    with pytest.raises(IllegalStep):
        step("levi", "B2.D1", amb)
    assert match_step(G("B2.D1"), G("B3"), "levi").legal


# ---------------------------------------------------------------------------
# diagonal embeddings

def test_diag_examples():
    assert diag("A1", "A1").matrix == ((1,),)
    d = diag("A1", "A1.A1")
    assert image(d, (3, 4)) == (7,)
    b2 = build_root_datum("B2")
    chi = dual_weyl_character(b2, (1, 0))
    ext = external_product(chi, chi)
    r = restrict_character(ext, diag("B2", "B2.B2"))
    assert r.dim() == chi.dim() ** 2


# ---------------------------------------------------------------------------
# foldings

def test_folding_a3_c2():
    m = step("auto", "C2", "A3")
    # both outer nodes restrict to the first C2 fundamental weight, which is
    # the spin coordinate once Sp4 is normalized to B2
    conv = normalization_map(G("C2"))
    c2_w1 = image(conv, (1, 0))
    assert image(m, (1, 0, 0)) == image(m, (0, 0, 1)) == c2_w1


def test_folding_d4_g2_triality():
    m = step("auto", "G2", "D4")
    outer = [image(m, fw(4, i)) for i in (0, 2, 3)]
    assert outer == [(1, 0)] * 3
    assert image(m, fw(4, 1)) == (0, 1)


def test_folding_e6_f4():
    m = step("auto", "F4", "E6")
    # orbit structure: {2}, {4}, {3,5}, {1,6}
    assert m.matrix == ((0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                       (0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 0, 1))


def test_folding_catalog_exact():
    """The folding matcher accepts exactly the four listed families."""
    hand = set()
    for n in range(2, 5):
        hand.add((f"A{2 * n - 1}", str(normalize_type(G(f'C{n}')))))
    for n in range(4, 9):
        hand.add((f"D{n}", f"B{n - 1}"))
    hand.add(("D4", "G2"))
    hand.add(("E6", "F4"))
    simple = [f"{letter}{rank}" for letter, lo in
              [("A", 1), ("B", 2), ("C", 3), ("D", 4)] for rank in range(lo, 9)]
    simple += ["E6", "E7", "E8", "F4", "G2"]
    accepted = set()
    for amb, sub in itertools.product(simple, simple):
        try:
            step("auto", sub, amb)
            accepted.add((amb, str(normalize_type(G(sub)))))
        except IllegalStep:
            pass
    assert accepted == hand


def test_folding_adjoint_nonneg():
    a3 = build_root_datum("A3")
    adj = dual_weyl_character(a3, (1, 0, 1))
    r = restrict_character(adj, step("auto", "C2", "A3"))
    dec = decompose_dual_weyl(r)
    assert dec.exact and r.dim() == 15
    d4 = build_root_datum("D4")
    adj4 = dual_weyl_character(d4, (0, 1, 0, 0))
    r4 = restrict_character(adj4, step("auto", "G2", "D4"))
    dec4 = decompose_dual_weyl(r4)
    assert dec4.exact and r4.dim() == 28


# ---------------------------------------------------------------------------
# classical splits

def test_classical_sp_split():
    m = step("class", "C1.C1", "C2")
    c2 = build_root_datum("B2")  # normalized Sp4
    conv = normalization_map(G("C2"))
    nat = dual_weyl_character(c2, image(conv, (1, 0)))
    r = restrict_character(nat, m)
    assert r.dim() == 4
    dec = decompose_dual_weyl(r)
    assert dec.terms == {(1, 0): 1, (0, 1): 1} and dec.exact


def test_classical_so_split_b1b6_in_d8():
    m = step("class", "B1.B6", "D8")
    d8 = build_root_datum("D8")
    nat = dual_weyl_character(d8, fw(8, 0))
    r = restrict_character(nat, m)
    dec = decompose_dual_weyl(r)
    # SO16 restricted to SO3 x SO13: natural = (3-dim) + (13-dim)
    assert dec.terms == {(2, 0, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0, 0): 1}
    assert dec.exact


def test_classical_so2_rejected():
    with pytest.raises(IllegalStep):
        step("class", "D1", "A1")  # SO2 in SL2: r >= 3 required


@pytest.mark.parametrize("sub,amb", [("D1", "B1"), ("B2.D1", "B3"), ("B2.D1", "D4")])
def test_classical_split_so2_rejected(sub, amb):
    # SO2 in SO3, SO5 x SO2 in SO7 and in SO8: the spin weights restrict to
    # half-characters of the SO2, so the step has no integral weight map
    m = match_step(G(sub), G(amb), "class")
    assert (m.legal, m.reason) == (False, "a split SO2 factor lifts to a double-cover torus")
    with pytest.raises(IllegalStep, match="double-cover torus"):
        step("class", sub, amb)


def test_classical_sl_so():
    m = step("class", "B2", "A4")  # SO5 in SL5
    a4 = build_root_datum("A4")
    nat = dual_weyl_character(a4, fw(4, 0))
    r = restrict_character(nat, m)
    assert r == dual_weyl_character(build_root_datum("B2"), (1, 0))


def test_classical_sl_sp():
    m = step("class", "C3", "A5")  # Sp6 in SL6
    a5 = build_root_datum("A5")
    nat = dual_weyl_character(a5, fw(5, 0))
    r = restrict_character(nat, m)
    assert r == dual_weyl_character(build_root_datum("C3"), (1, 0, 0))


def test_classical_defect_one():
    m = step("class", "B3", "D4")  # SO7 in SO8
    d4 = build_root_datum("D4")
    r = restrict_character(dual_weyl_character(d4, fw(4, 0)), m)
    dec = decompose_dual_weyl(r)
    assert dec.terms == {(1, 0, 0): 1, (0, 0, 0): 1} and dec.exact


def test_classical_spectators():
    m = step("class", "B4.A1.B1", "A1.D6")
    assert normalize_type(m.source) == normalize_type(G("A1.D6"))
    with pytest.raises(IllegalStep):
        step("class", "B4.A1.B1", "A1.D7")


# ---------------------------------------------------------------------------
# restricted irreducibles

def test_resirr_identity():
    m = step("resirr", "A1", "A1")
    assert m.matrix == ((1,),)


@pytest.mark.parametrize("n", range(1, 8))
def test_resirr_a_family_natural_restriction(n):
    amb = build_root_datum(f"A{n}")
    a1 = build_root_datum("A1")
    m = step("resirr", "A1", f"A{n}")
    nat = dual_weyl_character(amb, fw(n, 0))
    assert restrict_character(nat, m) == dual_weyl_character(a1, (n,))


def test_resirr_a7_a2_and_a6_g2():
    a7 = build_root_datum("A7")
    m = step("resirr", "A2", "A7")
    assert restrict_character(dual_weyl_character(a7, fw(7, 0)), m) == \
        dual_weyl_character(build_root_datum("A2"), (1, 1))
    a6 = build_root_datum("A6")
    m2 = step("resirr", "G2", "A6")
    assert restrict_character(dual_weyl_character(a6, fw(6, 0)), m2) == \
        dual_weyl_character(build_root_datum("G2"), (1, 0))


def test_resirr_rejects():
    with pytest.raises(IllegalStep):
        step("resirr", "A2", "A6")
    with pytest.raises(IllegalStep):
        step("resirr", "G2", "A7")
    with pytest.raises(IllegalStep):
        step("resirr", "B2", "A4")


def test_resirr_prime_bounds():
    assert match_step(G("A1"), G("A4"), "resirr").p_min == 5
    assert match_step(G("A1"), G("A2"), "resirr").p_min == 3
    assert match_step(G("A2"), G("A7"), "resirr").p_min == 5
    assert match_step(G("G2"), G("A6"), "resirr").p_min == 5
    assert min_prime_greater(1) == 2
    assert min_prime_greater(4) == 5
    assert min_prime_greater(7) == 11


def dot_fold(rd, v):
    """(det w, w v) for a w that takes v, a weight plus rho, into the
    dominant chamber, one simple reflection at a time; (0, None) if v lies
    on a wall, where the dot action kills the character."""
    sign = 1
    while True:
        i = next((i for i in rd.simple if v[i] <= 0), None)
        if i is None:
            return sign, v
        if v[i] == 0:
            return 0, None
        # s_i v = v - v_i alpha_i, alpha_i the Cartan matrix's column i
        v = tuple(x - v[i] * a for x, a in zip(v, rd.columns[i]))
        sign = -sign


def jantzen_primes(rd, mu):
    """The primes p at which nabla(mu) is reducible.

    By Jantzen's sum formula (*Representations of Algebraic Groups*,
    II.8.19), nabla(mu) = L(mu) in characteristic p iff the sum over
    alpha > 0 and 0 < mp < <mu + rho, alpha^vee> of
    nu_p(mp) chi(s_{alpha,mp} . mu) vanishes.  Here
    s_{alpha,mp} . mu + rho = mu + rho - (<mu + rho, alpha^vee> - mp) alpha,
    and the chi are folded to dominant ones by ``dot_fold``.  No mp fits
    below a p at least the largest <mu + rho, alpha^vee>.
    """
    mu_rho = tuple(m + r for m, r in zip(mu, rd.rho))
    pairs = [(alpha, rd.pairing(mu_rho, cv))
             for alpha, cv in zip(rd.positive_roots, rd.positive_coroots)]
    primes = []
    for p in range(2, max(h for _, h in pairs)):
        if any(p % q == 0 for q in range(2, p)):
            continue
        total = Counter()
        for alpha, h in pairs:
            for mp in range(p, h, p):
                nu_p = 1
                while mp % p ** (nu_p + 1) == 0:
                    nu_p += 1
                sign, top = dot_fold(rd, tuple(x - (h - mp) * a for x, a in zip(mu_rho, alpha)))
                if sign:
                    total[top] += sign * nu_p
        if any(total.values()):
            primes.append(p)
    return primes


A1_REDUCIBLE = [[], [2], [3], [2, 3], [2, 5], [2, 3, 5], [3, 5, 7], [2, 5, 7], [2, 3, 7],
                [2, 3, 5, 7], [2, 3, 5, 7, 11], [2, 3, 5, 7, 11]]


@pytest.mark.parametrize("sub, mu, dim, reducible", [
    *((SimpleType("A", 1), (n,), n + 1, A1_REDUCIBLE[n - 1]) for n in range(1, 13)),
    (SimpleType("A", 2), (1, 1), 8, [3]),
    (SimpleType("G", 2), (1, 0), 7, [2]),
])
def test_resirr_p_min_exceeds_every_jantzen_prime(sub, mu, dim, reducible):
    """A resirr step needs nabla(mu) = L(mu), so its catalog bound p_min
    must lie above every prime where nabla(mu) is reducible.  S^3 and S^7 of
    A1 are irreducible at 2; G2's 5 is the good-prime bound."""
    primes = jantzen_primes(build_root_datum(GroupType((sub,))), mu)
    assert primes == reducible
    _, p_min = emb._resirr_weights(sub, dim)
    assert all(p_min > p for p in primes)


# ---------------------------------------------------------------------------
# tensor embeddings

def test_tensor_sp2_in_so4():
    m = step("tensor", "C1", "D2")
    d2 = build_root_datum("A1.A1")
    nat = dual_weyl_character(d2, (1, 1))
    r = restrict_character(nat, m)
    assert r == dual_weyl_character(build_root_datum("A1"),
                                    (1,)) if False else r.dim() == 4
    dec = decompose_dual_weyl(r)
    assert dec.terms == {(1,): 2} and dec.exact


def test_tensor_so3_in_so9():
    m = step("tensor", "B1", "B4")
    b4 = build_root_datum("B4")
    r = restrict_character(dual_weyl_character(b4, fw(4, 0)), m)
    dec = decompose_dual_weyl(r)
    # 9-dim = 3 copies of the 3-dim SO3 natural
    assert dec.terms == {(2,): 3} and dec.exact


def test_tensor_sp4_in_so16():
    m = step("tensor", "C2", "D8")
    d8 = build_root_datum("D8")
    r = restrict_character(dual_weyl_character(d8, fw(8, 0)), m)
    dec = decompose_dual_weyl(r)
    conv = normalization_map(G("C2"))
    assert dec.terms == {image(conv, (1, 0)): 4} and dec.exact


def test_tensor_rejects():
    with pytest.raises(IllegalStep):
        step("tensor", "B1", "B3")  # 7 is not a multiple of 3
    with pytest.raises(IllegalStep):
        step("tensor", "A1", "D4")  # plain A1 names no classical form


# ---------------------------------------------------------------------------
# maximal-rank catalog

MAX_PAIRS = {
    ("A2.E6", "E8"): 7, ("D8", "E8"): 3, ("A1.E7", "E8"): 3,
    ("A1.A2.A5", "E8"): 7, ("A3.D5", "E8"): 7, ("A4.A4", "E8"): 7,
    ("A1.D6", "E7"): 3, ("B4", "F4"): 3, ("A1.A3", "F4"): 5, ("A1.A1", "G2"): 1,
}


def test_max_rank_catalog_exact():
    for (sub, amb), p in MAX_PAIRS.items():
        clause = match_step(G(sub), G(amb), "max")
        assert clause.legal and clause.p_min == p
        assert step_map(EmbeddingStep("max", G(sub), G(amb))) is None
    ambients = ["E8", "E7", "E6", "F4", "G2"]
    candidates = ["A2.E6", "D8", "A1.E7", "A1.A2.A5", "A3.D5", "A4.A4",
                  "A1.D6", "B4", "A1.A3", "A1.A1", "A2.A5", "D6", "A2.A2",
                  "B2.B2", "A1.C3", "C4", "A2", "A1.B4"]
    hand = {(str(normalize_type(G(s))), a) for (s, a) in
            [(s, a) for (s, a) in MAX_PAIRS]}
    got = set()
    for amb in ambients:
        for sub in candidates:
            ok = match_step(G(sub), G(amb), "max")
            if ok.legal:
                got.add((str(normalize_type(G(sub))), amb))
    assert got == hand


def test_max_rank_rejects():
    m = match_step(G("A2.A5"), G("E7"), "max")
    assert (m.legal, m.reason) == (False, "not a listed maximal-rank pair")


# ---------------------------------------------------------------------------
# composition and chains

def test_compose_identity_and_associativity():
    f = step("auto", "C2", "A3")
    assert compose(identity_map(G("A3")), f).matrix == f.matrix
    assert compose(f, identity_map(G("C2"))).matrix == f.matrix
    m1 = step("class", "D4", "B4")  # SO8 in SO9
    m2 = step("auto", "G2", "D4")
    m3 = diag("G2", "G2")
    left = compose(compose(m1, m2), m3)
    right = compose(m1, compose(m2, m3))
    assert left.matrix == right.matrix
    with pytest.raises(TypeMismatch):
        compose(m2, m1)


def test_sequential_equals_composed_restriction():
    # partial chain of an F4-ambient row: G2 -auto-> D4 -class-> B4
    m1 = step("class", "D4", "B4")
    m2 = step("auto", "G2", "D4")
    b4 = build_root_datum("B4")
    chi = dual_weyl_character(b4, (0, 0, 0, 1))  # 16-dim spin
    seq = restrict_character(restrict_character(chi, m1), m2)
    comp = restrict_character(chi, compose(m1, m2))
    assert seq == comp
    assert comp.dim() == chi.dim()


def test_chain_restriction_map():
    steps = (
        EmbeddingStep("auto", G("G2"), G("D4")),
        EmbeddingStep("levi", G("D4"), G("E8")),
    )
    total = chain_restriction_map(steps)
    assert normalize_type(total.source) == G("E8")
    assert normalize_type(total.target) == G("G2")
    # the shipped g2 row A1: its legal max step carries no weight map
    with_max = (EmbeddingStep("levi", G("A1"), G("A1.A1")),
                EmbeddingStep("max", G("A1.A1"), G("G2")))
    assert chain_restriction_map(with_max) is None


def test_restriction_rejects_wrong_ambient():
    m = identity_map(G("A2"))
    with pytest.raises(AmbientMismatch):
        image(m, (1, 0, 0))
    short = FormalCharacter(G("A2"), {(1, 0, 0): 1})
    with pytest.raises(AmbientMismatch):
        restrict_character(short, m)
    b2 = dual_weyl_character(build_root_datum("B2"), (1, 0))
    with pytest.raises(AmbientMismatch):
        restrict_character(b2, m)


def _pushforward(matrix, support):
    """Per-weight ``mat_vec`` pushforward, keyed in first-reached order."""
    out = {}
    for w, mult in support.items():
        v = mat_vec(matrix, w)
        out[v] = out.get(v, 0) + mult
    return out


def _check_kernel(m, support):
    """``images``, the one-weight helper ``image`` and ``restrict_character``
    against ``mat_vec``."""
    assert list(m.images(support)) == [mat_vec(m.matrix, w) for w in support]
    assert [image(m, w) for w in support] == [mat_vec(m.matrix, w) for w in support]
    expected = _pushforward(m.matrix, support)
    got = restrict_character(FormalCharacter(m.source, dict(support)), m).support
    assert list(got.items()) == list(expected.items())


KERNEL_SUPPORT = {w: 1 + sum(map(abs, w)) for w in itertools.product(range(-2, 3), repeat=3)}


@pytest.mark.parametrize("matrix", [
    ((0, 0, 0), (1, 0, 0)),  # an all-zero row
    ((0, 0, 0), (0, 0, 0)),  # the zero map: every row is all-zero
    ((-1, 0, 0), (0, -1, 1)),  # -1 alone and after a +1
    ((2, 0, 1), (0, 2, 0)),  # 2 alone and next to a +1
    ((-3, 0, 0), (1, -3, -1)),  # -3 alone and between +1 and -1
    ((-1, -1, -1), (-3, 2, -1)),  # no positive term / one positive among negatives
])
def test_images_matches_mat_vec(matrix):
    _check_kernel(WeightMap(G("T3"), G("T2"), matrix), KERNEL_SUPPORT)


def test_images_of_a_map_onto_rank_zero():
    m = WeightMap(G("T3"), GroupType(()), ())
    assert list(m.images(KERNEL_SUPPORT)) == [()] * len(KERNEL_SUPPORT)
    assert image(m, (1, 2, 3)) == ()


def test_images_of_no_weights():
    m = WeightMap(G("T3"), G("T2"), ((1, 0, 0), (0, 2, -1)))
    assert list(m.images(())) == []
    assert restrict_character(FormalCharacter(G("T3"), {}), m).support == {}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_images_matches_mat_vec_on_random_matrices(data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    coef = st.integers(-3, 3)
    matrix = tuple(tuple(data.draw(coef) for _ in range(cols)) for _ in range(rows))
    weights = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * cols), max_size=30))
    support = {w: data.draw(st.integers(1, 5)) for w in weights}
    _check_kernel(WeightMap(G(f"T{cols}"), G(f"T{rows}"), matrix), support)


@pytest.mark.parametrize("bad", [(1, 0), (1, 0, 0, 0)])
def test_kernel_rejects_shorter_and_longer_weights(bad):
    m = WeightMap(G("T3"), G("T2"), ((1, 0, 0), (0, -1, 2)))
    message = f"weight of length {len(bad)} under a map from T3"
    with pytest.raises(AmbientMismatch, match=message):
        image(m, bad)
    with pytest.raises(AmbientMismatch, match=message):
        list(m.images([(0, 0, 0), bad]))
    with pytest.raises(AmbientMismatch, match=message):
        restrict_character(FormalCharacter(G("T3"), {(0, 0, 0): 1, bad: 1}), m)


@pytest.mark.parametrize("name", ["e8", "e7", "e6", "f4", "g2"])
def test_restriction_matches_brute_force_pushforward(shipped_tables, name):
    """The adjoint character pushed along every shipped chain map agrees with a
    per-weight ``linalg.mat_vec`` pushforward and keeps its dimension.

    A chain with a map-less max-rank step contributes the map of its steps
    below the first such step, so that G2, whose chains all end in one, is
    covered too.  Such a map may start at a product group, whose adjoint
    character is built from its roots; for a simple group it must equal
    nabla of the highest root."""
    maps = [m for m in (chain_restriction_map(itertools.takewhile(
                            lambda s: s.tag != "max", r.chain))
                        for r in shipped_tables[name] if not r.is_torus)
            if m is not None]
    assert maps
    for m in maps:
        rd = build_root_datum(m.source)
        roots = [*rd.positive_roots, *(tuple(-x for x in a) for a in rd.positive_roots)]
        adj = FormalCharacter(rd.gtype, {**dict.fromkeys(roots, 1), (0,) * rd.rank: rd.rank})
        if len(rd.gtype.factors) == 1:
            assert dual_weyl_character(rd, rd.highest_roots[0]) == adj
        expected = _pushforward(m.matrix, adj.support)
        r = restrict_character(adj, m)
        assert r.ambient == normalize_type(m.target)
        assert r.support == expected
        assert list(r.support) == list(expected)
        assert r.dim() == adj.dim() == 2 * len(rd.positive_roots) + rd.rank


def test_step_map_alias():
    m = step_map(EmbeddingStep("alias", G("A1.A1"), G("D2")))
    assert m.matrix == ((1, 0), (0, 1))
    # a respelling names the same group: the identity on normalized coordinates
    m2 = step_map(EmbeddingStep("alias", G("B2"), G("C2")))
    assert m2.matrix == ((1, 0), (0, 1))


def test_legality_examples():
    assert match_step(G("B1.B6"), G("D8"), "class").legal
    assert match_step(G("G2"), G("D4"), "auto").legal
    assert not match_step(G("G2"), G("E8"), "levi").legal
    assert match_step(G("B6"), G("B1.B6"), "levi").legal
    assert match_step(G("A1.A1.A1"), G("E8"), "levi").legal
    assert not match_step(G("G2.G2.G2"), G("E8"), "levi").legal
    assert match_step(G("A1.A2.A3"), G("E7"), "levi").legal


def test_restrict_preserves_dimension():
    for sub, amb, tag in [
        ("B2", "B7", "tensor"), ("G2", "D4", "auto"),
        ("B3.B4", "D8", "class"), ("A1", "A5", "resirr"),
    ]:
        m = step_map(EmbeddingStep(tag, G(sub), G(amb)))
        rd = build_root_datum(amb)
        lam = tuple(1 if i == 0 else 0 for i in range(rd.rank))
        chi = dual_weyl_character(rd, lam)
        assert restrict_character(chi, m).dim() == chi.dim()


def test_three_step_sequential_equals_composed():
    steps = [
        step_map(EmbeddingStep("tensor", G("B2.D1"), G("B2.D3"))),
        step_map(EmbeddingStep("levi", G("B2.D3"), G("B2.D3.B2"))),
        step_map(EmbeddingStep("class", G("B2.D3.B2"), G("D8"))),
    ]
    d8 = build_root_datum("D8")
    chi = dual_weyl_character(d8, fw(8, 0))
    seq = chi
    for m in reversed(steps):
        seq = restrict_character(seq, m)
    total = compose(compose(steps[2], steps[1]), steps[0])
    assert restrict_character(chi, total) == seq
    assert seq.dim() == chi.dim()


@pytest.fixture()
def fresh_levi_cache():
    emb.match_step.cache_clear()
    yield
    emb.match_step.cache_clear()


def test_levi_classifier_bug_propagates(monkeypatch, fresh_levi_cache):
    """A failed subdiagram classification is a bug, not a non-matching subset."""
    def broken(cartan, nodes):
        raise AssertionError("subdiagram classification failed near nodes [0]")

    monkeypatch.setattr(emb, "_classify_nodes", broken)
    with pytest.raises(AssertionError, match="classification failed"):
        match_step(G("A1"), G("A2"), "levi")


def test_levi_step_builds_no_root_datum(fresh_levi_cache):
    """The Levi clause reads the ambient's Cartan matrix only: matching and
    building a step into a fresh product ambient build no root datum."""
    rootsystem._datum_cache.cache_clear()
    rootsystem.cartan_matrix.cache_clear()
    assert match_step(G("A1.A5.T1"), G("A1.E7"), "levi").legal
    m = step("levi", "A1.A5.T1", "A1.E7")
    assert (len(m.matrix), len(m.matrix[0])) == (7, 8)
    assert rootsystem._datum_cache.cache_info().currsize == 0


def test_levi_skips_unknown_subdiagrams(monkeypatch, fresh_levi_cache):
    def unknown(cartan, nodes):
        raise UnknownType("not a Dynkin diagram")

    monkeypatch.setattr(emb, "_classify_nodes", unknown)
    m = match_step(G("A1"), G("A2"), "levi")
    assert (m.legal, m.reason) == (False, "no Levi subdiagram matches")


@pytest.mark.parametrize("amb", CLASSIFIED_DIAGRAMS)
def test_levi_match_equals_the_unscreened_search(amb, fresh_levi_cache):
    """Legality, reason and payload of the Levi clause equal the unscreened
    search's: for every type a node subset of ``amb`` classifies to, alone
    and with one more torus rank than the corank leaves, and for subs that
    match nothing."""
    amb = G(amb)
    cartan = rootsystem.cartan_matrix(amb)
    subs = {G("G2"), G("B3"), G("A4.A4"), G("A1.A1.A1.A1.A1"), G("E6"), G("D4")}
    for nodes in itertools.product((0, 1), repeat=len(cartan)):
        comps = rootsystem._classify_nodes(cartan, [i + 1 for i, bit in enumerate(nodes) if bit])
        sub = GroupType(tuple(st for st, _ in comps))
        subs |= {sub, GroupType((*sub.factors, SimpleType("T", len(cartan) - sub.rank + 1)))}
    for sub in subs:
        assert match_step(sub, amb, "levi") == levi_oracle(sub, amb), (sub, amb)


def test_levi_screen_classifies_few_subsets(shipped_tables, monkeypatch, fresh_levi_cache):
    """Verifying the five shipped tables classifies at most 120 node subsets
    (407 without the component-size screen)."""
    calls = []

    def counted(cartan, nodes):
        calls.append(nodes)
        return rootsystem._classify_nodes(cartan, nodes)

    monkeypatch.setattr(emb, "_classify_nodes", counted)
    for recs in shipped_tables.values():
        assert all(verify_record(rec).passed for rec in recs)
    assert 0 < len(calls) <= 120


@pytest.mark.parametrize("tag,sub,amb", [
    ("levi", "G2", "E8"),
    ("diag", "A2", "A1.A1"),
    ("alias", "A2", "B2"),
    ("auto", "G2", "E8"),
    ("class", "G2", "D4"),
    ("max", "A1", "G2"),
    ("resirr", "B2", "A4"),
    ("tensor", "A1", "D4"),
    ("bogus", "A1", "A1"),
])
def test_step_map_illegal_step_per_tag(tag, sub, amb):
    """step_map raises from the one legality gate, check_step: a rejected step
    of every clause, an unlisted max pair and an unknown tag raise IllegalStep
    with its reason."""
    reason = match_step(G(sub), G(amb), tag).reason
    with pytest.raises(IllegalStep) as exc:
        step(tag, sub, amb)
    assert str(exc.value) == f"({sub}, {amb}): {reason}"


@pytest.mark.parametrize("chain", [
    (EmbeddingStep("auto", G("C2"), G("A3"), 7),),
    # p>2 names the prime 3, but the clause has no bound (minimal prime 1)
    (EmbeddingStep("auto", G("C2"), G("A3"), 2),),
    # under a max step, where no map is built
    (EmbeddingStep("class", G("B1.B6"), G("D8"), 4), EmbeddingStep("max", G("D8"), G("E8"), 2)),
])
def test_annotation_disagreeing_with_the_catalog_is_illegal(chain):
    """check_step rejects a p>k annotation whose least prime is not the
    clause's minimal prime, and the map builders raise from that verdict."""
    bad = chain[0]
    verdict = check_step(bad)
    assert not verdict.legal
    message = (f"({bad.sub}, {bad.amb}): annotated p>{bad.p_bound} disagrees "
               f"with the catalog bound (minimal prime {verdict.p_min})")
    with pytest.raises(IllegalStep) as exc:
        chain_restriction_map(chain)
    assert str(exc.value) == message
    with pytest.raises(IllegalStep):
        step_map(bad)


def test_cached_step_match_is_frozen():
    """match_step's cache hands one StepMatch to every caller."""
    m = match_step(G("C2"), G("A3"), "auto")
    assert m is match_step(G("C2"), G("A3"), "auto")
    with pytest.raises(AttributeError):
        m.legal = False
