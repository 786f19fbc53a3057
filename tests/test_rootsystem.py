import hashlib
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dominant_representative, fraction_inverse, orbit, subdiagram_type
from donkin.characters import dual_weyl_character
from donkin.embeddings import (
    EmbeddingStep,
    _eps_to_fw,
    normalization_map,
    restrict_character,
    step_map,
)
from donkin.errors import BadIndex, DimensionMismatch, NotDominant, UnknownType
from donkin.linalg import adjugate, mat_mul
from donkin.rootsystem import (
    GroupType,
    SimpleType,
    _simple_cartan,
    build_root_datum,
    highest_roots,
    is_dominant,
    normalize_type,
    weyl_dim,
    weyl_orbit,
)

ALL_SIMPLE = (
    "A1 A2 A3 A4 A5 A6 A7 A8 B2 B3 B4 B5 B6 B7 B8 C3 C4 C5 C6 C7 C8 "
    "D4 D5 D6 D7 D8 E6 E7 E8 F4 G2".split())

COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
          "C": lambda n: n * n, "D": lambda n: n * (n - 1),
          "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
          "F": lambda n: 24, "G": lambda n: 6}


# every simple type plus products with torus, repeated and mixed-length factors
ROOT_TYPES = ALL_SIMPLE + ["A1.B3.T2", "E6.A2", "D4.D4", "B2.G2.A1", "T3"]

# sha256 of the lines "name roots coroots" over ROOT_TYPES: pins the order of
# positive_roots (factor by factor, by height, ties by root coordinates), which
# _root_orbits, highest_roots and every printed decomposition see
ROOT_DATA_SHA256 = "e1b15ef4e8e794c793159c99280511d19904ccfbf602407c8cf43a25cd33cf5a"


@pytest.mark.parametrize("name", ROOT_TYPES)
def test_coroots_match_the_gram_matrix(name):
    """<beta, beta^vee> = 2, and beta^vee = 2 G beta / (beta, beta) as a
    functional on fw coordinates, in Fractions from ``gram``: a check that
    shares nothing with the reflection walk."""
    rd = build_root_datum(name)
    assert len(rd.positive_coroots) == len(rd.positive_roots)
    for beta, cv in zip(rd.positive_roots, rd.positive_coroots):
        assert rd.pairing(beta, cv) == 2
        g_beta = [sum(map(mul, row, beta)) for row in rd.gram]
        norm = sum(map(mul, beta, g_beta))
        assert list(cv) == [Fraction(2 * x, norm) for x in g_beta]


def test_root_data_digest():
    text = "".join(f"{name} {rd.positive_roots!r} {rd.positive_coroots!r}\n"
                   for name in ROOT_TYPES for rd in [build_root_datum(name)])
    assert hashlib.sha256(text.encode()).hexdigest() == ROOT_DATA_SHA256


def reflection_closure_count(rd):
    """Independent oracle: |roots| by closing the simple roots under all
    simple reflections (every root is Weyl-conjugate to a simple root)."""
    simple = [tuple(rd.cartan[r][i] for r in range(rd.rank))
              for i in rd.simple_indices()]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in rd.simple_indices():
                u = rd.reflect(v, i)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("name", ALL_SIMPLE)
def test_positive_root_counts(name):
    rd = build_root_datum(name)
    st_ = rd.gtype.factors[0]
    assert len(rd.positive_roots) == COUNTS[st_.letter](st_.rank)
    assert reflection_closure_count(rd) == 2 * len(rd.positive_roots)


@pytest.mark.parametrize("name", ALL_SIMPLE)
def test_cartan_entries(name):
    rd = build_root_datum(name)
    for i in range(rd.rank):
        assert rd.cartan[i][i] == 2
        for j in range(rd.rank):
            if i != j:
                assert rd.cartan[i][j] in (0, -1, -2, -3)


def test_build_examples():
    assert build_root_datum("A1").cartan == ((2,),)
    assert len(build_root_datum("G2").positive_roots) == 6
    e8 = build_root_datum("E8")
    assert len(e8.positive_roots) == 120
    assert e8.group_dimension() == 248


def test_product_and_torus_datum():
    rd = build_root_datum("A1.B6")
    assert rd.rank == 7
    assert len(rd.positive_roots) == 1 + 36
    rdt = build_root_datum("B2.T1")
    assert rdt.rank == 3
    assert rdt.torus == (False, False, True)
    assert rdt.rho == (1, 1, 0)
    assert all(row[2] == 0 for row in rdt.cartan)


def test_unknown_types():
    for bad in ("E9", "F3", "G3", "H2", "A0", "B0", "C0", "D0", "T0"):
        with pytest.raises(UnknownType):
            normalize_type(GroupType.parse(bad))


def test_normalize_examples():
    assert str(normalize_type(GroupType.parse("B1.B6"))) == "A1.B6"
    assert str(normalize_type(GroupType.parse("D2"))) == "A1.A1"
    assert str(normalize_type(GroupType.parse("D3.B1"))) == "A3.A1"
    assert str(normalize_type(GroupType.parse("C2"))) == "B2"
    assert str(normalize_type(GroupType.parse("D1.T1"))) == "T2"
    assert str(normalize_type(GroupType.parse("E7.T1"))) == "E7.T1"


@given(st.lists(st.sampled_from(
    ["A1", "A3", "B1", "B2", "C1", "C2", "C3", "D1", "D2", "D3", "D4",
     "E6", "F4", "G2", "T1", "T2"]), min_size=1, max_size=5), st.data())
def test_normalize_idempotent_and_rank_preserving(letters, data):
    gt = GroupType.parse(".".join(letters))
    once = normalize_type(gt)
    assert normalize_type(once) == once
    assert once.rank == gt.rank
    # the written coordinates go onto the normal form's by a 0/1 permutation
    conv = normalization_map(gt)
    assert conv.target == once
    assert sorted(conv.matrix, reverse=True) == [
        tuple(int(i == j) for j in range(gt.rank)) for i in range(gt.rank)]
    # a respelling names the same group: alias steps both ways fix nabla(lam)
    i = data.draw(st.integers(0, gt.rank - 1))
    lam = tuple(int(j == i) for j in range(gt.rank))
    chi = dual_weyl_character(build_root_datum(once), lam)
    for sub, amb in ((gt, once), (once, gt)):
        assert restrict_character(chi, step_map(EmbeddingStep("alias", sub, amb))) == chi


def test_dominance():
    a2 = build_root_datum("A2")
    assert is_dominant(a2, (0, 0))
    assert not is_dominant(a2, (1, -1))
    g2 = build_root_datum("G2")
    assert is_dominant(g2, g2.rho)
    with pytest.raises(DimensionMismatch):
        is_dominant(a2, (1, 2, 3))


def test_dominant_representative():
    a1 = build_root_datum("A1")
    assert dominant_representative(a1, (-3,)) == (3,)
    a2 = build_root_datum("A2")
    rep = dominant_representative(a2, (-1, 2))
    assert is_dominant(a2, rep)
    assert rep in orbit(a2, rep)
    # idempotence on already-dominant weights
    assert dominant_representative(a2, (2, 1)) == (2, 1)


@pytest.mark.parametrize("name,w", [
    ("A2", (2, -1)), ("B2", (-1, 3)), ("G2", (1, -2)), ("A1.A1", (-1, 2)),
])
def test_dominant_representative_orbit_invariant(name, w):
    rd = build_root_datum(name)
    rep = dominant_representative(rd, w)
    for v in orbit(rd, rep):
        assert dominant_representative(rd, v) == rep
    assert dominant_representative(rd, rep) == rep


def test_weyl_orbits():
    a1 = build_root_datum("A1")
    assert orbit(a1, (2,)) == ((-2,), (2,))
    a2 = build_root_datum("A2")
    assert len(orbit(a2, (1, 1))) == 6
    g2 = build_root_datum("G2")
    assert len(orbit(g2, (1, 0))) == 6
    with pytest.raises(NotDominant):
        orbit(a2, (-1, 0))


def test_orbit_size_divides_weyl_order():
    orders = {"A2": 6, "B2": 8, "G2": 12, "A3": 24}
    for name, order in orders.items():
        rd = build_root_datum(name)
        for w in [(1,) + (0,) * (rd.rank - 1), (1,) * rd.rank, (2, 1) + (0,) * (rd.rank - 2)]:
            assert order % len(orbit(rd, w)) == 0


def test_weyl_dim():
    g2 = build_root_datum("G2")
    assert weyl_dim(g2, (1, 0)) == 7
    assert weyl_dim(g2, (0, 0)) == 1
    a2 = build_root_datum("A2")
    assert weyl_dim(a2, (1, 1)) == 8
    a1 = build_root_datum("A1")
    for n in range(21):
        assert weyl_dim(a1, (n,)) == n + 1
    with pytest.raises(NotDominant):
        weyl_dim(a2, (-1, 0))


def test_highest_roots():
    assert highest_roots(build_root_datum("E8")) == ((0,) * 7 + (1,),)
    assert highest_roots(build_root_datum("G2")) == ((0, 1),)
    assert highest_roots(build_root_datum("A2")) == ((1, 1),)
    assert highest_roots(build_root_datum("F4")) == ((1, 0, 0, 0),)


@pytest.mark.parametrize("gtype, expected", [
    ("A1.A2", ((1, 1, 0), (0, 0, 2))),
    ("A1.A1", ((2, 0), (0, 2))),
    ("A1.B6", ((2, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0))),
    ("A2.T1", ((1, 1, 0),)),
    ("T2", ()),
    ("1", ()),
])
def test_highest_roots_per_factor(gtype, expected):
    rd = build_root_datum(gtype)
    assert highest_roots(rd) == expected
    # each is a root and the highest weight of its factor's adjoint module
    assert set(expected) <= set(rd.positive_roots)
    assert sum(weyl_dim(rd, hr) for hr in expected) == rd.group_dimension() - rd.gtype.torus_rank()


def test_subdiagram_types():
    e8 = build_root_datum("E8")
    assert str(subdiagram_type(e8, range(1, 8))) == "E7.T1"
    assert str(subdiagram_type(e8, range(1, 7))) == "E6.T2"
    assert str(subdiagram_type(e8, [2, 3, 4, 5])) == "D4.T4"
    assert str(subdiagram_type(e8, [1, 3, 4, 5, 6, 7, 8])) == "A7.T1"
    a3 = build_root_datum("A3")
    assert str(subdiagram_type(a3, [])) == "T3"
    f4 = build_root_datum("F4")
    assert str(subdiagram_type(f4, [2, 3, 4])) == "C3.T1"
    assert str(subdiagram_type(f4, [1, 2, 3])) == "B3.T1"
    assert str(subdiagram_type(f4, [3, 4])) == "A2.T2"
    b4 = build_root_datum("B4")
    assert str(subdiagram_type(b4, [1, 3, 4])) == "A1.B2.T1"
    d5 = build_root_datum("D5")
    assert str(subdiagram_type(d5, [2, 3, 4, 5])) == "D4.T1"
    assert str(subdiagram_type(d5, [3, 4, 5])) == "A3.T2"
    with pytest.raises(BadIndex):
        subdiagram_type(e8, [0])
    with pytest.raises(BadIndex):
        subdiagram_type(e8, [9])
    with pytest.raises(BadIndex):
        subdiagram_type(build_root_datum("B2.T1"), [3])


def test_parse_roundtrip():
    for text in ("E8", "A1.B6", "B2.T1", "1"):
        assert str(GroupType.parse(text)) == text
    assert SimpleType.parse("B12") == SimpleType("B", 12)


def test_simple_type_make_and_replace_check_the_type():
    assert SimpleType._make(("B", 3)) == SimpleType("B", 3)
    assert SimpleType("A", 1)._replace(rank=5) == SimpleType("A", 5)
    with pytest.raises(UnknownType):
        SimpleType("A", 1)._replace(rank=0)
    with pytest.raises(UnknownType):
        SimpleType._make(("Q", 3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A1.A1"]),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_dominant_representative_properties(name, w):
    rd = build_root_datum(name)
    rep = dominant_representative(rd, w)
    assert is_dominant(rd, rep)
    assert dominant_representative(rd, rep) == rep
    assert w in orbit(rd, rep)


WEYL_ORDER = {"A": lambda n: math.factorial(n + 1),
              "B": lambda n: 2 ** n * math.factorial(n),
              "C": lambda n: 2 ** n * math.factorial(n),
              "D": lambda n: 2 ** (n - 1) * math.factorial(n),
              "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
              "F": lambda n: 1152, "G": lambda n: 12, "T": lambda n: 1}


def weyl_group_order(gtype):
    """|W| of a group type, from the textbook order of each factor."""
    return math.prod(WEYL_ORDER[f.letter](f.rank) for f in gtype.factors)


@pytest.mark.parametrize("name,lam", [
    ("T1", (-2,)), ("A1", (3,)), ("G2", (1, 1)), ("G2", (0, 3)), ("A2", (1, 1)),
    ("A1.B3.T2", (2, 0, 1, 0, -3, 4)), ("B2", (1, 1)), ("A3", (1, 1, 1)),
    ("B3", (1, 1, 1)), ("C3", (2, 0, 1)), ("A5", (1, 0, 1, 0, 0)),
    ("B4", (0, 1, 0, 1)), ("C4", (1, 1, 1, 1)), ("D4", (1, 1, 1, 1)),
    ("D5", (0, 1, 0, 1, 1)), ("F4", (0, 1, 0, 1)), ("F4", (1, 1, 1, 1)),
    ("E6", (1, 0, 0, 0, 0, 1)), ("E6", (0, 1, 1, 0, 0, 0)),
    ("E7", (1, 0, 0, 0, 0, 0, 1)), ("E7", (0, 0, 1, 0, 0, 0, 1)),
    ("E8", (0,) * 8), ("E8", (0,) * 7 + (1,)), ("E8", (0,) * 6 + (1, 1)),
    ("E8", (1,) + (0,) * 6 + (1,)),
])
def test_weyl_orbit_emits_each_point_once(name, lam):
    """|orbit| = |W| / |W_lam|, where W_lam is the parabolic subgroup of the
    zero nodes of lam, with no point emitted twice: ``weyl_orbit`` counts its
    emissions and raises AssertionError at a repeated point."""
    rd = build_root_datum(name)
    points = orbit(rd, lam)
    assert len(points) == len(set(points))
    zero_nodes = [i + 1 for i in rd.simple_indices() if lam[i] == 0]
    stabiliser = subdiagram_type(rd, zero_nodes)
    assert len(points) == weyl_group_order(rd.gtype) // weyl_group_order(stabiliser)


@pytest.mark.parametrize("name", ALL_SIMPLE)
def test_simple_roots_have_height_two(name):
    """The level walk of weyl_orbit puts s_i v exactly 2 v[i] below v."""
    rd = build_root_datum(name)
    assert all(rd.height(rd._columns[i]) == 2 for i in rd.simple_indices())


@st.composite
def dominant_tables(draw, rd):
    """{dominant weight: multiplicity}, keys in a drawn (not sorted) order."""
    weight = st.tuples(*[st.integers(0, 2) if i in rd.simple_indices() else st.integers(-3, 3)
                         for i in range(rd.rank)])
    return draw(st.dictionaries(weight, st.integers(1, 5), min_size=1, max_size=6))


ORBIT_TYPES = ["A2", "G2", "B2.T1", "A1.B3.T2"]


@pytest.mark.parametrize("name", ORBIT_TYPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weyl_orbit_ignores_the_order_of_its_input(name, data):
    """The same dict in the same key order for the keys given in any order;
    a cache file hands its entries over in ascending-weight order."""
    rd = build_root_datum(name)
    table = data.draw(dominant_tables(rd))
    out = list(weyl_orbit(rd, table).items())
    for keys in (reversed(table), sorted(table)):
        assert list(weyl_orbit(rd, {mu: table[mu] for mu in keys}).items()) == out
    assert sorted(out) == sorted((w, m) for mu, m in table.items() for w in orbit(rd, mu))


@pytest.mark.parametrize("name", ORBIT_TYPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weyl_orbit_rejects_any_non_dominant_key(name, data):
    rd = build_root_datum(name)
    items = list(data.draw(dominant_tables(rd)).items())
    i = data.draw(st.sampled_from(rd.simple_indices()))
    bad = [0] * rd.rank
    bad[i] = -data.draw(st.integers(1, 3))
    items.insert(data.draw(st.integers(0, len(items))), (tuple(bad), 1))
    with pytest.raises(NotDominant):
        weyl_orbit(rd, dict(items))
    with pytest.raises(DimensionMismatch):
        weyl_orbit(rd, {(0,) * (rd.rank + 1): 1})


# ---------------------------------------------------------------------------
# the Gram matrix from the integer adjugate

@pytest.mark.parametrize("name", ROOT_TYPES)
def test_gram_matches_a_fraction_oracle(name):
    """``gram`` and ``gram_scale``: G = (A^-1)^T D on each semisimple block,
    zero on the torus, scaled by the lcm of G's denominators."""
    rd = build_root_datum(name)
    g = [[Fraction(0)] * rd.rank for _ in range(rd.rank)]
    offset = 0
    for f in rd.gtype.factors:
        if not f.is_torus:
            block, d = _simple_cartan(f.letter, f.rank)
            inv = fraction_inverse(block)
            for i in range(f.rank):
                for j in range(f.rank):
                    g[offset + i][offset + j] = inv[j][i] * d[j]
        offset += f.rank
    scale = math.lcm(*(x.denominator for row in g for x in row))
    assert rd.gram_scale == scale
    assert rd.gram == tuple(tuple(int(x * scale) for x in row) for row in g)


CARTAN_DET = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4,
              "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("mat, det", [
    *((_simple_cartan(t[0], int(t[1:]))[0], CARTAN_DET[t[0]](int(t[1:]))) for t in ALL_SIMPLE),
    # the squares of the epsilon-to-fundamental-weight maps of B, C and D
    *((_eps_to_fw(letter, n), None) for letter in "BCD" for n in range(1, 9)),
    # a zero pivot: one row swap, which flips the sign
    (((0, 1), (1, 0)), -1),
])
def test_adjugate(mat, det):
    """mat @ adj == det * I, with the known Cartan determinants."""
    got, adj = adjugate(mat)
    assert got != 0 and det in (None, got)
    n = len(mat)
    assert mat_mul(tuple(map(tuple, mat)), adj) == tuple(
        tuple(got * (i == j) for j in range(n)) for i in range(n))
    assert all(Fraction(a, got) == x for row_a, row_x in zip(adj, fraction_inverse(mat))
               for a, x in zip(row_a, row_x))


def test_adjugate_rejects_a_singular_matrix():
    with pytest.raises(ValueError):
        adjugate(((1, 2), (2, 4)))
