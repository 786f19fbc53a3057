import hashlib
import itertools
import math
import random
import textwrap
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import donkin.characters as ch
import donkin.rootsystem as rs
from conftest import (
    clear_memo,
    decomposition_character,
    dominant_representative,
    dominant_weights_below,
    exterior_power,
    external_product,
    fraction_inverse,
    interpreted_check_symmetric,
    interpreted_exterior_algebra,
    interpreted_fold,
    kernel_inputs,
    multiplicity_digest,
    orbit,
    string_freudenthal,
    tensor,
    trivial_character,
)
from donkin.characters import (
    FormalCharacter,
    decompose_dual_weyl,
    dual_weyl_character,
    exterior_algebra,
    is_restricted,
)
from donkin.embeddings import EmbeddingStep, restrict_character, step_map
from donkin.errors import AmbientMismatch, NegativeInput, NotDominant, NotSymmetric
from donkin.rootsystem import (
    GroupType,
    RootDatum,
    build_root_datum,
    is_dominant,
    weyl_dim,
)


def test_a1_three_dim():
    a1 = build_root_datum("A1")
    assert dual_weyl_character(a1, (2,)).support == {(2,): 1, (0,): 1, (-2,): 1}


def test_g2_seven_dim_against_root_enumeration():
    """Oracle: the 7-dim module's nonzero weights are exactly the short roots."""
    g2 = build_root_datum("G2")
    short = [a for a in g2.positive_roots
             if g2.scaled_inner(a, a) == min(g2.scaled_inner(b, b) for b in g2.positive_roots)]
    expected = {(0, 0): 1}
    for a in short:
        expected[a] = 1
        expected[tuple(-x for x in a)] = 1
    chi = dual_weyl_character(g2, (1, 0))
    assert chi.support == expected
    assert chi.dim() == 7


def test_a2_adjoint_against_root_enumeration():
    a2 = build_root_datum("A2")
    expected = {(0, 0): 2}
    for a in a2.positive_roots:
        expected[a] = 1
        expected[tuple(-x for x in a)] = 1
    chi = dual_weyl_character(a2, (1, 1))
    assert chi.support == expected
    assert chi.dim() == 8
    assert chi.support[(0, 0)] == 2


def test_not_dominant_raises():
    a2 = build_root_datum("A2")
    with pytest.raises(NotDominant):
        dual_weyl_character(a2, (1, -1))


SAMPLE = [
    ("A1", (4,)), ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 1)),
    ("A3", (1, 0, 1)), ("B3", (0, 1, 0)), ("C3", (1, 0, 1)),
    ("D4", (0, 1, 0, 0)), ("F4", (0, 0, 0, 1)), ("A1.B2", (2, 0, 1)),
    ("B2.T1", (1, 0, 5)),
]


@pytest.mark.parametrize("name,lam", SAMPLE)
def test_dimension_matches_weyl_formula(name, lam):
    rd = build_root_datum(name)
    assert dual_weyl_character(rd, lam).dim() == weyl_dim(rd, lam)


@pytest.mark.parametrize("name,lam", SAMPLE)
def test_weyl_invariance(name, lam):
    rd = build_root_datum(name)
    chi = dual_weyl_character(rd, lam)
    for i in rd.simple_indices():
        reflected = {rd.reflect(w, i): m for w, m in chi.support.items()}
        assert reflected == chi.support


def textbook_freudenthal(rd, lam):
    """Oracle: Freudenthal's formula over all weights, in Fractions via
    rd.scaled_inner (the inner product's common scale cancels in m(mu)).

    (<lam+rho, lam+rho> - <mu+rho, mu+rho>) m(mu)
        = 2 sum_{alpha > 0} sum_{k >= 1} <mu + k alpha, alpha> m(mu + k alpha).
    Weights are found layer by layer, lam minus d simple roots at depth d, so
    every mu + k alpha is known before mu; no Weyl symmetry is used.
    """
    def plus(v, w, k=1):
        return tuple(a + k * b for a, b in zip(v, w))

    def norm(v):
        return rd.scaled_inner(plus(v, rd.rho), plus(v, rd.rho))

    simple_roots = [tuple(row[i] for row in rd.cartan) for i in rd.simple_indices()]
    lam = tuple(lam)
    mults = {lam: 1}
    layer = [lam]
    while layer:
        below = {plus(mu, a, -1) for mu in layer for a in simple_roots}
        layer = []
        for mu in below:
            gap = norm(lam) - norm(mu)
            if gap == 0:
                continue  # among weights, |mu + rho| = |lam + rho| only at mu = lam
            total = Fraction(0)
            for alpha in rd.positive_roots:
                k = 1
                while plus(mu, alpha, k) in mults:
                    nu = plus(mu, alpha, k)
                    total += mults[nu] * rd.scaled_inner(nu, alpha)
                    k += 1
            m = 2 * total / gap
            assert m.denominator == 1
            if m:
                mults[mu] = int(m)
                layer.append(mu)
    return {mu: m for mu, m in mults.items()
            if all(mu[i] >= 0 for i in rd.simple_indices())}


@pytest.mark.parametrize("name,lam", [
    ("G2", (3, 2)), ("B3", (1, 1, 1)), ("C3", (1, 0, 1)), ("D4", (1, 1, 1, 1)),
    ("F4", (0, 0, 1, 1)), ("E6", (1, 0, 0, 0, 0, 1)), ("A1.B2", (2, 0, 1)),
    ("B2.T1", (1, 0, 5)), ("E8", (0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_freudenthal_matches_textbook_oracle(name, lam):
    rd = build_root_datum(name)
    assert ch._freudenthal(rd, lam) == textbook_freudenthal(rd, lam)


@pytest.mark.parametrize("name,lam", [
    ("E6", (1, 0, 0, 0, 0, 1)), ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1)), ("D4", (0, 1, 0, 0)), ("F4", (0, 0, 0, 2)),
    ("B5", (0, 0, 0, 0, 2)), ("A1.B3.T2", (2, 0, 0, 2, 1, -3)), ("B2.T1", (0, 2, 4)),
    ("T1", (-2,)),
])
def test_freudenthal_matches_string_oracle(name, lam):
    """Weights with large stabilizers W_J, whose root orbits are large, and
    torus types: the orbit sums give what one string per positive root does."""
    rd = build_root_datum(name)
    assert ch._freudenthal(rd, lam) == string_freudenthal(rd, lam)


def racah_multiplicities(cartan, lam):
    """Oracle from the Cartan matrix alone, by Racah's formula: for dominant
    mu != lam, m(mu) = -sum over v in W rho, v != rho, of eps(v) m(mu + rho - v)
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    §24), which reads ch * A_rho = A_{lam + rho} at e^{mu + rho}.

    W rho is walked down from rho by the simple reflections
    u_j = v_j - v_i A[j][i], with eps = (-1)^depth, and every argument is
    folded to the dominant chamber by the same reflections.  The dominant
    mu <= lam are lam - A k for integer k between 0 and A^-1 lam, taken by
    ascending sum(k), so each mu + rho - v (mu plus a nonzero sum of
    positive roots) is done before mu.  No Gram matrix, root string or
    positive root is used, so this shares no code with the root walk or
    with Freudenthal.
    """
    n = len(cartan)

    def reflect(v, i):
        c = v[i]
        return tuple([x - c * cartan[j][i] for j, x in enumerate(v)])

    def fold(v):
        while True:
            for i, c in enumerate(v):
                if c < 0:
                    v = reflect(v, i)
                    break
            else:
                return v

    rho = (1,) * n
    sign = {rho: 1}
    queue = [rho]
    for v in queue:
        for i in range(n):
            if v[i] > 0 and (u := reflect(v, i)) not in sign:
                sign[u] = -sign[v]
                queue.append(u)
    del sign[rho]
    top = [math.floor(sum(map(mul, row, lam))) for row in fraction_inverse(cartan)]
    below = []
    for k in itertools.product(*(range(t + 1) for t in top)):
        mu = tuple(x - sum(map(mul, row, k)) for x, row in zip(lam, cartan))
        if min(mu) >= 0:
            below.append((sum(k), mu))
    below.sort()
    mults = {tuple(lam): 1}
    for _, mu in below[1:]:
        m = -sum(eps * mults.get(fold(tuple([x + 1 - y for x, y in zip(mu, v)])), 0)
                 for v, eps in sign.items())
        if m:
            mults[mu] = m
    return mults


@pytest.mark.parametrize("name,lam", [
    ("A1", (3,)), ("A2", (2, 1)), ("A3", (1, 1, 1)), ("A4", (1, 0, 1, 1)), ("B2", (2, 1)),
    ("B3", (1, 1, 1)), ("B4", (0, 1, 0, 1)), ("C3", (2, 0, 1)), ("C4", (1, 1, 0, 1)),
    ("D4", (1, 1, 1, 1)), ("G2", (3, 2)), ("F4", (0, 0, 1, 1)), ("F4", (1, 1, 1, 1)),
])
def test_freudenthal_matches_racah_oracle(name, lam):
    """Every simple type of rank at most 4, and G2."""
    rd = build_root_datum(name)
    assert ch._freudenthal(rd, lam) == racah_multiplicities(rd.cartan, lam)


@pytest.mark.parametrize("name,lam", [
    ("G2", (4, 3)), ("B3", (2, 0, 3)), ("D4", (2, 0, 1, 1)), ("F4", (1, 0, 1, 2)),
    ("E7", (0, 1, 0, 0, 0, 0, 2)), ("A1.B3.T2", (2, 0, 0, 2, 1, -3)),
])
def test_dominant_weights_below_matches_the_sorted_closure(name, lam):
    """The same list in the same order as a plain closure sorted by
    descending height, ties by ascending weight."""
    rd = build_root_datum(name)
    assert ch._dominant_weights_below(rd, lam) == dominant_weights_below(rd, lam)


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "D4", "F4", "A1.B3.T2", "E6", "E8"])
def test_root_orbits_plan(name):
    """For every wall set J, against the W_J-orbits of all roots closed under
    the s_j, j in J: one plan entry per orbit that holds a positive root,
    its beta the orbit's J-dominant member, weighted |O| inside Phi_J (an
    orbit with a negative root) and 2|O| outside."""
    rd = build_root_datum(name)
    roots = rd.positive_roots
    simple = rd.simple_indices()
    for walls in itertools.chain.from_iterable(
            itertools.combinations(simple, r) for r in range(len(simple) + 1)):
        plan, orbit_of = ch._root_orbits(rd, walls)
        seen = set()
        for n, alpha in enumerate(roots):
            if alpha in seen:
                continue
            orbit = reflection_bfs_orbit(rd, alpha, walls)
            seen |= orbit
            b, weight = plan[orbit_of[n]]
            assert roots[b] in orbit and all(roots[b][j] >= 0 for j in walls)
            assert {orbit_of[k] for k, v in enumerate(roots) if v in orbit} == {orbit_of[n]}
            assert weight == (len(orbit) if orbit - set(roots) else 2 * len(orbit))
        assert sorted(set(orbit_of)) == list(range(len(plan)))


# Every simple type of rank <= 4, plus G2, F4 and E6, each with a bound on
# the coordinates of the highest weights drawn.
SIMPLE_TYPES = [("A1", 8), ("A2", 4), ("A3", 2), ("A4", 1), ("B2", 4), ("B3", 2), ("B4", 1),
                ("C3", 2), ("C4", 1), ("D4", 1), ("G2", 3), ("F4", 1), ("E6", 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_freudenthal_passes_the_weyl_dimension_check(data):
    """sum of m(mu) |W mu| over the dominant mu is the Weyl dimension."""
    name, bound = data.draw(st.sampled_from(SIMPLE_TYPES))
    rd = build_root_datum(name)
    lam = data.draw(_dominant_weights(rd, bound))
    assert ch._cached_entry_ok(rd, lam, ch._freudenthal(rd, lam))


@pytest.mark.parametrize("name, count, digest", [
    ("E7", 1464, "fea3bd1b0947b6817e0c4c703e21dad1b7c7e8dfb38d7e6e2782cf46234dd8fe"),
    ("E8", 14869, "683217a25990db568ff1c7430297109fff8101e76ba542a19f961360065456f8"),
], ids=["E7", "E8"])
def test_rho_multiplicities_are_frozen(name, count, digest):
    """The dominant multiplicities of nabla(rho) for E7 and E8, as the
    one-string-per-root recursion gave them."""
    rd = build_root_datum(name)
    mults = ch._freudenthal(rd, rd.rho)
    assert len(mults) == count
    assert multiplicity_digest(mults) == digest


def reflection_bfs_orbit(rd, lam, indices=None):
    """Oracle: close {lam} under the simple reflections s_i, i in ``indices``
    (every simple reflection by default)."""
    indices = rd.simple_indices() if indices is None else indices
    seen = {tuple(lam)}
    frontier = [tuple(lam)]
    while frontier:
        frontier = [u for v in frontier for i in indices
                    if (u := rd.reflect(v, i)) not in seen and not seen.add(u)]
    return seen


@pytest.mark.parametrize("name,lam", SAMPLE)
def test_weyl_orbit_matches_reflection_bfs(name, lam):
    rd = build_root_datum(name)
    points = orbit(rd, lam)
    assert list(points) == sorted(points)
    assert set(points) == reflection_bfs_orbit(rd, lam)
    assert all(dominant_representative(rd, w) == lam for w in points)


@pytest.mark.parametrize("name", ["A2", "G2", "B2.T1", "A1.B3.T2"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_dual_weyl_character_support_is_in_print_order(name, data):
    """The support's keys go by descending height, ties by ascending weight,
    the order in which ``char`` prints them."""
    rd = build_root_datum(name)
    lam = data.draw(_dominant_weights(rd, 2))
    keys = list(dual_weyl_character(rd, lam).support)
    assert keys == sorted(keys, key=lambda w: (-rd.height(w), w))


def test_e8_adjoint():
    e8 = build_root_datum("E8")
    chi = dual_weyl_character(e8, (0,) * 7 + (1,))
    assert chi.dim() == 248 == weyl_dim(e8, (0,) * 7 + (1,))
    assert chi.support[(0,) * 8] == 8


def test_tensor():
    a1 = build_root_datum("A1")
    v = dual_weyl_character(a1, (1,))
    assert tensor(v, trivial_character("A1")) == v
    cg = decompose_dual_weyl(a1, tensor(v, v))
    assert cg.terms == {(2,): 1, (0,): 1} and cg.exact
    c3 = dual_weyl_character(a1, (2,))
    assert tensor(v, c3).dim() == v.dim() * c3.dim()
    with pytest.raises(AmbientMismatch):
        tensor(v, trivial_character("A2"))


def test_exterior_basics():
    a2 = build_root_datum("A2")
    chi = dual_weyl_character(a2, (1, 0))
    assert exterior_power(chi, 0) == trivial_character("A2")
    # top power is the determinant line: the sum of all weights
    top = exterior_power(chi, chi.dim())
    total = [0, 0]
    for w, m in chi.support.items():
        total[0] += m * w[0]
        total[1] += m * w[1]
    assert top.support == {tuple(total): 1}
    a1 = build_root_datum("A1")
    v = dual_weyl_character(a1, (1,))
    assert exterior_power(v, 2).support == {(0,): 1}
    with pytest.raises(NegativeInput):
        exterior_power(FormalCharacter(GroupType.parse("A1"), {(0,): -1}), 1)
    with pytest.raises(NegativeInput):
        exterior_power(v, -1)


@pytest.mark.parametrize("name,lam", [("A1", (3,)), ("A2", (1, 1)), ("B2", (1, 0))])
def test_exterior_dimensions(name, lam):
    rd = build_root_datum(name)
    chi = dual_weyl_character(rd, lam)
    d = chi.dim()
    assert sum(exterior_power(chi, k).dim() for k in range(d + 1)) == 2 ** d
    for k in range(d + 2):
        assert exterior_power(chi, k).dim() == math.comb(d, k)
    assert exterior_algebra(chi).dim() == 2 ** d


@pytest.mark.parametrize("name,lam", [
    ("A1", (5,)), ("A2", (1, 1)), ("A1", (11,)), ("B2", (1, 1)), ("A3", (0, 1, 0)),
])
def test_lambda_ring_consistency(name, lam):
    """The subset expansion agrees with brute-force k-subset enumeration on
    dimension <= 16."""
    rd = build_root_datum(name)
    chi = dual_weyl_character(rd, lam)
    assert chi.dim() <= 16
    copies = [w for w, m in chi.support.items() for _ in range(m)]
    for k in range(chi.dim() + 1):
        brute = {}
        for subset in itertools.combinations(copies, k):
            u = tuple(map(sum, zip(*subset))) if subset else (0,) * rd.rank
            brute[u] = brute.get(u, 0) + 1
        assert exterior_power(chi, k).support == brute


def test_exterior_of_27_dim_module():
    """A2 (2,2) is 27-dimensional: the algebra is the sum of the powers, each
    power has binomial dimension, and the decomposition accounts for 2**27 by
    the Weyl dimension formula."""
    a2 = build_root_datum("A2")
    chi = dual_weyl_character(a2, (2, 2))
    d = chi.dim()
    assert d == 27
    total = {}
    for k in range(d + 1):
        power = exterior_power(chi, k)
        assert power.dim() == math.comb(d, k)
        for w, m in power.support.items():
            total[w] = total.get(w, 0) + m
    ea = exterior_algebra(chi)
    assert ea.support == total
    dec = decompose_dual_weyl(a2, ea)
    assert dec.exact
    assert sum(m * weyl_dim(a2, lam) for lam, m in dec.terms.items()) == 2 ** d


def test_exterior_algebra_rejects_negative_input():
    with pytest.raises(NegativeInput):
        exterior_algebra(FormalCharacter(GroupType.parse("A1"), {(1,): 1, (0,): -1}))


def test_decompose_single_module():
    g2 = build_root_datum("G2")
    chi = dual_weyl_character(g2, (2, 1))
    dec = decompose_dual_weyl(g2, chi)
    assert dec.terms == {(2, 1): 1} and dec.exact


def test_decompose_example():
    a1 = build_root_datum("A1")
    dec = decompose_dual_weyl(
        a1, FormalCharacter(GroupType.parse("A1"), {(2,): 1, (0,): 2, (-2,): 1}))
    assert dec.terms == {(2,): 1, (0,): 1} and dec.exact


def test_decompose_reconstruction_roundtrip():
    rng = random.Random(7)
    for name in ("A1", "A2", "B2"):
        rd = build_root_datum(name)
        fws = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
        terms = {}
        for _ in range(3):
            lam = tuple(sum(rng.randint(0, 2) * f[i] for f in fws)
                        for i in range(rd.rank))
            terms[lam] = terms.get(lam, 0) + rng.randint(1, 3)
        chi_support = {}
        for lam, m in terms.items():
            for w, mw in dual_weyl_character(rd, lam).support.items():
                chi_support[w] = chi_support.get(w, 0) + m * mw
        dec = decompose_dual_weyl(rd, FormalCharacter(rd.gtype, chi_support))
        assert dec.exact and dec.terms == terms
        assert decomposition_character(rd, dec).support == chi_support


def test_decompose_not_symmetric():
    a1 = build_root_datum("A1")
    with pytest.raises(NotSymmetric):
        decompose_dual_weyl(a1, FormalCharacter(GroupType.parse("A1"), {(2,): 1}))


def test_virtual_decomposition_flagged():
    a1 = build_root_datum("A1")
    # nabla(2) minus two trivials: symmetric but with a negative coefficient
    support = {(2,): 1, (0,): -1, (-2,): 1}
    dec = decompose_dual_weyl(a1, FormalCharacter(GroupType.parse("A1"), support))
    assert not dec.exact
    assert dec.terms == {(2,): 1, (0,): -2}


def full_orbit_peel(rd, chi):
    """Oracle: the peel-off over the whole support.

    Strips m * (the full character of the dual Weyl module, every Weyl-orbit
    point included) at the surviving weight of maximal height, and raises
    NotSymmetric when that weight is not dominant.  Returns (terms, exact).
    """
    residual = dict(chi.support)
    terms = {}
    while residual:
        w = max(residual, key=lambda v: (rd.height(v), v))
        if not is_dominant(rd, w):
            raise NotSymmetric(f"maximal surviving weight {w} is not dominant")
        m = residual[w]
        terms[w] = terms.get(w, 0) + m
        for v, mv in dual_weyl_character(rd, w).support.items():
            new = residual.get(v, 0) - m * mv
            if new:
                residual[v] = new
            else:
                residual.pop(v, None)
    return terms, all(m >= 0 for m in terms.values())


def dominant_peel(rd, chi):
    """Oracle: the peel-off on dominant weights alone, for a W-invariant input.

    Strips m * (the dominant multiplicities of the dual Weyl module) at the
    surviving dominant weight of maximal height, ties broken by the larger
    weight, so the terms go in by descending (height, weight) and no weight
    is reached again.  Returns (terms, exact).
    """
    residual = {w: m for w, m in chi.support.items() if is_dominant(rd, w)}
    terms = {}
    while residual:
        w = max(residual, key=lambda v: (rd.height(v), v))
        m = terms[w] = residual[w]
        for v, mv in ch._freudenthal(rd, w).items():
            new = residual.get(v, 0) - m * mv
            if new:
                residual[v] = new
            else:
                residual.pop(v, None)
    return terms, all(m >= 0 for m in terms.values())


def random_dominant(rd, rng):
    return tuple(rng.randint(0, 3) if i in rd.simple_indices() else rng.randint(-2, 2)
                 for i in range(rd.rank))


def random_genuine(rd, rng):
    """A nonnegative sum of dual Weyl characters."""
    support = {}
    for _ in range(3):
        c = rng.randint(1, 3)
        for w, m in dual_weyl_character(rd, random_dominant(rd, rng)).support.items():
            support[w] = support.get(w, 0) + c * m
    return FormalCharacter(rd.gtype, support)


def random_virtual(rd, rng):
    """A signed sum of Weyl-orbit sums, built by reflection closure."""
    support = {}
    for _ in range(4):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        for w in reflection_bfs_orbit(rd, random_dominant(rd, rng)):
            support[w] = support.get(w, 0) + c
    return FormalCharacter(rd.gtype, support)


def assert_matches_peel_oracles(rd, chi):
    """decompose_dual_weyl gives both peel-offs' terms, listed in print order."""
    dec = decompose_dual_weyl(rd, chi)
    for oracle in (full_orbit_peel, dominant_peel):
        terms, exact = oracle(rd, chi)
        assert dec.items_sorted() == sorted(terms.items(), key=lambda t: (-rd.height(t[0]), t[0]))
        assert dec.exact == exact
    return dec


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "B2.T1", "A1.A2", "T1"])
def test_decompose_matches_full_orbit_oracle(name):
    rd = build_root_datum(name)
    rng = random.Random(name)
    virtual_seen = False
    for make in (random_genuine, random_virtual) * 6:
        chi = make(rd, rng)
        dec = assert_matches_peel_oracles(rd, chi)
        assert decomposition_character(rd, dec) == chi
        if make is random_genuine:
            assert dec.exact
        virtual_seen |= not dec.exact
    assert virtual_seen


@pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("G2", (1, 0))])
def test_decompose_exterior_algebra_matches_full_orbit_oracle(name, lam):
    rd = build_root_datum(name)
    assert_matches_peel_oracles(rd, exterior_algebra(dual_weyl_character(rd, lam)))


def non_invariant_inputs():
    """(root datum, support, the start of NotSymmetric's text) per case."""
    a2, g2, a1 = (build_root_datum(n) for n in ("A2", "G2", "A1"))
    # A2 (2,0): the orbits of (2,0) and (0,1); the top weight and the dominant
    # part are intact, the lowest weight (0,-2) is missing
    lacking = dict(dual_weyl_character(a2, (2, 0)).support)
    del lacking[(0, -2)]
    # G2 (1,0): two short roots of one orbit with different multiplicities
    uneven = dict(dual_weyl_character(g2, (1, 0)).support)
    uneven[(-1, 1)] = 2
    # A1: an extra antidominant point (-4,).  No weight with a positive
    # coordinate reflects onto it, so only the count of the two sides sees it.
    extra = {(2,): 1, (0,): 1, (-2,): 1, (-4,): 1}
    # A2 nabla(0,1) + nabla(1,0) without (1,-1) and (-1,1): the first weight
    # (0,1) fails s2, the later (1,0) fails s1, and s1 is reported
    both = {**dual_weyl_character(a2, (0, 1)).support, **dual_weyl_character(a2, (1, 0)).support}
    del both[(1, -1)], both[(-1, 1)]
    return [
        (a2, lacking, "(-2, 2) has multiplicity 1 but its reflection s2(-2, 2) = (0, -2) has 0"),
        (g2, uneven, "(1, 0) has multiplicity 1 but its reflection s1(1, 0) = (-1, 1) has 2"),
        (a1, extra, "(-4,) has multiplicity 1 but its reflection s1(-4,) = (4,) has 0"),
        (a2, both, "(1, 0) has multiplicity 1 but its reflection s1(1, 0) = (-1, 1) has 0"),
    ]


def test_decompose_rejects_non_invariant_inputs():
    for rd, support, text in non_invariant_inputs():
        chi = FormalCharacter(rd.gtype, support)
        with pytest.raises(NotSymmetric) as exc:
            decompose_dual_weyl(rd, chi)
        assert str(exc.value) == "not Weyl-invariant: " + text
        with pytest.raises(NotSymmetric):
            full_orbit_peel(rd, chi)


# sha256 of the lines "name [(lambda, m), ...] exact" of decompose_dual_weyl
# over kernel_inputs(), recorded before the fold was generated code
KERNEL_DECOMPOSITION_SHA256 = "43e515888b5b07148b01afb746348aaa17c413089971ac0c0878822bf842810d"


def not_symmetric_text(check, rd, support):
    try:
        check(rd, support)
    except NotSymmetric as exc:
        return str(exc)
    return None


def test_compiled_kernels_match_the_interpreted_oracles():
    """The generated exterior step, symmetry check and fold against the
    interpreted loops on every kernel type: supports and terms in order, and
    the NotSymmetric text (or none) also on each support with its last
    weight dropped and with its middle weight's multiplicity raised."""
    lines = []
    for name, rd, chi, module in kernel_inputs():
        if module is not None:
            assert list(chi.support.items()) == list(interpreted_exterior_algebra(module).items())
        dec = decompose_dual_weyl(rd, chi)
        assert list(dec.terms.items()) == list(interpreted_fold(rd, chi.support).items())
        lines.append(f"{name} {list(dec.terms.items())!r} {dec.exact}\n")
        middle = list(chi.support)[len(chi.support) // 2]
        for changed in ({**chi.support, middle: chi.support[middle] + 1},
                        dict(list(chi.support.items())[:-1])):
            assert (not_symmetric_text(ch._check_symmetric, rd, changed)
                    == not_symmetric_text(interpreted_check_symmetric, rd, changed))
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == KERNEL_DECOMPOSITION_SHA256


def test_decompose_builds_its_kernels_once_per_datum():
    """Not when the datum is built, and once over two decompositions."""
    misses = ch._racah_kernels.cache_info().misses
    rd = RootDatum(GroupType.parse("B3"))  # a new datum, not the cached one
    assert ch._racah_kernels.cache_info().misses == misses
    for lam in ((1, 0, 0), (0, 0, 1)):
        decompose_dual_weyl(rd, dual_weyl_character(rd, lam))
    assert ch._racah_kernels.cache_info().misses == misses + 1


def test_exterior_algebra_builds_its_step_once_per_rank():
    ch._exterior_step.cache_clear()
    b3, a3 = build_root_datum("B3"), build_root_datum("A3")
    for rd, lam in ((b3, (1, 0, 0)), (a3, (0, 1, 0)), (b3, (0, 0, 1))):
        exterior_algebra(dual_weyl_character(rd, lam))
    assert ch._exterior_step.cache_info().misses == 1


@pytest.mark.parametrize("generator,arg", [
    (rs._expander, "G2"), (ch._racah_kernels, "G2"), (ch._exterior_step, 2)])
def test_generated_g2_source_is_the_docstring_example(monkeypatch, generator, arg):
    sources = []

    def compile_and_keep(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(rs, "compile", compile_and_keep, raising=False)
    generator.__wrapped__(build_root_datum(arg) if isinstance(arg, str) else arg)
    doc = generator.__doc__
    assert sources == [textwrap.dedent(doc[doc.index("::\n") + 3:]).lstrip("\n")]


def test_is_restricted():
    g2 = build_root_datum("G2")
    assert is_restricted(g2, (0, 0), 2)
    assert is_restricted(g2, (4, 0), 5)
    assert not is_restricted(g2, (5, 0), 5)
    t1 = build_root_datum("B2.T1")
    assert is_restricted(t1, (2, 1, 99), 2) is False
    assert is_restricted(t1, (2, 1, 99), 3) is True  # torus coordinate is free


# frozen decompositions, first recorded from the peel-off and cross-checked by
# dimension identities
G2_EXTERIOR = {(0, 0): 4, (1, 0): 6, (0, 1): 2, (2, 0): 2}
A2_EXTERIOR = {(0, 0): 4, (0, 3): 4, (1, 1): 8, (2, 2): 4, (3, 0): 4}


def test_g2_exterior_algebra_of_seven_dim():
    g2 = build_root_datum("G2")
    ea = exterior_algebra(dual_weyl_character(g2, (1, 0)))
    assert ea.dim() == 128
    dec = decompose_dual_weyl(g2, ea)
    assert dec.exact
    assert dec.terms == G2_EXTERIOR
    assert sum(m * weyl_dim(g2, lam) for lam, m in dec.terms.items()) == 128
    assert all(is_restricted(g2, lam, 5) for lam in dec.terms)


def test_a2_exterior_algebra_of_adjoint():
    a2 = build_root_datum("A2")
    ea = exterior_algebra(dual_weyl_character(a2, (1, 1)))
    assert ea.dim() == 256
    dec = decompose_dual_weyl(a2, ea)
    assert dec.exact
    assert dec.terms == A2_EXTERIOR
    assert sum(m * weyl_dim(a2, lam) for lam, m in dec.terms.items()) == 256
    assert all(is_restricted(a2, lam, 5) for lam in dec.terms)


def test_external_product():
    a1 = build_root_datum("A1")
    v = dual_weyl_character(a1, (1,))
    ext = external_product(v, v)
    assert str(ext.ambient) == "A1.A1"
    assert ext.dim() == 4


def test_orbit_expansion_consistency():
    """Freudenthal cross-checked by brute-force orbit count for G2: 6 + 1."""
    g2 = build_root_datum("G2")
    chi = dual_weyl_character(g2, (1, 0))
    assert len(orbit(g2, (1, 0))) == 6
    assert chi.dim() == 6 + 1


def _supports(rank):
    """Weight -> multiplicity dicts, in a drawn (not sorted) insertion order."""
    weights = st.tuples(*[st.integers(-4, 4)] * rank)
    return st.dictionaries(weights, st.integers(-3, 3).filter(bool), max_size=40)


# B2.T1: the torus coordinate has height 0, so many weights share a height
@pytest.mark.parametrize("name", ["A2", "G2", "B2.T1"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_items_sorted_is_descending_height_then_weight(name, data):
    rd = build_root_datum(name)
    support = data.draw(_supports(rd.rank))
    expected = [(w, support[w])
                for w in sorted(support, key=lambda w: (-rd.height(w), w))]
    assert ch.DualWeylDecomposition(rd.gtype, support, True).items_sorted() == expected


@pytest.mark.parametrize("name", ["A2", "G2", "B2.T1"])
def test_items_sorted_of_the_empty_character(name):
    rd = build_root_datum(name)
    assert ch.DualWeylDecomposition(rd.gtype, {}, True).items_sorted() == []


def test_zero_multiplicities_are_dropped():
    a1 = GroupType.parse("A1")
    chi = FormalCharacter(a1, {(1,): 1, (-1,): 0})
    assert chi.support == {(1,): 1}
    assert chi.dim() == 1
    assert chi == FormalCharacter(a1, {(1,): 1})
    # _make, and _replace through it, drop them too
    assert chi._replace(support={(3,): 0, (1,): 2}).support == {(1,): 2}
    assert FormalCharacter._make((a1, {(0,): 0, (2,): 1})).support == {(2,): 1}


def test_no_zero_multiplicity_in_computed_characters():
    b2 = build_root_datum("B2")
    chi = dual_weyl_character(b2, (1, 1))
    diag = step_map(EmbeddingStep("diag", GroupType.parse("A1"), GroupType.parse("A1.A1")))
    # (1, 0) and (0, 1) both restrict to (1,): the virtual character cancels there
    virtual = FormalCharacter(GroupType.parse("A1.A1"), {(1, 0): 1, (0, 1): -1, (2, 2): 1})
    restricted = restrict_character(virtual, diag)
    assert restricted.support == {(4,): 1}
    for c in (chi, exterior_algebra(dual_weyl_character(b2, (1, 0))),
              exterior_power(chi, 2), restricted):
        assert 0 not in c.support.values()


def test_cache_roundtrip(cache_dir):
    path = cache_dir / "characters.txt"
    a2 = build_root_datum("A2")
    clear_memo()
    try:
        chi = dual_weyl_character(a2, (3, 2))
        ch.save_cache_file()
        key = ("A2", (3, 2))
        with ch._LOCK:
            saved = dict(ch._DOMINANT_MULTS[key])
        assert path.read_text(encoding="utf-8").startswith("donkin character cache 2\n")
        clear_memo()
        assert ch.load_cache_file() == 1
        with ch._LOCK:
            assert ch._ON_DISK[key] == saved
            assert key not in ch._DOMINANT_MULTS
        assert dual_weyl_character(a2, (3, 2)) == chi
        # checked at first use and moved into the memo
        with ch._LOCK:
            assert ch._DOMINANT_MULTS[key] == saved
            assert key not in ch._ON_DISK
    finally:
        clear_memo()


def test_cache_ignores_garbage(cache_dir):
    path = cache_dir / "characters.txt"
    cache_dir.mkdir()
    clear_memo()
    try:
        path.write_bytes(b"not a cache file at all")
        assert ch.load_cache_file() == 0
        # the old binary layout: another header, so nothing is read
        path.write_bytes(b"DWCACHE1\x00\x00\x00\x01\x00\x02A1\x00\x01\x00\x00\x00\x02")
        assert ch.load_cache_file() == 0
        path.write_bytes(b"\xff\xfe binary \x00")
        assert ch.load_cache_file() == 0
        path.unlink()
        assert ch.load_cache_file() == 0
        # lines that do not parse are skipped, the others read
        path.write_text("donkin character cache 2\n"
                        "A1 2 2:1 0:1\n"
                        "A1 x 2:1\n"
                        "A1 3 3:1 1\n"
                        "A1\n"
                        "A1 4 4:1 2:1:1\n", encoding="utf-8")
        assert ch.load_cache_file() == 1
        with ch._LOCK:
            assert ch._ON_DISK == {("A1", (2,)): {(2,): 1, (0,): 1}}
    finally:
        clear_memo()


def test_cache_truncated_file_keeps_complete_entries(cache_dir):
    """A cut inside a number leaves a line that does not parse; a cut between
    two pairs leaves one that parses and fails the check at first use."""
    path = cache_dir / "characters.txt"
    a2 = build_root_datum("A2")
    clear_memo()
    try:
        chi = dual_weyl_character(a2, (1, 1))
        chi22 = dual_weyl_character(a2, (2, 2))
        ch.save_cache_file()
        text = path.read_text(encoding="utf-8")
        assert text.endswith(" 3,0:1\n")  # the last pair of the A2 (2,2) line
        clear_memo()
        assert ch.load_cache_file() == 2
        clear_memo()
        path.write_text(text[:-3], encoding="utf-8")
        assert ch.load_cache_file() == 1
        with ch._LOCK:
            assert set(ch._ON_DISK) == {("A2", (1, 1))}
        assert dual_weyl_character(a2, (1, 1)) == chi
        clear_memo()
        path.write_text(text[:-len(" 3,0:1\n")], encoding="utf-8")
        assert ch.load_cache_file() == 2
        assert dual_weyl_character(a2, (2, 2)) == chi22
        ch.save_cache_file()
        assert path.read_text(encoding="utf-8") == text
    finally:
        clear_memo()


def test_cache_concurrent_writers_leave_no_temp_files(cache_dir):
    import threading
    a2 = build_root_datum("A2")
    chi = dual_weyl_character(a2, (2, 1))
    start = threading.Barrier(8)
    errors = []

    def save():
        start.wait(timeout=10)
        try:
            for _ in range(5):
                ch.save_cache_file()
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=save) for _ in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [p.name for p in cache_dir.iterdir()] == ["characters.txt"]
        clear_memo()
        assert ch.load_cache_file() > 0
        assert dual_weyl_character(a2, (2, 1)) == chi
    finally:
        clear_memo()


def test_cache_entry_used_by_concurrent_threads(cache_dir):
    """Threads that meet one entry read from disk all get the right
    character, and the entry ends in the memo, not in the unchecked table."""
    import sys
    import threading
    rd = build_root_datum("B3")
    key = ("B3", (1, 1, 1))
    clear_memo()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        want = dual_weyl_character(rd, (1, 1, 1))
        ch.save_cache_file()
        for _ in range(5):
            clear_memo()
            assert ch.load_cache_file() == 1
            results = []
            threads = [threading.Thread(
                target=lambda: results.append(dual_weyl_character(rd, (1, 1, 1))))
                for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == [want] * 8
            with ch._LOCK:
                assert key in ch._DOMINANT_MULTS and not ch._ON_DISK
    finally:
        sys.setswitchinterval(interval)
        clear_memo()


def test_cache_failed_write_removes_temp_file(cache_dir, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    dual_weyl_character(build_root_datum("A1"), (3,))
    monkeypatch.setattr(ch.os, "replace", fail)
    with pytest.raises(OSError):
        ch.save_cache_file()
    assert not list(cache_dir.iterdir())


# Types of ranks 1-4, G2, F4 and one with a torus factor, each with a bound on
# the coordinates of the highest weights drawn, so that Freudenthal stays cheap.
CHECK_TYPES = [("A1", 6), ("A2", 3), ("B2", 3), ("G2", 2), ("A3", 2), ("B3", 1),
               ("C3", 1), ("A4", 1), ("C4", 1), ("D4", 1), ("F4", 1), ("A2.T1", 2)]


@st.composite
def _dominant_weights(draw, rd, bound):
    return tuple(draw(st.integers(0, bound)) if i in rd._simple else draw(st.integers(-3, 3))
                 for i in range(rd.rank))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cache_check_rejects_every_single_change(data):
    """The true table passes the check; changing one multiplicity by +-1,
    deleting one weight or adding one dominant weight is always rejected,
    since each moves the sum of m * |W mu| by at least 1.  Compensating
    changes to several entries that keep that sum are not caught."""
    name, bound = data.draw(st.sampled_from(CHECK_TYPES))
    rd = build_root_datum(name)
    lam = data.draw(_dominant_weights(rd, bound))
    true = dict(ch._freudenthal(rd, lam))
    assert ch._cached_entry_ok(rd, lam, true)
    bad = dict(true)
    kind = data.draw(st.sampled_from(["+1", "-1", "delete", "add"]))
    if kind == "add":
        nu = data.draw(_dominant_weights(rd, bound + 1))
        bad[nu] = bad.get(nu, 0) + 1
    else:
        mu = data.draw(st.sampled_from(sorted(true)))
        if kind == "delete":
            del bad[mu]
        else:
            bad[mu] += int(kind)
    assert not ch._cached_entry_ok(rd, lam, bad)


@pytest.mark.parametrize("name", ["A1", "B2", "G2", "A3", "C3", "D4", "F4", "A2.T1",
                                  "A1.A1", "B2.G2", "T2"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_orbit_size_matches_weyl_orbit(name, data):
    rd = build_root_datum(name)
    mu = data.draw(_dominant_weights(rd, 2))
    assert ch._orbit_size(rd, tuple(c > 0 for c in mu)) == len(orbit(rd, mu))


def test_cold_start_independent_of_cache():
    a1 = build_root_datum("A1")
    before = dual_weyl_character(a1, (6,))
    clear_memo()
    assert dual_weyl_character(a1, (6,)) == before


def test_memoization_thread_safety():
    """Concurrent identical computations must agree (idempotent writes)."""
    import threading
    clear_memo()
    rd = build_root_datum("B3")
    results = []

    def work():
        results.append(dual_weyl_character(rd, (1, 1, 1)))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0].dim() == weyl_dim(rd, (1, 1, 1))
