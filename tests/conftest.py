"""Shared test helpers: exact matrix oracles for classical nilpotents, and
small root-system and character-ring operations that only the tests need.

The matrix oracles are deliberately independent of the package's formulas:
Jordan types are read off from rank sequences, Lie algebras are parametrized
from explicit Gram matrices, and centralizer dimensions come from kernels of
ad-x computed by exact rational elimination.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.resources as ir
import io
import itertools
from fractions import Fraction
from operator import add, mul, sub
from typing import NamedTuple

import pytest

import donkin.characters as ch
from donkin.characters import FormalCharacter, dual_weyl_character, exterior_algebra
from donkin.cli import main
from donkin.embeddings import StepMatch
from donkin.errors import AmbientMismatch, NegativeInput, NotSymmetric, UnknownType
from donkin.nilpotent import JordanType, parse_orbit_tables
from donkin.rootsystem import (
    GroupType,
    SimpleType,
    _classify_nodes,
    _dominant,
    build_root_datum,
    cartan_matrix,
    normalize_type,
    weyl_dim,
    weyl_orbit,
)


def load_table(name):
    text = (ir.files("donkin") / "data" / f"{name}.tbl").read_text()
    return parse_orbit_tables(text)


@pytest.fixture(autouse=True)
def cache_dir(tmp_path, monkeypatch):
    """The character cache dir of this test: a temp dir of its own, never the
    user's cache.  It is created by the first save."""
    path = tmp_path / "donkin-cache"
    monkeypatch.setenv("DONKIN_CACHE_DIR", str(path))
    return path


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them


class _Capture(io.StringIO):
    """One stream's text, also copied to the shared ``output`` stream."""

    def __init__(self, output):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


def run_cli(args) -> CliResult:
    """Run ``donkin.cli.main`` on ``args`` in this process, with stdout and
    stderr captured, and return its exit status and what it printed."""
    output = io.StringIO()
    out, err = _Capture(output), _Capture(output)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, prog_name="donkin")
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue(), output.getvalue())


@pytest.fixture(scope="session")
def shipped_tables():
    return {name: load_table(name) for name in ("e8", "e7", "e6", "f4", "g2")}


def serialize_orbit_tables(records) -> str:
    """Table-file text of ``records``, which ``parse_orbit_tables`` reads back.
    Each step's ``str`` writes its arrow and ``p>`` annotation; a chain is the
    first step's text, then each step's text after its source type."""
    lines = []
    for rec in records:
        chain = "TORUS"
        if not rec.is_torus:
            chain = str(rec.chain[0].sub) + "".join(
                str(step)[len(str(step.sub)):] for step in rec.chain)
        lines.append(f"{rec.label}\t{rec.centralizer}\t{chain}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# root-system helpers

ALL_SIMPLE = (
    "A1 A2 A3 A4 A5 A6 A7 A8 B2 B3 B4 B5 B6 B7 B8 C3 C4 C5 C6 C7 C8 "
    "D4 D5 D6 D7 D8 E6 E7 E8 F4 G2".split())

# every simple type plus products with torus, repeated and mixed-length factors
ROOT_TYPES = ALL_SIMPLE + ["A1.B3.T2", "E6.A2", "D4.D4", "B2.G2.A1", "T3"]

# the types the generated kernels are checked on: ROOT_TYPES, a lone rank-1
# torus, a torus factor next to one semisimple factor, and the rank-0 type
KERNEL_TYPES = ROOT_TYPES + ["T1", "B2.T1", ""]

# the first key of each pinned orbit table sets this many leading simple
# nodes to 1 (all of them when unlisted): the fewest whose orbit reaches
# min(1000, |W|) points
PIN_LEAD = {"A6": 5, "A7": 4, "A8": 4, "B5": 4, "B6": 4, "B7": 3, "B8": 3, "C5": 4,
            "C6": 4, "C7": 3, "C8": 3, "D6": 4, "D7": 3, "D8": 3, "E6": 3, "E7": 2,
            "E8": 1, "E6.A2": 4, "D4.D4": 5}


def pinned_table(rd, name):
    """Keys omega_1 + ... + omega_lead over the simple nodes (torus
    coordinates -1), lead from ``PIN_LEAD``, 2 omega of the last simple node
    (torus coordinate i at 2 - i) and 0 (torus coordinates -2), with
    multiplicities 1, 2, 3; a key met twice keeps its first multiplicity."""
    simple, lead = rd.simple, PIN_LEAD.get(name, rd.rank)
    keys = [[0 if i in simple[lead:] else 1 if i in simple else -1 for i in range(rd.rank)],
            [2 if simple and i == simple[-1] else 0 if i in simple else 2 - i
             for i in range(rd.rank)],
            [0 if i in simple else -2 for i in range(rd.rank)]]
    table = {}
    for m, key in enumerate(keys, 1):
        table.setdefault(tuple(key), m)
    return table


def is_dominant(rd, w):
    """Whether no simple coordinate of ``w`` is negative."""
    return all(w[i] >= 0 for i in rd.simple)


def dominant_representative(rd, w):
    """The dominant weight in the Weyl orbit of ``w``."""
    assert len(w) == rd.rank
    return _dominant(tuple(w), rd.simple, rd.columns)


def orbit(rd, w):
    """The Weyl orbit of the dominant weight ``w``, sorted."""
    return tuple(sorted(weyl_orbit(rd, {tuple(w): 1})))


def image(wmap, w):
    """Image of one weight under a ``WeightMap``, by its one kernel ``images``."""
    return next(wmap.images((w,)))


def subdiagram_type(rd, nodes) -> GroupType:
    """Group type of the induced Dynkin subdiagram plus a torus of the corank."""
    facs = [st for st, _ in _classify_nodes(cartan_matrix(rd.gtype), nodes)]
    corank = rd.rank - sum(st.rank for st in facs)
    if corank:
        facs.append(SimpleType("T", corank))
    return normalize_type(GroupType(tuple(facs)))


# Every node subset of these diagrams, 2,078 in all, is classified in
# test_rootsystem, and each ambient's Levi clause is checked in test_embeddings.
CLASSIFIED_DIAGRAMS = ("A1", "A2", "A8", "B2", "B3", "B7", "C3", "C7", "D4", "D5", "D6",
                       "D8", "E6", "E7", "E8", "F4", "G2", "A3.D5", "B4.C3", "A1.E7", "G2.F4")


def levi_oracle(sub: GroupType, amb: GroupType) -> StepMatch:
    """The Levi clause's verdict by the unscreened search: every node subset
    of the wanted size is classified, in ``itertools.combinations`` order,
    and the first whose components are the sub's semisimple factors is the
    hit."""
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
    return StepMatch(True, "Levi subgroup", 1,
                     tuple((st, tuple(order)) for st, order in hit or []))


# ---------------------------------------------------------------------------
# character-ring helpers

def trivial_character(ambient) -> FormalCharacter:
    gt = normalize_type(ambient if isinstance(ambient, GroupType) else GroupType.parse(ambient))
    return FormalCharacter(gt, {(0,) * gt.rank: 1})


def tensor(c1: FormalCharacter, c2: FormalCharacter) -> FormalCharacter:
    """Convolution of supports; the character of a tensor product."""
    if c1.ambient != c2.ambient:
        raise AmbientMismatch(f"{c1.ambient} vs {c2.ambient}")
    out = {}
    for w1, m1 in c1.support.items():
        for w2, m2 in c2.support.items():
            w = tuple(a + b for a, b in zip(w1, w2))
            out[w] = out.get(w, 0) + m1 * m2
    return FormalCharacter(c1.ambient, out)


def external_product(c1: FormalCharacter, c2: FormalCharacter) -> FormalCharacter:
    """Character of an external tensor product over the product group."""
    gt = normalize_type(GroupType(c1.ambient.factors + c2.ambient.factors))
    out = {}
    for w1, m1 in c1.support.items():
        for w2, m2 in c2.support.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + m1 * m2
    return FormalCharacter(gt, out)


def exterior_power(chi: FormalCharacter, k: int) -> FormalCharacter:
    """k-th exterior power, by a graded subset expansion: after each weight
    copy w, row j holds Lambda^j of the copies seen so far, and row j gains
    row j-1 shifted by w.  An oracle for ``exterior_algebra``, the sum of
    all of them."""
    if k < 0:
        raise NegativeInput("negative exterior power")
    ch._check_genuine(chi)
    if k > chi.dim():
        return FormalCharacter(chi.ambient, {})
    rows = [{(0,) * chi.ambient.rank: 1}] + [{} for _ in range(k)]
    for w, mult in chi.support.items():
        for _ in range(mult):
            for j in range(k, 0, -1):
                dst = rows[j]
                for v, m in rows[j - 1].items():
                    u = tuple([a + b for a, b in zip(v, w)])
                    dst[u] = dst.get(u, 0) + m
    return FormalCharacter(chi.ambient, rows[k])


def interpreted_exterior_algebra(chi) -> dict:
    """Oracle: the support of ``exterior_algebra(chi)``, in its order, by one
    interpreted pass per weight copy w that adds the support shifted by w."""
    out = {(0,) * chi.ambient.rank: 1}
    for w, mult in chi.support.items():
        for _ in range(mult):
            nxt = dict(out)
            for v, m in out.items():
                u = tuple([a + b for a, b in zip(v, w)])
                nxt[u] = nxt.get(u, 0) + m
            out = nxt
    return out


def interpreted_check_symmetric(rd, support) -> None:
    """Oracle for ``decompose_dual_weyl``'s symmetry check, one simple i at a
    time: the first u with u[i] > 0 whose s_i u has another multiplicity,
    else, if the two sides differ in size, the first u with u[i] < 0 and no
    partner at s_i u, raises NotSymmetric with the text the engine prints."""
    for i in rd.simple:
        # s_i moves coordinate i and i's Dynkin neighbours j, by -c * a_ji
        moved = [(j, a) for j, a in enumerate(rd.columns[i]) if a and j != i]
        above = below = 0
        for u, m in support.items():
            c = u[i]
            if c > 0:
                above += 1
                v = list(u)
                v[i] = -c
                for j, a in moved:
                    v[j] -= c * a
                if support.get(tuple(v), 0) != m:
                    _not_symmetric(rd, support, u, i)
            elif c < 0:
                below += 1
        if above != below:
            _not_symmetric(rd, support, next(
                u for u in support if u[i] < 0 and rd.reflect(u, i) not in support), i)


def _not_symmetric(rd, support, u, i):
    v = rd.reflect(u, i)
    raise NotSymmetric(f"not Weyl-invariant: {u} has multiplicity {support[u]} "
                       f"but its reflection s{i + 1}{u} = {v} has {support.get(v, 0)}")


def interpreted_fold(rd, support) -> dict:
    """Oracle: the terms of ``decompose_dual_weyl`` on a W-invariant support,
    in its order.  Each nu + rho is reflected at its first simple coordinate
    c <= 0 (the sign of m turned each time) until it is dominant, and adds m
    at x - rho; it adds nothing when c = 0, x on a wall."""
    simple, columns, rho = rd.simple, rd.columns, rd.rho
    sums = {}
    for nu, m in support.items():
        x = tuple(map(add, nu, rho))
        while True:
            for i in simple:
                if (c := x[i]) <= 0:
                    break
            else:
                sums[x] = sums.get(x, 0) + m
                break
            if c == 0:  # x lies on the wall of s_i
                break
            x = tuple([v - c * a for v, a in zip(x, columns[i])])
            m = -m
    return {tuple(map(sub, x, rho)): m for x, m in sums.items() if m}


def kernel_inputs():
    """(type name, root datum, character, module) over ``KERNEL_TYPES``: the
    W-invariant characters ``weyl_orbit`` gives on ``pinned_table`` (module
    None), and the exterior algebras of the dual Weyl modules of dimension
    <= 10 whose highest weight is 0 or one coordinate vector."""
    for name in KERNEL_TYPES:
        rd = build_root_datum(name)
        yield name, rd, FormalCharacter(rd.gtype, weyl_orbit(rd, pinned_table(rd, name))), None
        units = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
        for lam in [(0,) * rd.rank] + units:
            if weyl_dim(rd, lam) <= 10:
                module = dual_weyl_character(rd, lam)
                yield name, rd, exterior_algebra(module), module


def dominant_weights_below(rd, lam):
    """Oracle: the dominant mu <= lam, closed under subtracting positive roots
    while staying dominant, by descending height, ties by ascending weight."""
    found = {tuple(lam)}
    frontier = [tuple(lam)]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in rd.positive_roots:
                nu = tuple(m - a for m, a in zip(mu, alpha))
                if nu not in found and all(nu[i] >= 0 for i in rd.simple):
                    found.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return sorted(found, key=lambda w: (-rd.height(w), w))


def string_freudenthal(rd, lam):
    """Oracle: Freudenthal's recursion on the dominant weights with one root
    string per positive root at every mu and no use of mu's stabilizer; each
    string point is folded to the dominant chamber to read its multiplicity.

    (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum_{alpha > 0} sum_{k >= 1}
    m(mu + k alpha) <mu + k alpha, alpha>, in ints via ``rd.gram``.
    """
    lam = tuple(lam)
    if not rd.positive_roots:
        return {lam: 1}
    simple, columns = rd.simple, rd.columns
    roots = []
    for alpha in rd.positive_roots:
        g_alpha = tuple(sum(map(mul, row, alpha)) for row in rd.gram)
        roots.append((alpha, g_alpha, sum(map(mul, alpha, g_alpha))))
    order = dominant_weights_below(rd, lam)
    lam_rho = tuple(a + r for a, r in zip(lam, rd.rho))
    clam = rd.scaled_inner(lam_rho, lam_rho)
    mults = {lam: 1}
    for mu in order[1:]:
        mu_rho = tuple(m + r for m, r in zip(mu, rd.rho))
        total = 0
        for alpha, g_alpha, aa in roots:
            ip = sum(map(mul, mu, g_alpha))
            nu = mu
            while True:
                nu = tuple(x + a for x, a in zip(nu, alpha))
                m_nu = mults.get(_dominant(nu, simple, columns), 0)
                if m_nu == 0:
                    break
                ip += aa
                total += m_nu * ip
        q, r = divmod(2 * total, clam - rd.scaled_inner(mu_rho, mu_rho))
        assert r == 0, "Freudenthal multiplicity not integral"
        if q:
            mults[mu] = q
    return mults


def fraction_inverse(mat):
    """Oracle: the inverse by Gauss-Jordan in Fractions."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def multiplicity_digest(mults) -> str:
    """sha256 of the lines "mu:m" (mu comma-separated), one per dominant
    weight in ascending weight order, each ending in a newline."""
    text = "".join(",".join(map(str, mu)) + f":{m}\n" for mu, m in sorted(mults.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def decomposition_character(rd, dec) -> FormalCharacter:
    """The character sum of m * nabla(lambda) over a decomposition's terms."""
    out = {}
    for lam, m in dec.terms.items():
        for w, mw in dual_weyl_character(rd, lam).support.items():
            out[w] = out.get(w, 0) + m * mw
    return FormalCharacter(dec.ambient, out)


def clear_memo() -> None:
    """Empty the in-memory tables of dominant multiplicities: the computed
    and checked ones, and the unchecked entries read from a cache file."""
    with ch._LOCK:
        ch._DOMINANT_MULTS.clear()
        ch._ON_DISK.clear()


# ---------------------------------------------------------------------------
# matrix constructions

def _zero(n):
    return [[0] * n for _ in range(n)]


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if a[i][t]:
                for j in range(m):
                    out[i][j] += a[i][t] * b[t][j]
    return out


def mat_rank(a) -> int:
    """Rank of a matrix with int/Fraction entries, by exact elimination."""
    if not a or not a[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def jordan_type_of(x) -> list[int]:
    """Partition of a nilpotent matrix from its rank sequence."""
    n = len(x)
    ranks = [n]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        power = mat_mul(power, x)
        r = mat_rank(power)
        ranks.append(r)
        if r == 0:
            break
    # number of blocks of size >= k is rank(x^{k-1}) - rank(x^k)
    blocks = []
    for k in range(1, len(ranks)):
        blocks.append(ranks[k - 1] - ranks[k])
    partition = []
    for size in range(len(blocks), 0, -1):
        count = blocks[size - 1] - (blocks[size] if size < len(blocks) else 0)
        partition.extend([size] * count)
    return sorted(partition, reverse=True)


def nilpotent_with_form(jt: JordanType):
    """Explicit nilpotent of the given Jordan type plus an invariant form.

    Returns (x, gram) with x strictly lower-shift per string and
    x^T G + G x == 0; gram is symmetric for SO, alternating for Sp,
    None for GL.  Strings whose size parity clashes with the ambient
    form are laid out in hyperbolic pairs (their multiplicity is even
    for valid types).
    """
    n = jt.n
    x = _zero(n)
    gram = _zero(n) if jt.kind != "GL" else None
    pos = 0

    def put_string(start, s):
        for i in range(s - 1):
            x[start + i + 1][start + i] = 1

    for s, r in jt.parts:
        symmetric_ok = (s % 2 == 1)
        want_symmetric = (jt.kind == "SO")
        if jt.kind == "GL":
            for _ in range(r):
                put_string(pos, s)
                pos += s
            continue
        if symmetric_ok == want_symmetric:
            for _ in range(r):
                put_string(pos, s)
                for i in range(s):
                    gram[pos + i][pos + s - 1 - i] = (-1) ** i
                pos += s
        else:
            assert r % 2 == 0, "parity-clashing sizes need even multiplicity"
            for _ in range(r // 2):
                put_string(pos, s)
                put_string(pos + s, s)
                sign = 1 if want_symmetric else -1
                for i in range(s):
                    j = s - 1 - i
                    gram[pos + i][pos + s + j] = (-1) ** i
                    gram[pos + s + j][pos + i] = sign * (-1) ** i
                pos += 2 * s
    return x, gram


def check_form_invariance(x, gram) -> bool:
    n = len(x)
    xt = [[x[j][i] for j in range(n)] for i in range(n)]
    lhs = mat_mul(xt, gram)
    rhs = mat_mul(gram, x)
    return all(lhs[i][j] + rhs[i][j] == 0 for i in range(n) for j in range(n))


def algebra_basis(kind, n, gram):
    """Integer basis of gl_n / sp_n / so_n for the given Gram matrix.

    For a (skew-)symmetric invertible G, y preserves the form iff G y is
    alternating (SO) resp. symmetric (Sp); our Gram matrices are signed
    permutations so G^{-1} is integral.
    """
    if kind == "GL":
        basis = []
        for i in range(n):
            for j in range(n):
                e = _zero(n)
                e[i][j] = 1
                basis.append(e)
        return basis
    ginv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if gram[i][j]:
                assert abs(gram[i][j]) == 1
                ginv[j][i] = gram[i][j]
    gram_f = [[Fraction(v) for v in row] for row in gram]
    ident = mat_mul(ginv, gram_f)
    assert all(ident[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
    basis = []
    for i in range(n):
        for j in range(i, n):
            s = _zero(n)
            if kind == "SO":
                if i == j:
                    continue
                s[i][j], s[j][i] = 1, -1
            else:
                s[i][j] += 1
                s[j][i] += 1
            basis.append(mat_mul(ginv, s))
    return basis


def commutant_dimension(x, basis, extra=None) -> int:
    """dim of {y in span(basis) : [y, x] = 0 (and [y, e] = 0 for e in extra)}."""
    n = len(x)
    constraints = [x] + list(extra or [])
    rows = []
    for y in basis:
        row = []
        for c in constraints:
            yc = mat_mul(y, c)
            cy = mat_mul(c, y)
            row.extend(yc[i][j] - cy[i][j] for i in range(n) for j in range(n))
        rows.append(row)
    return len(basis) - mat_rank(rows)


def grading_element(jt: JordanType):
    """Blockwise diag(s-1, s-3, ..., 1-s), matching nilpotent_with_form.

    Lies in the relevant algebra: the Gram entries pair positions whose
    h-eigenvalues are opposite.
    """
    n = jt.n
    h = _zero(n)
    pos = 0
    for s, r in jt.parts:
        for _ in range(r):
            for i in range(s):
                h[pos + i][pos + i] = s - 1 - 2 * i
            pos += s
    return h


def split_form(kind, n):
    """Maximally split Gram matrix: anti-diagonal, signed for Sp.

    Rational nilpotents only exist in abundance for split forms; the
    enumeration oracle must search this model, not a definite one.
    """
    g = _zero(n)
    for i in range(n):
        if kind == "SO":
            g[i][n - 1 - i] = 1
        else:
            g[i][n - 1 - i] = 1 if i < n // 2 else -1
    return g


def valid_partitions(kind, n):
    """All partitions of n that are valid Jordan types for the kind."""
    from donkin.nilpotent import validate_jordan

    def partitions(total, maxpart):
        if total == 0:
            yield []
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in partitions(total - first, first):
                yield [first] + rest

    out = []
    for p in partitions(n, n):
        jt = JordanType.from_partition(kind, p)
        if validate_jordan(jt):
            out.append(jt)
    return out
