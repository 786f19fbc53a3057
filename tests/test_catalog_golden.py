"""Golden digests of the embedding catalog.

Three digests pin every answer the catalog gives: the jsonl ``verify-tables``
output on the five shipped tables (each step's ``legal``, ``reason`` and
``p_min``), the matrices of every chain restriction map of those tables, and
``match_step`` / ``step_map`` on a fixed grid of (tag, sub, amb) that includes
illegal pairs and an unknown tag.  A clause wired to the wrong matcher or
builder changes at least one of them.
"""
import functools
import hashlib
import itertools
from pathlib import Path

import pytest

from conftest import run_cli
from donkin.characters import FormalCharacter, decompose_dual_weyl
from donkin.embeddings import (
    EmbeddingStep,
    WeightMap,
    chain_restriction_map,
    match_step,
    restrict_character,
    step_map,
)
from donkin.errors import NotSymmetric
from donkin.rootsystem import GroupType, build_root_datum

REPO = Path(__file__).resolve().parents[1]
TABLES = ("e8", "e7", "e6", "f4", "g2")

VERIFY_JSONL_SHA256 = "7e5bb60d06605b0fa243f8470328181d486cbbd576e58459b69f871e1f28b163"
CHAIN_MAPS_SHA256 = "7f36705e298fdc730e625bbe95e1577121bee0c24363026d0650d6cf9444334e"
GRID_SHA256 = "683411dc5a139f1ee4496bd292ac6bf480fcde36bc312f6e081a3261510acf48"

GRID_TAGS = ("alias", "levi", "diag", "auto", "class", "max", "resirr", "tensor", "bogus")
GRID_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "B1", "B2", "B3", "B4", "C1", "C2",
    "C3", "D1", "D2", "D3", "D4", "D8", "G2", "F4", "E6", "E7", "E8", "T1",
    "A1.A1", "A1.A1.A1", "C1.C1", "B1.B6", "B2.D1", "B2.D3", "E7.T1", "A1.D6",
    "A1.E7", "G2.G2",
)
# products with spectator factors, checked under every tag
GRID_PAIRS = (
    ("C2.A1", "A3.A1"), ("A1.G2", "A1.D4"), ("B3.F4", "D4.E6"), ("C1.B2", "D2.B2"),
    ("B2.D1", "B2.D3"), ("C2.A1", "D8.A1"), ("A1.B2", "A4.B2"), ("A2.A1", "A7.A1"),
    ("G2.A1", "A6.A2"), ("B4.A1.B1", "A1.D6"), ("B3.B4", "D8"), ("C1.C1.A2", "C2.A2"),
    ("A1.B2", "A1.B2.B2"), ("B2.A1", "A1.B2.B2.A1"), ("B2.D3", "B2.D3.B2"),
    ("A1.A2.A3", "E7"), ("D4", "E8"), ("B2.C3", "A4.A5"),
)


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def grid_rows(tags, pairs):
    """(tag, sub, amb, verdict, built) per tag and pair; ``built`` is the step's
    weight map, None for a map-less step, or the name of the error it raised."""
    G = GroupType.parse
    rows = []
    for tag, (sub, amb) in itertools.product(tags, pairs):
        m = match_step(G(sub), G(amb), tag)
        try:
            built = step_map(EmbeddingStep(tag, G(sub), G(amb)))
        except Exception as exc:  # the error class is part of the answer
            built = type(exc).__name__
        rows.append((tag, sub, amb, m, built))
    return rows


@functools.lru_cache(maxsize=1)
def grid():
    return grid_rows(GRID_TAGS, [*itertools.product(GRID_TYPES, GRID_TYPES), *GRID_PAIRS])


def grid_lines(rows):
    """One line per (tag, sub, amb): the verdict, then the matrix or error class."""
    for tag, sub, amb, m, built in rows:
        shown = built if isinstance(built, str) or built is None else repr(built.matrix)
        yield f"{tag} {sub} {amb} {m.legal} {m.reason!r} {m.p_min} {shown}"


def chain_map_lines(tables):
    for name in TABLES:
        for rec in tables[name]:
            if rec.is_torus:
                continue
            m = chain_restriction_map(rec.chain)
            if m is not None:
                yield f"{name} {rec.label} {m.source} {m.target} {m.matrix!r}"


def test_verify_tables_jsonl_digest(monkeypatch):
    monkeypatch.chdir(REPO)
    files = [f"src/donkin/data/{name}.tbl" for name in TABLES]
    result = run_cli(["--format", "jsonl", "verify-tables", *files])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == VERIFY_JSONL_SHA256


def test_chain_restriction_maps_digest(shipped_tables):
    assert _sha(chain_map_lines(shipped_tables)) == CHAIN_MAPS_SHA256


def test_match_and_step_map_grid_digest():
    assert _sha(grid_lines(grid())) == GRID_SHA256


# The classical clauses on a denser grid: every ordered pair of these simple
# types, every 2-factor product of the small classical factors into each of
# them, and each pair of those factors beside a G2 spectator.
CLASSICAL_TYPES = (*(f"A{n}" for n in range(1, 9)), *(f"B{n}" for n in range(1, 7)),
                   *(f"C{n}" for n in range(1, 7)), *(f"D{n}" for n in range(1, 9)),
                   "T1", "G2", "F4")
CLASSICAL_FACTORS = ("B1", "B2", "B3", "C1", "C2", "C3", "D1", "D2", "D3", "D4", "A1", "T1")
CLASSICAL_GRID_SHA256 = "adf322dc4e52ed58e1edbacf5bceb35887652c63531b8ecc0293f0896487d41a"


def test_class_and_tensor_on_the_classical_grid_digest():
    """``match_step`` and ``step_map`` of ``class`` and ``tensor``: which
    dimensions and forms may meet, the prime bounds, and every block."""
    products = [".".join(pair) for pair in
                itertools.combinations_with_replacement(CLASSICAL_FACTORS, 2)]
    pairs = [*itertools.product(CLASSICAL_TYPES, CLASSICAL_TYPES),
             *itertools.product(products, CLASSICAL_TYPES),
             *((f"{x}.G2", f"{y}.G2")
               for x, y in itertools.product(CLASSICAL_FACTORS, CLASSICAL_FACTORS))]
    lines = list(grid_lines(grid_rows(("class", "tensor"), pairs)))
    assert len(lines) == 7046
    assert _sha(lines) == CLASSICAL_GRID_SHA256


def test_every_legal_grid_step_builds():
    """A legal verdict promises a weight map (None for a max step), not an error."""
    broken = [(tag, sub, amb, built) for tag, sub, amb, m, built in grid()
              if m.legal and isinstance(built, str)]
    assert broken == []


def adjoint_character(rd) -> FormalCharacter:
    """ad(G): the rank at weight 0 and each root once."""
    support = {(0,) * rd.rank: rd.rank}
    for alpha in rd.positive_roots:
        support[alpha] = support[tuple(-a for a in alpha)] = 1
    return FormalCharacter(rd.gtype, support)


def test_every_legal_grid_map_carries_lie_h_into_lie_g():
    """Lie(H) in Lie(G) on every legal grid step with a map: ad(G) pushed down
    the map, minus ad(H), has no negative weight multiplicity and decomposes
    into dual Weyl characters of H with no negative term."""
    checked, failed = 0, []
    for tag, sub, amb, m, built in grid():
        if not (m.legal and isinstance(built, WeightMap)):
            continue
        checked += 1
        rd = build_root_datum(sub)
        rest = dict(restrict_character(adjoint_character(build_root_datum(amb)), built).support)
        for w, k in adjoint_character(rd).support.items():
            rest[w] = rest.get(w, 0) - k
        if min(rest.values(), default=0) < 0:
            failed.append((tag, sub, amb, "weight deficit"))
            continue
        try:
            if not decompose_dual_weyl(rd, FormalCharacter(rd.gtype, rest)).exact:
                failed.append((tag, sub, amb, "negative term"))
        except NotSymmetric:
            failed.append((tag, sub, amb, "not Weyl-invariant"))
    assert (checked, failed) == (602, [])


@pytest.mark.parametrize("tag", ["bogus", "x"])
def test_unknown_tag_verdict(tag):
    A1 = GroupType.parse("A1")
    m = match_step(A1, A1, tag)
    assert (m.legal, m.reason) == (False, f"unknown tag {tag!r}")
