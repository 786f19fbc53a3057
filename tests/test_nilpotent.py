import hashlib
import itertools

import pytest

from conftest import (
    algebra_basis,
    split_form,
    jordan_type_of,
    serialize_orbit_tables,
    valid_partitions,
)
from donkin.errors import InvalidJordanType, TableSyntaxError
from donkin.nilpotent import (
    JordanType,
    OrbitRecord,
    centralizer_dimension,
    centralizer_factor_labels,
    parse_chain,
    parse_orbit_tables,
    reductive_centralizer,
    validate_jordan,
)
from donkin.rootsystem import GroupType


def test_validate_examples():
    assert validate_jordan(JordanType.from_partition("GL", [3, 1]))
    assert not validate_jordan(JordanType.from_partition("Sp", [3]))
    assert not validate_jordan(JordanType.from_partition("Sp", [3, 1]))
    assert validate_jordan(JordanType.from_partition("SO", [2, 2, 1]))
    assert not validate_jordan(JordanType.from_partition("SO", [2, 1]))


def test_jordan_type_constructor():
    with pytest.raises(InvalidJordanType):
        JordanType("GL", ((1, 1), (3, 1)))  # sizes not decreasing
    with pytest.raises(InvalidJordanType):
        JordanType("XX", ((2, 1),))
    jt = JordanType.from_partition("Sp", [4, 2, 2, 2])
    assert jt.parts == ((4, 1), (2, 3))
    assert jt.n == 10
    # _make, and _replace through it, check as the constructor does
    assert jt._replace(kind="GL") == JordanType("GL", ((4, 1), (2, 3)))
    assert JordanType._make(("SO", ((3, 1),))) == JordanType("SO", ((3, 1),))
    with pytest.raises(InvalidJordanType):
        JordanType("GL", ((2, 1),))._replace(parts=((0, 1),))
    with pytest.raises(InvalidJordanType):
        JordanType._make(("XX", ((2, 1),)))


def test_parity_rule_pinned_by_enumeration():
    """Brute-force over small-coefficient algebra elements: the set of Jordan
    types of nilpotents in sp4/so4/so5 equals the parity-filtered partitions."""
    for kind, n, coeffs in (("Sp", 4, (0, 1)), ("SO", 4, (-1, 0, 1)),
                            ("SO", 5, (0, 1))):
        gram = split_form(kind, n)
        basis = algebra_basis(kind, n, gram)
        observed = set()
        for combo in itertools.product(coeffs, repeat=len(basis)):
            x = [[sum(c * b[i][j] for c, b in zip(combo, basis))
                  for j in range(n)] for i in range(n)]
            power = x
            for _ in range(n):
                power = [[sum(power[i][k] * x[k][j] for k in range(n))
                          for j in range(n)] for i in range(n)]
            if any(power[i][j] for i in range(n) for j in range(n)):
                continue  # not nilpotent
            observed.add(tuple(jordan_type_of(x)))
        expected = {tuple(jt.partition()) for jt in valid_partitions(kind, n)}
        assert observed == expected, (kind, n)


def test_reductive_centralizer_examples():
    assert centralizer_factor_labels(JordanType.from_partition("GL", [3, 3])) == ("GL2",)
    assert centralizer_factor_labels(JordanType.from_partition("GL", [1] * 5)) == ("GL5",)
    assert str(reductive_centralizer(JordanType.from_partition("Sp", [2, 2]))) == "T1"
    assert str(reductive_centralizer(JordanType.from_partition("SO", [2, 2, 1]))) == "A1"
    assert centralizer_factor_labels(JordanType.from_partition("SO", [2, 2, 1])) \
        == ("Sp2", "SO1")
    assert centralizer_factor_labels(JordanType.from_partition("Sp", [6, 4, 4, 1, 1])) \
        == ("SO1", "SO2", "Sp2")
    assert str(reductive_centralizer(JordanType.from_partition("GL", [3, 1]))) == "T2"
    with pytest.raises(InvalidJordanType):
        reductive_centralizer(JordanType.from_partition("Sp", [3, 1]))


# sha256 of "JT TYPE" lines, one per valid Jordan type of GL, Sp and SO with
# n <= 16 (1,484 types), TYPE the reductive centralizer
REDUCTIVE_CENTRALIZERS_SHA256 = \
    "5251fa05e54c4c20bc3ae9b996b3aa73ce1510b0a88e3fee78955feb44384f12"


def test_reductive_centralizer_golden():
    """The labels are written in table spelling (Sp2 as C1, SO4 as D2, ...)
    and the alias table resolves them; the digest pins every small type."""
    lines = [f"{jt} {reductive_centralizer(jt)}"
             for kind in ("GL", "Sp", "SO") for n in range(1, 17)
             for jt in valid_partitions(kind, n)]
    assert len(lines) == 1484
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REDUCTIVE_CENTRALIZERS_SHA256


def test_centralizer_dimension_examples():
    for n in range(1, 9):
        assert centralizer_dimension(JordanType.from_partition("GL", [1] * n)) == n * n
        assert centralizer_dimension(JordanType.from_partition("GL", [n])) == n
    assert centralizer_dimension(JordanType.from_partition("Sp", [2, 2])) == 4


def test_rank_bounded_by_ambient():
    for kind, n in (("GL", 6), ("Sp", 8), ("SO", 7)):
        ambient_rank = {"GL": n, "Sp": n // 2, "SO": n // 2}[kind]
        for jt in valid_partitions(kind, n):
            assert reductive_centralizer(jt).rank <= ambient_rank


# ---------------------------------------------------------------------------
# tables

def test_parse_examples():
    recs = parse_orbit_tables(
        "A1^2\tB6\tB6 -[levi]-> B1.B6 -[class,p>2]-> D8 -[max,p>2]-> E8\n"
        "D5A2\tT1\tTORUS\n")
    assert len(recs) == 2
    assert recs[0].label == "A1^2"
    assert str(recs[0].centralizer) == "B6"
    assert len(recs[0].chain) == 3
    assert recs[0].chain[1].tag == "class" and recs[0].chain[1].p_bound == 2
    assert recs[1].is_torus
    assert str(recs[0].ambient) == str(recs[1].ambient) == "E8"


def test_parse_empty():
    assert parse_orbit_tables("") == []
    assert parse_orbit_tables("# only a comment\n") == []


def test_parse_errors_carry_position():
    with pytest.raises(TableSyntaxError) as exc:
        parse_orbit_tables("A1\tE7\n")
    assert exc.value.line == 1
    with pytest.raises(TableSyntaxError) as exc:
        parse_orbit_tables("A1\tE7\tE7 -[bogus]-> E8\n")
    assert str(exc.value) == "line 1, column 7: unknown tag 'bogus'"
    with pytest.raises(TableSyntaxError):
        parse_orbit_tables("A1\tE7\tE7 -[levi]-> E8 \n")  # trailing whitespace
    with pytest.raises(TableSyntaxError):
        parse_orbit_tables("A1\tZ9\tTORUS\n")
    with pytest.raises(TableSyntaxError) as exc:  # p>k takes ASCII digits only
        parse_orbit_tables("A1\tE7\tE7 -[levi,p>\u0663]-> E8\n")
    assert str(exc.value) == "line 1, column 7: bad type 'E7 -[levi,p>\u0663]-> E8'"


@pytest.mark.parametrize("text, message", [
    ("E7 -[bogus]-> E8", "unknown tag 'bogus'"),
    ("E7 -[levi]-> Q9", "bad type 'Q9'"),
    ("E7", "chain needs at least one step"),
    ("E\u0667 -[levi]-> E8", "bad type 'E\u0667'"),
])
def test_parse_chain_errors(text, message):
    with pytest.raises(ValueError) as exc:
        parse_chain(text)
    assert str(exc.value) == message


def test_parse_chain_is_the_table_chain_cell():
    text = "B6 -[levi]-> B1.B6 -[class,p>2]-> D8 -[max,p>2]-> E8"
    assert parse_chain(text) == parse_orbit_tables(f"A1^2\tB6\t{text}\n")[0].chain


def test_shipped_tables_roundtrip(shipped_tables):
    for recs in shipped_tables.values():
        assert parse_orbit_tables(serialize_orbit_tables(recs)) == recs


def test_shipped_tables_row_counts(shipped_tables):
    assert {k: len(v) for k, v in shipped_tables.items()} == \
        {"e8": 58, "e7": 38, "e6": 17, "f4": 11, "g2": 2}


def test_shipped_table_endpoints(shipped_tables):
    from donkin.rootsystem import normalize_type
    for name, recs in shipped_tables.items():
        for rec in recs:
            assert rec.ambient is not None
            if rec.chain:
                assert normalize_type(rec.chain_end()) == normalize_type(rec.ambient)
                assert normalize_type(rec.chain[0].sub) == normalize_type(rec.centralizer)


def test_serialize_torus():
    rec = OrbitRecord("X", GroupType.parse("T1"), None)
    assert serialize_orbit_tables([rec]) == "X\tT1\tTORUS\n"
