"""Classical nilpotent orbit combinatorics and the orbit-table file format.

Jordan types live in gl_n, sp_n, or so_n.  The parity rules (sp: odd block
sizes occur with even multiplicity; so: even sizes with even multiplicity) and
the centralizer-type sign rule (the invariant form carried by a single size-s
Jordan string is symmetric iff s is odd) are pinned down by the explicit
matrix oracle in the test suite before being relied on here.

Table files are UTF-8, line oriented, ``#`` comments, LF endings::

    record := label TAB type TAB (chain | "TORUS")
    chain  := type (" -[" tag ("," "p>" INT)? "]-> " type)*
    tag    := diag | levi | auto | class | max | resirr | tensor | alias
    type   := factor ("." factor)* ;  factor := LETTER INT
"""
from __future__ import annotations

import re
from collections import Counter, namedtuple

from . import embeddings
from .errors import DonkinError, InvalidJordanType, TableSyntaxError
from .rootsystem import GroupType, SimpleType, build_root_datum, normalize_type

KINDS = ("GL", "Sp", "SO")


class JordanType(namedtuple("JordanType", "kind parts")):
    """Block sizes with multiplicities, strictly decreasing sizes: ``parts``
    holds (size, multiplicity) pairs."""

    __slots__ = ()

    def __new__(cls, kind: str, parts: tuple[tuple[int, int], ...]):
        if kind not in KINDS:
            raise InvalidJordanType(f"unknown kind {kind!r}")
        sizes = [s for s, _ in parts]
        if sizes != sorted(sizes, reverse=True) or len(set(sizes)) != len(sizes):
            raise InvalidJordanType("sizes must be strictly decreasing")
        if any(s < 1 or r < 1 for s, r in parts):
            raise InvalidJordanType("sizes and multiplicities must be positive")
        return super().__new__(cls, kind, parts)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)

    @classmethod
    def from_partition(cls, kind: str, partition) -> "JordanType":
        counts = Counter(int(p) for p in partition)
        return cls(kind, tuple(sorted(counts.items(), reverse=True)))

    @property
    def n(self) -> int:
        return sum(s * r for s, r in self.parts)

    def partition(self) -> list[int]:
        out: list[int] = []
        for s, r in self.parts:
            out.extend([s] * r)
        return out

    def __str__(self):
        return f"{self.kind}[{','.join(map(str, self.partition()))}]"


def validate_jordan(jt: JordanType) -> bool:
    """The kind's parity constraint holds.  An Sp type that passes has even
    size: an odd size needs an odd part of odd multiplicity."""
    if jt.kind == "Sp":
        return all(r % 2 == 0 for s, r in jt.parts if s % 2 == 1)
    if jt.kind == "SO":
        return all(r % 2 == 0 for s, r in jt.parts if s % 2 == 0)
    return True


def _check_valid(jt: JordanType):
    if not validate_jordan(jt):
        raise InvalidJordanType(f"{jt} violates the parity constraint")


def centralizer_factor_labels(jt: JordanType) -> tuple[str, ...]:
    """Classical labels of the reductive centralizer, one per block size.

    For a nilpotent with r_i blocks of size s_i the factor acting on the
    multiplicity space is GL_{r_i} in gl; in sp/so it preserves the form
    induced on the multiplicity space, which is symmetric iff the form on a
    single string is (anti)symmetric as the ambient demands: Sp gives Sp_{r}
    for odd s and SO_{r} for even s, SO the other way around.
    """
    _check_valid(jt)
    labels = []
    for s, r in jt.parts:
        if jt.kind == "GL":
            labels.append(f"GL{r}")
        elif (jt.kind == "Sp") == (s % 2 == 1):
            labels.append(f"Sp{r}")
        else:
            labels.append(f"SO{r}")
    return tuple(labels)


def _label_to_factors(label: str) -> tuple[SimpleType, ...]:
    """The label's factors in table spelling (Sp2 is C1, SO2 is D1, ...);
    :func:`normalize_type` resolves the aliases."""
    kind, r = label[:2], int(label[2:])
    if kind == "GL":
        return ((SimpleType("A", r - 1), SimpleType("T", 1)) if r >= 2
                else (SimpleType("T", 1),))
    if kind == "Sp":
        return (SimpleType("C", r // 2),)
    if r == 1:  # SO1 is trivial and dropped
        return ()
    return (SimpleType("B" if r % 2 else "D", r // 2),)


def reductive_centralizer(jt: JordanType) -> GroupType:
    """Normalized group type of the reductive part of the centralizer."""
    facs: list[SimpleType] = []
    for label in centralizer_factor_labels(jt):
        facs.extend(_label_to_factors(label))
    return normalize_type(GroupType(tuple(facs)))


def centralizer_dimension(jt: JordanType) -> int:
    """Dimension of the full Lie-algebra centralizer of the nilpotent.

    gl: sum of min(s_i, s_j); sp and so: half of that, corrected by half the
    number of odd parts (+ for sp, - for so).
    """
    _check_valid(jt)
    parts = jt.partition()
    pair_sum = sum(min(a, b) for a in parts for b in parts)
    if jt.kind == "GL":
        return pair_sum
    odd = sum(1 for p in parts if p % 2)
    total = pair_sum + odd if jt.kind == "Sp" else pair_sum - odd
    if total % 2:
        raise AssertionError("centralizer dimension formula gave a half-integer")
    return total // 2


def reductive_dimension(jt: JordanType) -> int:
    """Dimension of the reductive centralizer, read off its root datum."""
    return build_root_datum(reductive_centralizer(jt)).group_dimension()


def unipotent_dimension(jt: JordanType) -> int:
    return centralizer_dimension(jt) - reductive_dimension(jt)


# ---------------------------------------------------------------------------
# orbit tables

class OrbitRecord(namedtuple("OrbitRecord", "label centralizer chain ambient",
                             defaults=(None,))):
    """One table row: orbit label, centralizer type, embedding chain (a tuple
    of ``embeddings.EmbeddingStep``, or None for the TORUS marker), and the
    ambient group if known."""

    __slots__ = ()

    @property
    def is_torus(self) -> bool:
        return self.chain is None

    def chain_end(self) -> GroupType | None:
        return self.chain[-1].amb if self.chain else None


_ARROW_RE = re.compile(r" -\[([a-z]+)(?:,p>([0-9]+))?\]-> ")


def _parse_type(text: str) -> GroupType:
    try:
        return GroupType.parse(text)
    except DonkinError:
        raise ValueError(f"bad type {text!r}") from None


def parse_chain(text: str) -> tuple[embeddings.EmbeddingStep, ...]:
    """The steps of one chain cell; a ValueError names what is malformed."""
    pieces = _ARROW_RE.split(text)
    # pieces: type, (tag, p, type)*
    if len(pieces) % 3 != 1:
        raise ValueError("malformed chain")
    types = [_parse_type(pieces[0])]
    steps: list[embeddings.EmbeddingStep] = []
    for k in range(1, len(pieces), 3):
        tag, p_text, ttext = pieces[k], pieces[k + 1], pieces[k + 2]
        if tag not in embeddings._CLAUSES:
            raise ValueError(f"unknown tag {tag!r}")
        target = _parse_type(ttext)
        try:  # int refuses a k past Python's limit on the digits of a conversion
            p_bound = int(p_text) if p_text else None
        except ValueError:
            raise ValueError(f"bad bound p>{p_text}") from None
        steps.append(embeddings.EmbeddingStep(tag, types[-1], target, p_bound))
        types.append(target)
    if not steps:
        raise ValueError("chain needs at least one step")
    return tuple(steps)


def parse_orbit_tables(text: str) -> list[OrbitRecord]:
    """Parse a table file into records.

    The grammar has no ambient column; the ambient is inferred per file as
    the most common chain endpoint, so that a corrupted row surfaces as an
    endpoint mismatch during verification rather than here.
    """
    records: list[OrbitRecord] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw != raw.rstrip():
            raise TableSyntaxError(lineno, len(raw.rstrip()) + 1, "trailing whitespace")
        if not raw or raw.startswith("#"):
            continue
        cells = raw.split("\t")
        if len(cells) != 3:
            raise TableSyntaxError(lineno, 1, f"expected 3 tab-separated cells, got {len(cells)}")
        label, ctype_text, chain_text = cells
        if not label:
            raise TableSyntaxError(lineno, 1, "empty label")
        col = len(label) + 2  # where the cell being parsed starts
        try:
            centralizer = _parse_type(ctype_text)
            col += len(ctype_text) + 1
            chain = None if chain_text == "TORUS" else parse_chain(chain_text)
        except ValueError as exc:
            raise TableSyntaxError(lineno, col, str(exc)) from None
        records.append(OrbitRecord(label, centralizer, chain))
    ends = Counter(normalize_type(r.chain_end()) for r in records if r.chain)
    if ends:
        ambient = ends.most_common(1)[0][0]
        records = [OrbitRecord(r.label, r.centralizer, r.chain, ambient)
                   for r in records]
    return records

