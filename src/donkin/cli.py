"""Command-line surface: root-system queries, character computations, and
batch verification of orbit tables.

Output is deterministic; ``--format jsonl`` emits one JSON object per line
with a ``schema`` version field.  Exit status: 0 on success / all-pass, 1 on
verification failure, 2 on usage or parse errors.  One standard-library
``argparse`` parser reads the command line; each command is a function of
the parsed namespace that returns its exit status.
"""
from __future__ import annotations

import argparse
import importlib.util
import itertools
import os
import sys
import time

from .errors import DonkinError, TableSyntaxError
from .rootsystem import (
    GroupType,
    build_root_datum,
    highest_roots,
    normalize_type,
    weyl_dim,
)


def _on_demand(name):
    """The submodule ``name`` of this package, entered in ``sys.modules``
    but run only when one of its attributes is first read; a module already
    imported comes back unchanged.  It stays because importing all four
    modules eagerly made light jobs 13-21 ms slower (``roots A1`` +20.6 ms,
    ``char G2 1,0`` +15.4 ms; medians of 25 alternating rounds on one pinned
    CPU of a 2-vCPU VM, Python 3.11, no bytecode)."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Each command loads only the modules it reads from; call them through the
# module (``ch.x``), since ``from .verifier import x`` would run it at once.
ch = _on_demand("characters")
embeddings = _on_demand("embeddings")
nilpotent = _on_demand("nilpotent")
verifier = _on_demand("verifier")

SCHEMA = 1


class UsageError(Exception):
    """A usage error found after parsing: the command's usage line, then
    ``Error: MESSAGE`` on stderr, and exit status 2."""


def _parse_weight(text: str, rank: int):
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"bad weight {text!r}; expected comma-separated integers")
    if len(coords) != rank:
        raise UsageError(f"weight {text!r} has {len(coords)} coordinates, rank is {rank}")
    return coords


def _weight_format(rank: int) -> str:
    """The %-template that prints a weight of this rank as 'c1,c2,...'."""
    return ",".join(["%d"] * rank)


def _item_lines(pattern: str, rank: int, items):
    """One line per (weight, multiplicity) pair, yielded in blocks of at most
    1024 lines joined by newlines, so no more than one block is held at a
    time.  The ``%s`` of ``pattern`` becomes the weight's fields, e.g.
    '  %s: %%d', and a block is one ``%`` over that row template repeated."""
    template = pattern % _weight_format(rank)
    items = iter(items)
    while chunk := list(itertools.islice(items, 1024)):
        flat = []
        for w, m in chunk:
            flat += w
            flat.append(m)
        yield "\n".join([template] * len(chunk)) % tuple(flat)


def _keyed(rank: int, mults: dict) -> dict[str, int]:
    """{'c1,c2,...': multiplicity}; any order will do, as jsonl sorts keys."""
    template = _weight_format(rank)
    return {template % w: m for w, m in mults.items()}


def _parse_group(text: str) -> GroupType:
    try:
        return GroupType.parse(text)
    except DonkinError as exc:
        raise UsageError(str(exc))


def _emit(fmt, kind, payload, lines):
    """Print one jsonl record or the text lines.  ``payload`` and ``lines``
    are zero-argument callables and only the one ``fmt`` asks for is called,
    so a command builds only the form it prints.  ``lines()`` is an iterable
    of lines or blocks of lines (see :func:`_item_lines`), each written as it
    is produced, so a long output is never held whole."""
    write = sys.stdout.write
    if fmt == "jsonl":
        import json
        write(json.dumps({"schema": SCHEMA, "kind": kind, **payload()}, sort_keys=True) + "\n")
    else:
        for text in lines():
            write(text + "\n")


def _save_cache():
    try:
        ch.save_cache_file()
    except OSError:
        pass  # cache is best-effort only


def roots(ns):
    """Positive-root count and the highest root of each simple factor of
    TYPE (e.g. E8 or A1.B6)."""
    gt = _parse_group(ns.type)
    rd = build_root_datum(gt)
    hrs = highest_roots(rd)

    def payload():
        out = {"type": str(rd.gtype), "rank": rd.rank,
               "positive_roots": len(rd.positive_roots),
               "highest_root": list(hrs[0]) if len(hrs) == 1 else None,
               "group_dimension": rd.group_dimension()}
        if len(hrs) > 1:
            out["highest_roots"] = [list(hr) for hr in hrs]
        return out

    _emit(ns.fmt, "roots", payload,
          lambda: [f"type {rd.gtype} (rank {rd.rank})",
                   f"positive roots: {len(rd.positive_roots)}",
                   f"highest root{'s' if len(hrs) > 1 else ''}: "
                   + ("; ".join(",".join(map(str, hr)) for hr in hrs) or "(none)"),
                   f"group dimension: {rd.group_dimension()}"])


def char(ns):
    """Dual Weyl character of TYPE at highest weight LAM (comma-separated).

    LAM is read in the coordinates of the normalized type that the first
    output line prints: "char C2 1,0" is B2's omega_1, of dimension 5.
    """
    gt = _parse_group(ns.type)
    rd = build_root_datum(gt)
    w = _parse_weight(ns.lam, rd.rank)
    ch.load_cache_file()
    chi = ch.dual_weyl_character(rd, w)
    _save_cache()
    _emit(ns.fmt, "char",
          lambda: {"type": str(rd.gtype), "highest_weight": list(w),
                   "dimension": chi.dim(), "weights": _keyed(rd.rank, chi.support)},
          lambda: itertools.chain(
              [f"type {rd.gtype}, highest weight {ns.lam}",
               f"dimension: {chi.dim()} (Weyl formula: {weyl_dim(rd, w)})"],
              _item_lines("  %s: %%d", rd.rank, chi.support.items())))


def _read_text(path):
    """The UTF-8 text of an input file; a DonkinError, so one error line and
    exit 2, if it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DonkinError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise DonkinError(f"{path}: {exc}") from None


def _read_character(rd, path):
    support = {}
    # text-mode reads turn every line ending into "\n"
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            mult_text, coords_text = line.split(None, 1)
            mult = int(mult_text)
            w = tuple(int(c) for c in coords_text.split(","))
        except ValueError:
            raise UsageError(f"{path}:{lineno}: expected 'MULT c1,c2,...'")
        if len(w) != rd.rank:
            raise UsageError(f"{path}:{lineno}: weight has wrong length")
        support[w] = support.get(w, 0) + mult
    return ch.FormalCharacter(rd.gtype, support)


def decompose(ns):
    """Decompose a character into dual Weyl characters.

    SOURCE is @FILE with lines 'MULT c1,c2,...' over TYPE's coordinates.
    """
    gt = _parse_group(ns.type)
    rd = build_root_datum(gt)
    if not ns.source.startswith("@"):
        raise UsageError("SOURCE must be @FILE")
    chi = _read_character(rd, ns.source[1:])
    dec = ch.decompose_dual_weyl(rd, chi)
    _emit(ns.fmt, "decompose",
          lambda: {"type": str(rd.gtype), "dimension": chi.dim(), "exact": dec.exact,
                   "terms": _keyed(rd.rank, dec.terms)},
          lambda: itertools.chain(
              [f"type {rd.gtype}, dimension {chi.dim()}",
               f"exact: {'yes' if dec.exact else 'NO (virtual)'}"],
              _item_lines("  nabla(%s): %%d", rd.rank, dec.items_sorted())))


def exterior(ns):
    """Exterior algebra of the dual Weyl module: decomposition and, with
    --p, a restrictedness report (exit 1 if some weight is not restricted).

    LAM is read in the coordinates of the normalized type that the first
    output line prints, as for char.
    """
    prime = ns.prime
    if prime is not None and ch.min_prime_greater(prime - 1) != prime:
        raise UsageError(f"--p {prime} is not a prime")
    gt = _parse_group(ns.type)
    rd = build_root_datum(gt)
    w = _parse_weight(ns.lam, rd.rank)
    ch.load_cache_file()
    chi = ch.dual_weyl_character(rd, w)
    ea = ch.exterior_algebra(chi)
    dec = ch.decompose_dual_weyl(rd, ea)
    _save_cache()
    items = dec.items_sorted()
    ok = True
    if prime is not None:
        bad = [k for k, _ in items if not ch.is_restricted(rd, k, prime)]
        ok = dec.exact and not bad

    def payload():
        out = {"type": str(rd.gtype), "module_dim": chi.dim(), "algebra_dim": ea.dim(),
               "exact": dec.exact, "terms": _keyed(rd.rank, dec.terms)}
        if prime is not None:
            out.update(p=prime, all_restricted=not bad, verdict="PASS" if ok else "FAIL")
        return out

    def lines():
        yield (f"type {rd.gtype}, module dimension {chi.dim()}, "
               f"exterior algebra dimension {ea.dim()}")
        yield f"exact: {'yes' if dec.exact else 'NO (virtual)'}"
        yield from _item_lines("  nabla(%s): %%d", rd.rank, items)
        if prime is not None:
            yield (f"all highest weights restricted at p={prime}: "
                   f"{'PASS' if ok else 'FAIL'}"
                   + (f" (unrestricted: {['|'.join(map(str, b)) for b in bad]})" if bad else ""))

    _emit(ns.fmt, "exterior", payload, lines)
    return 0 if ok else 1


def restrict(ns):
    """Restrict a dual Weyl character down a chain.

    CHAIN uses the table grammar, e.g. "B2 -[auto]-> A3"; LAM is a dominant
    weight of the chain's final (ambient) type.  Prints the restricted
    character's decomposition in the chain-start group.
    """
    try:
        steps = nilpotent.parse_chain(ns.chain)
    except ValueError as exc:
        raise UsageError(f"bad chain: {exc}")
    total = embeddings.chain_restriction_map(steps)
    if total is None:
        raise UsageError("chain contains a map-less max-rank step")
    amb_rd = build_root_datum(normalize_type(steps[-1].amb))
    w = _parse_weight(ns.lam, amb_rd.rank)
    ch.load_cache_file()
    chi = ch.dual_weyl_character(amb_rd, w)
    restricted = embeddings.restrict_character(chi, total)
    sub_rd = build_root_datum(normalize_type(total.target))
    dec = ch.decompose_dual_weyl(sub_rd, restricted)
    _save_cache()
    _emit(ns.fmt, "restrict",
          lambda: {"ambient": str(amb_rd.gtype), "subgroup": str(sub_rd.gtype),
                   "highest_weight": list(w), "dimension": chi.dim(),
                   "exact": dec.exact, "terms": _keyed(sub_rd.rank, dec.terms)},
          lambda: itertools.chain(
              [f"restrict {amb_rd.gtype} nabla({ns.lam}) (dim {chi.dim()}) "
               f"to {sub_rd.gtype}",
               f"exact: {'yes' if dec.exact else 'NO (virtual)'}"],
              _item_lines("  nabla(%s): %%d", sub_rd.rank, dec.items_sorted())))


def orbit_classical(ns):
    """Validity, centralizer type, and centralizer dimension of a Jordan type."""
    kind = ns.kind
    try:
        parts = [int(p) for p in ns.partition.split(",")]
    except ValueError:
        raise UsageError("PARTITION must be comma-separated integers")
    jt = nilpotent.JordanType.from_partition(kind, parts)
    if not nilpotent.validate_jordan(jt, jt.n):
        _emit(ns.fmt, "orbit",
              lambda: {"kind": kind, "partition": parts, "valid": False},
              lambda: [f"{jt}: not a valid nilpotent Jordan type"])
        return 1
    labels = nilpotent.centralizer_factor_labels(jt)
    _emit(ns.fmt, "orbit",
          lambda: {"kind": kind, "partition": parts, "valid": True,
                   "centralizer_factors": list(labels),
                   "centralizer_type": str(nilpotent.reductive_centralizer(jt)),
                   "centralizer_dimension": nilpotent.centralizer_dimension(jt),
                   "unipotent_dimension": nilpotent.unipotent_dimension(jt)},
          lambda: [f"{jt}: valid",
                   f"reductive centralizer: {'.'.join(labels)} "
                   f"(root system {nilpotent.reductive_centralizer(jt)})",
                   f"centralizer dimension: {nilpotent.centralizer_dimension(jt)} "
                   f"(unipotent part {nilpotent.unipotent_dimension(jt)})"])


def _read_tables(paths):
    out = []
    for path in paths:
        text = _read_text(path)
        try:
            out.append((path, nilpotent.parse_orbit_tables(text)))
        except TableSyntaxError as exc:
            raise DonkinError(f"{path}: {exc}") from None
    return out


def verify_tables(ns):
    """Verify every record of the given table files; exit 1 on any failure."""
    total_pass = total_fail = 0
    for path, recs in _read_tables(ns.files):
        reports = [verifier.verify_record(r) for r in recs]
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            line = (f"{status} {rep.record.label} ({rep.record.ambient}): "
                    f"p_min={rep.p_min}, bound={rep.good_bound}")
            if rep.notes:
                line += " -- " + "; ".join(rep.notes)
            _emit(ns.fmt, "verify", lambda: {"file": path, **rep.as_dict()}, lambda: [line])
        failed = sum(not rep.passed for rep in reports)
        total_pass += len(reports) - failed
        total_fail += failed
    _emit(ns.fmt, "verify-summary",
          lambda: {"passed": total_pass, "failed": total_fail},
          lambda: [f"summary: {total_pass} passed, {total_fail} failed"])
    return 1 if total_fail else 0


def spot_check(ns):
    """Character-level spot check of every chain; exit 1 on any failure."""
    ch.load_cache_file()
    failed = 0
    for path, recs in _read_tables(ns.files):
        if not recs:
            continue
        ambient = next((r.ambient for r in recs if r.ambient), None)
        if ambient is None:
            raise DonkinError(f"{path}: cannot infer the ambient group")
        rd = build_root_datum(ambient)
        w = _parse_weight(ns.lam, rd.rank)
        for rec in recs:
            v = verifier.spot_check(rec, w)
            failed += v.status == "FAIL"
            _emit(ns.fmt, "spot-check", lambda: {"file": path, **v.as_dict()},
                  lambda: [f"{v.status} {rec.label} ({ambient}): {v.detail}"])
    _save_cache()
    return 1 if failed else 0


def _parser(prog: str) -> argparse.ArgumentParser:
    """The parser of every command line; a command's namespace carries its
    function as ``run`` and its usage line as ``usage()``."""
    parser = argparse.ArgumentParser(
        prog=prog, description="Exact root-system and character computations, "
                               "plus table verification.")
    parser.add_argument("--format", dest="fmt", choices=("text", "jsonl"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--timing", action="store_true",
                        help="append a wall-clock timing line to stderr")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name, run, *positionals):
        sub = group.add_parser(name, help=run.__doc__.split("\n\n")[0], description=run.__doc__)
        for meta in positionals:
            sub.add_argument(meta.lower(), metavar=meta)
        sub.set_defaults(run=run, usage=sub.format_usage)
        return sub

    command(commands, "roots", roots, "TYPE")
    command(commands, "char", char, "TYPE", "LAM")
    command(commands, "decompose", decompose, "TYPE", "SOURCE")
    command(commands, "exterior", exterior, "TYPE", "LAM").add_argument(
        "--p", dest="prime", type=int, metavar="P",
        help="report restrictedness of every highest weight at this prime")
    command(commands, "restrict", restrict, "CHAIN", "LAM")
    orbit = commands.add_parser("orbit", help="Nilpotent orbit queries.",
                                description="Nilpotent orbit queries.")
    classical = command(orbit.add_subparsers(metavar="QUERY", required=True),
                        "classical", orbit_classical)
    classical.add_argument("kind", choices=("GL", "Sp", "SO"))
    classical.add_argument("partition", metavar="PARTITION")
    command(commands, "verify-tables", verify_tables).add_argument(
        "files", nargs="+", metavar="FILE")
    spot = command(commands, "spot-check", spot_check)
    spot.add_argument("files", nargs="+", metavar="FILE")
    spot.add_argument("--lambda", dest="lam", required=True, metavar="LAM",
                      help="dominant weight of the ambient group, comma-separated")
    return parser


def main(args=None, prog_name=None):
    """Run one command line (``sys.argv[1:]`` when ``args`` is None) and
    exit with its status; a parse error exits 2 from argparse itself."""
    ns = _parser(prog_name or "donkin").parse_args(args)
    t0 = time.perf_counter()
    message = ""
    try:
        try:
            code = ns.run(ns) or 0
        except UsageError as exc:
            code, message = 2, f"{ns.usage()}Error: {exc}\n"
        except DonkinError as exc:
            code, message = 2, f"error: {exc}\n"
        # stdout before the stderr lines; a reader gone early shows here at the latest
        sys.stdout.flush()
    except BrokenPipeError:
        # as after '| head': exit 1, no traceback, and stdout's unwritten
        # bytes go to /dev/null when the interpreter flushes it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if ns.timing:
        message += f"# elapsed {time.perf_counter() - t0:.3f}s\n"
    sys.stderr.write(message)
    sys.exit(code)


if __name__ == "__main__":
    main()
