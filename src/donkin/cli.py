"""Exact root-system and character computations, plus table verification.

Output is deterministic.  --format jsonl prints one JSON object per line with
a schema version field, and --timing appends a wall-clock timing line to
stderr.  Exit status: 0 on success or all-pass, 1 on verification failure, 2
on a usage or parse error.  -h or --help after a command prints its help.
"""
from __future__ import annotations

import gc
import importlib.util
import itertools
import os
import re
import sys
import time
import types

from .errors import DonkinError, TableSyntaxError
from .rootsystem import GroupType, build_root_datum, weyl_dim


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
    """A usage error, found by the parser or by a command: the usage line,
    then ``Error: MESSAGE`` on stderr, and exit status 2."""


# A weight LAM as it is written: comma-separated decimal integers in ASCII
_LAM = re.compile(r"-?[0-9]+(,-?[0-9]+)*")


def _ints(text: str):
    """The integers of a ``_LAM`` text within Python's digit limit for int, else None."""
    try:
        return tuple(map(int, text.split(","))) if _LAM.fullmatch(text) else None
    except ValueError:
        return None


def _parse_weight(text: str, rank: int | None = None):
    """The weight ``text`` writes, of ``rank`` coordinates unless it is None."""
    coords = _ints(text)
    if coords is None:
        raise UsageError(f"bad weight {text!r}; expected comma-separated integers")
    if rank is not None and len(coords) != rank:
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


def _datum(text: str):
    """The root datum of the group type ``text``; one that does not parse is
    a usage error."""
    try:
        gtype = GroupType.parse(text)
    except DonkinError as exc:
        raise UsageError(str(exc))
    return build_root_datum(gtype)


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


def _character(rd, text):
    """The weight LAM that ``text`` writes and ∇(LAM) of ``rd``; the cache
    file, which only ∇(LAM) fills, is read just before and written just after."""
    w = _parse_weight(text, rd.rank)
    ch.load_cache_file()
    chi = ch.dual_weyl_character(rd, w)
    _save_cache()
    return w, chi


def _report(fmt, kind, dec, payload, head, tail=()):
    """Print the decomposition ``dec``: in jsonl, ``payload`` with its
    ``exact`` and ``terms``; in text, the ``head`` line, the ``exact:`` line,
    one ``nabla(…)`` line per term, then the ``tail`` lines."""
    rank = dec.ambient.rank
    _emit(fmt, kind,
          lambda: {**payload, "exact": dec.exact, "terms": _keyed(rank, dec.terms)},
          lambda: itertools.chain(
              [head, f"exact: {'yes' if dec.exact else 'NO (virtual)'}"],
              _item_lines("  nabla(%s): %%d", rank, dec.items_sorted()), tail))


def roots(ns):
    """Positive-root count and the highest root of each simple factor of
    TYPE (e.g. E8 or A1.B6)."""
    rd = _datum(ns.type)
    hrs = rd.highest_roots

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
    rd = _datum(ns.type)
    w, chi = _character(rd, ns.lam)
    _emit(ns.fmt, "char",
          lambda: {"type": str(rd.gtype), "highest_weight": list(w),
                   "dimension": chi.dim(), "weights": _keyed(rd.rank, chi.support)},
          lambda: itertools.chain(
              [f"type {rd.gtype}, highest weight {ns.lam}",
               f"dimension: {chi.dim()} (Weyl formula: {weyl_dim(rd, w)})"],
              _item_lines("  %s: %%d", rd.rank, chi.support.items())))


def _read_text(path):
    """The UTF-8 text of an input file, less a leading byte-order mark; a
    DonkinError, so one error line and exit 2, if it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
        fields = line.split(None, 1)
        ints = _ints(",".join(fields)) if len(fields) == 2 else None
        if ints is None:
            raise UsageError(f"{path}:{lineno}: expected 'MULT c1,c2,...'")
        mult, w = ints[0], ints[1:]
        if len(w) != rd.rank:
            raise UsageError(f"{path}:{lineno}: weight has wrong length")
        support[w] = support.get(w, 0) + mult
    return ch.FormalCharacter(rd.gtype, support)


def decompose(ns):
    """Decompose a character into dual Weyl characters.

    SOURCE is @FILE with lines 'MULT c1,c2,...' over TYPE's coordinates.
    """
    rd = _datum(ns.type)
    if not ns.source.startswith("@"):
        raise UsageError("SOURCE must be @FILE")
    chi = _read_character(rd, ns.source[1:])
    dec = ch.decompose_dual_weyl(chi)
    _report(ns.fmt, "decompose", dec, {"type": str(rd.gtype), "dimension": chi.dim()},
            f"type {rd.gtype}, dimension {chi.dim()}")


def exterior(ns):
    """Exterior algebra of the dual Weyl module: decomposition and, with
    --p, a restrictedness report (exit 1 if some weight is not restricted).

    LAM is read in the coordinates of the normalized type that the first
    output line prints, as for char.
    """
    p = ns.prime
    prime = None if p is None else (p.isdecimal() and _ints(p) or (0,))[0]  # else 0, no prime
    if prime is not None and ch.min_prime_greater(prime - 1) != prime:
        raise UsageError(f"--p {p} is not a prime")
    rd = _datum(ns.type)
    _, chi = _character(rd, ns.lam)
    ea = ch.exterior_algebra(chi)
    dec = ch.decompose_dual_weyl(ea)
    payload = {"type": str(rd.gtype), "module_dim": chi.dim(), "algebra_dim": ea.dim()}
    tail = []
    ok = True
    if prime is not None:
        bad = [k for k, _ in dec.items_sorted() if not ch.is_restricted(rd, k, prime)]
        ok = dec.exact and not bad
        payload.update(p=prime, all_restricted=not bad, verdict="PASS" if ok else "FAIL")
        tail.append(f"all highest weights restricted at p={prime}: {'PASS' if ok else 'FAIL'}"
                    + (f" (unrestricted: {['|'.join(map(str, b)) for b in bad]})" if bad else ""))
    _report(ns.fmt, "exterior", dec, payload,
            f"type {rd.gtype}, module dimension {chi.dim()}, "
            f"exterior algebra dimension {ea.dim()}", tail)
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
    amb_rd = build_root_datum(steps[-1].amb)
    w, chi = _character(amb_rd, ns.lam)
    dec = ch.decompose_dual_weyl(embeddings.restrict_character(chi, total))
    _report(ns.fmt, "restrict", dec,
            {"ambient": str(amb_rd.gtype), "subgroup": str(dec.ambient),
             "highest_weight": list(w), "dimension": chi.dim()},
            f"restrict {amb_rd.gtype} nabla({ns.lam}) (dim {chi.dim()}) to {dec.ambient}")


def orbit_classical(ns):
    """Validity, centralizer type, and centralizer dimension of a Jordan type:
    KIND is GL, Sp or SO, and PARTITION is comma-separated, e.g. 3,1."""
    kind = ns.kind
    if kind not in ("GL", "Sp", "SO"):
        raise UsageError(f"KIND is GL, Sp or SO, not {kind!r}")
    parts = _ints(ns.partition)
    if parts is None:
        raise UsageError("PARTITION must be comma-separated integers")
    jt = nilpotent.JordanType.from_partition(kind, parts)
    if not nilpotent.validate_jordan(jt):
        _emit(ns.fmt, "orbit",
              lambda: {"kind": kind, "partition": parts, "valid": False},
              lambda: [f"{jt}: not a valid nilpotent Jordan type"])
        return 1
    labels = nilpotent.centralizer_factor_labels(jt)
    ctype = nilpotent.reductive_centralizer(jt)
    dim, udim = nilpotent.centralizer_dimension(jt), nilpotent.unipotent_dimension(jt)
    _emit(ns.fmt, "orbit",
          lambda: {"kind": kind, "partition": parts, "valid": True,
                   "centralizer_factors": list(labels), "centralizer_type": str(ctype),
                   "centralizer_dimension": dim, "unipotent_dimension": udim},
          lambda: [f"{jt}: valid",
                   f"reductive centralizer: {'.'.join(labels)} (root system {ctype})",
                   f"centralizer dimension: {dim} (unipotent part {udim})"])


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
    """Character-level spot check of every chain at LAM, a dominant weight of
    the ambient group; exit 1 on any failure."""
    _parse_weight(ns.lam)  # its length is checked per table
    ch.load_cache_file()
    failed = 0
    for path, recs in _read_tables(ns.files):
        if not recs:
            continue
        ambient = recs[0].ambient  # the table parser gives every record the same
        if ambient is None:
            raise DonkinError(f"{path}: cannot infer the ambient group")
        rd = build_root_datum(ambient)
        w = rd.dominant(_parse_weight(ns.lam, rd.rank))
        for rec, v in zip(recs, verifier.spot_check_table(recs, w)):
            failed += v.status == "FAIL"
            _emit(ns.fmt, "spot-check", lambda: {"file": path, **v.as_dict()},
                  lambda: [f"{v.status} {rec.label} ({ambient}): {v.detail}"])
    _save_cache()
    return 1 if failed else 0


# Each command: its function, arguments and options as its usage line writes
# them.  A value is kept under its name in lower case (FILE... as the list
# ``files``), a lower-case word stands for itself, and [--OPTION] is optional.
_COMMANDS = {
    "roots": (roots, "TYPE", ""),
    "char": (char, "TYPE LAM", ""),
    "decompose": (decompose, "TYPE SOURCE", ""),
    "exterior": (exterior, "TYPE LAM", "[--p PRIME]"),
    "restrict": (restrict, "CHAIN LAM", ""),
    "orbit": (orbit_classical, "classical KIND PARTITION", ""),
    "verify-tables": (verify_tables, "FILE...", ""),
    "spot-check": (spot_check, "FILE...", "--lambda LAM"),
}


def _synopsis(name):
    """The command ``name`` and its arguments, or donkin's if it is None."""
    return " ".join(filter(None, (name, *_COMMANDS[name][1:]))) if name else \
        "[--format text|jsonl] [--timing] COMMAND ..."


def _help(ns):
    """Print the usage line and the help of the command, or of donkin; a
    docstring that -OO stripped is left out."""
    doc = (_COMMANDS[ns.name][0].__doc__ if ns.name else __doc__) or ""
    if not ns.name:
        doc += "\ncommands:" + "".join(f"\n  {_synopsis(name)}" for name in _COMMANDS)
    sys.stdout.write((ns.usage() + "\n" + doc.replace("\n    ", "\n").strip()).rstrip() + "\n")


def _parse(ns, argv):
    """Fill ``ns`` from ``argv``: donkin's options, the command, then its
    arguments and options in any order.  A word starting with '-' is an
    option unless it is '-', a weight (``_LAM``) or after '--'; its value
    follows '=' or is the next word.  A fault raises UsageError."""
    options, values, rest = {"--format": "fmt"}, [], False
    names = ["COMMAND"]  # until the command is read
    argv = iter(argv)
    for arg in argv:
        if rest or arg[:1] != "-" or arg == "-" or _LAM.fullmatch(arg):
            if ns.name:
                values.append(arg)
                continue
            if arg not in _COMMANDS:
                raise UsageError(f"{arg!r} is not a command")
            if ns.fmt not in ("text", "jsonl"):
                raise UsageError(f"--format is text or jsonl, not {ns.fmt!r}")
            ns.name, (run, names, spec) = arg, _COMMANDS[arg]
            names, pairs = names.split(), spec.replace("[", "").replace("]", "").split()
            options = dict(zip(pairs[::2], map(str.lower, pairs[1::2])))
            vars(ns).update(dict.fromkeys(options.values()))
        elif arg == "--":
            rest = True
        elif arg in ("-h", "--help"):
            ns.run = _help
            return
        elif arg == "--timing" and not ns.name:
            ns.timing = True
        else:
            option, eq, value = arg.partition("=")
            if option not in options:
                raise UsageError(f"unknown option {option}")
            if not eq and (value := next(argv, None)) is None:
                raise UsageError(f"{option} needs a value")
            setattr(ns, options[option], value)
    if names[-1].endswith("...") and len(values) >= len(names):
        values[len(names) - 1:] = [values[len(names) - 1:]]
    if len(values) != len(names):
        raise UsageError(f"missing {names[len(values)]}" if len(values) < len(names)
                         else f"unexpected argument {values[len(names)]!r}")
    for name, value in zip(names, values):
        if name.islower() and value != name:
            raise UsageError(f"expected {name}, not {value!r}")
        setattr(ns, name.lower().replace("...", "s"), value)
    for option in spec.split()[::2]:
        if option[0] != "[" and getattr(ns, options[option]) is None:
            raise UsageError(f"missing {option}")
    ns.run = run


def main(args=None, prog_name=None):
    """Run one command line (``sys.argv[1:]`` when ``args`` is None) and
    exit with its status.

    The command runs with the cyclic garbage collector paused.  Its values
    are tuples and dicts of ints, which the collector would rescan for
    nothing; a job leaves a few hundred unreachable objects at most, a count
    that does not grow with the weight.  The caller's setting is restored
    however the command ends, so an in-process caller gets it back."""
    ns = types.SimpleNamespace(fmt="text", timing=False, name=None, run=None)
    ns.usage = lambda: f"usage: {prog_name or 'donkin'} {_synopsis(ns.name)}\n"
    message = ""
    try:
        try:
            _parse(ns, sys.argv[1:] if args is None else args)
            t0 = time.perf_counter()
            collecting = gc.isenabled()
            gc.disable()
            try:
                code = ns.run(ns) or 0
            finally:
                if collecting:
                    gc.enable()
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
    if ns.timing and ns.run:  # _parse sets run last, and t0 follows
        message += f"# elapsed {time.perf_counter() - t0:.3f}s\n"
    sys.stderr.write(message)
    sys.exit(code)


def entry():
    """Run :func:`main` as the process of ``python -m donkin.cli`` or of the
    ``donkin`` script: flush stdout and stderr, then end with ``os._exit``,
    skipping the interpreter's teardown (freeing every module and object, the
    final GC passes).  Under a tracer or a profiler (cProfile, coverage, a
    ``sys.monitoring`` tool) SystemExit goes on, so the tool can report."""
    try:
        main()
    except SystemExit as exc:
        mon = getattr(sys, "monitoring", None)  # Python 3.12+, tool ids 0-5
        if sys.gettrace() or sys.getprofile() or mon and any(map(mon.get_tool, range(6))):
            raise
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exc.code)


if __name__ == "__main__":
    entry()
