"""Checks of one job's output that do not depend on donkin's code.

Every check takes the job's CLI arguments and its stdout, and returns None
when the output is right or a one-line reason when it is not.  Dimensions
come from ``oracle.weyl_dim``, never from the program under test.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from oracle import weyl_dim

TABLE_ROWS = 126

_WEIGHT_LINE = re.compile(r"  (-?\d+(?:,-?\d+)*): (\d+)$")
_TERM_LINE = re.compile(r"  nabla\((\d+(?:,\d+)*)\): (\d+)$")
_SUB_TYPE = re.compile(r" in ([A-GT]\d+(?:\.[A-GT]\d+)*)$")


def _weight(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def check_roots(args, out: str):
    if "group dimension: 3" not in out.splitlines():
        return "roots A1 did not report group dimension 3"
    return None


def check_char(args, out: str):
    gtype, lam = args[-2], _weight(args[-1])
    lines = out.splitlines()
    m = re.fullmatch(r"dimension: (\d+) \(Weyl formula: (\d+)\)", lines[1] if len(lines) > 1 else "")
    if not m:
        return "no dimension line"
    total = 0
    for line in lines[2:]:
        w = _WEIGHT_LINE.match(line)
        if not w:
            return f"bad weight line {line!r}"
        total += int(w.group(2))
    expected = weyl_dim(gtype, lam)
    printed, formula = int(m.group(1)), int(m.group(2))
    if not printed == total == formula == expected:
        return (f"dimension {printed}, multiplicities sum to {total}, "
                f"Weyl formula printed {formula}, expected {expected}")
    return None


def check_exterior(args, out: str):
    gtype, lam = args[-2], _weight(args[-1])
    lines = out.splitlines()
    if len(lines) < 2 or lines[1] != "exact: yes":
        return "decomposition is not exact"
    total = 0
    for line in lines[2:]:
        t = _TERM_LINE.match(line)
        if not t:
            return f"bad term line {line!r}"
        total += int(t.group(2)) * weyl_dim(gtype, _weight(t.group(1)))
    expected = 2 ** weyl_dim(gtype, lam)
    if total != expected:
        return f"terms add up to dimension {total}, expected {expected}"
    return None


def check_spot(args, out: str):
    ambient = Path(args[args.index("spot-check") + 1]).stem.upper()  # e8.tbl -> E8
    lam = _weight(args[args.index("--lambda") + 1])
    ambient_dim = weyl_dim(ambient, lam)
    verdicts = 0
    for line in out.splitlines():
        rec = json.loads(line)
        verdicts += 1
        if rec["status"] == "FAIL":
            return f"{rec['label']}: FAIL {rec['detail']}"
        if rec["status"] != "PASS":
            continue
        sub = _SUB_TYPE.search(rec["detail"])
        if not sub:
            return f"{rec['label']}: no subgroup type in {rec['detail']!r}"
        total = sum(m * weyl_dim(sub.group(1), _weight(w)) for w, m in rec["terms"].items())
        if total != ambient_dim:
            return f"{rec['label']}: terms add up to {total}, expected {ambient_dim}"
    if verdicts == 0:
        return "no verdicts"
    return None


def check_verify_tables(args, out: str):
    last = out.splitlines()[-1] if out else ""
    if last != f"summary: {TABLE_ROWS} passed, 0 failed":
        return f"last line is {last!r}"
    return None


CHECKS = {
    "roots": check_roots,
    "char": check_char,
    "exterior": check_exterior,
    "spot-check": check_spot,
    "verify-tables": check_verify_tables,
}


def check(args, returncode: int, out: str):
    """None if the job exited 0 and its output is right, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    command = next(a for a in args if a in CHECKS)
    try:
        return CHECKS[command](args, out)
    except (ValueError, ArithmeticError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"
