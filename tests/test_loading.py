"""Which donkin modules a CLI command runs, which heavy standard-library
modules it imports, and the tracer that relies on the first.

``donkin.cli`` enters ``characters``, ``embeddings``, ``nilpotent`` and
``verifier`` in ``sys.modules`` without running them; each runs when a
command first reads one of its attributes.  Each case is a fresh interpreter,
since the test process has imported every module already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_table

ROOT = Path(__file__).resolve().parents[1]
F4 = str(ROOT / "src" / "donkin" / "data" / "f4.tbl")

# type(), not an attribute read: reading any attribute runs a pending module
PROBE = """
import sys, types
import donkin.cli
try:
    donkin.cli.main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
heavy = ("click", "dataclasses", "inspect", "fractions", "argparse", "gettext", "locale")
print("loaded:", *(n for n in heavy if n in sys.modules))
names = ("characters", "embeddings", "nilpotent", "verifier")
print("ran:", *(n for n in names if type(sys.modules["donkin." + n]) is types.ModuleType))
"""


def run_python(*args, cwd=ROOT):
    # os.environ is read per call, so the child gets the test's cache dir
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          cwd=cwd, timeout=120)


@pytest.mark.parametrize("args, ran", [
    (["roots", "A1"], ""),
    (["--format", "jsonl", "roots", "E8"], ""),
    (["char", "A1", "1"], "characters"),
    (["exterior", "G2", "1,0"], "characters"),
    (["orbit", "classical", "GL", "2,1"], "nilpotent"),
    (["restrict", "C2 -[auto]-> A3", "1,0,1"], "characters embeddings nilpotent"),
    (["spot-check", F4, "--lambda", "0,0,0,1"], "characters embeddings nilpotent verifier"),
    (["verify-tables", F4], "characters embeddings nilpotent verifier"),
])
def test_command_runs_only_the_modules_it_uses(args, ran):
    """Each command runs the modules it reads from.  No job imports click,
    argparse, or the gettext and locale that argparse loads for its messages
    (the command line is read by ``donkin.cli``'s own table-driven parser),
    dataclasses or inspect (the records are named tuples), or fractions (the
    epsilon coordinates of ``embeddings`` are integer matrices over a
    determinant)."""
    proc = run_python("-c", PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    *_, loaded, ran_line = proc.stdout.splitlines()
    assert ran_line.split()[1:] == ran.split()
    assert loaded == "loaded:"


# each job's unreachable objects, which gc.collect() finds and counts
CYCLES = """
import contextlib, gc, io, sys
import donkin.cli
gc.disable()
def job(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            donkin.cli.main(args)
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    return gc.collect()
tables = [sys.argv[1] + "/" + name + ".tbl" for name in ("e8", "e7", "e6", "f4", "g2")]
print(job("verify-tables", *tables),
      *(job("--format", "jsonl", "spot-check", tables[0], "--lambda", lam)
        for lam in ("0,0,0,0,0,0,0,1", "0,0,0,0,0,0,1,0")))
"""


def test_paused_collector_leaves_little_cyclic_garbage():
    """``cli.main`` runs a command with the cyclic GC paused.  That is safe
    because a job's values are tuples and dicts of ints: with the collector
    off, each job leaves fewer than 1,000 unreachable objects, and as many at
    E8 ∇(ω7) as at ∇(ω8), whose support is smaller, so the garbage does not
    grow with the weight."""
    proc = run_python("-c", CYCLES, str(Path(F4).parent))
    assert proc.returncode == 0, proc.stderr
    tables, omega8, omega7 = map(int, proc.stdout.split())
    assert max(tables, omega8, omega7) < 1000
    assert omega8 == omega7


def test_modules_stay_importable():
    # imported before the CLI: the CLI uses that module object as it is
    proc = run_python("-c", "import types, donkin.verifier as v, donkin.cli as c;"
                            "print(c.verifier is v, type(c.ch) is types.ModuleType)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"
    # imported after the CLI: the plain import statement finds the same module
    proc = run_python("-c", "import donkin.cli as c, donkin.verifier;"
                            "print(donkin.verifier is c.verifier,"
                            " callable(donkin.verifier.spot_check))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"


@pytest.mark.parametrize("args, spans", [
    (["--format", "jsonl", "spot-check", F4, "--lambda", "0,0,0,1"],
     {"verifier.spot_check", "embeddings.restrict_character",
      "nilpotent.parse_orbit_tables", "characters.freudenthal"}),
    (["char", "G2", "1,0"], {"characters.freudenthal", "rootsystem.weyl_orbit"}),
])
def test_tracer_sees_every_layer(tmp_path, args, spans):
    """perfbench/trace_job.py wraps the functions of every donkin module in
    ``sys.modules`` after ``import donkin.cli``; a module missing there, or
    one whose functions it cannot rebind, would read zero in the per-layer
    metrics.  ``verifier.spot_check`` is called through the module once per
    table row, so it has one span per row.  The Freudenthal span counts the
    dominant weights ``_freudenthal`` returns: (1,0) and (0,0) for G2 ∇(1,0)."""
    out = tmp_path / "spans.jsonl"
    proc = run_python(str(ROOT / "perfbench" / "trace_job.py"), str(out), "0", *args,
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    found = [json.loads(line) for line in out.read_text().splitlines()]
    names = [span["name"] for span in found]
    assert spans <= set(names)
    if "spot-check" in args:
        assert names.count("verifier.spot_check") == len(load_table("f4"))
    else:
        assert [span["dominant_weights"] for span in found
                if span["name"] == "characters.freudenthal"] == [2]
