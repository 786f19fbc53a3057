import gc
import hashlib
import importlib.resources as ir
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import donkin.characters as ch
import donkin.cli as cli
import donkin.embeddings as emb
from conftest import clear_memo, run_cli
from donkin.characters import dual_weyl_character
from donkin.cli import main
from donkin.errors import DonkinError
from donkin.rootsystem import build_root_datum, weyl_dim, weyl_orbit

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIGESTS = json.loads((ROOT / "perfbench" / "reference_digests.json").read_text())
LONG = "1" * 5000  # past Python's 4,300-digit limit on int conversion


def data_path(name):
    return str(ir.files("donkin") / "data" / f"{name}.tbl")


def test_roots():
    result = run_cli(["roots", "E8"])
    assert result.exit_code == 0
    assert "positive roots: 120" in result.output
    assert "group dimension: 248" in result.output


def test_roots_bad_type():
    result = run_cli(["roots", "E9"])
    assert result.exit_code == 2


def test_unknown_flag_is_an_error():
    result = run_cli(["roots", "--bogus", "E8"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, code, shown", [
    ([], 2, ""),
    (["bogus"], 2, ""),
    (["roots"], 2, ""),
    (["--format", "xml", "roots", "A1"], 2, ""),
    (["spot-check", data_path("f4")], 2, ""),
    (["exterior", "A1", "1", "--p", "x"], 2, ""),
    (["orbit", "classical", "XX", "1"], 2, ""),
    (["--help"], 0, "spot-check"),
    (["char", "--help"], 0, "highest weight LAM"),
    (["char", "T1", "--", "-3"], 0, "\n  -3: 1\n"),
    (["--format=jsonl", "roots", "A1"], 0, '"kind": "roots"'),
    (["roots", "A1", "--format", "jsonl"], 2, ""),
    (["char", "G2", "-h"], 0, "usage: donkin char TYPE LAM\n"),
    (["roots", "E8", "--help"], 0, "usage: donkin roots TYPE\n"),
    (["char", "T1", "-3"], 0, "\n  -3: 1\n"),
    (["char", "T2", "-3;1"], 2, ""),
    (["char", "T2", "--", "-3,1"], 0, "\n  -3,1: 1\n"),
    (["exterior", "G2", "1,0", "--p=5"], 0, "at p=5: PASS"),
    (["exterior", "G2", "1,0", "--p"], 2, ""),
    (["spot-check", "--lambda", "0,0,0,1", data_path("f4")], 0, "PASS A2 (F4)"),
    (["verify-tables"], 2, ""),
    (["orbit"], 2, ""),
    (["orbit", "classical", "GL"], 2, ""),
    (["orbit", "nilpotent", "GL", "2,1"], 2, ""),
    (["--form", "jsonl", "roots", "A1"], 2, ""),
    (["char", "T2", "-3,1"], 0, "\n  -3,1: 1\n"),
    (["char", "A1", "1_0"], 2, ""),
    (["char", "A1", "+1"], 2, ""),
    (["char", "A1", " 1"], 2, ""),
    (["char", "A1", "\u0661"], 2, ""),
    (["restrict", "A1 -[alias]-> A1", "1_0"], 2, ""),
    (["roots", "E\u0668"], 2, ""),
    (["restrict", "A1 -[resirr,p>\u0663]-> A2", "1,0"], 2, ""),
    (["roots", "A" + LONG], 2, ""),
    (["char", "A1", LONG], 2, ""),
    (["char", "T2", "-1," + LONG], 2, ""),
    (["exterior", "A1", "1", "--p", LONG], 2, ""),
    (["orbit", "classical", "GL", LONG], 2, ""),
    (["restrict", f"A{LONG} -[alias]-> A1", "1"], 2, ""),
    (["restrict", f"A1 -[resirr,p>{LONG}]-> A2", "1,0"], 2, ""),
    (["spot-check", data_path("g2"), "--lambda", LONG], 2, ""),
])
def test_exit_code_contract(args, code, shown):
    """Parse and usage errors exit 2, print nothing on stdout and end stderr
    with one ``Error: …`` line; help exits 0.  Global options come before
    the command and options are never abbreviated; a weight, negative
    coordinates included, is an argument, and after ``--`` any word is.  A
    weight is comma-separated ASCII decimal integers: no '+', blank, '_' or
    other digits; so are the rank in a TYPE and the k of a chain's p>k."""
    result = run_cli(args)
    assert result.exit_code == code
    if shown:
        assert shown in result.stdout
    else:
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize("args, error", [
    (["roots", "A" + LONG], "cannot parse simple type 'A1111"),
    (["char", "A1", LONG], "bad weight '1111"),
    (["exterior", "A1", "1", "--p", LONG], f"--p {LONG} is not a prime"),
    (["orbit", "classical", "GL", LONG], "PARTITION must be comma-separated integers"),
    (["restrict", f"A{LONG} -[alias]-> A1", "1"], "bad chain: bad type 'A1111"),
    (["restrict", f"A1 -[resirr,p>{LONG}]-> A2", "1,0"], f"bad chain: bad bound p>{LONG}"),
], ids=["rank", "weight", "prime", "partition", "chain-rank", "chain-bound"])
def test_overlong_integer_is_the_commands_usage_error(args, error):
    """An integer that ``int`` refuses for its length (a rank, a coordinate,
    a prime, a part, a chain's k) is bad input of its command, not a crash."""
    result = run_cli(args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines()[-1].startswith(f"Error: {error}")


@pytest.mark.parametrize("args, usage, run", [
    (["roots"], "roots TYPE", cli.roots),
    (["char"], "char TYPE LAM", cli.char),
    (["decompose"], "decompose TYPE SOURCE", cli.decompose),
    (["exterior"], "exterior TYPE LAM [--p PRIME]", cli.exterior),
    (["restrict"], "restrict CHAIN LAM", cli.restrict),
    (["orbit", "classical"], "orbit classical KIND PARTITION", cli.orbit_classical),
    (["verify-tables"], "verify-tables FILE...", cli.verify_tables),
    (["spot-check"], "spot-check FILE... --lambda LAM", cli.spot_check),
])
def test_help_shows_each_command(args, usage, run):
    """``donkin CMD --help`` prints the command's usage line and its
    docstring; ``donkin --help`` lists the command with its arguments."""
    result = run_cli([*args, "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[0] == f"usage: donkin {usage}"
    assert run.__doc__.splitlines()[0] in lines
    result = run_cli(["--help"])
    assert result.exit_code == 0
    assert f"  {usage}" in result.stdout.splitlines()


def _probe(ns):
    """A command that returns, or raises what no command should."""
    if ns.end == "raise":
        raise RuntimeError("probe")


@pytest.mark.parametrize("collecting", [True, False], ids=["collecting", "paused"])
@pytest.mark.parametrize("args, code", [
    (["probe", "return"], 0),
    (["char", "G2", "1"], 2),  # UsageError from inside the command
    (["verify-tables", "missing.tbl"], 2),  # DonkinError
    (["probe", "raise"], RuntimeError),
], ids=["exit-0", "usage-error", "donkin-error", "exception"])
def test_command_runs_with_the_collector_paused(monkeypatch, tmp_path, collecting, args,
                                                code):
    """A command runs with the cyclic GC paused, and however ``main`` ends,
    the caller's setting is back: on, or off for a caller that paused it."""
    seen = []

    def watched(run):
        def command(ns):
            seen.append(gc.isenabled())
            return run(ns)
        return command

    commands = {name: (watched(run), *rest) for name, (run, *rest) in cli._COMMANDS.items()}
    commands["probe"] = (watched(_probe), "END", "")
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    args = [str(tmp_path / arg) if arg.endswith(".tbl") else arg for arg in args]
    (gc.enable if collecting else gc.disable)()
    try:
        if code is RuntimeError:
            with pytest.raises(RuntimeError, match="probe"):
                run_cli(args)
        else:
            assert run_cli(args).exit_code == code
        after = gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]
    assert after is collecting


def run_donkin(*args):
    """A fresh ``python -m donkin.cli`` process; the test's cache dir is in
    ``os.environ``."""
    return subprocess.Popen([sys.executable, "-m", "donkin.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_closed_stdout_pipe_ends_quietly():
    """As in '| head -1': the reader goes after one line of a 1.4 MB output,
    and the job exits 1 with nothing on stderr."""
    proc = run_donkin("char", "E8", "1,0,0,0,0,0,0,1")
    assert proc.stdout.readline() == b"type E8, highest weight 1,0,0,0,0,0,0,1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


@pytest.mark.parametrize("args, code", [
    (["roots", "A1"], 0),
    (["orbit", "classical", "Sp", "3"], 1),
])
def test_timing_appends_one_line(args, code):
    proc = run_donkin("--timing", *args)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == code
    assert stdout
    assert re.fullmatch(rb"# elapsed \d+\.\d{3}s\n", stderr)


def run_python(*args):
    """A fresh Python process ``python ARGS``, run to its end, with its
    stdout and stderr as bytes; the test's cache dir is in ``os.environ``."""
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


@pytest.mark.parametrize("args, code, stderr_start", [
    (["roots", "A1"], 0, ""),
    (["orbit", "classical", "Sp", "3"], 1, ""),
    (["char", "G2", "1,0,0"], 2, "usage: donkin char TYPE LAM\nError: "),
    (["verify-tables", "missing.tbl"], 2, "error: "),
])
def test_process_prints_what_main_prints(args, code, stderr_start, tmp_path):
    """A ``python -m donkin.cli`` process flushes and ends with os._exit: its
    exit status, stdout and stderr are those of ``main`` run in process."""
    args = [str(tmp_path / arg) if arg.endswith(".tbl") else arg for arg in args]
    proc = run_python("-m", "donkin.cli", *args)
    result = run_cli(args)
    assert proc.returncode == result.exit_code == code
    assert proc.stdout == result.stdout.encode()
    assert proc.stderr == result.stderr.encode()
    assert proc.stderr.startswith(stderr_start.encode())
    if code == 2:
        assert proc.stdout == b""


def test_process_ends_without_teardown():
    """The ``__main__`` block ends the process before the interpreter's
    teardown, so an atexit callback does not run; the installed script runs
    the same entry."""
    proc = run_python("-c", "import atexit, runpy, sys; atexit.register(print, 'teardown');"
                            "sys.argv[1:] = ['roots', 'A1'];"
                            "runpy.run_module('donkin.cli', run_name='__main__')")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == run_cli(["roots", "A1"]).stdout.encode()
    # Python 3.10 has no tomllib
    assert 'donkin = "donkin.cli:entry"' in (ROOT / "pyproject.toml").read_text().splitlines()


def test_cache_file_is_whole_after_the_process_ends(cache_dir):
    """``char`` has moved its cache file into place before the hard exit."""
    first = run_python("-m", "donkin.cli", "char", "G2", "1,0")
    assert first.returncode == 0
    assert (cache_dir / "characters.txt").read_text().startswith("donkin character cache 2\n")
    assert not list(cache_dir.glob("characters.txt.*.tmp"))
    second = run_python("-m", "donkin.cli", "char", "G2", "1,0")
    assert (second.returncode, second.stdout) == (0, first.stdout)


def test_profiler_still_reports():
    """Under cProfile the entry lets SystemExit go on, so the profile is
    printed after the command's output."""
    proc = run_python("-m", "cProfile", "-m", "donkin.cli", "roots", "A1")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[:4] == run_cli(["roots", "A1"]).stdout.splitlines()
    assert " function calls " in "".join(lines[4:5])  # the stats' first line


@pytest.mark.parametrize("args, usage", [
    (["--help"], "usage: donkin [--format text|jsonl] [--timing] COMMAND ..."),
    (["char", "--help"], "usage: donkin char TYPE LAM"),
])
def test_help_without_docstrings(args, usage):
    """Under ``python -OO`` the docstrings are gone: help prints the usage
    line, and donkin's help its command list."""
    proc = run_python("-OO", "-m", "donkin.cli", *args)
    assert (proc.returncode, proc.stderr) == (0, b"")
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == usage
    assert ("  roots TYPE" in lines) == (args == ["--help"])


def test_char():
    result = run_cli(["char", "G2", "1,0"])
    assert result.exit_code == 0
    assert "dimension: 7" in result.output


def test_char_wrong_rank():
    result = run_cli(["char", "G2", "1,0,0"])
    assert result.exit_code == 2


def test_exterior_pass():
    result = run_cli(["exterior", "G2", "1,0", "--p", "5"])
    assert result.exit_code == 0
    assert "PASS" in result.output


def test_exterior_fail_exit_code():
    # at p = 2 the weight (2,0) of the exterior algebra is not restricted
    result = run_cli(["exterior", "G2", "1,0", "--p", "2"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


@pytest.mark.parametrize("prime", ["4", "1", "0", "-3", "\u0663", "\uff13"])
def test_exterior_non_prime_is_a_usage_error(prime):
    result = run_cli(["exterior", "G2", "1,0", "--p", prime])
    assert result.exit_code == 2
    assert f"--p {prime} is not a prime" in result.stderr
    assert result.stdout == ""


def test_decompose_from_file(tmp_path, cache_dir):
    src = tmp_path / "char.txt"
    src.write_text("# three-dimensional module plus a trivial\n1 2\n2 0\n1 -2\n")
    result = run_cli(["decompose", "A1", f"@{src}"])
    assert result.exit_code == 0
    assert "nabla(2): 1" in result.output
    assert "nabla(0): 1" in result.output
    # the decomposition computes no dual Weyl character, so no cache is written
    assert not cache_dir.exists()


@pytest.mark.parametrize("line", ["1 1_0", "1 -1_0", "+1 2", "1 +2", "1_0 2", "1 \u0662",
                                  "1 2 0", "1", "1 2,",
                                  pytest.param("1 " + LONG, id="long-coordinate"),
                                  pytest.param(LONG + " 2", id="long-multiplicity")])
def test_decompose_file_line_is_ascii_integers(tmp_path, line):
    """MULT and the coordinates are read as LAM is: ``int`` would take
    ``1_0``, ``+1`` or a non-ASCII digit, and the line would count."""
    src = tmp_path / "char.txt"
    src.write_text(f"1 2\n1 0\n{line}\n1 -2\n")
    result = run_cli(["decompose", "A1", f"@{src}"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == f"Error: {src}:3: expected 'MULT c1,c2,...'"


def test_decompose_non_invariant_file_names_the_weights(tmp_path):
    src = tmp_path / "char.txt"
    src.write_text("1 2\n2 0\n")
    result = run_cli(["decompose", "A1", f"@{src}"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: not Weyl-invariant: (2,) has multiplicity 1 "
                             "but its reflection s1(2,) = (-2,) has 0\n")


@pytest.mark.parametrize("case", [
    "decompose missing", "decompose directory", "decompose non-utf8",
    "verify-tables non-utf8", "spot-check non-utf8",
])
def test_unreadable_input_is_a_usage_error(tmp_path, case):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"# caf\xe9\n1 2\n")
    args = {
        "decompose missing": ["decompose", "A1", f"@{tmp_path / 'missing.txt'}"],
        "decompose directory": ["decompose", "A1", f"@{tmp_path}"],
        "decompose non-utf8": ["decompose", "A1", f"@{latin1}"],
        "verify-tables non-utf8": ["verify-tables", str(latin1)],
        "spot-check non-utf8": ["spot-check", str(latin1), "--lambda", "1,0"],
    }[case]
    result = run_cli(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("args, text", [
    (["verify-tables", "{}"], Path(data_path("g2")).read_text("utf-8")),
    (["verify-tables", "{}"], Path(data_path("g2")).read_text("utf-8").split("\n", 1)[1]),
    (["decompose", "A1", "@{}"], "1 2\n2 0\n1 -2\n"),
])
def test_byte_order_mark_is_not_input(tmp_path, args, text):
    """A UTF-8 byte-order mark in front of a table or a character file is
    dropped: the output is that of the file without it, whether its first
    line is a comment or a table row."""
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run_cli([a.format(plain) for a in args])
    result = run_cli([a.format(marked) for a in args])
    assert result.exit_code == expected.exit_code == 0
    assert result.stdout == expected.stdout
    assert "\ufeff" not in result.stdout


@pytest.mark.parametrize("table", ["# a table with no rows\n", None], ids=["no-rows", "missing"])
def test_spot_check_reads_lam_before_the_tables(tmp_path, table):
    """LAM's syntax is checked once, before any table is read: a bad LAM is
    a usage error on a table with no rows, and ahead of a missing table."""
    path = tmp_path / "t.tbl"
    if table is not None:
        path.write_text(table)
    result = run_cli(["spot-check", str(path), "--lambda", "abc"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines()[-1] == (
        "Error: bad weight 'abc'; expected comma-separated integers")


@pytest.mark.parametrize("table, lam", [("g2", "-1,0"), ("f4", "0,0,0,-1")])
def test_spot_check_weight_not_dominant_is_an_input_error(table, lam):
    """A --lambda that is not dominant for a table's ambient group is bad
    input, as for char: exit 2 with one error line and nothing on stdout,
    not a row verdict."""
    for fmt in ("text", "jsonl"):
        result = run_cli(["--format", fmt, "spot-check", data_path(table), "--lambda", lam])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: ({lam.replace(',', ', ')}) is not dominant\n"


@pytest.mark.parametrize("args, stderr", [
    (["char", "A1", "-1"], "error: (-1,) is not dominant\n"),
    (["exterior", "G2", "0,-1"], "error: (0, -1) is not dominant\n"),
    (["restrict", "C2 -[auto]-> A3", "0,-1,0"], "error: (0, -1, 0) is not dominant\n"),
    (["char", "A1", "1,2"],
     "usage: donkin char TYPE LAM\nError: weight '1,2' has 2 coordinates, rank is 1\n"),
    (["decompose", "A1", "@{}"],
     "usage: donkin decompose TYPE SOURCE\nError: {}:2: weight has wrong length\n"),
])
def test_weight_errors_print_one_text(tmp_path, args, stderr):
    """A weight that is not dominant, or of the wrong length, exits 2 with
    nothing on stdout and this stderr; the decompose file's second line has
    two coordinates against A1's one."""
    source = tmp_path / "chi.txt"
    source.write_text("1 2\n1 0,1\n")
    result = run_cli([a.format(source) for a in args])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr.format(source))


def test_restrict():
    result = run_cli(["restrict", "B2 -[auto]-> A3", "0,1,0"])
    assert result.exit_code == 0
    assert "exact: yes" in result.output


@pytest.mark.parametrize("chain, lam, term", [
    ("B2 -[alias]-> C2", "1,1", "  nabla(1,1): 1"),
    ("A3 -[alias]-> D3", "1,0,1", "  nabla(1,0,1): 1"),
    # the prefix of the shipped e8 row A3A1^2 up to its max step
    ("A1.B2 -[alias]-> B1.C2 -[tensor,p>2]-> B1.D4", "1,1,0,0,0", "  nabla(1,0,1): 2"),
])
def test_restrict_through_alias(chain, lam, term):
    """A respelling step is the identity on normalized coordinates, so the
    restricted character stays Weyl-invariant and decomposes exactly."""
    result = run_cli(["restrict", chain, lam])
    assert result.exit_code == 0, result.stderr
    assert result.stdout.splitlines()[1:] == ["exact: yes", term]


@pytest.mark.parametrize("chain, lam", [
    ("D8 -[max]-> E8", "1,0,0,0,0,0,0,0"), ("A1.A1 -[max]-> G2", "1,0")])
def test_restrict_max_chain_rejected(chain, lam):
    result = run_cli(["restrict", chain, lam])
    assert result.exit_code == 2


def test_restrict_donkin_error_is_a_usage_error():
    # no Levi subdiagram of G2 has type A1.A1: a DonkinError, not a failed verification
    result = run_cli(["restrict", "A1.A1 -[levi]-> G2", "1,0"])
    assert result.exit_code == 2
    assert result.stderr == "error: (A1.A1, G2): no Levi subdiagram matches\n"
    assert result.stdout == ""


def test_restrict_split_so2_is_a_usage_error():
    result = run_cli(["restrict", "D1 -[class]-> B1", "2"])
    assert result.exit_code == 2
    assert result.stderr == "error: (D1, B1): a split SO2 factor lifts to a double-cover torus\n"
    assert result.stdout == ""


def test_restrict_illegal_max_step_is_an_error():
    result = run_cli(["restrict", "A1 -[max]-> G2", "1,0"])
    assert result.exit_code == 2
    assert result.stderr == "error: (A1, G2): not a listed maximal-rank pair\n"
    assert result.stdout == ""


def test_restrict_names_an_illegal_step_under_a_max_step():
    result = run_cli(["restrict", "A1 -[class]-> A1.A1 -[max]-> G2", "1,0"])
    assert result.exit_code == 2
    assert result.stderr == "error: (A1, A1.A1): no classical block split matches\n"
    assert result.stdout == ""


def test_restrict_rejects_an_annotation_the_catalog_disagrees_with():
    result = run_cli(["restrict", "C2 -[auto,p>7]-> A3", "1,0,1"])
    assert result.exit_code == 2
    assert result.stderr == ("error: (C2, A3): annotated p>7 disagrees with the "
                             "catalog bound (minimal prime 1)\n")
    assert result.stdout == ""


@pytest.mark.parametrize("bound", ["0", "1"])
def test_restrict_accepts_an_annotation_that_bounds_no_prime(bound):
    """p>0 and p>1 hold for every prime, as the clause's minimal prime 1
    (no bound) does, so the step restricts as if it had no annotation."""
    plain = run_cli(["restrict", "C2 -[auto]-> A3", "1,0,1"])
    result = run_cli(["restrict", f"C2 -[auto,p>{bound}]-> A3", "1,0,1"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == plain.stdout


@pytest.mark.parametrize("chain, message", [
    ("A1 -[foo]-> A2", "bad chain: unknown tag 'foo'"),
    ("A1 -[levi]-> Q9", "bad chain: bad type 'Q9'"),
])
def test_restrict_bad_chain_names_no_position(chain, message):
    result = run_cli(["restrict", chain, "1,0"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == f"Error: {message}"


def test_orbit_classical():
    result = run_cli(["orbit", "classical", "GL", "3,1"])
    assert result.exit_code == 0
    assert "GL1.GL1" in result.output
    assert "centralizer dimension: 6" in result.output


@pytest.mark.parametrize("partition", ["1_0,+2", "+3,1", "3,\u0661", "3,,1", "3 ,1"])
def test_orbit_partition_is_ascii_integers(partition):
    result = run_cli(["orbit", "classical", "GL", partition])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == "Error: PARTITION must be comma-separated integers"


def test_orbit_invalid_partition():
    result = run_cli(["orbit", "classical", "Sp", "3,1"])
    assert result.exit_code == 1
    assert "not a valid" in result.output


def test_verify_tables_all_pass():
    files = [data_path(n) for n in ("e8", "e7", "e6", "f4", "g2")]
    result = run_cli(["verify-tables", *files])
    assert result.exit_code == 0
    assert "summary: 126 passed, 0 failed" in result.output


def test_verify_tables_failure_exit(tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("X\tG2\tG2 -[levi]-> E8\nY\tE7\tE7 -[levi]-> E8\n")
    result = run_cli(["verify-tables", str(bad)])
    assert result.exit_code == 1
    assert "FAIL X" in result.output


def test_verify_tables_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("not a table\n")
    result = run_cli(["verify-tables", str(bad)])
    assert result.exit_code == 2


def test_spot_check_cli():
    result = run_cli(["spot-check", data_path("f4"), "--lambda", "0,0,0,1"])
    assert result.exit_code == 0
    assert "PASS" in result.output and "SKIPPED" in result.output


def test_spot_check_fails_bad_rows_and_runs_on(tmp_path):
    """An illegal step and a chain that ends elsewhere are FAILs naming their
    cause; the rows after them still run."""
    table = tmp_path / "three.tbl"
    table.write_text("P\tA1.T1\tA1.T1 -[levi]-> G2\n"
                     "X\tA1\tA1 -[class]-> G2\n"
                     "Y\tA1\tA1 -[levi]-> A2\n")
    result = run_cli(["spot-check", str(table), "--lambda", "1,0"])
    assert result.exit_code == 1
    assert result.stdout.splitlines() == [
        "PASS P (G2): exact decomposition with 3 terms in A1.T1",
        "FAIL X (G2): illegal step (A1, G2): no classical block split matches",
        "FAIL Y (G2): chain ends at A2, ambient is G2",
    ]
    assert result.stderr == ""


def test_verify_tables_and_spot_check_fail_the_same_rows(tmp_path):
    """Both commands run one gate per row: they FAIL the same rows with the
    same causes, an illegal step under a max step included, and exit 1."""
    table = tmp_path / "five.tbl"
    table.write_text("P\tA1.T1\tA1.T1 -[levi]-> G2\n"
                     "Q\tA1\tA1 -[class]-> A1.A1 -[max]-> G2\n"
                     "W\tA1\tA1.T1 -[levi]-> G2\n"
                     "A\tA1.T1\tA1.T1 -[levi,p>3]-> G2\n"
                     "R\tA1.T1\tA1.T1 -[levi]-> G2\n")
    causes = {
        "Q": "illegal step (A1, A1.A1): no classical block split matches",
        "W": "chain starts at A1.T1, centralizer is A1",
        "A": "illegal step (A1.T1, G2): annotated p>3 disagrees with the catalog "
             "bound (minimal prime 1)",
    }
    verified = run_cli(["verify-tables", str(table)])
    spot = run_cli(["spot-check", str(table), "--lambda", "1,0"])
    assert (verified.exit_code, spot.exit_code) == (1, 1)
    assert [line for line in verified.stdout.splitlines() if line.startswith("FAIL")] == [
        f"FAIL {label} (G2): p_min=1, bound=5 -- {cause}" for label, cause in causes.items()]
    assert [line for line in spot.stdout.splitlines() if line.startswith("FAIL")] == [
        f"FAIL {label} (G2): {cause}" for label, cause in causes.items()]
    assert "summary: 2 passed, 3 failed" in verified.stdout
    assert spot.stdout.count("PASS") == 2


def test_jsonl_schema():
    result = run_cli(["--format", "jsonl", "verify-tables", data_path("g2")])
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.strip().split("\n")]
    assert all(obj["schema"] == 1 for obj in lines)
    assert lines[-1]["kind"] == "verify-summary"
    assert lines[-1]["passed"] == 2


def jsonl_line(kind, **payload):
    return json.dumps({"schema": 1, "kind": kind, **payload}, sort_keys=True) + "\n"


def test_roots_jsonl_payload():
    result = run_cli(["--format", "jsonl", "roots", "A2"])
    assert result.exit_code == 0
    assert result.stdout == jsonl_line("roots", type="A2", rank=2, positive_roots=3,
                                       highest_root=[1, 1], group_dimension=8)


@pytest.mark.parametrize("gtype, text, payload", [
    ("A1.A2", "highest roots: 1,1,0; 0,0,2",
     dict(type="A2.A1", rank=3, positive_roots=4, highest_root=None,
          highest_roots=[[1, 1, 0], [0, 0, 2]], group_dimension=11)),
    ("A2.T1", "highest root: 1,1,0",
     dict(type="A2.T1", rank=3, positive_roots=3, highest_root=[1, 1, 0],
          group_dimension=9)),
    ("T2", "highest root: (none)",
     dict(type="T2", rank=2, positive_roots=0, highest_root=None, group_dimension=2)),
])
def test_roots_product_types(gtype, text, payload):
    result = run_cli(["roots", gtype])
    assert result.exit_code == 0
    assert result.stdout.split("\n")[2] == text
    result = run_cli(["--format", "jsonl", "roots", gtype])
    assert result.exit_code == 0
    assert result.stdout == jsonl_line("roots", **payload)


def test_decompose_jsonl_payload(tmp_path):
    src = tmp_path / "char.txt"
    src.write_text("1 2\n2 0\n1 -2\n")
    result = run_cli(["--format", "jsonl", "decompose", "A1", f"@{src}"])
    assert result.exit_code == 0
    assert result.stdout == jsonl_line("decompose", type="A1", dimension=4, exact=True,
                                       terms={"2": 1, "0": 1})


@pytest.mark.parametrize("name,lam,prime,code,extra", [
    # Lambda(k^3) = 1 + V + V* + 1 for SL3
    ("A2", "1,0", "2", 0, dict(module_dim=3, algebra_dim=8,
                               terms={"0,0": 2, "1,0": 1, "0,1": 1})),
    # Lambda(L(2)) = 1 + L(2) + L(2) + 1 for SL2; 2 is not 2-restricted
    ("A1", "2", "2", 1, dict(module_dim=3, algebra_dim=8, terms={"0": 2, "2": 2})),
])
def test_exterior_jsonl_payload(name, lam, prime, code, extra):
    result = run_cli(["--format", "jsonl", "exterior", name, lam, "--p", prime])
    assert result.exit_code == code
    assert result.stdout == jsonl_line(
        "exterior", type=name, exact=True, p=int(prime), all_restricted=not code,
        verdict="FAIL" if code else "PASS", **extra)


def test_restrict_jsonl_payload():
    # the adjoint of SL4 on Sp4 (written B2): its adjoint nabla(0,2) plus the
    # 5-dimensional nabla(1,0)
    result = run_cli(["--format", "jsonl", "restrict", "C2 -[auto]-> A3", "1,0,1"])
    assert result.exit_code == 0
    assert result.stdout == jsonl_line(
        "restrict", ambient="A3", subgroup="B2", highest_weight=[1, 0, 1], dimension=15,
        exact=True, terms={"1,0": 1, "0,2": 1})


def test_byte_identical_runs():
    args = ["char", "B2", "1,1"]
    out1 = run_cli(args).output
    out2 = run_cli(args).output
    assert out1 == out2


def test_cache_dir_env(cache_dir):
    result = run_cli(["char", "A2", "2,2"])
    assert result.exit_code == 0
    assert "A2 2,2 0,0:3 0,3:1 1,1:2 2,2:1 3,0:1" in (
        cache_dir / "characters.txt").read_text(encoding="utf-8").splitlines()
    # a second run picks the cache up and agrees
    again = run_cli(["char", "A2", "2,2"])
    assert again.output == result.output


@pytest.mark.parametrize("entry, args, expected", [
    # the entry that char reads itself
    ("G2 1,0 1,0:1 0,0:5", ["char", "G2", "1,0"],
     ["dimension: 7 (Weyl formula: 7)"]),
    # the entry of nabla(1,0) itself, which exterior reads to build the algebra
    ("G2 1,0 1,0:2 0,0:1", ["exterior", "G2", "1,0"],
     ["exact: yes", "  nabla(0,0): 4"]),
])
def test_wrong_cache_entry_changes_no_answer(cache_dir, entry, args, expected):
    clear_memo()
    true = run_cli(args).output
    path = cache_dir / "characters.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    key = " ".join(entry.split()[:2]) + " "
    right = next(line for line in lines if line.startswith(key))
    path.write_text(f"donkin character cache 2\n{entry}\n", encoding="utf-8")
    clear_memo()
    result = run_cli(args)
    assert result.exit_code == 0
    assert result.output == true
    assert set(expected) <= set(result.output.splitlines())
    # the rejected entry was replaced by the recomputed one
    assert right in path.read_text(encoding="utf-8").splitlines()
    assert entry not in path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name,lam", [("A1", (4,)), ("G2", (2, 1)), ("B2.T1", (1, 0, -5))])
def test_char_output_matches_independent_rendering(name, lam):
    """Weights by descending height, ties by weight, each printed as 'c1,c2,...'."""
    rd = build_root_datum(name)
    chi = dual_weyl_character(rd, lam)
    ordered = sorted(chi.support, key=lambda w: (-rd.height(w), w))
    weights = {",".join(map(str, w)): chi.support[w] for w in ordered}
    text = ",".join(map(str, lam))
    lines = [f"type {rd.gtype}, highest weight {text}",
             f"dimension: {chi.dim()} (Weyl formula: {weyl_dim(rd, lam)})"]
    lines += [f"  {k}: {m}" for k, m in weights.items()]
    result = run_cli(["char", name, text])
    assert result.exit_code == 0
    assert result.stdout == "\n".join(lines) + "\n"
    payload = {"schema": 1, "kind": "char", "type": str(rd.gtype),
               "highest_weight": list(lam), "dimension": chi.dim(), "weights": weights}
    result = run_cli(["--format", "jsonl", "char", name, text])
    assert result.exit_code == 0
    assert result.stdout == json.dumps(payload, sort_keys=True) + "\n"


def _cold_stdout_digest(argv, code=0):
    """sha256 of the stdout of ``argv``, run with the in-memory tables of
    dominant multiplicities empty, as in a fresh process; it must exit
    ``code``."""
    clear_memo()
    result = run_cli(argv)
    assert result.exit_code == code, result.stderr
    return hashlib.sha256(result.stdout.encode()).hexdigest()


@pytest.mark.parametrize("job", REFERENCE_DIGESTS)
def test_output_matches_reference_digest(job, monkeypatch):
    """stdout is byte-identical to the benchmark's recorded reference output.
    The spot-check jobs name their table relative to the repo root, and their
    jsonl records repeat that path."""
    monkeypatch.chdir(ROOT)
    assert _cold_stdout_digest(job.split()) == REFERENCE_DIGESTS[job]


@pytest.mark.parametrize("job", [
    "char E8 1,0,0,0,0,0,0,1", "char B5 1,1,1,1,1", "exterior A4 1,0,0,1"])
def test_rerun_reading_the_cache_matches_reference_digest(job, cache_dir):
    """The second run reads the cache file that the first run wrote."""
    assert _cold_stdout_digest(job.split()) == REFERENCE_DIGESTS[job]
    assert (cache_dir / "characters.txt").exists()
    assert _cold_stdout_digest(job.split()) == REFERENCE_DIGESTS[job]


# nabla(1,0,2) + 2 nabla(0,1,-1) - the orbit of (1,1,0): a virtual B2.T1
# character, one "m weight" line per term
B2T1_VIRTUAL = ("1 1,0,2\n1 -1,2,2\n1 0,0,2\n1 1,-2,2\n1 -1,0,2\n"
                "2 0,1,-1\n2 1,-1,-1\n2 -1,1,-1\n2 0,-1,-1\n"
                "-1 1,1,0\n-1 -1,3,0\n-1 2,-1,0\n-1 -2,3,0\n"
                "-1 2,-3,0\n-1 -2,1,0\n-1 1,-3,0\n-1 -1,-1,0\n")

# sha256 of the stdout of jobs on chains and types no reference digest covers
DIGESTS = {
    # one restrict per catalog tag
    ("restrict", "A1.A1 -[alias]-> D2", "1,1"): "d22267df9f8bb4978a4110f4965ef89648e64c8a6ab7d9f2d9c6fead7a3e9e5b",
    ("restrict", "B2 -[alias]-> C2", "1,1"): "8158aad87a40213edf92996f2bf9d19c3b584c786752b9b5483ad85fab9acf72",
    ("restrict", "A3 -[alias]-> D3", "1,0,1"): "44145815cacbf9e27db69446f30a9e3f684f02df340d2c7f871b8b0fa7bba266",
    ("restrict", "E7.T1 -[levi]-> E8", "1,0,0,0,0,0,0,0"): "694eb3c7adf2c0f312fd103c4bfc5134bcc4b65191214c904cf17f91bc498a96",
    ("restrict", "A1 -[diag]-> A1.A1", "1,1"): "d653e2249ef74be0ee7bfca58b9f70cd5798f51c79676dca25154a83a46b5119",
    ("restrict", "C2 -[auto]-> A3", "1,0,1"): "9214e578c3596fd7ec51c9384ea3ea45dd4c33c45c811e997bf682389f1b9720",
    ("restrict", "B1.B6 -[class]-> D8", "1,0,0,0,0,0,0,0"): "39e9aa47a21dd7dc1022230665de69ba7e5398ca3baf7f7b0d83c3c9ac05a1f6",
    ("restrict", "A1 -[resirr]-> A4", "1,0,0,0"): "820e6eecc4237e39d0c7e7f2af879ea60135940057545d517b640cf0eee1ff3b",
    ("restrict", "C1 -[tensor]-> D2", "1,1"): "b23d3521a4210968410b00110a838e653711911d825b0e47ea8ab0d686133f78",
    # spectator pairs of the paired clauses; the tensor job's retained D1 row is rescaled
    ("restrict", "B2.D1 -[tensor]-> B2.D3", "1,0,0,1,0"): "78d150560f89a550abf56c96128007f0b3419277bb8de7ffb07172939be34f83",
    ("restrict", "A1.G2 -[auto]-> A1.D4", "1,0,1,0,0"): "b115abac0eca5c68a336c9d1aeeee7fa6190b53f9536a0b41bc00f3d351c33fb",
    ("restrict", "G2.A1 -[resirr]-> A6.A2", "1,0,0,0,0,0,1,0"): "accb651cb2eed1813e25bf9aa845bff54ac931173e22d4b551aa43382246e890",
    # A5, D5, E6, E7, a product with an A2 factor, a torus product and a
    # repeated factor: every orbit here goes through weyl_orbit's expander
    ("char", "A5", "1,1,1,1,1"): "bd295b64d69535a3bf840287ecc2450df344274ae33304398de1ecef632d324f",
    ("char", "D5", "1,0,0,1,1"): "ee47fd18ae11ade137ea42c580631df0e2415be0ad5cc5e50e059770d69b53a1",
    ("char", "E6", "1,0,0,0,0,1"): "43f1007cdc3f31f9eae19b46c435e20639206a0162e9baaf2cecdf1b3d472b39",
    ("char", "E7", "1,0,0,0,0,0,1"): "aaf974cf26cef767d4330669879ee9ecc8663ae293b7dc2aaedbb2c79725870c",
    ("char", "E6.A2", "1,0,0,0,0,1,1,1"): "8452c06eb8f7be2a8c0a8da7fe3de617424405bafdcd52c159132093d937bfff",
    ("char", "A1.B3.T2", "2,0,1,0,-3,4"): "be87807316bb9766e4ce2708f3c0a59f9f5d0d321f8be53801f1d36e4e640b71",
    ("char", "D4.D4", "1,0,0,0,0,0,0,1"): "68e2040876c48aaba68ae2e8b94c9579aedd1cd05fb775752c6ee62acc6632ba",
    # rank 1, a torus factor, a repeated factor, C and D; and B2T1_VIRTUAL
    # through decompose: every pass goes through the generated exterior
    # step, symmetry check and fold
    ("exterior", "A1", "4"): "e507fd837330cb62c894d87d4239c43f98a54f47555534f13dc60d2831ccb9a7",
    ("exterior", "A1.T1", "1,3"): "ef7e67f7da38264ca4097b21a42ffc3f855001bdb0d37dc020dc30d7361113e5",
    ("exterior", "A1.A1", "1,2"): "26d8cc3322e6efff370ec382cfbfcf754d16623bcd979ba2a6b3f959d7a28803",
    ("exterior", "C3", "1,0,0"): "3271909bad3a8b00d6086271aa591d362df1f5a95d7d3c63317a15262ffc2491",
    ("exterior", "D4", "1,0,0,0"): "b21fc400b9878dc77c49784aa7d9eb1b127863bdb60f8abc2f78dc59dd6638d3",
    ("decompose", "B2.T1", "@b2t1.txt"): "a8044d71fb799dde4d10bf41ac74b44bcb50eca8b689d75735f5b5af0c1fd7b1",
    # both output forms of orbit and of exterior --p, a spot-check in text and
    # verify-tables in jsonl; an entry (code, digest) exits with that code
    ("orbit", "classical", "GL", "3,1"): "410338674130ea009d454b9b76b11086e9b875ddcdac4e3c84d37103d7155d01",
    ("orbit", "classical", "Sp", "4,2"): "0d45171557e4822cede14d6af456f76d7a1d95bf27dd1652b38ed002aa8df332",
    ("orbit", "classical", "SO", "3,2,2"): "9630863bbaebbfc26afd5c8f8a5cdd17b86d59cd752c0ad3ae9d2c13ff4a0049",
    ("orbit", "classical", "Sp", "3,1"): (1, "8b6ec25acd3924144f1c9d91f316d78ae5b6faf3546c4d4494996612915a0999"),
    ("--format", "jsonl", "orbit", "classical", "GL", "3,1"): "47bc8c9864f51ded191c256979b70d448ba1873b52c1455076c30df3d2546811",
    ("--format", "jsonl", "orbit", "classical", "Sp", "4,2"): "a9141450308bee092b0c3f852d74a3e86dcaa5b9287ac2ac5f14cd314b44f534",
    ("--format", "jsonl", "orbit", "classical", "SO", "3,2,2"): "324015dcae51d8d490f4adbb2794aad38a66f7d469d2d365342424e2393ea72a",
    ("--format", "jsonl", "orbit", "classical", "Sp", "3,1"): (1, "ab75c2ed9542027fb79c1dfc1757a65753d8d308fc4fe6a0d3680f8b30376919"),
    ("exterior", "G2", "1,0", "--p", "5"): "dfdffc2fa6991323e93c3795aec426e6a178f0a88901635ff982a6e3b997fc8e",
    ("exterior", "A1", "3", "--p", "2"): (1, "feed9732648cc385ca4ad9c92ef8883f8089db1655198387e470c9608d494506"),
    ("--format", "jsonl", "exterior", "G2", "1,0", "--p", "5"): "c7acf35037d9710aa0cae340db22ca4518c66ba9c12323bb4adae3bb7f31c66a",
    ("--format", "jsonl", "exterior", "A1", "3", "--p", "2"): (1, "169d2852c2eb332ebf6d2070b9bd4e107594de48f0d3e67ade3dedc28aa93c25"),
    ("spot-check", "f4.tbl", "--lambda", "0,0,0,1"): "bd5f498f12efb1f92c62003220ebd20514b78d0fa0865a0e88dd702a5db3235b",
    ("--format", "jsonl", "verify-tables", "g2.tbl", "f4.tbl"): "84433dd9a328abf655dc62618049cec2a722175593c1985a85deefc403eece36",
}


@pytest.mark.parametrize("argv", DIGESTS, ids=" ".join)
def test_output_matches_its_digest(argv, tmp_path, monkeypatch):
    """stdout is byte-identical to the recorded output.  The decompose job
    reads B2T1_VIRTUAL from a file in the working directory, and the table
    jobs copies of the shipped tables there, named in their jsonl records."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b2t1.txt").write_text(B2T1_VIRTUAL, encoding="utf-8")
    for name in ("g2", "f4"):
        (tmp_path / f"{name}.tbl").write_text(Path(data_path(name)).read_text("utf-8"), "utf-8")
    code, digest = DIGESTS[argv] if isinstance(DIGESTS[argv], tuple) else (0, DIGESTS[argv])
    assert _cold_stdout_digest(list(argv), code) == digest


class _ByteCount:
    """A stdout that keeps only the number of UTF-8 bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)

    def flush(self):
        pass


def test_char_text_is_written_as_it_is_made(monkeypatch):
    """char D4 3,3,3,3 prints 31,897 weight lines (0.53 MB).  Its text goes
    out in blocks as it is formatted, so, with the dominant multiplicities
    already known, the job's traced peak stays under its own weyl_orbit dict
    (4.3 MB) plus 1 MB; holding every line until the end takes 2.4 MB more."""
    rd = build_root_datum("D4")
    lam = (3, 3, 3, 3)
    clear_memo()
    dominant = ch._freudenthal(rd, lam)
    sink = _ByteCount()
    tracemalloc.start()
    try:
        orbit = weyl_orbit(rd, dominant)
        orbit_size = tracemalloc.get_traced_memory()[0]
        del orbit
        tracemalloc.reset_peak()
        monkeypatch.setattr(sys, "stdout", sink)
        with pytest.raises(SystemExit) as exc:
            main(["char", "D4", "3,3,3,3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 0
    assert sink.bytes == 533626
    assert peak < orbit_size + 2**20, (peak, orbit_size)


def _torus_terms(n, rank):
    """``n`` distinct weights of a rank-``rank`` torus, with negative
    coordinates, and nonzero multiplicities of both signs."""
    return {(i - 1000, *[(-1) ** k * (i % (k + 2)) for k in range(rank - 1)]):
            (-1) ** i * (i + 1) for i in range(n)}


@pytest.mark.parametrize("rank", [1, 8])
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("command", ["char", "decompose", "exterior", "restrict"])
def test_item_blocks_match_line_by_line_rendering(monkeypatch, tmp_path, command, n, rank):
    """The weight lines, written in blocks of 1024, are byte for byte the
    lines ``template % (*w, m)`` of the items in print order, on each side of
    the block boundaries."""
    terms = _torus_terms(n, rank)
    gtype = f"T{rank}"
    lam = ",".join(["1"] + ["-1"] * (rank - 1))
    if command == "char":
        monkeypatch.setattr(ch, "dual_weyl_character",
                            lambda rd, w: ch.FormalCharacter(rd.gtype, terms))
        args, pattern, items = ["char", gtype, lam], "  %s: %%d", terms.items()
    else:
        # a torus has no roots, so the terms print in weight order
        monkeypatch.setattr(ch, "decompose_dual_weyl",
                            lambda chi: ch.DualWeylDecomposition(chi.ambient, terms, False))
        pattern, items = "  nabla(%s): %%d", sorted(terms.items())
        source = tmp_path / "chi.txt"
        source.write_text(f"1 {lam}\n")
        args = {"decompose": ["decompose", gtype, f"@{source}"],
                "exterior": ["exterior", gtype, lam],
                "restrict": ["restrict", f"{gtype} -[alias]-> {gtype}", lam]}[command]
    template = pattern % ",".join(["%d"] * rank)
    result = run_cli(args)
    assert result.exit_code == 0
    head = result.stdout.split("\n")[:2]
    assert result.stdout == "".join(line + "\n" for line in
                                    head + [template % (*w, m) for w, m in items])


# ---------------------------------------------------------------------------
# the exit-code contract, fuzzed

FUZZ_TYPES = ["A1", "A2", "A3", "B2", "C2", "B3", "G2", "D3", "A1.A1", "T1", "A1.T1"]
BAD_TYPES = ["E9", "X1", "A0", "G3", "B2x", "A1..A1", "", "1"]
# exterior's cost grows fast with the module: exterior A3 2,2,2 runs for minutes
EXTERIOR_MODULES = [
    (name, lam) for name in FUZZ_TYPES for rd in [build_root_datum(name)]
    for lam in itertools.product(*[range(3) if i in rd.simple else range(-2, 3)
                                   for i in range(rd.rank)])
    if weyl_dim(rd, lam) <= 12]


def fuzz_type(draw, valid):
    return draw(st.sampled_from(FUZZ_TYPES if valid else FUZZ_TYPES + BAD_TYPES))


def fuzz_weight(draw, name, valid, kinds=("dominant", "length", "sign", "syntax")):
    """A dominant weight of ``name``, or, unless ``valid``, one of the wrong
    length, sign or syntax."""
    try:
        rank = build_root_datum(name).rank
    except DonkinError:
        rank = draw(st.integers(0, 3))
    kind = "dominant" if valid else draw(st.sampled_from(kinds))
    if kind == "syntax":
        return draw(st.sampled_from(["", ",", "1,,0", "a", "1.5", "1;0", " ", "0x1", "--1"]))
    n = draw(st.integers(0, 5).filter(lambda k: k != rank)) if kind == "length" else rank
    coords = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if kind == "sign" and coords:
        coords[draw(st.integers(0, n - 1))] = draw(st.integers(-3, -1))
    return ",".join(map(str, coords))


def fuzz_chain(draw, valid):
    """A chain over random types and tags, some with p>k; unless ``valid``,
    maybe garbled."""
    text = fuzz_type(draw, valid)
    for _ in range(draw(st.integers(int(valid), 2))):
        tag = draw(st.sampled_from([*emb._CLAUSES] if valid else [*emb._CLAUSES, "bogus", "LEVI"]))
        bound = draw(st.one_of(st.just(""), st.integers(0, 12).map(",p>{}".format)))
        text += f" -[{tag}{bound}]-> {fuzz_type(draw, valid)}"
    garble = None if valid else draw(st.sampled_from([None, " -[", "]-> ", ","]))
    return text.replace(garble, garble.strip()) if garble else text


def fuzz_file(draw, directory, kind, valid):
    """A shipped table (g2) or a character file of random lines; unless
    ``valid``, maybe a missing path, a directory, a file that is not UTF-8,
    or a corrupted table or character file."""
    what = "good" if valid else draw(st.sampled_from(
        ["good", "corrupt", "missing", "directory", "latin1"]))
    path = directory / f"{kind}.txt"
    if what == "missing":
        return str(directory / "missing.txt")
    if what == "directory":
        return str(directory)
    if what == "latin1":
        path.write_bytes(b"# caf\xe9\n1 2\n")
    elif kind == "table":
        text = Path(data_path("g2")).read_text()
        if what == "corrupt":
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + draw(st.sampled_from(["", "X", "\t", " ", "-[", "9", "\n"])) + text[at + 1:]
        path.write_text(text)
    else:
        rank = draw(st.integers(0, 3))
        line = st.tuples(st.integers(-1, 3), st.lists(st.integers(-2, 2), min_size=rank,
                                                      max_size=rank))
        lines = [f"{m} {','.join(map(str, w))}" for m, w in draw(st.lists(line, max_size=6))]
        if what == "corrupt":
            lines.append(draw(st.sampled_from(["1", "x 1,0", "1 a,b", "# note"])))
        path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def fuzz_argv(draw, directory):
    """One command line of any of the eight commands.  Half of them draw
    only well-formed parts, so that exits 0 and 1 are reached as well."""
    valid = draw(st.booleans())
    command = draw(st.sampled_from(["roots", "char", "decompose", "exterior", "restrict",
                                    "orbit", "verify-tables", "spot-check"]))
    name = fuzz_type(draw, valid)
    if command == "roots":
        args = [name]
    elif command == "char":
        args = [name, fuzz_weight(draw, name, valid)]
    elif command == "decompose":
        source = fuzz_file(draw, directory, "character", valid)
        args = [name, source if not valid and draw(st.booleans()) else "@" + source]
    elif command == "exterior":
        if valid:
            name, lam = draw(st.sampled_from(EXTERIOR_MODULES))
            args = [name, ",".join(map(str, lam))]
        else:  # no dominant weight here: it could name a large module
            args = [name, fuzz_weight(draw, name, valid, ("length", "sign", "syntax"))]
        prime = draw(st.one_of(st.none(), st.integers(-3, 13).map(str), st.just("x")))
        args += [] if prime is None else ["--p", prime]
    elif command == "restrict":
        chain = fuzz_chain(draw, valid)
        args = [chain, fuzz_weight(draw, chain.rsplit(" ", 1)[-1], valid)]
    elif command == "orbit":
        parts = ",".join(map(str, draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))))
        args = ["classical", draw(st.sampled_from(["GL", "Sp", "SO"] + ([] if valid else ["XX"]))),
                parts if valid else draw(st.sampled_from([parts, "3,,1", "a", "3,-1", "2,0", ""]))]
    else:
        args = [fuzz_file(draw, directory, "table", valid)
                for _ in range(draw(st.integers(int(valid), 2)))]
        if command == "spot-check" and (valid or draw(st.booleans())):
            args += ["--lambda", fuzz_weight(draw, "G2", valid)]
    options = draw(st.sampled_from([[], ["--format", "jsonl"], ["--timing"]]
                                   + ([] if valid else [["--format", "xml"]])))
    return [*options, command, *args]


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_fuzzed_argv_keeps_the_exit_code_contract(fuzz_dir, data):
    """Any command line exits 0, 1 or 2 with no traceback, and prints
    nothing on stdout when it exits 2, also on a corrupt cache file."""
    if data.draw(st.booleans()):
        clear_memo()
        cache = Path(os.environ["DONKIN_CACHE_DIR"])
        cache.mkdir(exist_ok=True)
        (cache / "characters.txt").write_text(data.draw(st.sampled_from([
            "", "garbage\n", f"{ch._CACHE_HEADER}\nA1 1 1:2\nG2 1,0 1,0:1 0,1:5 0,0:9\nA2 x\n",
            f"{ch._CACHE_HEADER}\nA3 0,0,1 0,0,1:1 0,0,0:1\nB2 1,1 1,1:1\n"])))
    result = run_cli(data.draw(fuzz_argv(fuzz_dir)))
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert result.stdout == ""
