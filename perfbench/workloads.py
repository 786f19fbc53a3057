"""Job lists of the four workloads, and how a seed turns them into CLI jobs.

Each workload is a list of slots.  A slot is a list of interchangeable CLI
argument lists: the first is the workload's default, the others are
highest weights of the same group type whose job took within 0.04 s of CPU
time of the first (2-CPU Xeon VM, Python 3.11), so that a seed changes the
inputs but not the size of the pass.  The heavy jobs have no such
alternative: every other highest weight of their group that was tried cost
tens of percent more or less, so they stay fixed.  The seed draws one entry
per slot and shuffles the order of the jobs.
"""
from __future__ import annotations

import random

TABLES = ("e8", "e7", "e6", "f4", "g2")


def table(name: str) -> str:
    return f"src/donkin/data/{name}.tbl"


def _spot(name: str, lam: str) -> list[str]:
    # jsonl: the text format does not print the decomposition terms
    return ["--format", "jsonl", "spot-check", table(name), "--lambda", lam]


_TABLES = [
    [["verify-tables", *map(table, TABLES)]],
    [_spot("e8", "1,0,0,0,0,0,0,0")],
    [_spot("e8", "0,0,0,0,0,0,1,0")],
    [_spot("e7", "0,0,0,0,0,1,0"), _spot("e7", "0,0,0,0,0,0,2")],
    [_spot("e6", "0,0,0,1,0,0")],
    [_spot("f4", "0,0,0,1"), _spot("f4", "1,0,0,0")],
    [_spot("g2", "1,0"), _spot("g2", "0,1"), _spot("g2", "2,0")],
]

_CHARACTERS = [
    [["char", "G2", "15,15"]],
    [["char", "C3", "5,5,5"]],
    [["char", "D4", "3,3,3,3"]],
    [["char", "C4", "2,2,2,2"]],
    [["char", "F4", "1,1,1,1"]],
    [["char", "E8", "1,0,0,0,0,0,0,1"]],
    [["char", "B5", "1,1,1,1,1"]],
]

_EXTERIOR = [
    [["exterior", "A2", "2,2"]],
    [["exterior", "A5", "0,0,1,0,0"]],
    [["exterior", "A4", "1,0,0,1"]],
    [["exterior", "B4", "0,0,0,1"]],
    [["exterior", "B2", "1,1"], ["exterior", "B2", "2,0"]],
    [["exterior", "G2", "0,1"], ["exterior", "G2", "1,0"]],
]

# name -> (slots, whether each job reads a cache filled by a cold pass)
WORKLOADS = {
    "tables": (_TABLES, False),
    "characters": (_CHARACTERS, False),
    "exterior": (_EXTERIOR, False),
    "warm": (_CHARACTERS, True),
}

# the no-op job whose wall time is setup_s
SETUP_JOB = ["roots", "A1"]


def jobs_for(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass, drawn from the seed."""
    slots, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    jobs = [list(rng.choice(slot)) for slot in slots]
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> list[list[str]]:
    """Every job any seed can draw, each once."""
    seen = {}
    for slots, _ in WORKLOADS.values():
        for slot in slots:
            for args in slot:
                seen.setdefault(" ".join(args), list(args))
    seen.setdefault(" ".join(SETUP_JOB), list(SETUP_JOB))
    return list(seen.values())
