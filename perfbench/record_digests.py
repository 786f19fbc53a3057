"""Write reference_digests.json: the sha256 of every job's stdout.

Usage: python3 perfbench/record_digests.py

Run it at a commit whose output is known to be right; the benchmark then
reports every job whose output differs from it.  Outputs are checked by
``checks.py`` here too, and nothing is written if a check fails.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run
from workloads import all_jobs


def main() -> int:
    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    runner = run.Runner(Path(tempfile.mkdtemp(dir=work_root)), time.perf_counter() + 3600)
    try:
        digests = {" ".join(args): runner.run_fresh(args)["sha256"] for args in all_jobs()}
    finally:
        runner.close()
    if runner.failed:
        print(f"{runner.failed} job(s) failed their check; nothing written", file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
