"""Benchmark of donkin's batch CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

One client in a closed loop: each job is a fresh ``python -m donkin.cli``
process, started by ``spawner.py`` when the previous one has ended, with its
own cache dir.
The benchmark and its jobs share one CPU.  While measuring, a job is stopped
every ``SLICE_S`` and a fixed calibration loop is timed in the stop, so that
each time can be scaled to a reference CPU speed (see README.md).
Every job's output is checked by ``checks.py``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics,
taken from spans that ``trace_job.py`` records around each layer.  The last
line of stdout is the JSON result; the lines before it record the machine,
the sample counts and each job's verdict.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checks
from workloads import SETUP_JOB, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "reference_digests.json"
clock = time.perf_counter

# a run must end within 180 s; a job still running at this point is killed
RUN_LIMIT_S = 165.0

# A measured job runs for SLICE_S, is stopped, and the calibration loop is
# timed.  On a shared host a vCPU can run up to 1.8x slower for stretches of
# a second to minutes; scaling by the loop's time cancels that.
SLICE_S = 0.1
CAL_ITERATIONS = 4000
# the loop's time at the reference speed the end-to-end times are scaled to
CAL_REF_S = 0.001

# per-layer metric -> the span sum it reads, where the names differ
_LAYER_SOURCE = {
    "characters.cache.load_s": "characters.cache.load.s",
    "characters.cache.load_entries": "characters.cache.load.entries",
    "characters.cache.save_s": "characters.cache.save.s",
    "characters.cache.bytes": "characters.cache.save.bytes",
}


class OutOfTime(Exception):
    pass


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and tuple work,
    the kind of work donkin's recursions do."""
    t0 = clock()
    acc = {}
    for i in range(CAL_ITERATIONS):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * i
    return clock() - t0


def pin_to_one_cpu() -> None:
    """Run this process and the jobs it starts on one CPU, so that the
    calibration loop runs on the CPU the job runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Spawner:
    """``spawner.py``, the small process that starts the jobs, so that a
    job's max-RSS does not count this process's memory."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, text=True)

    def close(self) -> None:
        """End the spawner and wait for it."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], env: dict, stdout: Path, stderr: Path,
            deadline: float, on_stop=None) -> tuple[float, dict]:
        """Run one job to its end; returns its wall time and the spawner's
        report of how it ended.

        With ``on_stop`` given, the job is stopped every SLICE_S while
        ``on_stop()`` runs, and the stops are left out of the wall time.  A
        job still running at ``deadline`` is killed.
        """
        request = {"argv": argv, "env": env,  # the spawner runs in ROOT
                   "stdout": str(stdout.resolve()), "stderr": str(stderr.resolve())}
        t0 = clock()
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        pid = int(self._reply())
        wall, ended = 0.0, False
        try:
            pidfd = os.pidfd_open(pid)
        except ProcessLookupError:  # it has ended and been reaped already
            wall, ended = clock() - t0, True
        else:
            try:
                while not ended:
                    left = deadline - clock()
                    timeout = left if on_stop is None else min(SLICE_S, left)
                    ended = bool(select.select([pidfd], [], [], max(timeout, 0.0))[0])
                    if ended:
                        wall += clock() - t0
                    elif clock() >= deadline:
                        break
                    else:
                        _send(pidfd, signal.SIGSTOP)
                        wall += clock() - t0
                        on_stop()
                        t0 = clock()
                        _send(pidfd, signal.SIGCONT)
            finally:
                if not ended:
                    _send(pidfd, signal.SIGKILL)
                os.close(pidfd)
        return wall, json.loads(self._reply())

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner ended; its error is on stderr")
        return line


def _send(pidfd: int, sig: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, sig)
    except ProcessLookupError:
        pass  # the job ended and the spawner reaped it; select sees that next


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "commit": git_commit(),
            "loadavg": list(os.getloadavg())}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs jobs one at a time and keeps the verdicts of a benchmark run."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "DONKIN_NO_CACHE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.reference = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.attempted = self.failed = self.digest_mismatches = 0
        self.serial = 0
        self.spawner = Spawner()

    def close(self) -> None:
        self.spawner.close()

    def new_cache(self, filled: Path | None = None) -> Path:
        """A fresh cache dir: empty, or a copy of ``filled``."""
        self.serial += 1
        path = self.work / f"cache{self.serial}"
        if filled is not None:
            shutil.copytree(filled, path)
        else:
            path.mkdir()
        return path

    def run(self, args: list[str], cache: Path, spans: Path | None = None,
            sliced: bool = False) -> dict:
        """Run one job to its end; returns its timings, verdict and output size.

        The calibration loop runs before and after the job and, if
        ``sliced``, in a stop every SLICE_S; ``scale`` in the result is
        CAL_REF_S over the loop's mean time.
        """
        if clock() >= self.deadline:
            raise OutOfTime
        self.serial += 1
        if spans is None:
            cmd = [sys.executable, "-m", "donkin.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "trace_job.py"), str(spans), str(self.serial), *args]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        env = {**self.env, "DONKIN_CACHE_DIR": str(cache)}
        cals = [calibrate()]
        on_stop = (lambda: cals.append(calibrate())) if sliced else None
        wall, ended = self.spawner.run(cmd, env, out_path, err_path, self.deadline, on_stop)
        cals.append(calibrate())
        data = out_path.read_bytes()
        returncode = os.waitstatus_to_exitcode(ended["status"])
        reason = checks.check(args, returncode, data.decode("utf-8", "replace"))
        key, sha256 = " ".join(args), hashlib.sha256(data).hexdigest()
        self.attempted += 1
        self.failed += reason is not None
        self.digest_mismatches += self.reference.get(key) != sha256
        if reason is not None:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            print(json.dumps({"kind": "job-failed", "job": key, "reason": reason,
                              "stderr": tail}), flush=True)
        return {"wall": wall, "cpu": ended["utime"] + ended["stime"],
                "rss_mb": ended["maxrss_kb"] / 1024, "bytes": len(data), "sha256": sha256,
                "scale": CAL_REF_S / statistics.fmean(cals)}

    def run_fresh(self, args, filled: Path | None = None, spans: Path | None = None,
                  sliced: bool = False) -> dict:
        cache = self.new_cache(filled)
        try:
            return self.run(args, cache, spans, sliced)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def fill(self, jobs) -> Path:
        """One cold pass sharing one cache dir; returns that dir."""
        filled = self.new_cache()
        for args in jobs:
            self.run(args, filled)
        return filled


def measure(runner: Runner, jobs, filled, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the sample counts behind them.

    Jobs cycle in order until every job ran once and the next one would end
    after ``seconds``; a pass is the sum over jobs of each job's median.  A
    set-up probe follows every job, so that setup_s is sampled over the same
    stretch of time as the jobs.  Times are scaled to the reference speed.
    """
    samples = [[] for _ in jobs]
    setup = []
    took = [0.0] * len(jobs)  # the last real duration of each job and its probe
    start, i = clock(), 0
    while i < len(jobs) or clock() - start + took[i % len(jobs)] < seconds:
        k, t0 = i % len(jobs), clock()
        samples[k].append(runner.run_fresh(jobs[k], filled, sliced=True))
        setup.append(runner.run_fresh(SETUP_JOB, sliced=True))
        took[k] = clock() - t0
        i += 1

    def per_job(field, scaled=True):
        return [statistics.median(r[field] * (r["scale"] if scaled else 1) for r in s)
                for s in samples]

    metrics = {
        "wall_s": sum(per_job("wall")),
        "cpu_s": sum(per_job("cpu")),
        "setup_s": statistics.median(r["wall"] * r["scale"] for r in setup),
        "peak_rss_mb": max(per_job("rss_mb", scaled=False)),
    }
    detail = {
        "samples_per_job": [len(s) for s in samples], "setup_samples": len(setup),
        "unscaled_wall_s": sum(per_job("wall", scaled=False)),
        "unscaled_setup_s": statistics.median(r["wall"] for r in setup),
        "median_scale": statistics.median(r["scale"] for s in samples for r in s),
    }
    return metrics, detail


def layer_metrics(spans: list[dict]) -> dict:
    """Per-pass sums over the spans of every job in one traced pass.

    ``calls`` counts spans, ``s`` sums the outermost span of each name,
    ``self_s`` subtracts the time of child spans, and numeric counts a
    span carries are summed under their own name.
    """
    byid = {(s["job"], s["id"]): s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[(s["job"], s["parent"])] += s["end"] - s["start"]
    out = defaultdict(float)
    keys = set()
    for s in spans:
        me = (s["job"], s["id"])
        name, dur = s["name"], s["end"] - s["start"]
        if name == "cli.import":
            out["cli.import_s"] += dur
            continue
        if name == "cli":
            out["cli.self_s"] += dur - child[me]
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child[me]
        parent = s["parent"]
        while parent is not None and byid[(s["job"], parent)]["name"] != name:
            parent = byid[(s["job"], parent)]["parent"]
        if parent is None:
            out[f"{name}.s"] += dur
        if "key" in s:
            if (s["job"], s["key"]) not in keys:
                keys.add((s["job"], s["key"]))
                out[f"{name}.distinct"] += 1
                out[f"{name}.dominant_weights"] += s["dominant_weights"]
            continue
        for k, v in s.items():
            if k not in ("job", "id", "name", "parent", "start", "end"):
                out[f"{name}.{k}"] += v
    return out


def trace(runner: Runner, jobs, filled, seconds: float) -> dict:
    """Per-layer metrics: untraced and traced passes alternate until
    ``seconds`` would be exceeded; per-layer values are medians over the
    traced passes, and trace.overhead compares the two kinds of pass, each
    job's wall time scaled by the calibration loop run around it."""
    plain, traced, layers = [], [], []
    path = runner.work / "spans.jsonl"
    start = clock()
    while True:
        t0 = clock()
        plain.append(sum(r["wall"] * r["scale"] for r in
                         (runner.run_fresh(args, filled) for args in jobs)))
        spans, wall, out_bytes = [], 0.0, 0
        for args in jobs:
            r = runner.run_fresh(args, filled, spans=path)
            wall += r["wall"] * r["scale"]
            out_bytes += r["bytes"]
            if path.is_file():
                spans += [json.loads(line) for line in path.read_text().splitlines()]
                path.unlink()
        traced.append(wall)
        layer = layer_metrics(spans)
        layer["cli.output_bytes"] = out_bytes
        layers.append(layer)
        if clock() - start + (clock() - t0) > seconds:
            break
    names = {n for layer in layers for n in layer}
    metrics = {n: statistics.median(layer.get(n, 0.0) for layer in layers) for n in names}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    metrics["cli.digest_mismatches"] = runner.digest_mismatches
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 jobs: list[list[str]] | None = None) -> dict:
    """One benchmark run; prints its detail line and returns the result.

    ``jobs`` replaces the seed's job list (the smoke test uses it).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if traced else "end_to_end"]
    jobs = jobs if jobs is not None else jobs_for(workload, seed)
    _, warm = WORKLOADS[workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    pin_to_one_cpu()
    runner = Runner(work, clock() + RUN_LIMIT_S)
    try:
        filled = runner.fill(jobs) if warm else None
        if traced:
            values, detail = trace(runner, jobs, filled, seconds), {}
        else:
            values, detail = measure(runner, jobs, filled, seconds)
    except OutOfTime:
        values, detail = {}, {}
        runner.failed += 1
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"kind": "detail", "workload": workload, "seed": seed,
                      "trace": int(traced), "jobs": [" ".join(a) for a in jobs],
                      **detail, "digest_mismatches": runner.digest_mismatches}))
    return {
        "correct": runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(_LAYER_SOURCE.get(m["name"], m["name"]), 0),
                                "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args(argv)
    if not (ROOT / "src" / "donkin" / "cli.py").is_file():
        print(f"error: no donkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"kind": "machine", **machine()}), flush=True)
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, opts.seed, opts.seconds, bool(opts.trace))
    if opts.workload != "all":
        print(json.dumps(results[opts.workload]))
        return 0
    for name, res in results.items():
        rate = res["failed"] / res["attempted"]
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"{name:<11} error_rate={rate:.4g} " + " ".join(cells))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
