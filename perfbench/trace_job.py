"""Run one donkin CLI job with spans around its layers.

Usage: python trace_job.py SPANS_FILE JOB_ID CLI_ARGS...

Imports ``donkin.cli``, replaces the functions in ``LAYERS`` by timing
wrappers in every donkin module that looks them up by name, calls
``donkin.cli.main(CLI_ARGS)`` and, at exit, writes one JSON line per span:
name, start, end, parent, job id, and the counts the layer reports.  Nothing
under ``src/`` is edited; a function a later version no longer has is simply
not traced.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

clock = time.perf_counter


def _freudenthal(args, result):
    # the memo makes repeated calls cheap: the parent counts each key once
    rd, lam = args[0], args[1]
    return {"key": f"{rd.gtype}:{tuple(lam)}", "dominant_weights": len(result)}


# (module, function) -> (span name, counts taken from (args, result))
LAYERS = {
    ("donkin.rootsystem", "build_root_datum"): ("rootsystem.build_root_datum", None),
    ("donkin.rootsystem", "weyl_orbit"):
        ("rootsystem.weyl_orbit", lambda a, r: {"points": len(r)}),
    ("donkin.characters", "_freudenthal"): ("characters.freudenthal", _freudenthal),
    ("donkin.characters", "dual_weyl_character"): ("characters.dual_weyl_character", None),
    ("donkin.characters", "decompose_dual_weyl"):
        ("characters.decompose_dual_weyl", lambda a, r: {"peel_steps": len(r.terms)}),
    ("donkin.characters", "exterior_algebra"):
        ("characters.exterior_algebra", lambda a, r: {"output_weights": len(r.support)}),
    ("donkin.characters", "load_cache_file"):
        ("characters.cache.load", lambda a, r: {"entries": r}),
    ("donkin.characters", "save_cache_file"):
        ("characters.cache.save", lambda a, r: {"bytes": os.path.getsize(r)}),
    ("donkin.embeddings", "chain_restriction_map"): ("embeddings.chain_restriction_map", None),
    ("donkin.embeddings", "restrict_character"):
        ("embeddings.restrict_character", lambda a, r: {"weights_in": len(a[0].support)}),
    ("donkin.verifier", "verify_record"): ("verifier.verify_record", None),
    ("donkin.verifier", "spot_check"):
        ("verifier.spot_check", lambda a, r: {r.status.lower(): 1}),
    ("donkin.nilpotent", "parse_orbit_tables"):
        ("nilpotent.parse_orbit_tables", lambda a, r: {"records": len(r)}),
}


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"job": self.job, "id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None, "start": clock()}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = clock()
        self.stack.pop()

    def wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                try:
                    span.update(counts(args, result))
                except (AttributeError, TypeError, OSError):
                    pass  # a changed return type loses the count, not the job
            return result
        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n.startswith("donkin")}
        for (module, attr), (name, counts) in LAYERS.items():
            fn = getattr(modules.get(module), attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(fn, name, counts)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    spans_path, job, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(job)
    imp = tracer.open("cli.import")
    import donkin.cli
    tracer.close(imp)
    tracer.install()
    root = tracer.open("cli")
    code = 0
    try:
        donkin.cli.main(cli_args, prog_name="donkin")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.close(root)
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
