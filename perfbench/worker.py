"""Benchmark worker: one set-up probe, or the timed solves of one workload.

    python3 perfbench/worker.py probe <workload> <input dir>
    python3 perfbench/worker.py solve <workload> <input dir> <work dir> \\
        --seconds S --trace 0|1 [--spans FILE]

Each mode prints one JSON object.  ``run.py`` starts the worker from the
repository root with ``PYTHONPATH=src`` and a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads


def probe(name: str, directory: Path) -> dict:
    """Import cost and config/problem set-up cost of a fresh interpreter."""
    spec = workloads.load_inputs(directory)
    start = time.perf_counter()
    import qoctl.cli  # noqa: F401
    import qoctl.optimize  # noqa: F401
    imported = time.perf_counter()
    workloads.setup(name, spec, directory)
    done = time.perf_counter()
    return {"import_s": imported - start, "config_s": done - imported}


def attempt(name, spec, directory, out_dir, reference=None):
    """One solve: ``(seconds or None, summary bytes or None, problems)``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        workloads.solve(name, spec, directory, out_dir)
    except Exception as exc:  # a raising solve is a failed operation
        traceback.print_exc()
        return None, None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    files = workloads.artifacts(out_dir)
    problems = workloads.check(name, files, spec["smoke"])
    summary = files.get("summary.json")
    if reference is not None and summary != reference:
        problems.append("summary.json differs from the first solve of the "
                        "same inputs")
    return seconds, summary, problems


def solve_untraced(name, spec, directory, work, seconds) -> dict:
    """Solve repeatedly for ``seconds``, at least twice (the second solve
    checks that the summary is byte-identical)."""
    samples, problems, attempted, reference = [], [], 0, None
    start = time.perf_counter()
    while attempted < 2 or time.perf_counter() - start < seconds:
        attempted += 1
        took, summary, found = attempt(name, spec, directory,
                                       work / "out", reference)
        if reference is None:
            reference = summary
        if found:
            problems.append(found)
        elif took is not None:
            samples.append(took)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"samples": samples, "attempted": attempted,
            "failed": len(problems), "problems": problems,
            "peak_rss_mb": rss_kb / 1024.0}


def solve_traced(name, spec, directory, work, spans_path) -> dict:
    """One untraced and one traced solve of the same inputs."""
    import tracer

    plain_s, reference, first = attempt(name, spec, directory,
                                        work / "out")
    spans = tracer.Tracer(run_id=f"{name}-seed{spec['seed']}")
    with spans:
        traced_s, _, second = attempt(name, spec, directory, work / "out",
                                      reference)
    leftover = tracer.wrapped_names()
    if leftover:
        second.append(f"patched names not restored: {leftover}")
    problems = [p for p in (first, second) if p]
    result = {"attempted": 2, "failed": len(problems), "problems": problems,
              "absent": spans.absent, "samples": []}
    if plain_s is None or traced_s is None:
        return result
    files = workloads.artifacts(work / "out")
    metrics = spans.metrics(traced_s)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["scenarios.artifact_bytes"] = (
        sum(len(b) for b in files.values()), "bytes")
    if spans_path is not None:
        spans.write_spans(spans_path)
    result["samples"] = [plain_s]
    result["metrics"] = metrics
    return result


def environment() -> dict:
    import numpy
    import scipy

    import qoctl

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"kernel_backend": qoctl.kernel_backend(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["probe", "solve"])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("inputs", type=Path)
    parser.add_argument("work", type=Path, nargs="?")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", type=Path,
                        help="write the traced solve's spans here (JSONL)")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        print(json.dumps(probe(args.workload, args.inputs)))
        return 0
    spec = workloads.load_inputs(args.inputs)
    args.work.mkdir(parents=True, exist_ok=True)
    workloads.setup(args.workload, spec, args.inputs)  # imports qoctl
    if args.trace:
        result = solve_traced(args.workload, spec, args.inputs, args.work,
                              args.spans)
    else:
        result = solve_untraced(args.workload, spec, args.inputs, args.work,
                                args.seconds)
    shutil.rmtree(args.work / "out", ignore_errors=True)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
