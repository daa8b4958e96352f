#!/usr/bin/env python3
"""qoctl benchmark: four seeded solve workloads, end to end and per layer.

Run from the repository root (no build; qoctl is imported from ``src``):

    python3 perfbench/run.py --workload closed_sweep --seed 1 --seconds 10 \\
        --trace 0
    python3 perfbench/run.py --workload all        # every workload, a table
    python3 perfbench/run.py --workload all --smoke --trace 1
    python3 perfbench/run.py --workload all --out new.json
    python3 perfbench/run.py --compare old.json new.json

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s,
peak_rss_mb); ``--trace 1`` reports the per-layer metrics of a traced solve.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PROBES = 3  # measured set-up probes per run, after one warm-up probe
DEADLINE_S = 170.0  # per workload
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the worker started")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=remaining)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[:2]} exited with "
                           f"{proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qoctl").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(name, seed, seconds, trace, smoke) -> dict:
    """Set-up probes and solves of one workload; metrics and counts."""
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{name}-{os.getpid()}"
    inputs = work / "inputs"
    workloads.write_inputs(workloads.make_inputs(name, seed, smoke), inputs)
    try:
        # the first probe compiles bytecode and warms the file cache
        probes = [run_worker(["probe", name, inputs], deadline)
                  for _ in range(PROBES + 1)][1:]
        spans = WORK / "spans" / f"{name}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        solved = run_worker(["solve", name, inputs, work / "solve",
                             "--seconds", seconds, "--trace", trace,
                             "--spans", spans], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import_s = statistics.median(p["import_s"] for p in probes)
    config_s = statistics.median(p["config_s"] for p in probes)
    setup_s = statistics.median(p["import_s"] + p["config_s"]
                                for p in probes)
    if trace:
        metrics = dict(solved.get("metrics", {}))
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.config_s"] = (config_s, "s")
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (solved["peak_rss_mb"], "MB")}
        if solved["samples"]:
            metrics["wall_s"] = (statistics.median(solved["samples"]), "s")
    for problem in solved["problems"]:
        print(f"perfbench: {name} seed {seed}: failed: {problem}",
              file=sys.stderr)
    return {"metrics": metrics, "attempted": solved["attempted"],
            "failed": solved["failed"], "samples": solved["samples"],
            "probes": len(probes), "absent": solved.get("absent", []),
            "env": solved["env"]}


def table_line(name, res) -> str:
    m = res["metrics"]
    parts = [f"{name:<13}"]
    for key, count in (("setup_s", f"{res['probes']} probes"),
                       ("wall_s", f"{len(res['samples'])} solves"),
                       ("peak_rss_mb", "1 process")):
        if key in m:
            value, unit = m[key]
            parts.append(f"{key} {value:.4f} {unit} (n={count})")
    parts.append(f"failed {res['failed']}/{res['attempted']}")
    return "  ".join(parts)


def compare(old_path: Path, new_path: Path) -> int:
    """Print metric ratios of two ``--out`` files; flag environment drift."""
    old = json.loads(old_path.read_text())
    new = json.loads(new_path.read_text())
    for key in ("kernel_backend", "nproc", "python", "numpy", "scipy",
                "blas", "blas_threads"):
        if old["env"].get(key) != new["env"].get(key):
            flag = "WARNING" if key == "kernel_backend" else "note"
            print(f"{flag}: {key} differs: {old['env'].get(key)!r} vs "
                  f"{new['env'].get(key)!r}; the comparison mixes "
                  f"environments")
    for name, res in new["workloads"].items():
        before = old["workloads"].get(name, {}).get("metrics", {})
        for metric, (value, unit) in sorted(res["metrics"].items()):
            if metric in before and before[metric][0]:
                ratio = value / before[metric][0]
                print(f"{name:<13} {metric:<45} {before[metric][0]:>12.6g} "
                      f"-> {value:>12.6g} {unit:<6} x{ratio:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum time spent solving per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids; tests the harness, not qoctl")
    parser.add_argument("--out", type=Path,
                        help="also write the results and environment here")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "qoctl" / "__init__.py").is_file():
        print(f"perfbench: no qoctl source tree under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    env = dict(next(iter(results.values()))["env"])
    env.update(nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
               git_commit=git_commit(), source_sha256=source_digest(),
               seed=args.seed, default_seed=workloads.DEFAULT_SEED,
               trace=args.trace, smoke=args.smoke)
    for name, res in results.items():
        if not args.trace:
            print(table_line(name, res))
        if res["absent"]:
            print(f"{name}: absent entry points: {res['absent']}")
    if args.out:
        args.out.write_text(json.dumps(
            {"env": env, "workloads": results}, indent=1) + "\n")
    prefix = len(results) > 1
    metrics = {(f"{name}.{key}" if prefix else key):
               {"value": value, "unit": unit}
               for name, res in results.items()
               for key, (value, unit) in res["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
