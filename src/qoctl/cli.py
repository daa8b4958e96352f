"""Command-line entry point: ``qoctl run <config> --out <dir>``.

Exit codes: 0 success, 2 config/schema violation, 3 numerics abort,
4 file I/O failure.  Failures print a machine-readable JSON object to
stdout (and write ``error.json`` into the output directory when one is
available) so CI can gate on scenario runs; a failure of no known kind
also prints its traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

# qoctl's matrices are 2x2 to 16x16, where extra BLAS threads only contend
# for cores.  BLAS reads these when numpy loads, which the import below
# does first; values already set are kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .scenarios import ConfigError, ScenarioError, run_scenario  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoctl",
        description="Config-driven quantum optimal control scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", type=Path, help="JSON scenario config")
    run.add_argument("--out", type=Path, default=None,
                     help="output directory for summary and CSV artifacts")
    run.add_argument("--seed-field", type=Path, default=None,
                     help="CSV field (midpoint time, value): the rabi "
                          "pulse shape, the gate_opt baseline or a "
                          "qubit_reset guess; its times set the grid when "
                          "the config has none")
    return parser


def _fail(kind: str, exc: Exception, code: int, out_dir) -> int:
    payload = {"error": {"type": kind, "message": str(exc)}}
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if out_dir is not None:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / "error.json").write_text(text + "\n")
        except OSError:
            pass
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bundle = run_scenario(args.config, out_dir=args.out,
                              seed_field_path=args.seed_field)
    except ConfigError as exc:
        return _fail("config", exc, 2, args.out)
    except ScenarioError as exc:
        return _fail("numerics", exc, 3, args.out)
    except OSError as exc:
        return _fail("io", exc, 4, args.out)
    except Exception as exc:  # any other failure keeps the JSON contract
        traceback.print_exc()
        return _fail("numerics", exc, 3, args.out)
    if bundle.summary_path is not None:
        print(bundle.summary_path)
    else:
        print(json.dumps(bundle.summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
