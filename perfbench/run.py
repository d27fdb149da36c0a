"""Run one benchmark measurement and print its result as the last stdout line.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 40 --trace 0

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The exit code is non-zero, and no result is printed, when the program
under ``src/`` is missing or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.core import (  # noqa: E402
    SRC,
    WORKLOADS,
    BenchError,
    RunRoot,
    log,
    result_line,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed", type=lambda text: int(text) % 2**32, required=True,
        help="workload seed (taken modulo 2**32); it generates every input",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        log(f"no program at {SRC}; run from a checkout of the repository")
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its children and removes its scratch root.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from perfbench import serve

    try:
        with RunRoot() as root:
            log(f"{args.workload}: seed {args.seed}, scratch on {root.fs_type}")
            outcome = serve.run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    except Exception:  # report any failure as a non-zero exit, never a result
        traceback.print_exc()
        return 1
    if root.leftovers:
        log(f"run left behind: {root.leftovers}")
        outcome.correct = False
    print(result_line(outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
