"""Print every metric of every workload: end to end, then the layer table.

    python3 perfbench/report.py --seed 1 --seconds 40

Runs ``perfbench/run.py`` once untraced and once traced per workload
(from the repository root) and prints each end-to-end metric with its
unit, then each per-layer metric the workload measures with the
end-to-end metric it should move.  ``op.unattributed_s`` is the op's
wall time not covered by a span; ``op.trace_overhead_ms`` is the traced
ops' median latency minus the untraced ops'.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.core import CHECKOUT, LAYERS, WORKLOADS  # noqa: E402


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(CHECKOUT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (trace {trace}) failed with exit {done.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        untraced = measure(workload, args.seed, args.seconds, 0)
        traced = measure(workload, args.seed, args.seconds, 1)
        print(f"\n{workload}  (seed {args.seed}, {args.seconds:g} s)")
        for label, result in (("untraced", untraced), ("traced", traced)):
            print(
                f"  {label} run: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
        print("  end to end")
        for name, metric in untraced["metrics"].items():
            print(f"    {name:28s} {metric['value']:16.6g} {metric['unit']}")
        print("  per layer (self time; median over traced ops)")
        print(f"    {'metric':28s} {'value':>16s} {'unit':6s} should move")
        for layer in LAYERS:
            if workload in layer.measured_on:
                value = traced["metrics"][layer.name]["value"]
                print(f"    {layer.name:28s} {value:16.6g} {layer.unit:6s} {layer.moves}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
