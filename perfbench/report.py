"""Run every workload once and print its metrics side by side.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace 0]

Each workload runs in its own ``run.py`` process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    failed = 0
    host = None
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=RUN.parent.parent, capture_output=True,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            failed += 1
            continue
        info = next(json.loads(line) for line in lines
                    if line.startswith('{"context"'))
        result = json.loads(lines[-1])
        host = info["context"]
        print(f"== {name} (seed {args.seed}, {info['passes']} passes, "
              f"host pass p50 {info['host_pass_s_p50']:.4g} s, "
              f"calibration scale {info['calibration_scale_p50']:.3f})")
        for metric, m in result["metrics"].items():
            print(f"   {metric:36s} {m['value']:14.6g} {m['unit']:6s} "
                  f"n={info['passes']}")
        print(f"   ops attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for problem in info["problems"]:
            print(f"   ! {problem}")
        failed += result["failed"]
    if host:
        print(f"host: {host['nproc']} x {host['cpu']}, Python "
              f"{host['python']}, numpy {host['numpy']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
