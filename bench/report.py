"""Run every workload once and print each metric by name with its unit.

    python3 bench/report.py [--seed N] [--trace 0|1]

Each workload runs in its own process through bench/run.py, exactly as a
single benchmark run does.  Exits 1 if any workload reports an incorrect
output or fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{wl}: no result (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{wl}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
