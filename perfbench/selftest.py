#!/usr/bin/env python3
"""Self-test of the benchmark harness on configs/demo.json.

    python3 perfbench/selftest.py

The demo workload must print exactly the metrics BENCHMARK.json names, each
with its unit, untraced and traced, with every round passing its checks
(failed_frac 0). With a deadline far shorter than one round every operation
must fail (failed_frac 1) while the run still finishes and reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "demo", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    print(proc.stdout, end="")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result = _run("--trace", trace)
        expected = {m["name"]: m["unit"] for m in bench[kind]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != expected:
            problems.append(f"--trace {trace}: metrics {printed} != {kind} {expected}")
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"--trace {trace}: {result['failed']} of "
                            f"{result['attempted']} operations failed")
    result = _run("--deadline", "0.0001")
    if result["failed"] != result["attempted"]:
        problems.append(f"short deadline: only {result['failed']} of "
                        f"{result['attempted']} operations failed")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
