"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of ``BENCHMARK.json`` and a traced run exactly its
per-layer metrics, each with its unit; and that a run told to corrupt one
answer reports it: ``correct`` false, ``failed`` above 0 and exit code 1.
Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample", "history", "serve")


def _run(workload: str, trace: int, *extra: str):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return completed.returncode, result, completed.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, stderr = _run(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}\n{stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            if not all(isinstance(entry["value"], float) for entry in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if trace == 0 and not all(entry["value"] > 0 for entry in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is 0")
        code, result, _ = _run(workload, 0, "--wrong")
        if code != 1 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload} --wrong: exit {code}, result {result and {k: result[k] for k in ('correct', 'failed')}}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
