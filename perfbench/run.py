"""Benchmark of the repair-counting engine.

    python3 perfbench/run.py --workload {sample,history,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each run starts the workload in a fresh
interpreter with ``PYTHONHASHSEED=0`` and ``src/`` on the import path, so
no state or hash-seed luck carries over between runs.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run (see ``layers.py``).  Every
run checks the program's answers and exits 1 on any wrong one.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hard ceiling on one run; the workloads finish well inside it.
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sample", "history", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments, extra = parser.parse_known_args()
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable,
        str(HERE / "bench_main.py"),
        "--workload", arguments.workload,
        "--seed", str(arguments.seed),
        "--seconds", str(arguments.seconds),
        "--trace", str(arguments.trace),
        *extra,
    ]
    # A session of its own, so a stopped run takes the server processes of
    # the serve workload down with it.
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S}s; stopped", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
