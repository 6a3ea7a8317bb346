"""One workload run in a fresh interpreter; started by ``run.py``.

Prints a ``properties`` line (workload properties and ``failed_frac``) and,
last, the result line.  Exits 1 when any checked output was wrong.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("sample", "history", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--wrong", action="store_true", help="corrupt one answer (self-test)")
    arguments = parser.parse_args(argv)

    module = __import__(f"wl_{arguments.workload}")
    outcome = module.run(
        arguments.seed,
        arguments.seconds,
        bool(arguments.trace),
        tiny=arguments.tiny,
        wrong=arguments.wrong,
    )
    if arguments.trace:
        units = common.metric_units("per_layer")
        for name in units:
            outcome.metrics.setdefault(name, 0.0)
        if outcome.tracer is not None:
            path = common.trace_path(arguments.workload)
            outcome.tracer.write(path)
            outcome.properties["trace_file"] = str(path.relative_to(common.ROOT))
            outcome.properties["spans"] = len(outcome.tracer.spans)
    else:
        units = common.metric_units("end_to_end")
    for line in outcome.mismatches:
        print(f"perfbench: WRONG ANSWER: {line}", file=sys.stderr)
    correct = common.emit(outcome, units, sys.stdout)
    if not correct:
        print(
            f"perfbench: {outcome.failed} of {outcome.attempted} checked outputs were wrong",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
