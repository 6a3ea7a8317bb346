"""Shared pieces of the workloads: timing, the host-speed probe, percentiles
and the result line."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, job files and span dumps; ignored by git.
WORK = ROOT / ".perfbench"



def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def band_percentile(values: Sequence[float], fraction: float, band: float = 0.05) -> float:
    """The mean of the samples ranked within ``band`` of the percentile.

    A single order statistic of a broad latency distribution moves a lot
    between runs; averaging the ranks within 5 points of it keeps the
    estimate at the same place with a fraction of the run-to-run spread.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    last = len(ordered) - 1
    low = max(0, math.floor((fraction - band) * last))
    high = min(last, math.ceil((fraction + band) * last))
    return statistics.mean(ordered[low : high + 1])


def _reference_work() -> int:
    total = 0
    for value in range(20_000):
        total += value * value % 7
    return total


#: What the reference loop takes on the host the figures are scaled to.
NOMINAL_REF_MS = 1.6
#: Half-width of the window of probes that scales one operation.
WINDOW_S = 1.0


class HostProbe:
    """A fixed pure-Python loop timed between operations.

    The host's speed drifts by tens of percent within seconds, far more
    than the changes the benchmark must resolve.  Every timing is therefore
    scaled by the probe times around it to a host on which the loop takes
    ``NOMINAL_REF_MS``; the median probe time is reported as
    ``host.ref_ms`` and the unscaled figures go to the properties line.
    The probe runs at most every ``interval`` seconds, between operations,
    and its own time is excluded from throughput.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.points: List[Tuple[float, float]] = []
        self.spent = 0.0
        self._last = -1e9

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.now()

    def now(self) -> None:
        started = time.perf_counter()
        _reference_work()
        end = time.perf_counter()
        self.points.append((end, (end - started) * 1000))
        self.spent += end - started
        self._last = end

    def median_ms(self) -> float:
        if not self.points:
            self.now()
        return statistics.median(ms for _, ms in self.points)

    def slowness(self, at: Optional[float] = None) -> float:
        """Probe time near ``at`` (the whole run if None) over the nominal."""
        if not self.points:
            self.now()
        if at is None:
            return self.median_ms() / NOMINAL_REF_MS
        near = [ms for when, ms in self.points if abs(when - at) <= WINDOW_S]
        if len(near) < 3:
            near = [ms for _, ms in sorted(self.points, key=lambda point: abs(point[0] - at))[:5]]
        return statistics.median(near) / NOMINAL_REF_MS

    def scale(self, timed: Sequence[Tuple[float, float]]) -> List[float]:
        """Scale (time, ms) samples to the nominal host speed."""
        return [ms / self.slowness(at) for at, ms in timed]


def timed_setups(setup: Callable[[], object], repeats: int):
    """Run ``setup`` ``repeats`` times; return (scaled median seconds, raw
    median seconds, last value).

    A probe runs before each set-up and after the last, and the median set-up
    time is scaled by their median.  Earlier values are closed (if they have
    ``close``) before the next set-up starts, so only one is ever alive.
    """
    probe = HostProbe()
    durations = []
    value = None
    for _ in range(repeats):
        if value is not None and hasattr(value, "close"):
            value.close()
        value = None
        probe.now()
        started = time.perf_counter()
        value = setup()
        durations.append(time.perf_counter() - started)
    probe.now()
    raw = statistics.median(durations)
    return raw / probe.slowness(), raw, value


def scaled_throughput(probe: HostProbe, steps, operations: int) -> float:
    """Operations per second of scaled time; ``steps`` are (time, ms) samples
    that together cover the measured loop."""
    return operations / (sum(probe.scale(steps)) / 1000)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(probe: HostProbe, reads, writes, outcome) -> None:
    """Scaled read/write percentiles into the metrics, raw ones into the
    properties; ``reads``/``writes`` hold (time, ms) samples."""
    for kind, timed in (("read", reads), ("write", writes)):
        scaled = probe.scale(timed)
        raw = [ms for _, ms in timed]
        for share in (50, 90):
            outcome.metrics[f"{kind}_p{share}_ms"] = band_percentile(scaled, share / 100)
            outcome.properties[f"raw_{kind}_p{share}_ms"] = percentile(raw, share / 100)
        outcome.properties[f"{kind}s"] = len(timed)


class Outcome:
    """What a workload hands back: counts, metrics and workload properties."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.properties: Dict[str, object] = {}
        #: The traced run's tracer, whose spans are written out at the end.
        self.tracer = None

    def check(self, ok: bool, description: str) -> None:
        """Record one checked output; a miss counts as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(description)


def emit(outcome: Outcome, units: Dict[str, str], stream) -> bool:
    """Print the properties line and the result line; True iff correct."""
    correct = outcome.failed == 0 and outcome.attempted > 0
    properties = dict(outcome.properties)
    properties["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    print("properties " + json.dumps(properties, sort_keys=True), file=stream)
    missing = [name for name in units if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": units[name]}
        for name in units
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        file=stream,
        flush=True,
    )
    return correct


def trace_path(workload: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return WORK / f"trace-{workload}.jsonl"
