"""Which entry point of which ``repro`` layer each span wraps, and the
per-layer metrics derived from those spans.

``BENCHMARK.json`` lists the per-layer metrics; the traced run of every
workload emits each of them (0 where the workload does not use the layer).
``README.md`` records which end-to-end metric each layer's metrics should
move.

Time metrics are *inclusive* milliseconds per traced step (a span nested in
another layer's span counts for both); ``engine.self_ms`` alone is self
time.  Counts are per step too; fractions are shares.  A step is one pass of
the workload's loop: a read and a write in ``sample``; a write, a read and,
every 4th step, a range in ``history``; one request in ``serve``.

A traced run installs the wrappers for its whole length and traces steps in
alternating blocks, so ``trace.overhead_pct`` compares traced with untraced
steps taken under the same conditions.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def pinned_fraction(block_count: int, selectors: Sequence) -> float:
    pinned = {index for selector in selectors for index, _ in selector.pins}
    return len(pinned) / block_count if block_count else 0.0


def instrument(tracer) -> None:
    """Wrap the entry points of every in-process layer with spans."""
    from repro.approx.cqa_fpras import CQAFpras
    from repro.core import solver
    from repro.db.blocks import BlockDecomposition
    from repro.db.database import Database
    from repro.engine import cache_coordinator
    from repro.engine.executor import JobExecutor
    from repro.engine.lineage_service import LineageService
    from repro.repairs import counting
    from repro.store import caches, snapshots
    from repro.store.backend import FilesystemBackend
    from repro.store.catalog import SnapshotCatalog

    def fpras_result(span, args, kwargs, result) -> None:
        prepared = kwargs.get("prepared")
        decomposition = kwargs.get("decomposition")
        span.attrs["samples"] = result.samples
        span.attrs["hits"] = result.successes
        if prepared is not None and decomposition is not None:
            span.attrs["pinned"] = pinned_fraction(
                len(decomposition.block_sizes()), prepared.selectors
            )

    def karp_luby_result(span, args, kwargs, result) -> None:
        sizes, selectors = args[0], args[1]
        span.attrs["samples"] = result.samples
        span.attrs["hits"] = result.successes
        span.attrs["pinned"] = pinned_fraction(len(sizes), selectors)

    def boxes(span, args, kwargs, result) -> None:
        span.attrs["boxes"] = len(args[1])

    def written(span, args, kwargs, result) -> None:
        span.attrs["bytes"] = len(args[2])

    def versions(span, args, kwargs, result) -> None:
        span.attrs["versions"] = len(args[2])

    def demoted(span, args, kwargs, result) -> None:
        span.attrs["demoted"] = 1 if result else 0

    def replay_step(span, args, kwargs, result) -> None:
        # The span is already closed; its parent chain tells whether a
        # lineage walk caused this delta application.
        if tracer.inside("lineage."):
            span.attrs["replayed"] = 1

    tracer.wrap(CQAFpras, "estimate", "approx.fpras", fpras_result)
    tracer.wrap(solver, "estimate_union_karp_luby", "approx.karp_luby", karp_luby_result)
    tracer.wrap(Database, "content_digest", "db.digest")
    tracer.wrap(Database, "apply_delta", "db.apply_delta", replay_step)
    tracer.wrap(BlockDecomposition, "__init__", "db.decompose")
    tracer.wrap(BlockDecomposition, "apply_delta", "db.decompose")
    tracer.wrap(LineageService, "materialise", "lineage.materialise")
    tracer.wrap(LineageService, "materialise_range", "lineage.materialise_range", versions)
    tracer.wrap(LineageService, "demote_checkpoint", "store.demote", demoted)
    for store_class in (
        caches.SelectorDiskCache,
        caches.DecompositionDiskCache,
        caches.CalibrationDiskCache,
    ):
        tracer.wrap(store_class, "load", "store.read")
        tracer.wrap(store_class, "store", "store.write")
    tracer.wrap(snapshots.SnapshotStore, "load", "store.read.snapshot")
    tracer.wrap(snapshots.SnapshotStore, "store", "store.write")
    tracer.wrap(SnapshotCatalog, "append", "store.write")
    tracer.wrap(SnapshotCatalog, "record_checkpoint", "store.write")
    tracer.wrap(FilesystemBackend, "write", "store.backend_write", written)
    tracer.wrap(cache_coordinator, "prepare_certificates", "repairs.prepare")
    tracer.wrap(counting, "count_union_of_boxes", "lams.count", boxes)
    tracer.wrap(cache_coordinator, "parse_query", "query.parse")
    tracer.wrap(JobExecutor, "run_job", "engine.run_job")
    tracer.wrap(JobExecutor, "apply_delta", "engine.apply_delta")
    tracer.wrap(JobExecutor, "run_range", "engine.run_range")


def traced_run(trace: bool):
    """A tracer with every in-process layer wrapped, or None when untraced."""
    if not trace:
        return None
    from tracing import Tracer

    tracer = Tracer()
    instrument(tracer)
    return tracer


def begin(tracer, step: int, block: int) -> bool:
    """Start step ``step``; steps are traced in alternating blocks."""
    traced = tracer is not None and (step // block) % 2 == 0
    if tracer is not None:
        tracer.begin(f"step-{step}", traced)
    return traced


def end(tracer) -> None:
    if tracer is not None:
        tracer.active.set(False)


def finish(tracer) -> None:
    if tracer is not None:
        tracer.restore()


def overhead_pct(untraced_ms: Sequence[float], traced_ms: Sequence[float]) -> float:
    """Tracing overhead: mean step latency traced vs untraced, in percent."""
    if not untraced_ms or not traced_ms:
        return 0.0
    return (_mean(traced_ms) / _mean(untraced_ms) - 1.0) * 100.0


def report_in_process(outcome, tracer, pool, before, steps_ms, traced, hits, misses) -> None:
    """Fill the per-layer metrics of an in-process workload's traced run."""
    traced_ms = [ms for ms, flag in zip(steps_ms, traced) if flag]
    plain_ms = [ms for ms, flag in zip(steps_ms, traced) if not flag]
    steps = max(len(steps_ms), 1)
    outcome.metrics.update(in_process_metrics(tracer, len(traced_ms)))
    outcome.metrics.update(hit_fractions(hits, misses))
    outcome.metrics["engine.selector_recomputations"] = (pool.selector_recomputations - before[0]) / steps
    outcome.metrics["engine.decomposition_recomputations"] = (
        pool.decomposition_recomputations - before[1]
    ) / steps
    outcome.metrics["trace.overhead_pct"] = overhead_pct(plain_ms, traced_ms)
    outcome.tracer = tracer


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def in_process_metrics(tracer, operations: int) -> Dict[str, float]:
    """Per-layer metrics of the approx/db/lineage/store/repairs/lams/query/
    engine layers from the spans of ``operations`` traced steps."""
    spans = tracer.spans
    summary = tracer.summary()
    per_op = max(operations, 1)

    def total_ms(*names: str) -> float:
        return sum(summary.get(name, {}).get("total_s", 0.0) for name in names) * 1000 / per_op

    def calls(*names: str) -> float:
        return sum(summary.get(name, {}).get("calls", 0) for name in names)

    def attr(name_prefix: str, key: str) -> List[float]:
        return [
            span.attrs[key]
            for span in spans
            if span.name.startswith(name_prefix) and key in span.attrs
        ]

    sampling = [span for span in spans if span.name.startswith("approx.")]
    samples = sum(span.attrs.get("samples", 0) for span in sampling)
    hits = sum(span.attrs.get("hits", 0) for span in sampling)
    replayed = sum(attr("db.apply_delta", "replayed"))
    materialised = calls("lineage.materialise") + sum(
        attr("lineage.materialise_range", "versions")
    )
    engine_self = sum(
        summary.get(name, {}).get("self_s", 0.0)
        for name in ("engine.run_job", "engine.apply_delta", "engine.run_range")
    )
    return {
        "approx.sample_ms": _mean([(s.end - s.start) * 1000 for s in sampling]),
        "approx.samples": samples / len(sampling) if sampling else 0.0,
        "approx.hit_frac": hits / samples if samples else 0.0,
        "approx.pinned_block_frac": _mean(attr("approx.", "pinned")),
        "db.digest_ms": total_ms("db.digest"),
        "db.digest_calls": calls("db.digest") / per_op,
        "db.apply_delta_ms": total_ms("db.apply_delta"),
        "db.decompose_ms": total_ms("db.decompose"),
        "lineage.materialise_ms": total_ms("lineage.materialise", "lineage.materialise_range"),
        "lineage.deltas_replayed": replayed / per_op,
        "lineage.deltas_per_version": replayed / materialised if materialised else 0.0,
        "store.read_ms": total_ms("store.read", "store.read.snapshot"),
        "store.write_ms": total_ms("store.write"),
        "store.bytes_written": sum(attr("store.backend_write", "bytes")) / per_op,
        "store.snapshot_loads": calls("store.read.snapshot") / per_op,
        "store.checkpoint_demotions": sum(attr("store.demote", "demoted")) / per_op,
        "repairs.prepare_ms": total_ms("repairs.prepare"),
        "repairs.prepare_calls": calls("repairs.prepare") / per_op,
        "lams.count_ms": total_ms("lams.count"),
        "lams.boxes": _mean(attr("lams.count", "boxes")),
        "query.parse_ms": total_ms("query.parse"),
        "engine.self_ms": engine_self * 1000 / per_op,
    }


def hit_fractions(cache_hits: Sequence[Sequence[str]], cache_misses: Sequence[Sequence[str]]) -> Dict[str, float]:
    """Share of jobs that found their selectors / decomposition cached."""
    result = {}
    for layer in ("selectors", "decomposition"):
        hit = sum(1 for hits in cache_hits if any(h.startswith(layer) for h in hits))
        miss = sum(1 for misses in cache_misses if layer in misses)
        result[f"engine.hit_frac.{layer}"] = hit / (hit + miss) if hit + miss else 0.0
    return result
