"""``sample``: the sampling kernel (``repro.approx``) under a closed loop.

One caller runs FPRAS and Karp-Luby jobs back to back, in process, on a
warm ``SolverPool`` over two databases of 100 blocks per relation (domain
150, so an anchor has few certificates and the job mix stays even).  Queries
are anchored two-atom joins kept only when their exact count lies strictly
between 0 and the number of repairs: a count of 0 or of every repair needs
no sampling, and would make the kernel draw samples for nothing.

Each read is followed by one write per database that toggles one fact of
an ``Audit`` relation the queries do not read, so the counts, the FPRAS
sample size and the cached selectors (which migrate across such a delta)
stay put.  The writes give the workload write latencies while the store and
server layers stay idle.  Set-up prepares every candidate query, degenerate
or not (the engine cannot tell them apart before counting), on both
versions of each database.  Jobs cycle twice through FPRAS for every
Karp-Luby job, so the median read sits inside the FPRAS mode of the latency
distribution rather than on the edge between the two estimators.

Every estimate is checked to lie within epsilon of the exact count, which
the benchmark computes beforehand with the certificate method.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

from common import HostProbe, Outcome, latency_metrics, scaled_throughput, self_peak_rss_mb, timed_setups
import layers

EPSILON = 0.25
DELTA = 0.05
PATTERN = ("fpras", "fpras", "karp-luby")
SETUP_REPEATS = 5
RELATIONS = {"R": 3, "S": 3}


def _query(anchor: int) -> str:
    return f"EXISTS x, y, z, w. (R(x, 'v{anchor}', y) AND S(z, 'v{anchor}', w))"


def generate(seed: int, blocks: int, domain: int, candidates: int):
    """Databases, their toggle deltas and the non-degenerate queries."""
    from repro.db import Delta, Fact
    from repro.engine import CountJob, SolverPool
    from repro.workloads import InconsistentDatabaseSpec, random_inconsistent_database

    rng = random.Random(seed)
    databases = {}
    toggles = {}
    for index in range(2):
        spec = InconsistentDatabaseSpec(
            relations=RELATIONS,
            blocks_per_relation=blocks,
            conflict_rate=0.4,
            max_block_size=4,
            domain_size=domain,
        )
        database, keys = random_inconsistent_database(spec, seed=rng.randrange(2**16))
        toggles[f"db-{index}"] = Delta(inserted=[Fact("Audit", ("db", f"e{rng.randrange(10**6)}"))])
        databases[f"db-{index}"] = (database, keys)

    # Exact reference counts on both versions of every database.
    reference = SolverPool()
    versions = {}
    for name, (database, keys) in databases.items():
        toggled = database.apply_delta(toggles[name])
        versions[name] = (database.content_digest(), toggled.content_digest())
        reference.register(f"{name}@0", database, keys)
        reference.register(f"{name}@1", toggled, keys)
    pool_jobs = []
    for name in databases:
        for anchor in rng.sample(range(domain), candidates):
            for version in (0, 1):
                pool_jobs.append(
                    CountJob(database=f"{name}@{version}", query=_query(anchor), method="certificate")
                )
    report = reference.run_stream(pool_jobs)
    exact: Dict[Tuple[str, int, str], Tuple[int, int]] = {}
    kept: List[Tuple[str, str]] = []
    for pair in range(0, len(report.results), 2):
        first, second = report.results[pair], report.results[pair + 1]
        name = first.job.database.split("@")[0]
        if all(0 < r.satisfying < r.total for r in (first, second)):
            kept.append((name, first.job.query))
            exact[(name, 0, first.job.query)] = (first.satisfying, first.total)
            exact[(name, 1, first.job.query)] = (second.satisfying, second.total)
    rng.shuffle(kept)
    degenerate = 1 - len(kept) / (len(pool_jobs) // 2)
    candidates_all = [(job.database.split("@")[0], job.query) for job in pool_jobs[::2]]
    return databases, toggles, versions, kept, exact, degenerate, query_shape(databases, kept), candidates_all


def query_shape(databases, kept) -> Dict[str, float]:
    """Mean selectors per kept query and share of blocks they pin."""
    from repro.db.blocks import BlockDecomposition
    from repro.query import parse_query
    from repro.repairs.counting import prepare_certificates

    decompositions = {name: BlockDecomposition(*pair) for name, pair in databases.items()}
    selectors, pinned = [], []
    for name, query in kept:
        database, keys = databases[name]
        prepared = prepare_certificates(
            database, keys, parse_query(query), decomposition=decompositions[name]
        )
        selectors.append(len(prepared.selectors))
        pinned.append(layers.pinned_fraction(len(decompositions[name]), prepared.selectors))
    return {
        "selectors_per_query": statistics.mean(selectors),
        "approx.pinned_block_frac": statistics.mean(pinned),
    }


def setup(databases, toggles, catalogue):
    """The measured set-up: register, then prepare every candidate query
    (the engine does not know which are degenerate) on both versions."""
    from repro.engine import CountJob, SolverPool

    pool = SolverPool()
    for name, (database, keys) in databases.items():
        pool.register(name, database, keys)
    for flip in (False, True):
        for name, query in catalogue:
            pool.run_job(CountJob(database=name, query=query, method="certificate"))
        for name, toggle in toggles.items():
            pool.apply_delta(name, toggle.inverse() if flip else toggle)
    return pool


def run(seed: int, seconds: float, trace: bool, tiny: bool = False, wrong: bool = False) -> Outcome:
    from repro.engine import CountJob

    blocks, domain, candidates = (30, 30, 10) if tiny else (100, 150, 75)
    databases, toggles, versions, kept, exact, degenerate, shape, catalogue = generate(
        seed, blocks, domain, candidates
    )
    setup_s, raw_setup_s, pool = timed_setups(lambda: setup(databases, toggles, catalogue), SETUP_REPEATS)

    outcome = Outcome()
    state = {name: 0 for name in databases}
    names = sorted(databases)
    tracer = layers.traced_run(trace)
    before = (pool.selector_recomputations, pool.decomposition_recomputations)
    probe = HostProbe()
    reads: List[Tuple[float, float]] = []
    writes: List[Tuple[float, float]] = []
    steps: List[Tuple[float, float]] = []
    traced: List[bool] = []
    hits: List[Tuple[str, ...]] = []
    misses: List[Tuple[str, ...]] = []
    started = time.perf_counter()
    deadline = started + seconds
    try:
        i = 0
        while time.perf_counter() < deadline:
            traced.append(layers.begin(tracer, i, len(PATTERN)))
            step_began = time.perf_counter()
            name, query = kept[i % len(kept)]
            method = PATTERN[(i + i // len(kept)) % len(PATTERN)]
            job = CountJob(database=name, query=query, method=method, epsilon=EPSILON, delta=DELTA)
            began = time.perf_counter()
            result = pool.run_job(job, index=i)
            reads.append((began, (time.perf_counter() - began) * 1000))
            hits.append(result.cache_hits)
            misses.append(result.cache_misses)
            satisfying, total = exact[(name, state[name], query)]
            estimate = result.satisfying + (satisfying if wrong and i == 0 else 0)
            outcome.attempted += 1
            outcome.check(
                abs(estimate - satisfying) <= EPSILON * satisfying and result.total == total,
                f"{method} {name}@{state[name]} {query}: {estimate} vs exact {satisfying}",
            )

            for target in names:
                delta = toggles[target].inverse() if state[target] else toggles[target]
                began = time.perf_counter()
                report = pool.apply_delta(target, delta)
                writes.append((began, (time.perf_counter() - began) * 1000))
                state[target] ^= 1
                outcome.attempted += 1
                outcome.check(
                    report.new_digest == versions[target][state[target]],
                    f"toggle {target} -> {report.new_digest[:12]}",
                )
            steps.append((step_began, (time.perf_counter() - step_began) * 1000))
            i += 1
            layers.end(tracer)
            probe.maybe()
    finally:
        layers.finish(tracer)
    elapsed = time.perf_counter() - started - probe.spent

    if trace:
        layers.report_in_process(outcome, tracer, pool, before, [ms for _, ms in steps], traced, hits, misses)
    else:
        latency_metrics(probe, reads, writes, outcome)
        outcome.metrics["setup_s"] = setup_s
        outcome.metrics["ops_per_s"] = scaled_throughput(probe, steps, len(reads) + len(writes))
        outcome.properties.update(raw_setup_s=raw_setup_s, raw_ops_per_s=(len(reads) + len(writes)) / elapsed)
        outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
    outcome.metrics["host.ref_ms"] = probe.median_ms()
    outcome.properties.update(
        {
            "facts_per_database": statistics.mean(len(db) for db, _ in databases.values()),
            "queries_kept": len(kept),
            "degenerate_rejected_frac": degenerate,
            **shape,
        }
    )
    return outcome
