"""``history``: writes beside time-travel reads on a persistent store.

One database of about 1.4k facts (400 blocks per relation, domain 400)
lives in a ``SolverPool`` with a persistent store and a fixed
``checkpoint_every=16``, so the bytes stored for a given seed repeat
exactly.  Set-up records a chain of 192 deltas, six times the 32-entry
materialised-snapshot cache, so most reads replay: reads are bimodal
(cached snapshots take a few milliseconds, replays tens to hundreds), and
with few cached reads both the median and the 90th percentile sit inside
the replay mode instead of on the edge between the modes.  Each measured step then applies a small
delta (a write), and counts one query ``as_of`` an ancestor (a read);
every 4th step also counts one query over an 8-version ``as_of_range``.
So ``db`` digests and ``apply_delta``, lineage replay and store I/O carry
the load, and a gain for writes that costs reads (or the reverse) shows.

Ancestors are spread evenly over the chain by a golden-ratio sequence
instead of drawn independently, and the sequence does not depend on the
seed (only the data does): reads cost roughly in proportion to their replay
distance and to whether a recent range left their version cached, and a
fixed, even access pattern keeps the read percentiles from depending on
which distances and overlaps a short run happened to draw.  Queries are exact, anchored two-atom joins with two certificates
each at the start (a query with many certificates makes one exact count
take minutes, and equal queries keep seeds comparable).

Every count is checked against a closed-form count the benchmark computes
from its own copy of each version: for ``R(x, 'vA', y) AND S(z, 'vA', w)``
the satisfying repairs are ``(prod n_b - prod (n_b - a_b))`` over the
blocks of R times the same over S, with ``n_b`` a block's size and ``a_b``
its facts carrying ``vA``.  (A sequential ``run_stream`` reference would
replay each ancestor from the head without checkpoints, which takes far
longer than the run itself.)  Every update's new digest is checked against
the digest of the version the benchmark built itself.

``read_*`` cover the single-version ``as_of`` counts; ranges count toward
``ops_per_s`` and their median is on the properties line.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from typing import Dict, List, Set, Tuple

from common import (
    HostProbe,
    Outcome,
    WORK,
    latency_metrics,
    percentile,
    scaled_throughput,
    self_peak_rss_mb,
    timed_setups,
)
import layers

CHECKPOINT_EVERY = 16
RANGE_EVERY = 4
RANGE_WIDTH = 8
QUERIES = 8
SETUP_REPEATS = 3
GOLDEN = (math.sqrt(5) - 1) / 2

Payload = Tuple[str, str]
State = Dict[str, Dict[str, Set[Payload]]]


def _query(anchor: str) -> str:
    return f"EXISTS x, y, z, w. (R(x, '{anchor}', y) AND S(z, '{anchor}', w))"


def _state_of(database) -> State:
    state: State = {"R": {}, "S": {}}
    for item in database:
        state[item.relation].setdefault(item.arguments[0], set()).add(tuple(item.arguments[1:]))
    return state


def _edit(rng, blocks, keys, relation, domain, fresh, inserted, deleted) -> None:
    """Add 1 to 4 edits: inserts into old or new blocks, and deletions."""
    for _ in range(rng.randint(1, 4)):
        move = rng.random()
        if move < 0.5:
            if move < 0.25:
                key = rng.choice(keys)
            else:
                fresh[0] += 1
                key = f"{relation.lower()}_n{fresh[0]}"
                keys.append(key)
            payload = (f"v{rng.randrange(domain)}", f"v{rng.randrange(domain)}")
            if payload not in blocks.get(key, ()) and (key, payload) not in deleted:
                inserted[(key, payload)] = None
        else:
            key = rng.choice(keys)
            present = sorted(blocks.get(key, ()))
            if present:
                payload = rng.choice(present)
                if (key, payload) not in inserted:
                    deleted[(key, payload)] = None


def _make_delta(rng: random.Random, state: State, keys_by_relation, domain: int, fresh: List[int]):
    from repro.db import Delta, Fact

    relation = rng.choice("RS")
    blocks = state[relation]
    keys = keys_by_relation[relation]
    inserted: Dict[Tuple[str, Payload], None] = {}
    deleted: Dict[Tuple[str, Payload], None] = {}
    while not inserted and not deleted:
        _edit(rng, blocks, keys, relation, domain, fresh, inserted, deleted)
    for key, payload in deleted:
        blocks[key].discard(payload)
    for key, payload in inserted:
        blocks.setdefault(key, set()).add(payload)
    return Delta(
        inserted=[Fact(relation, (key,) + payload) for key, payload in inserted],
        deleted=[Fact(relation, (key,) + payload) for key, payload in deleted],
    )


def exact_count(state: State, anchor: str) -> Tuple[int, int]:
    """Closed-form (satisfying, total) repairs of the anchored join."""
    satisfying = total = 1
    for relation in ("R", "S"):
        every = none = 1
        for payloads in state[relation].values():
            size = len(payloads)
            if size:
                every *= size
                none *= size - sum(1 for payload in payloads if payload[0] == anchor)
        total *= every
        satisfying *= every - none
    return satisfying, total


def generate(seed: int, blocks: int, domain: int, steps: int):
    from repro.workloads import InconsistentDatabaseSpec, random_inconsistent_database

    rng = random.Random(seed)
    spec = InconsistentDatabaseSpec(
        relations={"R": 3, "S": 3},
        blocks_per_relation=blocks,
        conflict_rate=0.4,
        max_block_size=4,
        domain_size=domain,
    )
    database, keys = random_inconsistent_database(spec, seed=rng.randrange(2**16))
    state = _state_of(database)
    # Anchors carried by one fact of R and two of S: every query starts
    # with exactly two certificates, so queries cost alike across seeds.
    carriers = {relation: {} for relation in ("R", "S")}
    for relation in ("R", "S"):
        for payloads in state[relation].values():
            for payload in payloads:
                carriers[relation][payload[0]] = carriers[relation].get(payload[0], 0) + 1

    def certificates(anchor: str) -> int:
        return carriers["R"][anchor] * carriers["S"].get(anchor, 0)

    joined = sorted(anchor for anchor in carriers["R"] if certificates(anchor))
    twos = [anchor for anchor in joined if (carriers["R"][anchor], carriers["S"][anchor]) == (1, 2)]
    if len(twos) >= QUERIES:
        chosen = rng.sample(twos, QUERIES)
    else:  # only the tiny self-test databases are this small
        chosen = sorted(joined, key=lambda anchor: (abs(certificates(anchor) - 2), anchor))[:QUERIES]
    queries = [_query(anchor) for anchor in chosen]
    keys_by_relation = {relation: sorted(state[relation]) for relation in ("R", "S")}
    fresh = [0]
    deltas = [_make_delta(rng, state, keys_by_relation, domain, fresh) for _ in range(steps)]
    return database, keys, queries, deltas


def setup(directory, database, keys, queries, deltas, initial):
    """The measured set-up: a persistent pool with a recorded chain."""
    from repro.engine import CountJob, SolverPool

    pool = SolverPool(persist_dir=directory, checkpoint_every=CHECKPOINT_EVERY)
    pool.register("h", database, keys)
    for query in queries:
        pool.run_job(CountJob(database="h", query=query, method="certificate"))
    for delta in deltas[:initial]:
        pool.apply_delta("h", delta)
    return pool


def _store_bytes(directory) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def run(seed: int, seconds: float, trace: bool, tiny: bool = False, wrong: bool = False) -> Outcome:
    from repro.db import Database
    from repro.engine import CountJob

    blocks, domain, initial, steps = (40, 40, 8, 300) if tiny else (400, 400, 192, 800)
    database, keys, queries, deltas = generate(seed, blocks, domain, steps)

    root = WORK / f"history-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    attempts = [0]

    def make_pool():
        attempts[0] += 1
        directory = root / f"store-{attempts[0]}"
        directory.mkdir(parents=True)
        return setup(directory, database, keys, queries, deltas, initial)

    try:
        setup_s, raw_setup_s, pool = timed_setups(make_pool, SETUP_REPEATS)
        directory = root / f"store-{attempts[0]}"
        facts_after_setup = len(pool.lookup("h")[0])
        bytes_per_fact = _store_bytes(directory) / facts_after_setup
        outcome = Outcome()
        applied = initial
        # (chain position, query) -> result fields, checked after the run
        reads_to_check: List[Tuple[int, str, int, int, str]] = []
        written: List[Tuple[int, str]] = []
        tracer = layers.traced_run(trace)
        before = (pool.selector_recomputations, pool.decomposition_recomputations)
        probe = HostProbe()
        reads: List[Tuple[float, float]] = []
        writes: List[Tuple[float, float]] = []
        ranges: List[float] = []
        steps: List[Tuple[float, float]] = []
        traced: List[bool] = []
        hits: List[Tuple[str, ...]] = []
        misses: List[Tuple[str, ...]] = []

        def record(result) -> None:
            hits.append(result.cache_hits)
            misses.append(result.cache_misses)

        started = time.perf_counter()
        deadline = started + seconds
        try:
            step = 0
            while time.perf_counter() < deadline and applied < len(deltas):
                traced.append(layers.begin(tracer, step, RANGE_EVERY))
                step_began = began = time.perf_counter()
                report = pool.apply_delta("h", deltas[applied])
                writes.append((began, (time.perf_counter() - began) * 1000))
                applied += 1
                written.append((applied, report.new_digest))

                chain = pool.lineage("h").records
                outcome.check(len(chain) == applied + 1, f"chain length {len(chain)} after {applied} deltas")
                position = int(((step * GOLDEN) % 1.0) * (len(chain) - 1))
                query = queries[step % len(queries)]
                job = CountJob(database="h", query=query, method="certificate", as_of=chain[position].digest)
                began = time.perf_counter()
                result = pool.run_job(job, index=step)
                reads.append((began, (time.perf_counter() - began) * 1000))
                reads_to_check.append((position, query, result.satisfying, result.total, "as_of"))
                record(result)

                if step % RANGE_EVERY == RANGE_EVERY - 1:
                    low = int(((0.5 + step * GOLDEN) % 1.0) * (len(chain) - RANGE_WIDTH + 1))
                    job = CountJob(
                        database="h",
                        query=query,
                        method="certificate",
                        as_of_range=(chain[low].digest, chain[low + RANGE_WIDTH - 1].digest),
                    )
                    began = time.perf_counter()
                    outcomes = pool.run_range(job)
                    ranges.append((time.perf_counter() - began) * 1000)
                    for offset, item in enumerate(outcomes):
                        if hasattr(item, "error"):
                            reads_to_check.append((low + offset, query, -1, -1, f"range failed: {item.error}"))
                        else:
                            reads_to_check.append((low + offset, query, item.satisfying, item.total, "range"))
                            record(item)
                steps.append((step_began, (time.perf_counter() - step_began) * 1000))
                step += 1
                layers.end(tracer)
                probe.maybe()
        finally:
            layers.finish(tracer)
        elapsed = time.perf_counter() - started - probe.spent

        if trace:
            layers.report_in_process(outcome, tracer, pool, before, [ms for _, ms in steps], traced, hits, misses)
            outcome.metrics["store.bytes_per_fact"] = bytes_per_fact
        else:
            operations = len(reads) + len(writes) + len(ranges)
            latency_metrics(probe, reads, writes, outcome)
            outcome.metrics["setup_s"] = setup_s
            outcome.metrics["ops_per_s"] = scaled_throughput(probe, steps, operations)
            outcome.properties.update(raw_setup_s=raw_setup_s, raw_ops_per_s=operations / elapsed)
            outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
        outcome.metrics["host.ref_ms"] = probe.median_ms()
        chain_length = len(pool.lineage("h"))
        checkpoints = len(pool.checkpoints("h"))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # Verification: walk the versions in order with the benchmark's own copy.
    if wrong and reads_to_check:
        position, query, satisfying, total, kind = reads_to_check[0]
        reads_to_check[0] = (position, query, satisfying + 1, total, kind)
    pending: Dict[int, List[Tuple[str, int, int, str]]] = {}
    for position, query, satisfying, total, kind in reads_to_check:
        pending.setdefault(position, []).append((query, satisfying, total, kind))
    digests = dict(written)
    state = _state_of(database)
    last = max([*pending, *digests, 0])
    for position in range(last + 1):
        if position:
            delta = deltas[position - 1]
            for item in delta.deleted:
                state[item.relation][item.arguments[0]].discard(tuple(item.arguments[1:]))
            for item in delta.inserted:
                state[item.relation].setdefault(item.arguments[0], set()).add(tuple(item.arguments[1:]))
        for query, satisfying, total, kind in pending.get(position, ()):
            anchor = query.split("'")[1]
            outcome.attempted += 1
            expected = exact_count(state, anchor)
            outcome.check(
                (satisfying, total) == expected,
                f"{kind} v{position} {anchor}: {(satisfying, total)} vs {expected}",
            )
        if position in digests:
            outcome.attempted += 1
            facts = [
                fact_of(relation, key, payload)
                for relation, blocks_ in state.items()
                for key, payloads in blocks_.items()
                for payload in payloads
            ]
            expected_digest = Database(facts).content_digest()
            outcome.check(
                digests[position] == expected_digest,
                f"update to v{position}: digest {digests[position][:12]} vs {expected_digest[:12]}",
            )

    outcome.properties.update(
        {
            "facts_per_database": len(database),
            "chain_length": chain_length,
            "checkpoints": checkpoints,
            "selectors_per_query": 2,
            "store_bytes_per_fact": bytes_per_fact,
            "raw_range_p50_ms": percentile(ranges, 0.5) if ranges else None,
            "ranges": len(ranges),
        }
    )
    return outcome


def fact_of(relation: str, key: str, payload: Payload):
    from repro.db import Fact

    return Fact(relation, (key,) + payload)
