"""E15 — live asyncio federation throughput.

Runs the same planned federation on the live runtime across a sweep of
entity counts and batch sizes and reports replay throughput (tuples/s of
delivered traffic), speedup over virtual time, queue high-water marks,
and retry/drop counts.  Batching amortises per-send overhead, so larger
batches should raise delivered throughput on the WAN tier.

E15b repeats the 4-entity, batch-32 point ``ROUNDS`` times over
``ROUND_DURATION`` virtual seconds and writes the median delivered
throughput (with its interquartile range and the host's core count and
Python version) to ``BENCH_live_throughput.json``;
``benchmarks/baselines.json`` gates that median.  On a 2-core host a
round of the sweep's 2 virtual seconds lasts about 20 ms of wall time,
and the interquartile range of five such rounds reached 0.35 of their
median; rounds of ten virtual seconds (about 0.1 s) stayed within 0.28.
"""

from __future__ import annotations

import os
import platform
import statistics

from repro.bench.reporting import Table, emit, print_header, write_bench_json
from repro.core.system import FederatedSystem, SystemConfig
from repro.live import LiveRuntime, LiveSettings
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

DURATION = 2.0
QUERIES = 48
SEED = 91
ROUNDS = 5
ROUND_DURATION = 10.0
SWEEP = [
    (4, 1),
    (4, 8),
    (4, 32),
    (8, 8),
    (8, 32),
]


def federation(entities):
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=entities, processors_per_entity=3, seed=SEED
    )
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=QUERIES, join_fraction=0.0, aggregate_fraction=0.2
        ),
        seed=SEED,
    )
    return catalog, config, workload.queries


def make_live(entities, batch_size, duration=DURATION):
    catalog, config, queries = federation(entities)
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=duration, batch_size=batch_size),
    )
    runtime.submit(queries)
    return runtime


def simulated_result_keys(entities, duration):
    """``(query, stream, seq)`` of every result the simulator produces
    for the same federation and seed."""
    catalog, config, queries = federation(entities)
    system = FederatedSystem(catalog, config)
    system.submit(queries)
    observed = set()

    def wrap(handler):
        def wrapped(query_id, tup):
            observed.add((query_id, tup.stream_id, tup.seq))
            handler(query_id, tup)

        return wrapped

    for entity in system.entities.values():
        if entity.result_handler is not None:
            entity.result_handler = wrap(entity.result_handler)
    system.run(duration=duration)
    system.sim.run()  # drain in-flight tuples
    return observed


def test_live_throughput_sweep(benchmark):
    results = {}

    def run():
        for entities, batch_size in SWEEP:
            runtime = make_live(entities, batch_size)
            results[(entities, batch_size)] = runtime.run()
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"E15 — live federation throughput ({QUERIES} queries, "
        f"{DURATION:.0f}s virtual traffic, as-fast-as-possible replay)"
    )
    table = Table(
        [
            "entities",
            "batch",
            "delivered/s",
            "speedup",
            "mean batch",
            "queue hw",
            "retries",
            "drops",
            "results",
        ]
    )
    for (entities, batch_size), r in results.items():
        table.add_row(
            [
                entities,
                batch_size,
                r.delivered_throughput,
                r.speedup,
                r.mean_batch_size,
                max(r.entity_queue_high_water.values(), default=0),
                r.retries,
                r.dropped_tuples,
                r.results,
            ]
        )
    table.show()

    small = results[(4, 1)]
    large = results[(4, 32)]
    emit(
        f"batching 1 -> 32 at 4 entities: mean batch "
        f"{small.mean_batch_size:.1f} -> {large.mean_batch_size:.1f}, "
        f"delivered {small.tuples_delivered} -> {large.tuples_delivered} tuples"
    )
    for r in results.values():
        assert r.results > 0
        assert r.dropped_tuples == 0
        assert r.tuples_ingested > 0
    # same plan + same seed: batch size must not change what is delivered
    assert small.tuples_delivered == large.tuples_delivered
    assert small.results == large.results
    # batching actually batches
    assert large.mean_batch_size > small.mean_batch_size


def test_live_batch_delivered_throughput(benchmark):
    """Delivered throughput of the live batch dataplane, median of
    ``ROUNDS`` runs at 4 entities and batch 32.

    Every round must drop nothing and deliver exactly the simulator's
    result set for the same config and seed, so the throughput is that
    of a correct run.  Writes ``BENCH_live_throughput.json``.
    """
    rounds = []

    def run():
        for __ in range(ROUNDS):
            runtime = make_live(4, 32, ROUND_DURATION)
            report = runtime.run()
            keys = {
                (query_id, tup.stream_id, tup.seq)
                for query_id, tups in runtime.results.items()
                for tup in tups
            }
            rounds.append((keys, report))
        return rounds

    benchmark.pedantic(run, rounds=1, iterations=1)

    sim_keys = simulated_result_keys(4, ROUND_DURATION)
    assert sim_keys  # the workload actually produces results
    for keys, report in rounds:
        assert report.dropped_tuples == 0
        assert keys == sim_keys

    tps = [report.delivered_throughput for __, report in rounds]
    q1, median, q3 = statistics.quantiles(tps, n=4)
    print_header(
        "E15b — live batch dataplane delivered throughput "
        f"(4 entities, batch 32, {QUERIES} queries, {ROUNDS} rounds of "
        f"{ROUND_DURATION:.0f}s virtual traffic)"
    )
    table = Table(["round", "delivered/s", "results", "drops"])
    for index, (__, report) in enumerate(rounds, start=1):
        table.add_row(
            [
                index,
                report.delivered_throughput,
                report.results,
                report.dropped_tuples,
            ]
        )
    table.show()
    emit(f"median {median:,.0f} delivered/s, IQR {q3 - q1:,.0f}")

    report = rounds[0][1]
    write_bench_json(
        "live_throughput",
        {
            "entities": 4,
            "batch_size": 32,
            "queries": QUERIES,
            "duration_virtual_s": ROUND_DURATION,
            "rounds": ROUNDS,
            "batch_delivered_tps": median,
            "batch_delivered_tps_iqr": q3 - q1,
            "tuples_delivered": report.tuples_delivered,
            "results": report.results,
            "host_cpus": os.cpu_count(),
            "host_python": platform.python_version(),
        },
    )
