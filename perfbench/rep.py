"""One repetition of a workload, or its simulator reference, in a fresh
process.

Usage (``run.py`` is the only caller)::

    python3 perfbench/rep.py --workload NAME --seed N --mode burst|paced|sim
        --duration SECONDS [--trace] --work DIR [--inject-drop]

Prints one JSON object on its last stdout line.  A fresh process per
rep keeps ``ru_maxrss`` (peak memory) about this rep alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import sys

import probes
from probes import cpu_seconds, peak_rss_mb, perf
from run import percentile
from workloads import PACED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def key_digest(results) -> tuple[int, str, int]:
    """Size and SHA-256 of the result key set ``(query, stream, seq)``
    — the parity suites' definition of "the same results" — and the
    number of keys delivered more than once."""
    keys = sorted(
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in results.items()
        for tup in tups
    )
    unique = sorted(set(keys))
    digest = hashlib.sha256(repr(unique).encode()).hexdigest()
    return len(unique), digest, len(keys) - len(unique)


def drop_one_result_batch(max_retries: int):
    """Fault injector failing every attempt of the first result send,
    so exactly one batch is dropped (self-test of the correctness gate)."""
    state = {"dropping": None}

    def inject(channel_name: str, attempt: int) -> bool:
        if channel_name != "results":
            return False
        if state["dropping"] is None and attempt == 0:
            state["dropping"] = True
        if state["dropping"]:
            if attempt >= max_retries:
                state["dropping"] = False
            return True
        return False

    return inject


# ----------------------------------------------------------------------
def simulate(workload, seed: int, duration: float) -> dict:
    """The discrete-event simulator's result keys for this input, one
    entry per instance's traffic seed."""
    from repro.core.system import FederatedSystem

    probe = probes.Probe(traffic_seed=seed)
    probe.install(results=None)
    keys = []
    for traffic_seed in workload.traffic_seeds(seed):
        probe.traffic_seed = traffic_seed
        catalog, config, queries = workload.federation()
        system = FederatedSystem(catalog, config)
        system.submit(queries)
        workload.after_submit(system, catalog, duration)
        observed: dict[str, list] = {}

        def wrap(handler, observed=observed):
            def wrapped(query_id, tup):
                observed.setdefault(query_id, []).append(tup)
                handler(query_id, tup)

            return wrapped

        for entity in system.entities.values():
            if entity.result_handler is not None:
                entity.result_handler = wrap(entity.result_handler)
        system.run(duration=duration)
        system.sim.run()  # drain in-flight tuples
        count, digest, __ = key_digest(observed)
        keys.append([count, digest])
    return {"mode": "sim", "duration": duration, "keys": keys}


# ----------------------------------------------------------------------
def write_launcher(out_dir: str) -> str:
    """A ``python`` for the coordinator to spawn workers with: runs
    ``worker_launch.py`` so workers get the same probes and tracer."""
    path = os.path.join(out_dir, "python")
    with open(path, "w") as fh:
        fh.write(
            "#!/bin/sh\nexec {} {} \"$@\"\n".format(
                shlex.quote(sys.executable),
                shlex.quote(os.path.join(HERE, "worker_launch.py")),
            )
        )
    os.chmod(path, 0o755)
    return path


def read_workers(out_dir: str) -> list[dict]:
    snaps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                snaps.append(json.load(fh))
    return snaps


def run_single(workload, probe, catalog, config, queries, settings,
               duration: float) -> dict:
    """One single-process runtime instance, measured by ``probe``."""
    probe.reset()
    constructed = perf()
    runtime = workload.make_runtime(catalog, config, settings)
    runtime.submit(queries)
    workload.after_submit(runtime.planner, catalog, duration)
    report = runtime.run()
    finished = perf()
    adaptation = report.adaptation
    return {
        "report": report,
        "results": runtime.results,
        "setup_s": probe.first_emission - constructed,
        "window_s": probe.last_result - probe.first_emission,
        "cpu_s": cpu_seconds() - probe.cpu_at_emission,
        "wall_s": finished - probe.first_emission,
        "latencies": list(probe.latencies),
        "lags": list(probe.lags),
        "violations": adaptation.audit_violations if adaptation else 0,
        "migrations": adaptation.queries_migrated if adaptation else 0,
    }


def run_distributed(probe, catalog, config, queries, settings, *,
                    seed: int, trace: bool, out_dir: str) -> dict:
    """One ``DistributedCoordinator`` run over 2 worker processes whose
    ``python`` is the benchmark's launcher."""
    from repro.distributed import DistributedCoordinator

    os.environ.update(
        PERFBENCH_SEED=str(seed),
        PERFBENCH_SCALE=str(probe.time_scale),
        PERFBENCH_TRACE="1" if trace else "0",
        PERFBENCH_OUT=out_dir,
    )
    constructed = perf()
    coordinator = DistributedCoordinator(
        catalog, config, queries, settings, workers=2,
        python=write_launcher(out_dir),
    )
    report = coordinator.run()
    workers = read_workers(out_dir)
    first = min(w["probe"]["first_emission"] for w in workers)
    if probe.time_scale > 0.0:
        probe.resolve_latencies(
            {
                stream_id: w["probe"]["origin"]
                for w in workers
                for stream_id in w["probe"]["streams"]
            }
        )
    return {
        "report": report,
        "results": coordinator.results,
        "setup_s": first - constructed,
        "window_s": probe.last_result - first,
        # each process from its part of the run window: workers from
        # their first emission to exit, the coordinator from the first
        # result frame on
        "cpu_s": cpu_seconds() - probe.cpu_at_first_result + sum(
            w["probe"]["cpu_at_exit"] - w["probe"]["cpu_at_emission"]
            for w in workers
        ),
        "wall_s": sum(
            w["probe"]["exited"] - w["probe"]["first_emission"]
            for w in workers
        ),
        "latencies": list(probe.latencies),
        "lags": [lag for w in workers for lag in w["probe"]["lags"]],
        "violations": len(coordinator.violations),
        "migrations": 0,
        "probe_rounds": coordinator.probe_rounds,
        "worker_rss_mb": sum(w["probe"]["peak_rss_mb"] for w in workers),
        "worker_traces": [w["tracer"] for w in workers if "tracer" in w],
    }


def execute(workload, seed: int, mode: str, duration: float, *,
            trace: bool, out_dir: str, inject_drop: bool) -> dict:
    """One measured rep: ``workload.instances`` runtime runs, one per
    traffic seed."""
    distributed = workload.runtime == "distributed"
    probe = probes.Probe(
        traffic_seed=seed, time_scale=1.0 if mode == PACED else 0.0
    )
    probe.install(results="codec" if distributed else "metrics")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        probe.on_emission = tracer.arm
        if distributed:
            tracer.install_coordinator()

    catalog, config, queries = workload.federation()
    extra = {}
    if inject_drop:
        extra["fault_injector"] = drop_one_result_batch(
            workload.settings(mode, duration).max_retries
        )
    settings = workload.settings(mode, duration, **extra)
    if distributed:
        runs = [run_distributed(
            probe, catalog, config, queries, settings,
            seed=seed, trace=trace, out_dir=out_dir,
        )]
    else:
        runs = []
        for traffic_seed in workload.traffic_seeds(seed):
            probe.traffic_seed = traffic_seed
            runs.append(run_single(
                workload, probe, catalog, config, queries, settings, duration
            ))
            if tracer is not None:
                tracer.disarm(perf())

    reports = [r["report"] for r in runs]
    keys = [key_digest(r["results"]) for r in runs]
    tuples = sum(rep.tuples_ingested for rep in reports)
    window = sum(r["window_s"] for r in runs)
    latencies = sorted(x for r in runs for x in r["latencies"])
    lags = [x for r in runs for x in r["lags"]]
    rss = peak_rss_mb() + sum(r.get("worker_rss_mb", 0.0) for r in runs)
    row = {
        "mode": mode,
        "duration": duration,
        "instances": len(runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "window_s": window,
        "tuples": tuples,
        "source_tps": tuples / window,
        "cpu_us_per_tuple": sum(r["cpu_s"] for r in runs) / tuples * 1e6,
        "peak_rss_mb": rss,
        "wan_hops_per_tuple": (
            sum(rep.tuples_delivered for rep in reports) / tuples
        ),
        "latencies_ms": [x * 1000.0 for x in latencies],
        # in release order, so a growing lag shows
        "lags_ms": [x * 1000.0 for x in lags],
        # result-key count and digest per instance
        "keys": [[count, digest] for count, digest, __ in keys],
        "duplicates": sum(k[2] for k in keys),
        "drops": sum(rep.dropped_tuples for rep in reports),
        "negative": sum(rep.negative_latency_samples for rep in reports)
        + sum(1 for x in latencies if x < 0.0),
        "violations": sum(r["violations"] for r in runs),
        "migrations": statistics.median(r["migrations"] for r in runs),
        # adaptive instances whose controller never moved a query: the
        # workload would no longer measure live.adaptation
        "unmigrated": sum(1 for r in runs if r["migrations"] == 0)
        if workload.runtime == "adaptive" else 0,
    }
    if tracer is not None:
        import tracer as tracing

        snaps = [tracer.snapshot(perf())]
        snaps += [snap for r in runs for snap in r.get("worker_traces", [])]
        merged = tracing.merge(snaps)
        ordered = sorted(row["lags_ms"])
        row["layers"] = tracing.layer_metrics(
            merged,
            lags_ms=(percentile(ordered, 0.50), percentile(ordered, 0.99)),
            probe_rounds=sum(r.get("probe_rounds", 0) for r in runs),
            retries=sum(rep.retries for rep in reports),
            dropped=row["drops"],
        )
        # The probe's own clock: first emission to the end of run() per
        # instance, or to exit per worker (the processes that arm).
        row["identity"] = {
            "busy_ms": tracing.window_busy(merged) * 1e3,
            "unattributed_ms": row["layers"]["asyncio.unattributed_ms"],
            "wall_ms": sum(r["wall_s"] for r in runs) * 1e3,
        }
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("burst", "paced", "sim"))
    parser.add_argument("--duration", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--inject-drop", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "sim":
        row = simulate(workload, args.seed, args.duration)
    else:
        os.makedirs(args.work, exist_ok=True)
        row = execute(
            workload, args.seed, args.mode, args.duration,
            trace=args.trace, out_dir=args.work,
            inject_drop=args.inject_drop,
        )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
