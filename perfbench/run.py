"""Repository benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics from untraced reps;
``--trace 1`` runs one untraced and one traced rep and reports the
per-layer metrics of the traced one (see ``NOTES.md``).  Every rep runs
in a fresh process (``rep.py``) and is checked against the discrete-
event simulator's result keys for the same input.

The last stdout line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it holds the host stamp, the host speed index and
the per-rep figures.
Exits 2 without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s whatever happens to its reps.
RUN_DEADLINE_S = 165.0
MIN_MAIN_REPS = 3
# Host speed index (see NOTES.md): a fixed pure-Python loop, timed
# LOOPS_PER_SAMPLE times before and after every rep, and the loop time
# the speed-bound metrics are scaled to.
LOOPS_PER_SAMPLE = 5
REFERENCE_LOOP_S = 0.007

END_TO_END = {
    "setup_s": "s",
    "source_tps": "tuples/s",
    "cpu_us_per_tuple": "us",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "wan_hops_per_tuple": "ratio",
}

PER_LAYER = {
    "core.system.submit_ms": "ms",
    "simulation.trace_ms": "ms",
    "distributed.coordinator.launch_ms": "ms",
    "distributed.coordinator.probe_rounds": "count",
    "live.feed.lag_p50_ms": "ms",
    "live.feed.lag_p99_ms": "ms",
    "dissemination.filter_busy_ms": "ms",
    "dissemination.filter_in": "count",
    "dissemination.pass_ratio": "ratio",
    "placement.delegation.calls": "count",
    "placement.delegation.busy_ms": "ms",
    "engine.fragment_busy_ms": "ms",
    "engine.fragment_calls": "count",
    "engine.tuples_per_call": "ratio",
    "engine.selectivity": "ratio",
    "engine.partition.route_busy_ms": "ms",
    "engine.partition.events": "count",
    "live.channels.puts": "count",
    "live.channels.tuples_per_put": "ratio",
    "live.channels.put_wait_ms": "ms",
    "live.channels.get_wait_ms": "ms",
    "live.channels.high_water": "count",
    "live.transport.sends": "count",
    "live.transport.send_self_ms": "ms",
    "live.transport.retries": "count",
    "live.transport.dropped": "count",
    "asyncio.tasks_created": "count",
    "asyncio.timers": "count",
    "asyncio.unattributed_ms": "ms",
    "live.metrics.record_calls": "count",
    "live.metrics.busy_ms": "ms",
    "distributed.codec.encode_ms": "ms",
    "distributed.codec.decode_ms": "ms",
    "distributed.codec.bytes_per_tuple": "bytes",
    "distributed.links.credit_wait_ms": "ms",
    "distributed.links.frames_sent": "count",
    "live.adaptation.migrations": "count",
    "live.adaptation.pause_ms": "ms",
    "live.adaptation.pause_max_ms": "ms",
    "live.adaptation.decision_ms": "ms",
    "live.adaptation.drain_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class RepFailed(RuntimeError):
    """A rep process exited non-zero or printed no result."""


def host_stamp() -> dict:
    """Facts two results must share to be comparable."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Runner:
    """Spawns reps and sim references for one workload and seed."""

    def __init__(self, root: str, workload: str, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            # The coordinator puts src/repro (not src) on its workers'
            # path; workers find the package through this entry instead.
            PYTHONPATH=src if not path else src + os.pathsep + path,
            PYTHONHASHSEED="0",
        )
        self.reps = itertools.count(1)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def call(self, mode: str, duration: float, *extra: str) -> dict:
        index = next(self.reps)
        cmd = [
            sys.executable, os.path.join(HERE, "rep.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--duration", repr(duration),
            "--work", os.path.join(self.work, f"rep{index}"), *extra,
        ]
        started = time.perf_counter()
        timeout = max(1.0, self.deadline - started)
        # Own session, so a timed-out rep is killed with its workers.
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepFailed(f"{mode} rep timed out after {timeout:.0f}s")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-5:]
            raise RepFailed(f"{mode} rep exited {proc.returncode}: {tail}")
        row = json.loads(lines[-1])
        row["elapsed_s"] = time.perf_counter() - started
        return row


def simulate(runner: Runner, durations, failures: list[str]) -> dict:
    """Simulator references, one per duration, computed side by side
    (the measured reps are over, so they no longer compete for CPU)."""

    def reference(duration):
        try:
            return duration, runner.call("sim", duration)
        except RepFailed as exc:
            failures.append(f"simulator: {exc}")
            return duration, None

    with ThreadPoolExecutor(max_workers=2) as pool:
        found = pool.map(reference, sorted(durations))
        return {d: ref for d, ref in found if ref is not None}


def check(row: dict, reference: dict | None) -> list[str]:
    """The correctness gate of one rep; returns what failed."""
    problems = []
    if reference is None:
        problems.append("no simulator reference")
    elif row["keys"] != reference["keys"]:
        problems.append(
            f"result keys differ from the simulator's "
            f"(counts {[k[0] for k in row['keys']]} vs "
            f"{[k[0] for k in reference['keys']]})"
        )
    for field in ("drops", "negative", "violations", "duplicates",
                  "unmigrated"):
        if row[field]:
            problems.append(f"{field}={row[field]}")
    return problems


def loop_seconds() -> list[float]:
    """Times of a fixed pure-Python loop that runs none of the program's
    code: how fast this host runs Python right now."""
    times = []
    for __ in range(LOOPS_PER_SAMPLE):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return times


def measure(runner: Runner, workload, seconds: float, trace: bool):
    """Run the reps of one benchmark run; returns (rows, failures).

    Each row's ``slowdown`` is the median time of the loops run just
    before and after it, over ``REFERENCE_LOOP_S``.
    """
    from workloads import PACED

    rows: list[dict] = []
    failures: list[str] = []

    def attempt(mode, duration, *extra):
        before = loop_seconds()
        try:
            row = runner.call(mode, duration, *extra)
        except RepFailed as exc:
            failures.append(str(exc))
            return
        loops = before + loop_seconds()
        row["slowdown"] = statistics.median(loops) / REFERENCE_LOOP_S
        rows.append(row)

    main = workload.main_mode
    if trace:
        attempt(main, workload.main_duration)
        attempt(main, workload.main_duration, "--trace")
        return rows, failures

    # A burst workload ends its run with one paced rep (latency); time
    # for it is kept back from the main reps' share of ``seconds``.
    paced = main != PACED
    started = time.perf_counter()
    while True:
        attempt(main, workload.main_duration)
        done = [r for r in rows if r["mode"] == main]
        if len(done) + len(failures) >= MIN_MAIN_REPS:
            overhead = statistics.median(
                r["elapsed_s"] - r["window_s"] for r in done
            ) if done else 0.0
            reserve = (
                workload.instances * workload.paced_duration + overhead
                if paced else 0.0
            )
            if time.perf_counter() - started >= seconds - reserve:
                break
        if len(failures) > MIN_MAIN_REPS:
            break
    if paced:
        attempt(PACED, workload.paced_duration)
    return rows, failures


def summarize(rows: list[dict], main_mode: str, trace: bool,
              scaled: bool = True) -> dict:
    """End-to-end metrics (untraced) or per-layer metrics (traced).

    With ``scaled``, each main rep's set-up time, and a burst rep's
    throughput and CPU per tuple, are first brought to the reference
    host speed by its ``slowdown``; the run reports the median over its
    main reps.
    """
    if trace:
        plain = [r for r in rows if "layers" not in r]
        traced = [r for r in rows if "layers" in r]
        if not plain or not traced:
            return {name: 0.0 for name in PER_LAYER}
        metrics = dict(traced[0]["layers"])
        if main_mode == "paced":
            slower = percentile(traced[0]["latencies_ms"], 0.50)
            base = percentile(plain[0]["latencies_ms"], 0.50)
        else:
            slower, base = plain[0]["source_tps"], traced[0]["source_tps"]
        metrics["trace.overhead_ratio"] = slower / base if base else 0.0
        return metrics
    main = [r for r in rows if r["mode"] == main_mode]
    paced = [r for r in rows if r["mode"] == "paced"]

    def median(value) -> float:
        return statistics.median(value(r) for r in main) if main else 0.0

    def speed(row) -> float:
        return row["slowdown"] if scaled else 1.0

    # An open-loop rep's throughput is the schedule's rate, and its 5 s
    # window is too long for the loops around it to stand for.
    window_speed = speed if main_mode == "burst" else (lambda row: 1.0)
    metrics = {
        "setup_s": median(lambda r: r["setup_s"] / speed(r)),
        "source_tps": median(lambda r: r["source_tps"] * window_speed(r)),
        "cpu_us_per_tuple": median(
            lambda r: r["cpu_us_per_tuple"] / window_speed(r)
        ),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "wan_hops_per_tuple": median(lambda r: r["wan_hops_per_tuple"]),
    }
    # Percentiles per paced rep, then the median rep's: a rep caught in
    # a slow spell of the host would own the tail of pooled samples.
    for name, q in (("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99)):
        metrics[name] = statistics.median(
            percentile(sorted(r["latencies_ms"]), q) for r in paced
        ) if paced else 0.0
    return metrics


def rep_digest(row: dict) -> dict:
    """A rep's figures without its raw samples (for the detail line)."""
    out = {
        k: v for k, v in row.items()
        if k not in ("latencies_ms", "lags_ms", "layers", "keys")
    }
    out["results"] = [k[0] for k in row["keys"]]
    lags = sorted(row.get("lags_ms") or [])
    latencies = sorted(row.get("latencies_ms") or [])
    out["latency_samples"] = len(latencies)
    out["latency_p50_ms"] = percentile(latencies, 0.50)
    out["latency_p99_ms"] = percentile(latencies, 0.99)
    out["lag_p99_ms"] = percentile(lags, 0.99)
    out["lag_max_ms"] = lags[-1] if lags else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout with src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    work = os.path.join(HERE, "_work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(root, args.workload, args.seed, work)
        rows, failures = measure(runner, workload, args.seconds, trace)
        references = simulate(runner, {r["duration"] for r in rows}, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    for row in rows:
        problems = check(row, references.get(row["duration"]))
        if trace and "layers" in row:
            plain = [r for r in rows if "layers" not in r]
            if plain and plain[0]["keys"] != row["keys"]:
                problems.append("traced result keys differ from untraced")
        row["problems"] = problems
        failed += bool(problems)
    attempted = len(rows) + len(failures)
    metrics = summarize(rows, workload.main_mode, trace)
    # the end-to-end metrics before scaling to the reference speed
    unscaled = None if trace else summarize(
        rows, workload.main_mode, trace, scaled=False
    )
    units = PER_LAYER if trace else END_TO_END
    detail = {
        "host": host_stamp(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failures": failures,
        "unscaled": unscaled,
        "reps": [rep_digest(r) for r in rows],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
