"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, at smoke sizes:

1. every workload runs one rep that passes the correctness gate, and a
   traced rep gives the same result keys;
2. a drop injected through ``LiveSettings.fault_injector`` makes the
   gate count the rep as failed;
3. the open-loop pacing's lateness stays bounded and does not grow with
   run length;
4. per-layer busy time plus ``asyncio.unattributed_ms`` adds up to the
   run's wall time on the probe's clock (single process and 2-worker),
   and nested wrapped calls with known sleeps book each interval once;
5. ``compare.py`` refuses results from unlike hosts;
6. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints;
7. the host speed index scales only the speed-bound metrics.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import compare
import run
from run import Runner, check, percentile

SMOKE_BURST = 2.0
SMOKE_PACED = 1.5
LAG_BOUND_MS = 10.0


class Checks:
    def __init__(self) -> None:
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            self.failed.append(what)


def smoke(checks: Checks, root: str, work: str) -> None:
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        runner = Runner(root, name, 7, os.path.join(work, name))
        duration = SMOKE_BURST if workload.main_mode == "burst" else SMOKE_PACED
        plain = runner.call(workload.main_mode, duration)
        traced = runner.call(workload.main_mode, duration, "--trace")
        reference = runner.call("sim", duration)
        checks.expect(
            not check(plain, reference) and not check(traced, reference),
            f"{name}: smoke rep passes the gate "
            f"({plain['keys'][0][0]} result keys equal the simulator's)",
        )
        checks.expect(
            plain["keys"] == traced["keys"],
            f"{name}: traced result keys equal untraced",
        )
        # busy + unattributed is the tracer's own window; the wall time
        # is the probe's, stamped independently of the tracer
        ident = traced["identity"]
        busy, unattributed = ident["busy_ms"], ident["unattributed_ms"]
        wall = ident["wall_ms"]
        checks.expect(
            busy > 0.0
            and unattributed >= 0.0
            and abs(busy + unattributed - wall) <= 1.0 + 1e-3 * wall,
            f"{name}: busy {busy:.1f} ms + unattributed {unattributed:.1f} ms"
            f" = wall {wall:.1f} ms (probe clock)",
        )


def nested_spans(checks: Checks) -> None:
    """Nested wrapped calls with known sleeps: every layer's busy time
    is its own, and the busy times add up to the outermost coroutine's
    steps, so no interval is counted twice."""
    import asyncio
    import time

    from tracer import Tracer

    tracer = Tracer()
    inner = tracer._sync("inner", lambda: time.sleep(0.030))

    def outer_body():
        time.sleep(0.020)
        inner()

    outer = tracer._sync("outer", outer_body)

    async def sub_body():
        time.sleep(0.015)
        await asyncio.sleep(0.020)

    sub = tracer._async("sub", sub_body)

    async def top_body():
        await asyncio.sleep(0.040)
        outer()
        await sub()
        time.sleep(0.010)

    top = tracer._async("top", top_body)
    spans = {}

    async def timed():
        started = time.perf_counter()
        await top()
        spans["elapsed"] = time.perf_counter() - started

    asyncio.run(timed())
    ms = {k: v * 1e3 for k, v in tracer.busy.items()}
    expected = {"inner": 30.0, "outer": 20.0, "sub": 15.0, "top": 10.0}
    own = all(expected[k] - 0.5 <= ms.get(k, 0.0) <= expected[k] + 10.0
              for k in expected)
    checks.expect(
        own and set(ms) == set(expected),
        "nested spans: self time per layer "
        + ", ".join(f"{k} {ms.get(k, 0.0):.1f}/{v:.0f} ms"
                    for k, v in expected.items()),
    )
    steps = (spans["elapsed"] - tracer.wait["top"]) * 1e3
    total = sum(ms.values())
    checks.expect(
        abs(total - steps) <= 1.0 and tracer.wait["sub"] * 1e3 >= 19.5,
        f"nested spans: busy {total:.1f} ms = outermost steps "
        f"{steps:.1f} ms (sub waited {tracer.wait['sub'] * 1e3:.1f} ms)",
    )


def injected_drop(checks: Checks, root: str, work: str) -> None:
    runner = Runner(root, "select_burst", 7, os.path.join(work, "drop"))
    row = runner.call("burst", SMOKE_BURST, "--inject-drop")
    reference = runner.call("sim", SMOKE_BURST)
    problems = check(row, reference)
    checks.expect(
        row["drops"] > 0 and any(p.startswith("drops=") for p in problems),
        f"injected drop counts the rep as failed ({problems})",
    )


def lag_bounded(checks: Checks, root: str, work: str) -> None:
    runner = Runner(root, "stateful_paced", 7, os.path.join(work, "lag"))
    short = runner.call("paced", 2.0)["lags_ms"]
    long = runner.call("paced", 6.0)["lags_ms"]
    p99_short = percentile(sorted(short), 0.99)
    p99_long = percentile(sorted(long), 0.99)
    third = len(long) // 3
    p50_head = percentile(sorted(long[:third]), 0.50)
    p50_tail = percentile(sorted(long[-third:]), 0.50)
    checks.expect(
        p99_short < LAG_BOUND_MS and p99_long < LAG_BOUND_MS,
        f"open-loop lag p99 bounded: {p99_short:.2f} ms (2 s), "
        f"{p99_long:.2f} ms (6 s) < {LAG_BOUND_MS} ms",
    )
    # Pacing that slips its schedule shows a lag that keeps rising;
    # single collector pauses late in a run are tail events, so the
    # within-run comparison uses the median.
    checks.expect(
        p99_long <= 2.0 * p99_short + 1.0 and p50_tail <= 2.0 * p50_head + 0.5,
        f"open-loop lag does not grow: p99 {p99_short:.2f} ms (2 s) vs "
        f"{p99_long:.2f} ms (6 s); p50 first third {p50_head:.2f} ms, "
        f"last third {p50_tail:.2f} ms",
    )


def unlike_hosts(checks: Checks, work: str) -> None:
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}

    def write(name: str, host: dict) -> str:
        path = os.path.join(work, name)
        detail = {"host": host, "workload": "select_burst", "seed": 1,
                  "trace": 0, "failures": [], "reps": []}
        with open(path, "w") as fh:
            fh.write(json.dumps({"detail": detail}) + "\n")
            fh.write(json.dumps(result) + "\n")
        return path

    here = run.host_stamp()
    other = dict(here, nproc=(here["nproc"] or 1) * 2)
    a, b, c = write("a.txt", here), write("b.txt", here), write("c.txt", other)
    checks.expect(compare.main([a, "--", b]) == 0,
                  "compare accepts results from the same host")
    checks.expect(compare.main([a, "--", c]) == 2,
                  "compare refuses results from unlike hosts")


def speed_scaling(checks: Checks) -> None:
    """The host speed index scales set-up time, and a burst run's
    throughput and CPU per tuple, and nothing else."""
    row = {"setup_s": 1.0, "peak_rss_mb": 90.0, "wan_hops_per_tuple": 3.0,
           "source_tps": 8000.0, "cpu_us_per_tuple": 100.0,
           "latencies_ms": [5.0, 7.0], "slowdown": 2.0}
    for mode, tps, cpu in (("burst", 16000.0, 50.0),
                           ("paced", 8000.0, 100.0)):
        rows = [dict(row, mode=mode)]
        one = run.summarize(rows, mode, False, scaled=False)
        two = run.summarize(rows, mode, False)
        expected = dict(one, setup_s=0.5, cpu_us_per_tuple=cpu,
                        source_tps=tps)
        checks.expect(two == expected,
                      f"{mode}: slowdown 2 halves set-up time, scales "
                      f"throughput and CPU per tuple of burst reps only")


def benchmark_json(checks: Checks, root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    checks.expect(e2e == run.END_TO_END,
                  "BENCHMARK.json end_to_end matches run.py")
    checks.expect(layers == run.PER_LAYER,
                  "BENCHMARK.json per_layer matches run.py")


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("selftest: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    checks = Checks()
    base = os.path.join(run.HERE, "_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        benchmark_json(checks, root)
        unlike_hosts(checks, work)
        nested_spans(checks)
        speed_scaling(checks)
        injected_drop(checks, root, work)
        lag_bounded(checks, root, work)
        smoke(checks, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(checks.failed)} check(s) failed" if checks.failed
          else "all checks passed")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
