"""End-to-end probes, installed from outside the program.

Every benchmark process (a rep, a sim reference, a distributed worker)
installs the same small set of wrappers around public calls:

* ``FederatedSystem.submit`` re-seeds the planner simulator's random
  generator after planning, so the recorded source trace follows the
  benchmark's ``--seed`` while the plan stays fixed;
* ``LiveSourceFeed.run`` stamps the first source emission (the end of
  set-up) and the CPU used up to it;
* in paced runs, ``LiveClock.pace`` is replaced on the class with an
  open-loop version: each tuple is released at ``origin + t * scale``
  (absolute, so a late timer never slips the rest of the schedule) and
  its lateness is recorded;
* result collection (``LiveMetrics.record_result`` in a single process,
  ``codec.decode_batch`` of RESULT frames at a distributed coordinator)
  stamps each result's arrival; in paced runs its latency is taken from
  the tuple's due time.

An aggregate result is due at its window end, which is its
``created_at``; a selection result is due when its source tuple was.
"""

from __future__ import annotations

import asyncio
import resource
import time

from repro.core.system import FederatedSystem
from repro.distributed import codec
from repro.live.entity_task import LiveClock, LiveSourceFeed
from repro.live.metrics import LiveMetrics

# repro: allow-file[INV001] the open-loop pace stands in for LiveClock.pace
perf = time.perf_counter


def cpu_seconds() -> float:
    """User + system CPU seconds of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size in MB (``ru_maxrss`` is in KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Probe:
    """Timestamps and samples of one benchmark process.

    ``time_scale`` is the run's wall seconds per virtual second: ``0``
    for burst replay (no pacing, no latency), ``1`` for the open loop.
    """

    def __init__(self, *, traffic_seed: int, time_scale: float = 0.0) -> None:
        self.traffic_seed = traffic_seed
        self.time_scale = time_scale
        self.on_emission = None
        self.reset()

    def reset(self) -> None:
        """Forget the previous runtime instance's stamps and samples."""
        self.first_emission: float | None = None
        self.cpu_at_emission: float | None = None
        self.origin: float | None = None
        self.streams: list[str] = []
        self.lags: list[float] = []
        self.last_result: float | None = None
        self.cpu_at_first_result: float | None = None
        self.latencies: list[float] = []
        # (arrival, [(stream_id, created_at), ...]) per RESULT frame,
        # resolved against the emitting workers' origins after the run.
        self.frames: list[tuple[float, list[tuple[str, float]]]] = []

    # ------------------------------------------------------------------
    def install(self, *, results: str | None) -> None:
        """Patch the public calls; ``results`` picks the collection
        point: ``"metrics"`` (single process), ``"codec"`` (distributed
        coordinator) or ``None`` (worker, sim reference)."""
        probe = self
        submit = FederatedSystem.submit

        def reseed_traffic(system, queries):
            submit(system, queries)
            system.sim.rng.seed(probe.traffic_seed)

        FederatedSystem.submit = reseed_traffic

        feed_run = LiveSourceFeed.run

        async def stamped_run(feed):
            if probe.first_emission is None:
                probe.first_emission = perf()
                probe.cpu_at_emission = cpu_seconds()
                if probe.on_emission is not None:
                    probe.on_emission()
            probe.streams.append(feed.stream_id)
            return await feed_run(feed)

        LiveSourceFeed.run = stamped_run

        if self.time_scale > 0.0:
            LiveClock.pace = self._open_loop_pace()

        if results == "metrics":
            record_result = LiveMetrics.record_result
            scale = self.time_scale

            def stamped_result(metrics, query_id, tup, virtual_now):
                now = perf()
                probe.last_result = now
                if scale > 0.0:
                    probe.latencies.append(
                        now - (probe.origin + tup.created_at * scale)
                    )
                record_result(metrics, query_id, tup, virtual_now)

            LiveMetrics.record_result = stamped_result
        elif results == "codec":
            decode_batch = codec.decode_batch
            paced = self.time_scale > 0.0

            def stamped_decode(payload):
                items = decode_batch(payload)
                now = perf()
                probe.last_result = now
                if probe.cpu_at_first_result is None:
                    probe.cpu_at_first_result = cpu_seconds()
                if paced:
                    probe.frames.append(
                        (now, [(t.stream_id, t.created_at) for __, t in items])
                    )
                return items

            codec.decode_batch = stamped_decode

    def _open_loop_pace(self):
        probe = self
        scale = self.time_scale
        sleep = asyncio.sleep

        async def pace(clock, t):
            origin = probe.origin
            if origin is None:
                origin = probe.origin = perf()
            due = origin + t * scale
            delay = due - perf()
            if delay > 0.0:
                await sleep(delay)
            probe.lags.append(perf() - due)
            # The replaced LiveClock.pace owns this bookkeeping and the
            # clock has no public setter; calling the original instead
            # would sleep the relative gap again and slip the schedule.
            if t > clock._virtual:
                clock._virtual = t
                clock._advanced.set()

        return pace

    # ------------------------------------------------------------------
    def resolve_latencies(self, origins: dict[str, float]) -> None:
        """Turn coordinator-side RESULT arrivals into latency samples,
        using the origin of the worker that emitted each stream."""
        scale = self.time_scale
        for arrival, items in self.frames:
            for stream_id, created_at in items:
                self.latencies.append(
                    arrival - (origins[stream_id] + created_at * scale)
                )

    def snapshot(self) -> dict:
        """What a worker process reports back at exit."""
        return {
            "first_emission": self.first_emission,
            "cpu_at_emission": self.cpu_at_emission,
            "cpu_at_exit": cpu_seconds(),
            "exited": perf(),
            "origin": self.origin,
            "streams": list(self.streams),
            "lags": list(self.lags),
            "peak_rss_mb": peak_rss_mb(),
        }
