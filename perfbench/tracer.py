"""Per-layer tracing by wrapping each layer's public calls from outside.

A traced rep installs :class:`Tracer` before building the runtime.  It
replaces public functions and methods with wrappers that keep running
sums in memory (nothing is written until the process ends):

* **busy** — self time of a synchronous call: its duration minus the
  part covered by wrapped calls nested inside it, so no interval is
  counted twice.  A coroutine's busy time is the sum of its steps (each
  resume until it suspends), again minus nested wrapped calls.
* **wait** — for a coroutine, the time it spent suspended: elapsed time
  from first step to completion minus its steps.
* **counts** — calls, tuples, bytes, events, as each layer defines.

Spans are only counted towards the run window after ``arm()`` (the
first source emission); ``asyncio.unattributed_ms`` is the window's
wall time minus every busy span inside it, i.e. the event loop, the
unwrapped code and idle time.
"""

from __future__ import annotations

import asyncio
import subprocess
import time
from collections import defaultdict

from repro.allocation.repartition import (
    CutRepartitioner,
    HybridRepartitioner,
    ScratchRepartitioner,
)
from repro.core.system import FederatedSystem
from repro.dissemination.tree import DisseminationTree
from repro.distributed import codec
from repro.distributed.links import CreditGate, PeerConnection, RemoteOutbox
from repro.engine.partition import PartitionRouter
from repro.engine.plan import Fragment
from repro.live.adaptation import QueryMigrator
from repro.live.channels import LiveChannel
from repro.live.entity_task import FeedGate
from repro.live.metrics import LiveMetrics
from repro.live.transport import LiveTransport, WorkTracker
from repro.simulation.simulator import Simulator

perf = time.perf_counter


class _Steps:
    """Awaitable driving a coroutine one step at a time, timing each."""

    __slots__ = ("coro", "tracer", "layer", "stepped")

    def __init__(self, coro, tracer: "Tracer", layer: str) -> None:
        self.coro = coro
        self.tracer = tracer
        self.layer = layer
        self.stepped = 0.0

    def __await__(self):
        coro, tracer = self.coro, self.tracer
        value, error = None, None
        while True:
            tracer._stack.append(0.0)
            started = perf()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                self.stepped += tracer._close(self.layer, started)
                return stop.value
            except BaseException:
                self.stepped += tracer._close(self.layer, started)
                raise
            self.stepped += tracer._close(self.layer, started)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


class Tracer:
    """Running per-layer sums of one process."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.window_busy: dict[str, float] = defaultdict(float)
        self.wait: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.peak: dict[str, float] = defaultdict(float)
        # inclusive wall time of spans that are not busy time (the
        # adaptation decision, the drain) and one-off timestamps
        self.spans: dict[str, float] = defaultdict(float)
        self.stamps: dict[str, float] = {}
        self.armed_at: float | None = None
        self.window = 0.0
        self.pauses: list[float] = []
        self._stack: list[float] = []
        self._gate_closed_at: float | None = None
        self._deciding = 0

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Open the run window (first source emission)."""
        if self.armed_at is None:
            self.armed_at = perf()

    def disarm(self, now: float) -> None:
        """Close the run window (end of the runtime's run)."""
        if self.armed_at is not None:
            self.window += now - self.armed_at
            self.armed_at = None

    def _close(self, layer: str, started: float) -> float:
        """End one span: book its self time, return its duration."""
        elapsed = perf() - started
        own = elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        self.busy[layer] += own
        if self.armed_at is not None:
            self.window_busy[layer] += own
        return elapsed

    def _sync(self, layer: str, fn, after=None):
        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, started)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _async(self, layer: str, fn, before=None):
        tracer = self

        async def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            started = perf()
            steps = _Steps(fn(*args, **kwargs), tracer, layer)
            try:
                return await steps
            finally:
                tracer.wait[layer] += perf() - started - steps.stepped

        return wrapper

    def _gen(self, layer: str, fn):
        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                started = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    close(layer, started)
                    return
                close(layer, started)
                yield item

        return wrapper

    # ------------------------------------------------------------------
    def bump(self, key: str, n: float = 1) -> None:
        self.count[key] += n

    def install(self) -> None:
        """Wrap every layer's public entry points in this process."""
        count, peak, bump = self.count, self.peak, self.bump

        # core.system / simulation (set-up)
        FederatedSystem.submit = self._sync(
            "core.system", FederatedSystem.submit
        )
        Simulator.run = self._sync("simulation", Simulator.run)

        # dissemination: early filtering on tree edges
        def filtered(args, kept):
            bump("dissemination.filter_in", len(args[2]))
            bump("dissemination.filter_out", len(kept))

        def needed(args, keep):
            bump("dissemination.filter_in")
            bump("dissemination.filter_out", 1 if keep else 0)

        DisseminationTree.filter_batch = self._sync(
            "dissemination", DisseminationTree.filter_batch, filtered
        )
        DisseminationTree.needs_tuple = self._sync(
            "dissemination", DisseminationTree.needs_tuple, needed
        )

        # placement.delegation: §4 stream -> delegate processor lookup
        from repro.placement.delegation import DelegationScheme

        DelegationScheme.delegate_of = self._sync(
            "placement.delegation",
            DelegationScheme.delegate_of,
            lambda args, __: bump("placement.delegation.calls"),
        )

        # engine: fused fragment pipelines
        def ran_batch(args, outputs):
            bump("engine.fragment_calls")
            bump("engine.tuples_in", len(args[1]))
            bump("engine.tuples_out", len(outputs))

        def ran_one(args, outputs):
            bump("engine.fragment_calls")
            bump("engine.tuples_in")
            bump("engine.tuples_out", len(outputs))

        Fragment.run_batch = self._sync("engine", Fragment.run_batch, ran_batch)
        Fragment.run = self._sync("engine", Fragment.run, ran_one)

        # engine.partition: router fan-out
        PartitionRouter.route = self._sync(
            "engine.partition",
            PartitionRouter.route,
            lambda args, events: bump("engine.partition.events", len(events)),
        )

        # live.channels
        def put_seen(args):
            bump("live.channels.puts")
            bump("live.channels.put_tuples", len(args[1]))

        put = self._async("live.channels.put", LiveChannel.put, put_seen)

        async def tracked_put(channel, item):
            await put(channel, item)
            if channel.high_water > peak["live.channels.high_water"]:
                peak["live.channels.high_water"] = channel.high_water

        LiveChannel.put = tracked_put
        LiveChannel.get = self._async("live.channels.get", LiveChannel.get)

        # live.transport: retry/timeout send policy (minus its put,
        # which runs in its own task under wait_for)
        LiveTransport.send = self._async(
            "live.transport",
            LiveTransport.send,
            lambda args: bump("live.transport.sends"),
        )

        # live.metrics
        for name in (
            "record_ingest", "record_delivery", "record_busy", "record_result",
        ):
            setattr(
                LiveMetrics,
                name,
                self._sync(
                    "live.metrics",
                    getattr(LiveMetrics, name),
                    lambda args, __: bump("live.metrics.record_calls"),
                ),
            )

        # asyncio scheduling: tasks and timers
        loop_cls = asyncio.BaseEventLoop
        create_task, call_at = loop_cls.create_task, loop_cls.call_at

        def counted_task(loop, coro, **kwargs):
            count["asyncio.tasks_created"] += 1
            # repro: allow[ASY005] the caller's name= is forwarded
            return create_task(loop, coro, **kwargs)

        def counted_timer(loop, when, callback, *args, **kwargs):
            count["asyncio.timers"] += 1
            return call_at(loop, when, callback, *args, **kwargs)

        loop_cls.create_task = counted_task
        loop_cls.call_at = counted_timer

        # distributed.codec
        def encoded(args, payload):
            bump("distributed.codec.encoded_tuples", len(args[0]))
            bump("distributed.codec.encoded_bytes", len(payload))

        codec.encode_batch = self._sync(
            "distributed.codec.encode", codec.encode_batch, encoded
        )
        codec.decode_batch = self._sync(
            "distributed.codec.decode", codec.decode_batch
        )
        codec.FrameDecoder.feed = self._gen(
            "distributed.codec.decode", codec.FrameDecoder.feed
        )

        # distributed.links: credit-gated remote sends
        RemoteOutbox.put = self._async("distributed.links", RemoteOutbox.put)
        CreditGate.acquire = self._async(
            "distributed.links.credit", CreditGate.acquire
        )
        PeerConnection.send = self._sync(
            "distributed.links",
            PeerConnection.send,
            lambda args, __: bump("distributed.links.frames_sent"),
        )

        # live.adaptation: gate-closed pauses, drains, decisions, moves
        self._install_adaptation()

    def _install_adaptation(self) -> None:
        tracer = self
        close, open_ = FeedGate.close, FeedGate.open

        def gate_close(gate):
            if gate.is_open:
                tracer._gate_closed_at = perf()
            close(gate)

        def gate_open(gate):
            open_(gate)
            if gate.is_open and tracer._gate_closed_at is not None:
                tracer.pauses.append(perf() - tracer._gate_closed_at)
                tracer._gate_closed_at = None

        FeedGate.close = gate_close
        FeedGate.open = gate_open

        QueryMigrator.execute = self._async(
            "live.adaptation",
            QueryMigrator.execute,
            lambda args: tracer.bump("live.adaptation.migrations", len(args[1])),
        )
        quiescent = WorkTracker.wait_quiescent

        async def timed_drain(tracker):
            if tracer._gate_closed_at is None:
                return await quiescent(tracker)
            started = perf()
            try:
                return await quiescent(tracker)
            finally:
                tracer.spans["live.adaptation.drain"] += perf() - started

        WorkTracker.wait_quiescent = timed_drain

        for cls in (ScratchRepartitioner, CutRepartitioner, HybridRepartitioner):
            cls.repartition = self._decision(cls.repartition)

    def _decision(self, fn):
        """Inclusive wall time of the outermost repartition call (the
        hybrid strategy calls the other two)."""
        tracer = self
        inner = self._sync("live.adaptation", fn)

        def wrapper(*args, **kwargs):
            if tracer._deciding:
                return inner(*args, **kwargs)
            tracer._deciding += 1
            started = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._deciding -= 1
                tracer.spans["live.adaptation.decision"] += perf() - started

        return wrapper

    # ------------------------------------------------------------------
    def install_coordinator(self) -> None:
        """Coordinator-process extras: spawn and START timestamps."""
        tracer = self
        popen = subprocess.Popen

        class StampedPopen(popen):
            def __init__(self, *args, **kwargs):
                tracer.stamps.setdefault("spawned", perf())
                super().__init__(*args, **kwargs)

        subprocess.Popen = StampedPopen
        encode_frame = codec.encode_frame

        def stamped_frame(frame_type, payload=b""):
            if frame_type == codec.START:
                tracer.stamps.setdefault("started", perf())
            return encode_frame(frame_type, payload)

        codec.encode_frame = stamped_frame

    # ------------------------------------------------------------------
    def snapshot(self, window_end: float) -> dict:
        """Raw sums of this process (merged across processes later)."""
        self.disarm(window_end)
        return {
            "busy": dict(self.busy),
            "window_busy": dict(self.window_busy),
            "wait": dict(self.wait),
            "count": dict(self.count),
            "peak": dict(self.peak),
            "spans": dict(self.spans),
            "stamps": dict(self.stamps),
            "pauses": list(self.pauses),
            "window": self.window,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the per-process snapshots of one rep."""
    merged = {
        "busy": defaultdict(float),
        "window_busy": defaultdict(float),
        "wait": defaultdict(float),
        "count": defaultdict(float),
        "peak": defaultdict(float),
        "spans": defaultdict(float),
        "stamps": {},
        "pauses": [],
        "window": 0.0,
    }
    for snap in snapshots:
        for key in ("busy", "window_busy", "wait", "count", "spans"):
            for name, value in snap[key].items():
                merged[key][name] += value
        merged["stamps"].update(snap["stamps"])
        for name, value in snap["peak"].items():
            merged["peak"][name] = max(merged["peak"][name], value)
        merged["pauses"].extend(snap["pauses"])
        merged["window"] += snap["window"]
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict, *, lags_ms: tuple[float, float],
                  probe_rounds: int, retries: int, dropped: int) -> dict:
    """The per-layer metric table of one traced rep (name -> value)."""
    busy, wait, count = merged["busy"], merged["wait"], merged["count"]
    ms = 1000.0
    spawned = merged["stamps"].get("spawned")
    started = merged["stamps"].get("started")
    return {
        "core.system.submit_ms": busy["core.system"] * ms,
        "simulation.trace_ms": busy["simulation"] * ms,
        "distributed.coordinator.launch_ms": (
            (started - spawned) * ms if spawned and started else 0.0
        ),
        "distributed.coordinator.probe_rounds": probe_rounds,
        "live.feed.lag_p50_ms": lags_ms[0],
        "live.feed.lag_p99_ms": lags_ms[1],
        "dissemination.filter_busy_ms": busy["dissemination"] * ms,
        "dissemination.filter_in": count["dissemination.filter_in"],
        "dissemination.pass_ratio": _ratio(
            count["dissemination.filter_out"], count["dissemination.filter_in"]
        ),
        "placement.delegation.calls": count["placement.delegation.calls"],
        "placement.delegation.busy_ms": busy["placement.delegation"] * ms,
        "engine.fragment_busy_ms": busy["engine"] * ms,
        "engine.fragment_calls": count["engine.fragment_calls"],
        "engine.tuples_per_call": _ratio(
            count["engine.tuples_in"], count["engine.fragment_calls"]
        ),
        "engine.selectivity": _ratio(
            count["engine.tuples_out"], count["engine.tuples_in"]
        ),
        "engine.partition.route_busy_ms": busy["engine.partition"] * ms,
        "engine.partition.events": count["engine.partition.events"],
        "live.channels.puts": count["live.channels.puts"],
        "live.channels.tuples_per_put": _ratio(
            count["live.channels.put_tuples"], count["live.channels.puts"]
        ),
        "live.channels.put_wait_ms": wait["live.channels.put"] * ms,
        "live.channels.get_wait_ms": wait["live.channels.get"] * ms,
        "live.channels.high_water": merged["peak"]["live.channels.high_water"],
        "live.transport.sends": count["live.transport.sends"],
        "live.transport.send_self_ms": busy["live.transport"] * ms,
        "live.transport.retries": retries,
        "live.transport.dropped": dropped,
        "asyncio.tasks_created": count["asyncio.tasks_created"],
        "asyncio.timers": count["asyncio.timers"],
        "asyncio.unattributed_ms": (
            (merged["window"] - window_busy(merged)) * ms
        ),
        "live.metrics.record_calls": count["live.metrics.record_calls"],
        "live.metrics.busy_ms": busy["live.metrics"] * ms,
        "distributed.codec.encode_ms": busy["distributed.codec.encode"] * ms,
        "distributed.codec.decode_ms": busy["distributed.codec.decode"] * ms,
        "distributed.codec.bytes_per_tuple": _ratio(
            count["distributed.codec.encoded_bytes"],
            count["distributed.codec.encoded_tuples"],
        ),
        "distributed.links.credit_wait_ms": (
            wait["distributed.links.credit"] * ms
        ),
        "distributed.links.frames_sent": count["distributed.links.frames_sent"],
        "live.adaptation.migrations": count["live.adaptation.migrations"],
        "live.adaptation.pause_ms": sum(merged["pauses"]) * ms,
        "live.adaptation.pause_max_ms": max(merged["pauses"], default=0.0) * ms,
        "live.adaptation.decision_ms": (
            merged["spans"]["live.adaptation.decision"] * ms
        ),
        "live.adaptation.drain_ms": merged["spans"]["live.adaptation.drain"] * ms,
    }


def window_busy(merged: dict) -> float:
    """Seconds of busy time inside the run window, all layers."""
    return sum(merged["window_busy"].values())
