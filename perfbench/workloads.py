"""The benchmark's four workloads, built through the public runtimes.

Each workload fixes one federation (catalog, planning config, queries)
at the seed its source experiment uses, so the plan is the same on
every run.  The benchmark's ``--seed`` draws the *source traffic*
instead: after planning, the planner simulator's random generator is
re-seeded (see ``probes.reseed_traffic``), and every tuple value and
arrival time of the recorded trace follows from that seed.  A seed
therefore changes the data, never the plan, which keeps run-to-run
spread down to the machine and the traffic.

A workload runs in one of two modes:

* ``burst`` — as-fast-as-possible replay (``time_scale=0``).  Only
  throughput, CPU, set-up and memory are read from it: its source-to-
  result delay measures how far replay ran ahead of processing.
* ``paced`` — an open loop in real time (``time_scale=1``, modelled link
  latency 0).  Every latency figure comes from this mode, timed from
  each tuple's due time on the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.system import SystemConfig
from repro.live import AdaptationSettings, AdaptiveRuntime, LiveRuntime, LiveSettings
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog
from repro.workloads import (
    apply_rate_drift,
    crossfade_rates,
    partition_workload,
    sharing_workload,
)

BURST = "burst"
PACED = "paced"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: The name ``--workload`` selects.
        runtime: ``live``, ``distributed`` or ``adaptive``.
        main_mode: Mode of the reps that give throughput, CPU, set-up,
            memory and hop count.
        main_duration: Virtual seconds of traffic one main rep replays.
        batch_size: Transport batch size.
        paced_duration: Virtual (= wall) seconds of the one paced rep a
            burst workload's untraced run ends with (latency figures).
        instances: Runtime instances one rep runs back to back, each on
            its own traffic seed (see :meth:`traffic_seeds`), so that a
            small federation still fills a measurable window without
            paying process start-up each time.
    """

    name: str
    runtime: str
    main_mode: str
    main_duration: float
    batch_size: int
    paced_duration: float = 0.0
    instances: int = 1

    # ------------------------------------------------------------------
    def traffic_seeds(self, seed: int) -> list[int]:
        """The traffic seed of each instance of a rep (``seed`` first)."""
        return [seed + 7919 * index for index in range(self.instances)]

    def federation(self):
        """``(catalog, config, queries)`` — identical on every run."""
        if self.name in ("select_burst", "select_burst_2w"):
            # E18's federation: selections only, whose result sets are
            # delivery-determined and order-free.
            catalog = stock_catalog(exchanges=2, rate=200.0)
            config = SystemConfig(
                entity_count=8, processors_per_entity=2, seed=91
            )
            queries = generate_workload(
                catalog,
                WorkloadConfig(
                    query_count=96, join_fraction=0.0, aggregate_fraction=0.0
                ),
                seed=91,
            ).queries
            return catalog, config, queries
        if self.name == "stateful_paced":
            # E19's partitioned grouped aggregates next to E20's
            # overlapping filters, on one 2 x 600 tuples/s tape.
            catalog, config, partitioned = partition_workload(
                0, rate=600.0, parallelism=2
            )
            __, ___, shared = sharing_workload(0, overlap=0.8)
            config = replace(config, shared_execution=True)
            return catalog, config, partitioned + shared
        if self.name == "adaptive_drift":
            # E17's federation.
            catalog = stock_catalog(exchanges=2, rate=100.0)
            config = SystemConfig(
                entity_count=4, processors_per_entity=3, seed=17
            )
            queries = generate_workload(
                catalog,
                WorkloadConfig(
                    query_count=32, join_fraction=0.0, aggregate_fraction=0.2
                ),
                seed=17,
            ).queries
            return catalog, config, queries
        raise KeyError(self.name)

    def after_submit(self, planner, catalog, duration: float) -> None:
        """Input shaping applied to the planned sources (E17's drift)."""
        if self.name != "adaptive_drift":
            return
        hot = {
            stream_id
            for stream_id in catalog.stream_ids()
            if stream_id.startswith("exchange-0")
        }
        apply_rate_drift(
            planner.sources,
            crossfade_rates(
                catalog, hot, factor_up=6.0, factor_down=0.25,
                duration=duration,
            ),
        )

    def settings(self, mode: str, duration: float, **extra) -> LiveSettings:
        """Execution settings of one rep in ``mode``."""
        knobs = dict(duration=duration, batch_size=self.batch_size)
        if self.runtime == "adaptive":
            # E17's generous send budget: result identity must not
            # depend on drops while sources sit behind the gate.
            knobs.update(send_timeout=2.0, max_retries=6)
        if mode == PACED:
            knobs.update(time_scale=1.0, wan_latency=0.0, lan_latency=0.0)
        knobs.update(extra)
        return LiveSettings(**knobs)

    def make_runtime(self, catalog, config, settings: LiveSettings):
        """The single-process runtime of this workload."""
        if self.runtime == "adaptive":
            return AdaptiveRuntime(
                catalog,
                config,
                settings,
                AdaptationSettings(
                    period=0.5, strategy="hybrid", imbalance_threshold=1.15
                ),
            )
        return LiveRuntime(catalog, config, settings)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("select_burst", "live", BURST, 12.0, 16, 3.0),
        Workload("select_burst_2w", "distributed", BURST, 12.0, 16, 3.0),
        Workload("stateful_paced", "live", PACED, 5.0, 8),
        Workload("adaptive_drift", "adaptive", BURST, 3.0, 16, 3.0, 3),
    )
}
