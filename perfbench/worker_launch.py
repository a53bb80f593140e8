"""Worker-process launcher the benchmark hands to ``DistributedCoordinator``.

The coordinator runs ``<python> -m repro serve --coordinator HOST:PORT``;
``rep.py`` passes a small shell script as ``<python>`` that execs this
file with the same arguments.  It installs the probes (traffic seed,
first emission, open-loop pacing) and, in traced reps, the tracer, then
runs ``repro`` as ``__main__``.  At exit it writes what it measured to
``$PERFBENCH_OUT/worker-<pid>.json`` for the rep to merge.
"""

from __future__ import annotations

import atexit
import json
import os
import runpy
import sys

import probes


def main() -> None:
    argv = sys.argv[1:]
    if argv[:1] != ["-m"] or len(argv) < 2:
        raise SystemExit(f"usage: worker_launch.py -m MODULE ARGS (got {argv})")
    module, args = argv[1], argv[2:]
    out_dir = os.environ["PERFBENCH_OUT"]
    probe = probes.Probe(
        traffic_seed=int(os.environ["PERFBENCH_SEED"]),
        time_scale=float(os.environ["PERFBENCH_SCALE"]),
    )
    probe.install(results=None)
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        probe.on_emission = tracer.arm

    def dump() -> None:
        snap = {"probe": probe.snapshot()}
        if tracer is not None:
            snap["tracer"] = tracer.snapshot(probes.perf())
        path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(snap, fh)
        os.replace(path + ".tmp", path)

    atexit.register(dump)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
