"""Compare two sets of benchmark results, refusing unlike hosts.

Usage::

    python3 perfbench/compare.py BASE_DIR_OR_FILES... -- NEW_DIR_OR_FILES...

Each argument is a file holding the stdout of ``run.py`` (or a
directory of such files).  Results are grouped by workload and metric;
the tool prints each side's median, the ratio new/base and the base
side's quartile spread.  It exits 2 without comparing anything when the
two sides were measured on hosts with a different core count, Python
version or CPU model: a 2-core result must never be read against a
4-core one.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict


def load(paths: list[str]) -> tuple[list[dict], dict]:
    """Host stamps and ``{workload: {metric: [values]}}`` of one side."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(
                os.path.join(path, name) for name in os.listdir(path)
            )
        else:
            files.append(path)
    hosts, values = [], defaultdict(lambda: defaultdict(list))
    for path in files:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        if len(lines) < 2:
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        hosts.append(detail["host"])
        for name, metric in result["metrics"].items():
            values[detail["workload"]][name].append(metric["value"])
    return hosts, values


def unlike_hosts(base: list[dict], new: list[dict]) -> list[str]:
    """Why the two sides cannot be compared (empty when they can)."""
    stamps = {json.dumps(h, sort_keys=True) for h in base + new}
    if len(stamps) <= 1:
        return []
    return sorted(stamps)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base_hosts, base = load(argv[:cut])
    new_hosts, new = load(argv[cut + 1:])
    if not base_hosts or not new_hosts:
        print("compare: a side holds no results", file=sys.stderr)
        return 2
    reasons = unlike_hosts(base_hosts, new_hosts)
    if reasons:
        print("compare: refusing to compare results from unlike hosts:",
              file=sys.stderr)
        for stamp in reasons:
            print(f"  {stamp}", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name], new[workload][name]
            b_med, n_med = statistics.median(b), statistics.median(n)
            spread = 0.0
            if len(b) >= 2 and b_med:
                q1, __, q3 = statistics.quantiles(b, n=4)
                spread = (q3 - q1) / b_med
            ratio = n_med / b_med if b_med else float("nan")
            print(f"{workload:16s} {name:36s} base {b_med:12.4f} "
                  f"new {n_med:12.4f} new/base {ratio:7.3f} "
                  f"base IQR/median {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
