"""Median and quartile spread of each metric over recorded runs.

    python3 perfbench/summary.py [RUNS_JSONL]    (default .perfbench_out/runs.jsonl)

Groups the runs by workload and trace mode and prints, per metric, the run
count, the median, and (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json, flagging spreads above a third of the bound.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else ROOT / ".perfbench_out" / "runs.jsonl"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups: dict[tuple, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for line in path.read_text().splitlines():
        run = json.loads(line)
        key = (run["provenance"]["workload"], run["provenance"]["trace"])
        failed[key] += run["failed"]
        for name, m in run["metrics"].items():
            groups[key][name].append(m["value"])
    for key in sorted(groups):
        print(f"{key[0]} trace={key[1]} failed={failed[key]}")
        for name, values in groups[key].items():
            line = f"  {name:36s} n={len(values):2d} median={median(values):.6g}"
            if len(values) >= 2:
                spread = quartile_spread(values)
                line += f" spread={spread:.4f}"
                if name in bounds:
                    flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
                    line += f" bound={bounds[name]}{flag}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
