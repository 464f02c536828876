"""Compare paired benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of run records as ``run.py`` writes them to
``.bench_work/results/`` (``<workload>-seed<n>-trace0.json``). Runs pair up
by workload and seed. For every end-to-end metric of ``BENCHMARK.json`` and
every workload the verdict is one of:

- ``gain``: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's quartile distance;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the parent's own spread is wider than the bound and not
  every change run beats every parent run;
- ``no regression`` otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["seed"])] = record["result"]["metrics"]
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (stats.median(change) - stats.median(parent)) / stats.median(parent)
    if worse_by > bound:
        return "regression"
    if stats.paired_gain(parent, change, better):
        return "gain"
    if better == "lower":
        every_change_better = max(change) < min(parent)
    else:
        every_change_better = min(change) > max(parent)
    if stats.relative_spread(parent) > bound and not every_change_better:
        return "unresolved"
    return "no regression"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    parent_runs, change_runs = (load_runs(Path(arg)) for arg in argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    pairs = sorted(set(parent_runs) & set(change_runs))
    if not pairs:
        print("no runs pair up by workload and seed", file=sys.stderr)
        return 1
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        print(f"# {workload}: {len(seeds)} pairs")
        for metric in metrics:
            name = metric["name"]
            parent = [parent_runs[(workload, s)][name]["value"] for s in seeds]
            change = [change_runs[(workload, s)][name]["value"] for s in seeds]
            p1, p2, p3 = stats.quartiles(parent)
            c1, c2, c3 = stats.quartiles(change)
            print(f"  {name:22s} parent {p2:10.4g} [{p1:.4g}, {p3:.4g}]  change {c2:10.4g} "
                  f"[{c1:.4g}, {c3:.4g}] {metric['unit']:4s} "
                  f"{verdict(parent, change, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
