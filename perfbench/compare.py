"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the per-run files run.py writes to perfbench/out/
(copy them aside between commits). For every workload, trace mode and metric
it prints each side's median and quartiles and the change of the medians,
and flags end-to-end metrics that got worse by more than their bound in
BENCHMARK.json. A change past the bound is marked unresolved rather than
worse when the spread of the before side's own runs (interquartile range
over median) is wider than the bound. It also prints each side's median
machine-speed probe; the bounded times are already rescaled to a reference
machine speed, so a change of the probe explains only the raw figures. Runs
made on different evaluator backends measure different programs, so the
tool refuses to compare them and exits 2. The exit code is 1 when any metric
is worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> tuple:
    """{(workload, trace): {metric: [values]}} and the set of backends seen.

    Each run's probe, timed before it started, is kept under "probe_ms".
    """
    values = defaultdict(lambda: defaultdict(list))
    backends = set()
    for path in sorted(directory.glob("*-trace[01].json")):
        report = json.loads(path.read_text())["report"]
        backends.add(report["env"]["backend"])
        values[(report["workload"], report["trace"])]["probe_ms"].append(
            report["env_probe_ms"]["before"])
        for name, value in report["metrics"].items():
            values[(report["workload"], report["trace"])][name].append(value)
        for name, metric in report.get("unbounded_metrics", {}).items():
            values[(report["workload"], report["trace"])][name].append(metric["value"])
    return values, backends


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, before_backends = load(Path(argv[0]))
    after, after_backends = load(Path(argv[1]))
    backends = before_backends | after_backends
    if len(backends) != 1:
        print(f"refusing to compare runs made on different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    print(f"backend {backends.pop()}")
    for key in sorted(set(before) & set(after)):
        probe_before = statistics.median(before[key]["probe_ms"])
        probe_after = statistics.median(after[key]["probe_ms"])
        print(f"\n{key[0]} (trace {key[1]}): median probe {probe_before:.1f} ms -> "
              f"{probe_after:.1f} ms ({probe_after / probe_before - 1.0:+.1%})")
        for name in sorted((set(before[key]) & set(after[key])) - {"probe_ms"}):
            b1, b2, b3 = quartiles(before[key][name])
            a1, a2, a3 = quartiles(after[key][name])
            change = (a2 - b2) / b2 if b2 else float("nan")
            rule = rules.get(name, {})
            loss = -change if rule.get("better") == "higher" else change
            flag = ""
            if "bound" in rule and loss > rule["bound"]:
                if (b3 - b1) / b2 > rule["bound"]:
                    flag = "  unresolved: past bound, but the runs spread wider"
                else:
                    flag = "  WORSE than bound"
                    worse += 1
            print(f"  {name:40s} {b2:12.4g} [{b1:.4g}..{b3:.4g}]  ->  "
                  f"{a2:12.4g} [{a1:.4g}..{a3:.4g}]  {change:+.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
