"""Compare two benchmark result files workload by workload, layer by layer.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the results ``perfbench/run.py --out FILE`` appended
(several seeds per workload, end-to-end and traced runs mixed).  For
every workload and metric the table gives each side's median with its
quartiles, the change of the median, and a verdict:

* ``better`` / ``worse`` — the medians differ by more than the metric's
  bound (``BENCHMARK.json`` for end-to-end metrics,
  :data:`LAYER_BOUND` for per-layer ones);
* ``unchanged`` — they differ by less;
* ``unresolved`` — a side's own run-to-run spread (interquartile range
  over median) exceeds the bound, so the data cannot tell, unless
  every run of one side beats every run of the other;
* ``same`` / ``differs`` — for counts, which the program reproduces
  exactly.

Results stamped with different machines or thread knobs measure
different things; the comparison is refused (exit status 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles, spread  # noqa: E402

#: Bound used for per-layer metrics, which BENCHMARK.json leaves open.
LAYER_BOUND = 0.10


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def stamp_conflicts(results: list[dict]) -> list[str]:
    """Stamp keys whose values differ anywhere in ``results``."""
    seen: dict = defaultdict(set)
    for result in results:
        for key, value in result["stamp"].items():
            seen[key].add(json.dumps(value))
    return sorted(f"{key}: {' vs '.join(sorted(values))}"
                  for key, values in seen.items() if len(values) > 1)


def direction(name: str, unit: str, declared: dict) -> str | None:
    """Which way is better; ``None`` for counts, compared exactly."""
    if unit == "count":
        return None
    if name in declared:
        return declared[name]["better"]
    return "higher" if "/s" in unit else "lower"


def verdict(base: list[float], new: list[float], better: str | None,
            bound: float) -> str:
    if better is None:
        return "same" if sorted(base) == sorted(new) else "differs"
    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    if not base_med:
        return "unchanged" if not new_med else "differs"
    sign = 1 if better == "higher" else -1
    base_s, new_s = [v * sign for v in base], [v * sign for v in new]
    if min(new_s) > max(base_s):
        return "better"
    if max(new_s) < min(base_s):
        return "worse"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    change = (new_med - base_med) / abs(base_med) * sign
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "unchanged"


def series(results: list[dict]) -> dict:
    """``{(workload, metric): ([values], unit)}``."""
    out: dict = {}
    for result in results:
        for name, metric in result["metrics"].items():
            key = (result["workload"], name)
            values, _ = out.setdefault(key, ([], metric["unit"]))
            values.append(float(metric["value"]))
    return out


def compare(base: list[dict], new: list[dict], declared: dict) -> list[tuple]:
    a, b = series(base), series(new)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        unit = a[key][1]
        bound = declared.get(name, {}).get("bound", LAYER_BOUND)
        better = direction(name, unit, declared)
        rows.append((workload, name, unit, a[key][0], b[key][0],
                     verdict(a[key][0], b[key][0], better, bound)))
    return rows


def _summary(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    base, new = load(args.base), load(args.new)
    conflicts = stamp_conflicts(base + new)
    if conflicts:
        print("REFUSED: the results were measured under different "
              "machines or knobs:", file=sys.stderr)
        for conflict in conflicts:
            print(f"  {conflict}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in (*benchmark["end_to_end"],
                                       *benchmark["per_layer"])}
    workload = None
    for name_w, name, unit, a, b, word in compare(base, new, declared):
        if name_w != workload:
            workload = name_w
            print(f"\n{workload}")
            print(f"  {'metric':<38} {'base median [q1-q3]':>32} "
                  f"{'new median [q1-q3]':>32} {'change':>8}  verdict")
        _, med_a, _ = quartiles(a)
        _, med_b, _ = quartiles(b)
        change = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "-"
        print(f"  {name + ' (' + unit + ')':<38} {_summary(a):>32} "
              f"{_summary(b):>32} {change:>8}  {word}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
