"""Run one benchmark workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit-sweep --seed 0 \\
        --seconds 30 --trace 0 [--out results.jsonl]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
(``setup_s``, ``cells_per_s``, ``resume_s``, ``report_s``,
``peak_rss_mb``; ``serve-audit`` also prints ``serve_req_per_s``,
``serve_p50_ms``, ``serve_p99_ms`` and ``batch_rows_per_s``).
``--trace 1`` is the separate traced run that attributes time to the
program's layers.  Both check the program's outputs; the last line
printed is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out`` also appends the full result, stamped with
the machine and its thread knobs, to a JSON-lines file that
``perfbench/compare.py`` reads.

``--record-digest`` stores the default seed's records digest for the
workload in ``perfbench/digests.json`` (only when the program's
results are meant to change).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics, workloads  # noqa: E402


def _stamp(run: workloads.Run) -> dict:
    child = run.python(str(ROOT / "perfbench" / "stamp.py"))
    return json.loads(child.stdout)


def _print_metrics(values: dict, units: dict) -> None:
    width = max(map(len, units))
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a (workload does not serve)" if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {name:<{width}}  {shown}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload of the repro program.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the stamped result to this JSON-lines "
                             "file")
    parser.add_argument("--record-digest", action="store_true",
                        help="store the default seed's records digest")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    run = workloads.make_run(args.workload, args.seed, args.seconds)
    run.record_digest = args.record_digest
    try:
        stamp = _stamp(run)
        if args.trace:
            values = workloads.run_traced(run)
        else:
            values = workloads.run_e2e(run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workloads.cleanup(run)

    if args.trace:
        units = metrics.PER_LAYER
        shown = units
    else:
        units = {name: unit for name, (unit, _) in metrics.END_TO_END.items()}
        shown = {**units, **{name: unit for name, (unit, _)
                             in metrics.SERVE_END_TO_END.items()}}
    error_rate = run.failed / run.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"stamp: {json.dumps(stamp, sort_keys=True)}")
    _print_metrics(values, shown)
    print(f"  {metrics.ERROR_RATE[0]}  {error_rate:.6g} "
          f"{metrics.ERROR_RATE[1]} ({run.failed} failed of "
          f"{run.attempted} cells, requests, invocations and checks)")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out is not None:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds,
                "stamp": stamp, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
