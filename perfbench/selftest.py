"""Self-tests of the benchmark's own code.

Run from the repository root (kept out of the program's test suite,
which must not depend on the benchmark)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers, metrics, records, stats, workloads  # noqa: E402
from perfbench.client import closed_loop  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pct", [50, 90, 95, 99, 99.9])
def test_percentile_keeps_ten_samples_beyond(pct):
    for n in range(1, 3000, 37):
        samples = list(range(n))
        if stats.beyond(n, pct) < stats.MIN_BEYOND:
            with pytest.raises(ValueError):
                stats.percentile(samples, pct)
            continue
        value = stats.percentile(samples, pct)
        assert sum(s > value for s in samples) >= stats.MIN_BEYOND


def test_p99_needs_exactly_a_thousand_samples():
    assert stats.samples_for(99) == 1000
    assert stats.percentile(range(1000), 99) == 989
    with pytest.raises(ValueError):
        stats.percentile(range(999), 99)


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, med, q3 = stats.quartiles(values)
    assert (q1, med, q3) == tuple(__import__("statistics").quantiles(
        values, n=4))
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _bindings() -> dict:
    """Every binding a wrapper may replace, by identity."""
    found = {}
    for _, module, path, _ in layers.TIMED:
        owner, name = layers._resolve(module, path)
        raw = vars(owner).get(name, layers._MISSING)
        found[(id(owner), name)] = raw
        target = getattr(raw, "__func__", raw)
        for module_name, mod in list(sys.modules.items()):
            if mod is not None and module_name.startswith("repro"):
                for attribute, value in vars(mod).items():
                    if value is target:
                        found[(id(mod), attribute)] = value
    return found


def _tiny_grid():
    from repro.api import SweepSpec

    return SweepSpec(
        datasets=["german"], approaches=[None, "Hardt-eo"],
        models=["knn"], errors=["missing"], imputers=["knn"],
        seeds=[0], rows=[300], causal_samples=200, audit="counterfactual",
        audit_params={"n_particles": 10, "max_rows": 20},
    ).to_grid().expand()


def _records(tmp_path: Path, tag: str) -> list[dict]:
    from repro.engine import ResultCache, run_sweep
    from repro.engine.report import outcome_records

    report = run_sweep(_tiny_grid(), cache=ResultCache(tmp_path / tag))
    assert not report.failures
    return outcome_records(report.outcomes)


def test_wrappers_restore_every_binding_and_leave_records_equal(tmp_path):
    from repro import obs
    from repro.metrics import pairwise
    from repro.registry import DATASETS

    before = _bindings()
    untraced = _records(tmp_path, "untraced")
    with layers.Wrapped():
        assert pairwise.topk is not before[(id(pairwise), "topk")]
        assert "build" in vars(DATASETS)
        with obs.recording() as rec:
            traced = _records(tmp_path, "traced")
    assert _bindings() == before
    assert "build" not in vars(DATASETS)
    assert records.canonical(traced) == records.canonical(untraced)
    for metric in ("datasets.build_s", "errors.inject_s", "errors.impute_s",
                   "pipeline.fit_s", "metrics.pairwise.topk_s",
                   "pipeline.audit_s", "engine.cache.put_s"):
        assert layers.calls(rec.counters, metric) > 0, metric
        assert layers.layer_times(rec.counters)[metric] > 0, metric


def test_wrapper_counts_only_the_outermost_call(tmp_path):
    from repro import obs

    def inner():
        return 1

    outer = layers.timed("x_s", lambda: layers.timed("x_s", inner)() + 1)
    with obs.recording() as rec:
        assert outer() == 2
    assert layers.calls(rec.counters, "x_s") == 1


# ----------------------------------------------------------------------
# Records digest
# ----------------------------------------------------------------------
ROWS = [{"approach": "Hardt-eo", "accuracy": 0.71, "precision": float("nan"),
         "fit_seconds": 0.12},
        {"approach": None, "accuracy": 0.69, "precision": 0.5,
         "fit_seconds": 0.03}]


def test_digest_ignores_timings_and_order():
    shuffled = [dict(ROWS[1], fit_seconds=9.0), dict(ROWS[0])]
    assert records.canonical(shuffled) == records.canonical(ROWS)
    assert records.digest(shuffled) == records.digest(ROWS)


def test_digest_catches_a_perturbed_record():
    perturbed = [dict(ROWS[0], accuracy=0.71 + 1e-6), ROWS[1]]
    assert records.canonical(perturbed) != records.canonical(ROWS)
    assert records.digest(perturbed) != records.digest(ROWS)
    missing = ROWS[:1]
    assert records.digest(missing) != records.digest(ROWS)


def test_run_flags_a_digest_mismatch(tmp_path):
    run = workloads.Run(workloads.WORKLOADS["audit-sweep"],
                        workloads.DEFAULT_SEED, 1.0, tmp_path)
    run.check_digest(ROWS)
    assert run.failed == 1 and run.problems


# ----------------------------------------------------------------------
# Closed-loop client
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        body = self.rfile.read(int(self.headers["Content-Length"]))
        status = 500 if body == b"bad" else 200
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[:2]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_closed_loop_counts_non_200_replies_as_failed(server, tmp_path):
    bodies = [b"ok", b"bad", b"ok", b"bad", b"bad", b"ok"]
    loop = closed_loop(server, "/", bodies, connections=2, timeout=10)
    assert [reply.status for reply in loop.replies] == \
        [200, 500, 200, 500, 500, 200]
    assert loop.failed == 3
    assert [reply.body for reply in loop.replies] == bodies

    run = workloads.Run(workloads.WORKLOADS["serve-audit"], 1, 1.0,
                        tmp_path)
    expected = [[json.loads("{}")] * 3]
    loops = {"one_row": loop.replies[:3], "batch": loop.replies[3:4]}
    workloads.check_verdicts(run, loops, expected)
    assert run.failed >= 2


def test_closed_loop_counts_a_dead_server_as_failed():
    probe = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    address = probe.server_address[:2]
    probe.server_close()
    loop = closed_loop(address, "/", [b"ok", b"ok"], connections=1,
                       timeout=5)
    assert loop.failed == 2
    assert {reply.status for reply in loop.replies} == {0}


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in benchmark["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == \
        metrics.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in benchmark["workloads"])
    for workload in benchmark["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why


# ----------------------------------------------------------------------
# Comparing result files
# ----------------------------------------------------------------------
def test_verdicts_follow_the_better_direction_and_the_spread():
    from perfbench.compare import verdict

    base = [1.0, 1.02, 0.98, 1.01, 0.99]
    assert verdict(base, [0.7, 0.72, 0.69], "lower", 0.1) == "better"
    assert verdict(base, [0.7, 0.72, 0.69], "higher", 0.1) == "worse"
    assert verdict(base, [1.01, 0.99, 1.0], "lower", 0.1) == "unchanged"
    noisy = [0.5, 1.5, 1.0, 0.6, 1.4]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert verdict([3.0, 3.0], [3.0, 3.0], None, 0.1) == "same"
    assert verdict([3.0, 3.0], [3.0, 4.0], None, 0.1) == "differs"


def test_compare_refuses_results_with_different_stamps(tmp_path, capsys):
    from perfbench import compare

    result = {"workload": "audit-sweep", "seed": 0, "trace": 0,
              "stamp": {"cpu_count": 2, "OPENBLAS_NUM_THREADS": None},
              "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    other = dict(result, stamp={"cpu_count": 2, "OPENBLAS_NUM_THREADS": "1"})
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(result) + "\n")
    new.write_text(json.dumps(other) + "\n")
    assert compare.main([str(base), str(new)]) == 2
    assert "OPENBLAS_NUM_THREADS" in capsys.readouterr().err
    new.write_text(json.dumps(result) + "\n")
    assert compare.main([str(base), str(new)]) == 0
