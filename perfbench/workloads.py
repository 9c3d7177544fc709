"""The three workloads and how a run measures them.

Each workload runs the program the way a user does — ``python -m repro
sweep`` cold, the same sweep again warm, ``repro report`` over the
store, and for ``serve-audit`` also ``repro pack`` and ``repro serve``
under a closed loop of HTTP callers — and checks every output it gets.
The workload seed picks the job seeds and the request rows, nothing
else.

With ``trace`` set, a run measures the layers instead.  It runs the
grid twice through ``repro.cli.main`` in this process, with the same
modules loaded both times: first bare (its progress lines, the cells'
own outcome records, give ``engine.executor.*``), then with
:class:`~perfbench.layers.Wrapped` installed and the program's own
``--trace`` on.  The tracing overhead is the traced wall minus the bare
wall.  Fresh-process import times come from separate probes, and
``serve-audit`` adds pack/load timings, the service's in-process
latencies and the HTTP loops against a traced server.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import layers, metrics, proc, records
from .client import closed_loop, wait_healthy
from .stats import median, percentile

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0

#: Warm re-runs (each followed by a report) per sweep run: at least
#: MIN, more while the run's ``--seconds`` last, never more than MAX.
MIN_REPEATS, MAX_REPEATS = 2, 8
#: Set-ups (pack + spawn until the first 200) timed per serve run.
SETUP_REPEATS = 3
#: One-row requests: unmeasured warm-up, then enough that p99 keeps
#: ten samples beyond it.
WARMUP_REQUESTS, ONE_ROW_REQUESTS = 24, 1000
ONE_ROW_CONNECTIONS = 2
BATCH_ROWS = 64
#: Seconds any single child may take before it is killed.
CHILD_TIMEOUT = 150.0

#: The audit grid: 15 of the 24 approaches, stage mix kept (5 pre-,
#: 6 in-, 4 post-processing), so a cold sweep fits one run.
APPROACHES = [
    "KamCal-dp", "Feld-dp", "Calmon-dp", "ZhaWu-dce", "Salimi-jf-maxsat",
    "Zafar-dp-fair", "ZhaLe-eo", "Kearns-pe", "Celis-pp", "Agarwal-eo",
    "Kamishima-pr",
    "KamKar-dp", "Hardt-eo", "Pleiss-eop", "OmniFair-dp"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: SweepSpec ``sweep`` fields except ``seeds``.
    grid: dict
    jobs: int
    store: str  # "file" or "sqlite"
    pivot: tuple
    serve: bool = False

    def config(self, seed: int) -> dict:
        engine = {"jobs": self.jobs}
        if self.serve:
            engine["pack_artifacts"] = True
        return {"sweep": {**self.grid, "seeds": [seed]}, "engine": engine}

    def store_uri(self, directory: Path, tag: str) -> str:
        if self.store == "sqlite":
            return f"sqlite:{directory / (tag + '.db')}"
        return f"file:{directory / tag}"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="audit-sweep",
        why="Rung-3 audit of german n=1000 x 15 approaches + LR: stresses "
            "causal_notions, individual, causal, pipeline.audit; bypasses "
            "pairwise, errors/imputers, the pool and serve.",
        grid={"datasets": ["german"], "approaches": [None, *APPROACHES],
              "models": ["lr"], "rows": [1000], "causal_samples": 1000,
              "audit": "counterfactual"},
        jobs=1, store="file", pivot=("approach", "model", "cf_mean_gap")),
    Workload(
        name="robustness-sweep",
        why="Figure 9/10 path, adult x t2/t4/missing+knn x lr/knn, sqlite: "
            "stresses errors, imputers, pairwise, fit, BLAS threads and the "
            "SQL store; bypasses the audit and serve.",
        grid={"datasets": ["adult"],
              "approaches": [None, "KamCal-dp", "Kamishima-pr", "Hardt-eo"],
              "models": ["lr", "knn"], "errors": ["t2", "t4", "missing"],
              "imputers": ["knn"], "rows": [2000], "causal_samples": 1000},
        # One job: on a 2-core machine two workers x OpenBLAS's own
        # threads oversubscribe the cores, and the same cold sweep took
        # 10.9 or 14-15 s at random, wider than any bound could allow.
        jobs=1, store="sqlite", pivot=("approach", "error", "accuracy")),
    Workload(
        name="serve-audit",
        why="Pack german n=2000 Hardt-eo lr, serve it, 2 callers one-row "
            "then 1 caller 64-row batches over HTTP: stresses serve, "
            "artifacts and HTTP; sweeps only 2 cells.",
        grid={"datasets": ["german"], "approaches": [None, "Hardt-eo"],
              "models": ["lr"], "rows": [2000], "causal_samples": 300,
              "audit": "counterfactual",
              "audit_params": {"n_particles": 25}},
        jobs=1, store="file", pivot=("approach", "model", "accuracy"),
        serve=True),
)}

GRID_LINE = re.compile(r"^grid of (\d+) cells")
SUMMARY = re.compile(r"^sweep finished: (\d+) cells, (\d+) computed, "
                     r"(\d+) cached(.*)$", re.M)
PROGRESS = re.compile(r"^\[\d+/\d+\] .* — (?:(\d+(?:\.\d+)?)s|cached|FAILED)",
                      re.M)
IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                "import repro.cli; print(time.perf_counter() - start)")
IMPORT_PROBES = 3


@dataclass
class SweepRun:
    child: proc.Child
    computed: int
    tables: str

    @property
    def setup(self) -> float:
        return self.child.ready


@dataclass
class Run:
    """One benchmark run: its inputs, its checks and what it measured."""

    workload: Workload
    seed: int
    seconds: float
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    record_digest: bool = False

    def __post_init__(self):
        self.env = proc.child_env(ROOT)

    # -- bookkeeping ---------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what} failed")

    # -- children ------------------------------------------------------
    def python(self, *args: str) -> proc.Child:
        """A helper child (probe, warm-up); not part of the workload."""
        child = proc.run(proc.python(*args), env=self.env, cwd=self.work,
                         timeout=CHILD_TIMEOUT)
        if child.returncode != 0:
            raise RuntimeError(f"{' '.join(args)} failed:\n"
                               f"{child.stderr[-2000:]}")
        return child

    def repro(self, *args: str, ready=None) -> proc.Child:
        child = proc.run(proc.python("-m", "repro", *args), env=self.env,
                         cwd=self.work, timeout=CHILD_TIMEOUT, ready=ready)
        self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
        self.check(child.returncode == 0,
                   f"repro {args[0]} exited {child.returncode}: "
                   f"{child.stderr[-1500:]}")
        return child

    def write_config(self) -> str:
        path = self.work / "sweep.json"
        path.write_text(json.dumps(self.workload.config(self.seed)))
        return str(path)

    # -- sweep steps ---------------------------------------------------
    def sweep(self, config: str, store: str, *, warm: bool) -> SweepRun:
        child = self.repro("sweep", "--config", config, "--store", store,
                           ready=lambda line: bool(GRID_LINE.match(line)))
        if child.ready is None:
            raise RuntimeError(f"sweep printed no grid line:\n"
                               f"{child.stdout[-1500:]}\n"
                               f"{child.stderr[-1500:]}")
        _, computed = self.sweep_summary(child.stdout, warm=warm)
        lines = child.stdout.splitlines()
        tables = "\n".join(line for line in lines[1:]
                           if not line.startswith("sweep finished"))
        return SweepRun(child, computed, tables)

    def sweep_summary(self, output: str, *, warm: bool) -> tuple[int, int]:
        """Count a sweep's cells from its summary line; a cold sweep
        must compute every cell and a warm one reuse every cell."""
        summary = SUMMARY.search(output)
        if summary is None:
            raise RuntimeError(f"sweep printed no summary:\n"
                               f"{output[-1500:]}")
        cells, computed, cached = map(int, summary.groups()[:3])
        failed = re.search(r"(\d+) FAILED", summary.group(4))
        self.count(cells, int(failed.group(1)) if failed else 0,
                   "sweep cells")
        self.check((computed, cached) == ((0, cells) if warm
                                          else (cells, 0)),
                   f"{'warm' if warm else 'cold'} sweep computed "
                   f"{computed} and reused {cached} of {cells} cells")
        return cells, computed

    def report(self, store: str) -> tuple[float, list]:
        out = self.work / "report.json"
        out.unlink(missing_ok=True)
        child = self.repro("report", "--store", store,
                           "--pivot", *self.workload.pivot,
                           "--export-json", str(out))
        rows = records.load_export(out) if out.exists() else []
        self.check(bool(rows), "report exported no records")
        return child.wall, rows

    def same_records(self, rows: list, reference: list, what: str) -> None:
        self.check(records.canonical(rows) == records.canonical(reference),
                   f"{what} records differ from the cold sweep's")

    def check_digest(self, rows: list) -> None:
        if self.seed != DEFAULT_SEED:
            return
        got = records.digest(rows)
        if self.record_digest:
            records.store_digest(self.workload.name, got)
        stored = records.stored_digest(self.workload.name)
        self.check(stored == got,
                   f"default-seed records digest {got[:16]} differs from "
                   f"the stored {str(stored)[:16]}")

    # -- in-process program ---------------------------------------------
    def import_program(self):
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import repro
        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported repro from {repro.__file__}, "
                               f"not from {src}")
        import repro.cli
        return repro

    def in_process(self, *argv: str, trace: Path | None = None
                   ) -> tuple[float, dict, str]:
        """``repro <argv>`` in this process under an obs recording;
        returns its wall, every counter it produced (the program's own
        ``--trace`` counters included when ``trace`` is given) and what
        it printed."""
        from repro import obs
        from repro.cli import main

        argv = [*argv, *(["--trace", str(trace)] if trace else [])]
        sink = io.StringIO()
        with obs.recording() as rec, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = main(argv)
            wall = time.perf_counter() - start
        self.check(code == 0, f"in-process repro {argv[0]} exited {code}: "
                              f"{sink.getvalue()[-1500:]}")
        counters = dict(rec.counters)
        if trace is not None:
            for name, value in obs.merged_counters(
                    obs.load_trace(trace)).items():
                counters[name] = counters.get(name, 0) + value
        return wall, counters, sink.getvalue()


def _merge(*counter_sets: dict) -> dict:
    merged: dict = {}
    for counters in counter_sets:
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + value
    return merged


# ----------------------------------------------------------------------
# End-to-end runs
# ----------------------------------------------------------------------
def sweep_phase(run: Run, store: str, budget: float,
                min_repeats: int = MIN_REPEATS) -> dict:
    """Cold sweep and its report, then warm re-run + report pairs: at
    least ``min_repeats``, more while ``budget`` seconds last.
    Returns the end-to-end sweep metrics plus the set-up samples."""
    config = run.write_config()
    started = time.perf_counter()
    cold = run.sweep(config, store, warm=False)
    report_wall, reference = run.report(store)
    run.check_digest(reference)
    setups, resumes, reports = [cold.setup], [], [report_wall]
    while len(resumes) < MAX_REPEATS and (
            len(resumes) < min_repeats
            or time.perf_counter() - started < budget):
        warm = run.sweep(config, store, warm=True)
        run.check(warm.tables == cold.tables,
                  "warm sweep printed other tables than the cold one")
        setups.append(warm.setup)
        resumes.append(warm.child.wall)
        report_wall, rows = run.report(store)
        run.same_records(rows, reference, "report")
        reports.append(report_wall)
    return {"setups": setups,
            "cells_per_s": cold.computed / cold.child.wall,
            "resume_s": median(resumes),
            "report_s": median(reports)}


def run_sweep_e2e(run: Run) -> dict:
    values = sweep_phase(run, run.workload.store_uri(run.work, "store"),
                         run.seconds)
    values["setup_s"] = median(values.pop("setups"))
    return values


def request_rows(service, seed: int, count: int) -> list[dict]:
    """``count`` request rows drawn from the served dataset's own
    generator under a seed apart from the training draw's."""
    from repro.registry import DATASETS

    dataset = DATASETS.build("german", n=count, seed=10_000 + seed)
    table = dataset.table
    return [{name: float(table[name][i]) for name in service.required}
            for i in range(count)]


def _serve(run: Run, bundle: Path, trace: Path | None = None):
    argv = ["serve", str(bundle), "--port", "0"]
    if trace is not None:
        argv += ["--trace", str(trace)]
    server = proc.spawn(proc.python("-m", "repro", *argv), env=run.env,
                        cwd=run.work, timeout=CHILD_TIMEOUT)
    match = re.search(r"http://([^/:]+):(\d+)/", server.first_line)
    if match is None:
        server.stop()
        raise RuntimeError(f"serve printed no address: {server.first_line}")
    address = (match.group(1), int(match.group(2)))
    healthy = wait_healthy(address, time.perf_counter() + 60, server.alive)
    run.check(healthy, "server never answered /healthz with 200")
    return server, address


def _stop(run: Run, server) -> None:
    code, rss = server.stop()
    run.peak_rss_mb = max(run.peak_rss_mb, rss)
    run.check(code == 0, f"repro serve exited {code}")


def _pack(run: Run, store: str, bundle: Path) -> None:
    run.repro("pack", "--store", store, "--where", "approach=Hardt-eo",
              "--out", str(bundle))


def serve_loops(run: Run, address, rows: list[dict]) -> dict:
    """One-row closed loop, then the batch loop; checks nothing yet."""
    one_row = [json.dumps({"row": row}).encode() for row in rows]
    warmup = closed_loop(address, "/audit-one-row",
                         one_row[:WARMUP_REQUESTS], ONE_ROW_CONNECTIONS)
    measured = closed_loop(address, "/audit-one-row",
                           one_row[WARMUP_REQUESTS:], ONE_ROW_CONNECTIONS)
    chunks = [rows[i:i + BATCH_ROWS]
              for i in range(0, len(rows), BATCH_ROWS)]
    batch = [json.dumps({"rows": chunk}).encode() for chunk in chunks]
    batch_warmup = closed_loop(address, "/audit-batch", batch[:1], 1)
    batches = closed_loop(address, "/audit-batch", batch[1:], 1)
    return {"one_row": warmup.replies + measured.replies,
            "batch": batch_warmup.replies + batches.replies,
            "latencies": measured.latencies,
            "req_per_s": len(measured.replies) / measured.wall,
            "batch_rows_per_s":
                sum(len(c) for c in chunks[1:]) / batches.wall}


def check_verdicts(run: Run, loops: dict, expected: list[list[dict]]
                   ) -> None:
    """HTTP bodies must be byte-equal to the in-process verdicts."""
    flat = [verdict for chunk in expected for verdict in chunk]
    one_row, batch = loops["one_row"], loops["batch"]
    run.count(len(one_row) + len(batch),
              sum(not r.ok for r in one_row) + sum(not r.ok for r in batch),
              "HTTP requests")
    mismatched = sum(reply.body != json.dumps(verdict).encode()
                     for reply, verdict in zip(one_row, flat) if reply.ok)
    mismatched += sum(reply.body != json.dumps({"results": chunk}).encode()
                      for reply, chunk in zip(batch, expected) if reply.ok)
    run.check(mismatched == 0, f"{mismatched} HTTP verdicts differ from "
                               "in-process audit_batch")


def _serve_rows(run: Run, bundle: Path):
    from repro.serve import AuditService

    service = AuditService.from_bundle(bundle)
    rows = request_rows(service, run.seed,
                        WARMUP_REQUESTS + ONE_ROW_REQUESTS)
    return service, json.loads(json.dumps(rows))


def _serve_figures(loops: dict) -> dict:
    latencies_ms = [s * 1e3 for s in loops["latencies"]]
    return {"serve_req_per_s": loops["req_per_s"],
            "serve_p50_ms": median(latencies_ms),
            "serve_p99_ms": percentile(latencies_ms, 99),
            "batch_rows_per_s": loops["batch_rows_per_s"]}


def run_serve_e2e(run: Run) -> dict:
    """The sweep that produces the served cell, then ``repro pack`` +
    ``repro serve`` set-ups and the closed loops against the last one."""
    store = run.workload.store_uri(run.work, "store")
    # One warm re-run: the loops below need the run's time.
    values = sweep_phase(run, store, budget=0.0, min_repeats=1)
    del values["setups"]  # serving's set-up is pack + spawn, below

    run.import_program()
    setups = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        bundle = run.work / f"bundle-{attempt}"
        _pack(run, store, bundle)
        server, address = _serve(run, bundle)
        setups.append(time.perf_counter() - start)
        if attempt + 1 < SETUP_REPEATS:
            _stop(run, server)
    try:
        service, rows = _serve_rows(run, bundle)
        loops = serve_loops(run, address, rows)
    finally:
        _stop(run, server)
    expected = [service.audit_batch(rows[i:i + BATCH_ROWS])
                for i in range(0, len(rows), BATCH_ROWS)]
    check_verdicts(run, loops, expected)
    return {**values, "setup_s": median(setups), **_serve_figures(loops)}


def warm_up(run: Run) -> None:
    """Compile the program's bytecode once per checkout, so no timed
    process pays for it (a no-op when it is up to date)."""
    run.python("-m", "compileall", "-q", str(ROOT / "src"))


def run_e2e(run: Run) -> dict:
    warm_up(run)
    measure = run_serve_e2e if run.workload.serve else run_sweep_e2e
    values = measure(run)
    values["peak_rss_mb"] = run.peak_rss_mb
    return values


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def import_probes(run: Run) -> dict:
    """Fresh-process ``import repro.cli`` time and its scipy share
    (self times of every ``scipy`` module under ``-X importtime``)."""
    walls = [float(run.python("-c", IMPORT_PROBE).stdout.split()[-1])
             for _ in range(IMPORT_PROBES)]
    child = run.python("-X", "importtime", "-c", "import repro.cli")
    scipy_us = 0
    for line in child.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") \
                and parts[2].strip().split(".")[0] == "scipy":
            scipy_us += int(parts[0].split(":")[1])
    return {"cli.import_s": median(walls),
            "cli.import_scipy_s": scipy_us / 1e6}


def expand_seconds(config: str) -> float:
    """Grid expansion plus every cell fingerprint, median of five."""
    from repro.api import SweepSpec

    walls = []
    for _ in range(5):
        start = time.perf_counter()
        jobs = SweepSpec.from_config(config).to_grid().expand()
        for job in jobs:
            job.fingerprint
        walls.append(time.perf_counter() - start)
    return median(walls)


def traced_sweep(run: Run, config: str) -> dict:
    """The grid untraced, then traced, both in this process with the
    same modules loaded; returns the per-layer values."""
    run.import_program()
    layers.preload()
    untraced = run.workload.store_uri(run.work, "untraced")
    traced = run.workload.store_uri(run.work, "traced")
    bare_wall, _, output = run.in_process("sweep", "--config", config,
                                          "--store", untraced)
    run.sweep_summary(output, warm=False)
    cell_seconds = [float(m) for m in PROGRESS.findall(output) if m]
    _, reference = _in_process_records(run, untraced, "untraced")
    run.check_digest(reference)
    with layers.Wrapped():
        wall, cold, output = run.in_process(
            "sweep", "--config", config, "--store", traced,
            trace=run.work / "trace-cold")
        run.sweep_summary(output, warm=False)
        _, warm, output = run.in_process(
            "sweep", "--config", config, "--store", traced,
            trace=run.work / "trace-warm")
        run.sweep_summary(output, warm=True)
        report, rows = _in_process_records(run, traced, "traced")
    counters = _merge(cold, warm, report)
    run.check(0 < len(cell_seconds)
              == layers.calls(counters, "pipeline.evaluate_s"),
              "layer wrappers did not reach every cell")
    run.same_records(rows, reference, "traced")
    return {
        "engine.spec.expand_s": expand_seconds(config),
        **layers.layer_times(counters),
        "engine.executor.cell_s_total": sum(cell_seconds),
        "engine.executor.worker_util":
            sum(cell_seconds) / (bare_wall * run.workload.jobs),
        **{name: float(counters.get(name, 0))
           for name in metrics.COUNTERS},
        "trace.overhead_s": wall - bare_wall,
    }


def _in_process_records(run: Run, store: str, tag: str
                        ) -> tuple[dict, list]:
    """``repro report`` in this process; its counters and records."""
    export = run.work / f"{tag}-report.json"
    _, counters, _ = run.in_process("report", "--store", store,
                                    "--pivot", *run.workload.pivot,
                                    "--export-json", str(export))
    rows = records.load_export(export) if export.exists() else []
    run.check(bool(rows), f"{tag} report exported no records")
    return counters, rows


def run_traced(run: Run) -> dict:
    warm_up(run)
    values = {name: 0.0 for name in metrics.PER_LAYER}
    values.update(import_probes(run))
    values.update(traced_sweep(run, run.write_config()))
    if run.workload.serve:
        values.update(traced_serve(run))
    return values


def traced_serve(run: Run) -> dict:
    from repro import obs
    from repro.serve import AuditService

    store = run.workload.store_uri(run.work, "traced")
    packs, loads = [], []
    with layers.Wrapped():
        for attempt in range(SETUP_REPEATS):
            bundle = run.work / f"bundle-{attempt}"
            _, counters, _ = run.in_process("pack", "--store", store,
                                         "--where", "approach=Hardt-eo",
                                         "--out", str(bundle))
            packs.append(layers.layer_times(counters)["artifacts.pack_s"])
            with obs.recording() as rec:
                service = AuditService.from_bundle(bundle)
            loads.append(layers.layer_times(rec.counters)
                         ["artifacts.load_s"])
    rows = json.loads(json.dumps(request_rows(
        service, run.seed, WARMUP_REQUESTS + ONE_ROW_REQUESTS)))

    trace = run.work / "trace-serve"
    server, address = _serve(run, bundle, trace=trace)
    try:
        loops = serve_loops(run, address, rows)
    finally:
        _stop(run, server)
    counters = obs.merged_counters(obs.load_trace(trace))

    for row in rows[:WARMUP_REQUESTS]:
        service.audit_row(row)
    row_ms = []
    for row in rows[WARMUP_REQUESTS:]:
        start = time.perf_counter()
        service.audit_row(row)
        row_ms.append((time.perf_counter() - start) * 1e3)
    chunks = [rows[i:i + BATCH_ROWS] for i in range(0, len(rows), BATCH_ROWS)]
    expected = [service.audit_batch(chunks[0])]
    start = time.perf_counter()
    expected += [service.audit_batch(chunk) for chunk in chunks[1:]]
    batch_wall = time.perf_counter() - start
    check_verdicts(run, loops, expected)

    http = _serve_figures(loops)
    return {
        "artifacts.pack_s": median(packs),
        "artifacts.load_s": median(loads),
        "serve.service.row_ms": median(row_ms),
        "serve.service.row_p99_ms": percentile(row_ms, 99),
        "serve.service.batch_rows_per_s":
            sum(len(c) for c in chunks[1:]) / batch_wall,
        "serve.http.req_per_s": http["serve_req_per_s"],
        "serve.http.p50_ms": http["serve_p50_ms"],
        "serve.http.p99_ms": http["serve_p99_ms"],
        "serve.http.batch_rows_per_s": http["batch_rows_per_s"],
        "serve.http.overhead_ms":
            http["serve_p50_ms"] - median(row_ms),
        **{name: float(counters.get(name, 0))
           for name in metrics.SERVE_COUNTERS},
    }


def make_run(name: str, seed: int, seconds: float) -> Run:
    work = ROOT / ".perfbench-work" / f"{name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    return Run(WORKLOADS[name], seed, seconds, work)


def cleanup(run: Run) -> None:
    shutil.rmtree(run.work, ignore_errors=True)
    with contextlib.suppress(OSError):
        run.work.parent.rmdir()
