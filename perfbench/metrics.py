"""Names and units of everything the benchmark reports.

``END_TO_END`` are what a user of the program sees; every workload
measures every one of them, so each is compared workload by workload.
``SERVE_END_TO_END`` are what a caller of ``repro serve`` sees; only
``serve-audit`` crosses HTTP, so they are printed there and carried
into its traced result as ``serve.http.*`` layer metrics.
``PER_LAYER`` come from the separate traced run; a layer a workload
never calls reads 0.
"""

from __future__ import annotations

from . import layers

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cells_per_s": ("cells/s", "higher"),
    "resume_s": ("s", "lower"),
    "report_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SERVE_END_TO_END = {
    "serve_req_per_s": ("req/s", "higher"),
    "serve_p50_ms": ("ms", "lower"),
    "serve_p99_ms": ("ms", "lower"),
    "batch_rows_per_s": ("rows/s", "higher"),
}

#: Printed with every result; 0 on a correct run, so it is not a
#: compared metric (the result's ``failed`` / ``attempted`` carry it).
ERROR_RATE = ("error_rate", "ratio")

#: Per-layer metric -> unit.  Times of the wrapped public functions
#: come first (see :mod:`perfbench.layers`), then what the program's
#: own ``repro.obs`` counters and outcome records give.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "engine.spec.expand_s": "s",
    **{metric: "s" for metric in layers.METRICS},
    "engine.executor.cell_s_total": "s",
    "engine.executor.worker_util": "ratio",
    "impute.cells": "count",
    "pairwise.blocks": "count",
    "pairwise.candidates": "count",
    "pairwise.threads_used": "count",
    "abduction.rows": "count",
    "abduction.chunks": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_written": "count",
    "serve.service.row_ms": "ms",
    "serve.service.row_p99_ms": "ms",
    "serve.service.batch_rows_per_s": "rows/s",
    "serve.http.req_per_s": "req/s",
    "serve.http.p50_ms": "ms",
    "serve.http.p99_ms": "ms",
    "serve.http.batch_rows_per_s": "rows/s",
    "serve.http.overhead_ms": "ms",
    "serve.requests": "count",
    "serve.rows": "count",
    "serve.errors": "count",
    "trace.overhead_s": "s",
}

#: Program counters copied into the per-layer result by name.
COUNTERS = ("impute.cells", "pairwise.blocks", "pairwise.candidates",
            "pairwise.threads_used", "abduction.rows", "abduction.chunks",
            "cache.hits", "cache.misses", "cache.bytes_written")
SERVE_COUNTERS = ("serve.requests", "serve.rows", "serve.errors")
