"""In-process timing of the program's layers, from outside the program.

:class:`Wrapped` replaces each public function named in :data:`TIMED`
with a wrapper that times its calls and reports them as ``repro.obs``
counters (``perfbench.<metric>`` seconds and ``perfbench.<metric>.calls``).
Counters are the channel the program already merges across a sweep:
a traced sweep ships every cell's counters back from its worker
process, so wrappers installed before the pool forks are measured in
the workers too.  Every binding of a wrapped function is replaced — a
``from module import name`` copy in another ``repro`` module included —
and all of them are restored on exit, so the program runs unchanged
afterwards.

Times are inclusive: ``pipeline.audit_s`` contains the
``metrics.causal_notions.*`` calls made inside the audit.  A metric
that names several functions (``topk`` + ``topk_dense``) counts only
the outermost call on a thread, so nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PREFIX = "perfbench."

#: (metric, module, attribute path, times the returned callable)
TIMED = (
    ("datasets.build_s", "repro.registry", "DATASETS.build", False),
    ("errors.inject_s", "repro.registry", "ERRORS.build", True),
    ("errors.impute_s", "repro.registry", "IMPUTERS.build", True),
    ("pipeline.fit_s", "repro.pipeline.experiment", "FairPipeline.fit",
     False),
    ("pipeline.evaluate_s", "repro.pipeline.experiment",
     "evaluate_pipeline", False),
    ("metrics.fairness.causal_effects_s", "repro.metrics.fairness",
     "causal_effects_of_predictions", False),
    ("metrics.pairwise.topk_s", "repro.metrics.pairwise", "topk", False),
    ("metrics.pairwise.topk_s", "repro.metrics.pairwise", "topk_dense",
     False),
    ("pipeline.audit_s", "repro.pipeline.counterfactual_eval",
     "evaluate_counterfactual", False),
    ("causal.scm_fit_s", "repro.causal.counterfactual",
     "CounterfactualSCM.fit", False),
    ("metrics.individual.cf_fairness_s", "repro.metrics.individual",
     "counterfactual_fairness", False),
    ("metrics.causal_notions.ctf_effects_s", "repro.metrics.causal_notions",
     "ctf_effects", False),
    ("metrics.causal_notions.error_rates_s",
     "repro.metrics.causal_notions", "counterfactual_error_rates", False),
    ("engine.cache.get_s", "repro.engine.cache", "ResultCache.get", False),
    ("engine.cache.put_s", "repro.engine.cache", "ResultCache.put", False),
    ("engine.cache.outcomes_s", "repro.engine.cache",
     "ResultCache.outcomes", False),
    ("engine.report.render_s", "repro.engine.cache", "ResultCache.pivot",
     False),
    ("engine.report.render_s", "repro.engine.report", "grid_table", False),
    ("engine.report.render_s", "repro.engine.report",
     "format_pivot_table", False),
    ("engine.report.render_s", "repro.engine.report", "export_json",
     False),
    ("artifacts.pack_s", "repro.artifacts.pack", "pack_from_cache", False),
    ("artifacts.load_s", "repro.serve.service", "AuditService.from_bundle",
     False),
)

#: Every timed metric, in table order, without repeats.
METRICS = tuple(dict.fromkeys(metric for metric, *_ in TIMED))

_MISSING = object()
_open = threading.local()


def timed(metric: str, fn):
    """``fn`` with its outermost calls per thread added to ``metric``."""
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        active = _open.__dict__.setdefault("metrics", set())
        if metric in active:
            return fn(*args, **kwargs)
        active.add(metric)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            active.discard(metric)
            obs.add(PREFIX + metric, time.perf_counter() - start)
            obs.add(PREFIX + metric + ".calls")

    return wrapper


def _timing_result(metric: str, factory):
    """``factory`` whose returned callables are timed under ``metric``
    (registry ``build`` hands back the injector / imputer that does
    the work)."""
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return timed(metric, factory(*args, **kwargs))

    return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Wrapped:
    """Context manager installing every :data:`TIMED` wrapper."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def __enter__(self) -> "Wrapped":
        try:
            for metric, module, path, result in TIMED:
                owner, name = _resolve(module, path)
                raw = vars(owner).get(name, _MISSING)
                if isinstance(raw, (classmethod, staticmethod)):
                    target = raw.__func__
                elif raw is _MISSING:  # a method seen through an instance
                    target = getattr(owner, name)
                else:
                    target = raw
                wrapper = (_timing_result if result else timed)(metric,
                                                                 target)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(wrapper)
                self._set(owner, name, wrapper)
                if isinstance(owner, type(sys)):
                    self._rebind(target, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _rebind(self, original, wrapper) -> None:
        """Replace ``from module import name`` copies in ``repro``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)

    def __exit__(self, *exc) -> None:
        self.restore()


def preload() -> None:
    """Import every module :data:`TIMED` names, so a run with wrappers
    and one without start from the same loaded program."""
    for _, module, _, _ in TIMED:
        importlib.import_module(module)


def layer_times(counters: dict) -> dict[str, float]:
    """Seconds per :data:`METRICS` entry from merged obs counters."""
    return {metric: float(counters.get(PREFIX + metric, 0.0))
            for metric in METRICS}


def calls(counters: dict, metric: str) -> int:
    return int(counters.get(PREFIX + metric + ".calls", 0))
