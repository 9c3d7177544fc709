"""Tests for the command-line interface."""

import json

import pytest

import repro.cli as cli
from repro.cli import main
from repro.engine import ResultCache, SweepReport


class TestList:
    def test_lists_datasets_and_stages(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compas" in out
        assert "pre-processing" in out
        assert "KamCal-dp" in out


class TestRun:
    def test_default_run(self, capsys):
        code = main(["run", "--dataset", "compas", "--rows", "600",
                     "--causal-samples", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LR" in out
        assert "KamCal" in out

    def test_explicit_approach(self, capsys):
        code = main(["run", "--dataset", "german", "--rows", "400",
                     "--causal-samples", "500",
                     "--approach", "Hardt-eo"])
        assert code == 0
        assert "Hardt" in capsys.readouterr().out

    def test_unknown_approach_is_error(self, capsys):
        code = main(["run", "--rows", "400", "--approach", "FairGAN"])
        assert code == 2
        assert "unknown approach" in capsys.readouterr().err


class TestModelOption:
    def test_run_with_alternative_model(self, capsys):
        code = main(["run", "--dataset", "german", "--rows", "400",
                     "--causal-samples", "500", "--model", "nb",
                     "--approach", "Hardt-eo"])
        assert code == 0
        assert "Hardt" in capsys.readouterr().out

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--rows", "400", "--model", "transformer"])


class TestSweep:
    def test_sweep_cold_then_warm_cache(self, tmp_path, capsys):
        argv = ["sweep", "--dataset", "german", "--approach", "Hardt-eo",
                "--rows", "400", "--seeds", "2", "--causal-samples",
                "300", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 cells, 4 computed, 0 cached" in out
        assert "german (seed-averaged over 2 seeds)" in out
        assert "Hardt" in out

        assert main(argv) == 0  # warm: every cell is a cache hit
        out = capsys.readouterr().out
        assert "4 cells, 0 computed, 4 cached" in out

    def test_sweep_parallel_matches_serial(self, tmp_path, capsys):
        argv = ["sweep", "--dataset", "german", "--approach",
                "KamCal-dp", "--rows", "400", "--causal-samples", "300",
                "--cache-dir", "none"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical tables (timings appear only in progress lines)
        assert serial.split("\n\n")[1] == parallel.split("\n\n")[1]

    def test_sweep_no_baseline_and_error_grid(self, tmp_path, capsys):
        code = main(["sweep", "--dataset", "german", "--no-baseline",
                     "--approach", "Hardt-eo", "--error", "t1",
                     "--rows", "300", "--causal-samples", "200",
                     "--cache-dir", "none"])
        assert code == 0
        captured = capsys.readouterr()
        assert "2 cells" in captured.out  # clean + t1, no baseline rows
        # per-cell progress (with the error axis in the label) now goes
        # through logging on stderr, not stdout
        assert "error=t1" in captured.err

    def test_sweep_baseline_alias_accepted(self, capsys):
        # --no-baseline plus an explicit alias lets the user position
        # the baseline row themselves.
        code = main(["sweep", "--dataset", "german", "--no-baseline",
                     "--approach", "baseline", "--rows", "300",
                     "--causal-samples", "200", "--cache-dir", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cells" in out and "LR" in out

    def test_sweep_unknown_approach_rejected(self, capsys):
        assert main(["sweep", "--approach", "FairGAN"]) == 2
        assert "unknown approach" in capsys.readouterr().err

    def test_sweep_bad_seeds_rejected(self, capsys):
        assert main(["sweep", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_sweep_bad_jobs_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestAudit:
    def test_audit_baseline_only(self, capsys):
        code = main(["audit", "--dataset", "compas", "--rows", "600",
                     "--causal-samples", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LR" in out
        assert "DI*" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


#: Every `repro sweep` engine or audit flag: (flag, its arguments,
#: the value it must reach `run_sweep` as, the value a config sets
#: instead, a bad value or None, where the value lands in the call).
_SWEEP_FLAGS = [
    ("--jobs", ["2"], 2, 3, "0", lambda jobs, kw: kw["max_workers"]),
    ("--no-resume", [], False, True, None, lambda jobs, kw: kw["resume"]),
    ("--retry", ["3"], 3, 2, "0",
     lambda jobs, kw: kw["policy"].max_attempts),
    ("--timeout", ["60"], 60.0, 30.0, "0",
     lambda jobs, kw: kw["policy"].timeout),
    ("--backoff", ["0.5"], 0.5, 2.0, "-1",
     lambda jobs, kw: kw["policy"].backoff),
    ("--max-failures", ["4"], 4, 1, "-1",
     lambda jobs, kw: kw["policy"].max_failures),
    ("--pack-artifacts", [], True, False, None, lambda jobs, kw: kw["pack"]),
    ("--audit", ["counterfactual"], "counterfactual", None, "quantum",
     lambda jobs, kw: jobs[0].audit),
    ("--chunk-rows", ["16"], 16, 8, "0",
     lambda jobs, kw: jobs[0].chunk_rows),
    ("--block-size", ["64"], 64, 32, "0",
     lambda jobs, kw: jobs[0].block_size),
    ("--threads", ["2"], 2, 3, "0", lambda jobs, kw: jobs[0].threads),
    ("--causal-samples", ["250"], 250, 300, "many",
     lambda jobs, kw: jobs[0].causal_samples),
]
_ENGINE_FIELDS = {"jobs", "resume", "retry", "timeout", "backoff",
                  "max_failures", "pack_artifacts"}


def _sweep_call(monkeypatch, argv):
    """Run `repro sweep` with `run_sweep` stubbed out; return its exit
    code and the (jobs, keyword arguments) it was called with."""
    calls = []

    def fake_run_sweep(jobs, **kwargs):
        calls.append((list(jobs), kwargs))
        return SweepReport(outcomes=[])

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    try:
        code = main(["sweep", *argv])
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    return code, (calls[0] if calls else None)


class TestSweepFlags:
    """Characterisation of how each engine/audit flag reaches the
    engine: validated with the flag named in the error, and applied
    over the defaults or over a config's value."""

    @pytest.mark.parametrize("mode", ["flags", "config"])
    @pytest.mark.parametrize(
        "flag, args, expected, config_value, bad, where", _SWEEP_FLAGS,
        ids=[case[0] for case in _SWEEP_FLAGS])
    def test_flag_reaches_run_sweep(self, tmp_path, monkeypatch, capsys,
                                    mode, flag, args, expected,
                                    config_value, bad, where):
        field = flag.removeprefix("--no-").removeprefix("--")
        field = field.replace("-", "_")
        if mode == "config":
            config = {"sweep": {"datasets": ["german"],
                                "approaches": ["baseline"],
                                "rows": [300]},
                      "engine": {}}
            section = "engine" if field in _ENGINE_FIELDS else "sweep"
            config[section][field] = config_value
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps(config))
            base = ["--config", str(path)]
        else:
            base = ["--dataset", "german", "--approach", "baseline",
                    "--no-baseline", "--rows", "300"]
        base += ["--cache-dir", str(tmp_path / "cache"), "-q"]

        if bad is not None:
            code, call = _sweep_call(monkeypatch, [*base, flag, bad])
            assert code == 2 and call is None
            assert flag in capsys.readouterr().err

        code, call = _sweep_call(monkeypatch, [*base, flag, *args])
        assert code == 0, capsys.readouterr().err
        jobs, kwargs = call
        assert where(jobs, kwargs) == expected
        assert (kwargs["cache"].location
                == ResultCache(tmp_path / "cache").location)

    @pytest.mark.parametrize("flag, store", [
        ("--store", "sqlite:{tmp}/cells.db"), ("--cache-dir", "{tmp}/c")])
    def test_store_overrides_config_cache_dir(self, tmp_path, monkeypatch,
                                              flag, store):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "sweep": {"datasets": ["german"], "approaches": ["baseline"],
                      "rows": [300]},
            "engine": {"cache_dir": str(tmp_path / "from-config")}}))
        store = store.format(tmp=tmp_path)
        code, (_, kwargs) = _sweep_call(
            monkeypatch, ["--config", str(path), flag, store, "-q"])
        assert code == 0
        assert kwargs["cache"].location == ResultCache(store).location

    def test_store_with_cache_dir_is_error(self, tmp_path, monkeypatch,
                                           capsys):
        code, call = _sweep_call(
            monkeypatch, ["--dataset", "german", "--rows", "300",
                          "--store", f"sqlite:{tmp_path / 'c.db'}",
                          "--cache-dir", str(tmp_path / "c")])
        assert code == 2 and call is None
        assert "--store" in capsys.readouterr().err
