"""End-to-end tests of the CLI subcommands and exit codes."""

import contextlib
import csv
import errno
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reweight import cli, optim, verify, workers
from reweight.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    CONFIG_KEYS,
    GEN_DEFAULTS,
    RUN_DEFAULTS,
    SWEEP_DEFAULTS,
    _check_value,
    _load_config,
    _make_problem,
    _make_reweight_config,
    _make_stepsize,
    main,
)
from reweight.core import (
    MODES,
    ConfigError,
    capped_optimal_weights,
    compute_batch_weights,
    normalize_losses,
    temper_weights,
)
from reweight.optim import COLUMNS, cell_bytes
from reweight.oracle import finite_diff_grad
from reweight.problems import (
    NonconvexProblem,
    QuadraticProblem,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)
from test_optim import _reference_run_training


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_lines(path):
    """A CSV the CLI wrote: its line count as `wc -l` reads it, and the
    comma-separated fields of each line."""
    raw = path.read_bytes()
    return raw.count(b"\n"), [line.split(",") for line in raw.decode().splitlines()]


SMALL_RUN = {
    "p": 4,
    "n": 64,
    "m": 16,
    "n_test": 16,
    "batch_size": 8,
    "steps": 20,
}


class TestConfigErrors:
    COMMANDS = ["run", "sweep", "gen-data"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_json_exits_config(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": ')
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config file {str(cfg)!r} is not valid JSON" in err
        assert "at line 1 column 11" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_config_exits_config(self, tmp_path, capsys, command):
        cfg = tmp_path / "missing.json"
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot read config file {str(cfg)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, bound", [
        ("run", "lr", -1, "> 0"),
        ("run", "alpha", 0.0, "> 0"),
        ("run", "r_initial", -0.5, "> 0"),
        ("run", "r_final", 0, "> 0"),
        ("run", "cap", 0.0, "> 0"),
        ("run", "dro_tau", -1.0, "> 0"),
        ("run", "warmup_steps", -1, ">= 0"),
        ("run", "seed", -1, ">= 0"),
        ("run", "data_seed", -3, ">= 0"),
        ("run", "p", 0, ">= 1"),
        ("run", "n", 0, ">= 1"),
        ("run", "m", -1, ">= 0"),
        ("run", "n_test", 0, ">= 1"),
        ("run", "M", 0, ">= 1"),
        ("run", "d", 0, ">= 1"),
        ("run", "cond_max", 0.5, ">= 1"),
        ("sweep", "r_values", [1.0, -1.0], "> 0"),
        ("sweep", "seeds", [0, -2], ">= 0"),
        ("gen-data", "p", 0, ">= 1"),
        ("gen-data", "seed", -1, ">= 0"),
    ])
    def test_out_of_range_value_exits_config(self, tmp_path, capsys, command, key, value,
                                             bound):
        # A sweep stops here, before its output directory or any group exists.
        payload = {key: value} if command == "gen-data" else dict(SMALL_RUN, **{key: value})
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path / "cfg.json", payload),
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"config key {key!r} must be {bound}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_negative_seed_override_exits_config(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert main([command, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert "config key 'seed' must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, key, value", [
        ("run", "lr", float("inf")),
        ("run", "noise_c", float("nan")),
        ("run", "dro_tau", float("-inf")),
        ("sweep", "lr", float("inf")),
        ("sweep", "r_values", [float("inf")]),
        ("sweep", "r_values", [1.0, float("nan")]),
        ("gen-data", "noise_c", float("nan")),
    ])
    def test_non_finite_value_exits_config(self, tmp_path, capsys, command, key, value):
        # json.dumps writes the non-standard constants NaN and Infinity, which
        # json.load reads back: they must stop here, not diverge at step 0.
        payload = {key: value} if command == "gen-data" else dict(SMALL_RUN, **{key: value})
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert re.search(r"NaN|Infinity", Path(cfg).read_text())
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"config key {key!r} must be finite, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", [key for key, kind in CONFIG_KEYS.items() if "number" in kind])
    def test_number_too_large_for_a_float_exits_config(self, tmp_path, capsys, key):
        # json.load reads an integer of any size; a number key's value must
        # fit a finite float, or the run fails on converting it.
        value = [10**400] if key == "r_values" else 10**400
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, **{key: value}))
        out = tmp_path / "out"
        command = "sweep" if key == "r_values" else "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"config key {key!r} must be finite, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_missing_out_directory_exits_config(self, tmp_path, capsys, monkeypatch, command):
        # The path is checked before any problem or dataset is built.
        def unreachable(*args):
            raise AssertionError("built a problem before checking --out")

        monkeypatch.setattr(cli, "_make_problem", unreachable)
        monkeypatch.setattr(cli, "_dataset", unreachable)
        out = tmp_path / "missing_dir" / "x.csv"
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        assert (f"config error: cannot write --out {str(out)!r}: "
                f"no directory {str(out.parent)!r}") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_directory_as_out_exits_config(self, tmp_path, capsys, monkeypatch, command):
        # Rejected before any problem or dataset is built, not by the write
        # after a whole run; the directory is left as it was.
        def unreachable(*args):
            raise AssertionError("built a problem before checking --out")

        monkeypatch.setattr(cli, "_make_problem", unreachable)
        monkeypatch.setattr(cli, "_dataset", unreachable)
        out = tmp_path / "existing"
        out.mkdir()
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        assert (f"config error: cannot write --out {str(out)!r}: it is a directory"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_empty_out_exits_config(self, capsys, monkeypatch, command):
        # An empty path names no file: it is rejected before any problem or
        # dataset is built, not by the write after a whole run.
        def unreachable(*args):
            raise AssertionError("built a problem before checking --out")

        monkeypatch.setattr(cli, "_make_problem", unreachable)
        monkeypatch.setattr(cli, "_dataset", unreachable)
        assert main([command, "--out", ""]) == EXIT_CONFIG
        assert "config error: --out must not be empty" in capsys.readouterr().err

    _REGRESSION_KEYS = "n, m, p, n_test"

    @pytest.mark.parametrize("command, payload, keys", [
        ("run", {"steps": 10**30}, f"{_REGRESSION_KEYS}, steps"),
        ("run", {"n": 10**30}, f"{_REGRESSION_KEYS}, steps"),
        ("run", {"m": 10**30}, f"{_REGRESSION_KEYS}, steps"),
        ("run", {"n_test": 10**30}, f"{_REGRESSION_KEYS}, steps"),
        ("run", {"problem": "quadratic", "M": 10**30}, "M, d, steps"),
        ("run", {"p": 100_000_000}, f"{_REGRESSION_KEYS}, steps"),
        ("run", {"problem": "quadratic", "d": 100_000}, "M, d, steps"),
        ("run", {"problem": "nonconvex", "M": 10**30}, "M, d, steps"),
        ("gen-data", {"p": 100_000_000}, _REGRESSION_KEYS),
        ("sweep", {"steps": 10**30}, f"{_REGRESSION_KEYS}, steps"),
    ])
    def test_size_beyond_physical_memory_exits_config(self, tmp_path, capsys, monkeypatch,
                                                      command, payload, keys):
        # numpy would fail on a dimension this large, or on allocating
        # terabytes, after the run had started: the estimate stops it before
        # any problem, dataset or output directory exists.
        def unreachable(*args):
            raise AssertionError("built a problem before checking its size")

        monkeypatch.setattr(cli, "_make_problem", unreachable)
        monkeypatch.setattr(cli, "_dataset", unreachable)
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path / "cfg.json", payload),
                     "--out", str(out)]) == EXIT_CONFIG
        assert re.fullmatch(rf"config error: config keys {keys} ask for \S+ GiB, more than the "
                            r"\S+ GiB of physical memory\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("defaults", [GEN_DEFAULTS, RUN_DEFAULTS, SWEEP_DEFAULTS])
    def test_every_default_has_a_valid_table_entry(self, defaults):
        for key, value in defaults.items():
            _check_value(key, value)


class TestGenData:
    def test_bad_value_type_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"n": 32.0})
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "'n' must be an integer, got 32.0" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", str(tmp_path / "d.csv"), "--threads", "2"])
        assert exc.value.code == 2

    def test_default_dataset_shape(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--out", str(out)]) == EXIT_OK
        lines = out.read_bytes().decode().split("\r\n")
        header = lines[0].split(",")
        assert len(header) == 66
        assert header[0] == "x_0" and header[-2] == "y" and header[-1] == "is_outlier"
        assert len([ln for ln in lines if ln]) == 4001

    def test_repeat_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"p": 4, "n": 32, "m": 8, "n_test": 8, "seed": 3}
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["gen-data", "--config", cfg, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_no_outliers_flag_column(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"p": 2, "n": 10, "m": 0, "n_test": 2}
        )
        out = tmp_path / "clean.csv"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert all(row[-1] == "0" for row in rows if row)

    def test_writes_sidecar_metadata(self, tmp_path):
        out = tmp_path / "data.csv"
        cfg = write_config(tmp_path / "cfg.json", {"p": 2, "n": 8, "m": 2, "n_test": 2})
        main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "9"])
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert meta["seed"] == 9
        assert meta["p"] == 2


class TestMakeReweightConfig:
    LOSSES = np.random.default_rng(0).exponential(size=32)

    @pytest.mark.parametrize("name", list(MODES))
    def test_strategy_name_is_the_mode(self, name):
        assert _make_reweight_config(dict(RUN_DEFAULTS, strategy=name)).mode == name

    @pytest.mark.parametrize("name", [m for m in MODES if m not in ("capped", "dro_kl")])
    def test_shared_cap_and_dro_tau_are_not_passed_on(self, name):
        rw = _make_reweight_config(dict(RUN_DEFAULTS, strategy=name, cap=0.5, dro_tau=2.0))
        assert rw.mode == name and rw.cap is None and rw.dro_tau is None

    def test_null_cap_is_two_over_batch_size(self):
        cfg = dict(RUN_DEFAULTS, strategy="capped", schedule="constant", r_initial=0.3)
        assert cfg["cap"] is None and cfg["batch_size"] == 32
        w = compute_batch_weights(self.LOSSES, _make_reweight_config(cfg), step=5)
        assert w.tobytes() == \
            capped_optimal_weights(normalize_losses(self.LOSSES), 0.3, 2 / 32).tobytes()

    def test_null_dro_tau_is_r_final(self):
        # The default schedule drops from r_initial = 100 to r_final = 1.
        cfg = dict(RUN_DEFAULTS, strategy="dro_kl")
        assert cfg["dro_tau"] is None and cfg["r_initial"] != cfg["r_final"]
        rw = _make_reweight_config(cfg)
        for step in (0, 500):
            assert compute_batch_weights(self.LOSSES, rw, step).tobytes() == \
                temper_weights(self.LOSSES, cfg["r_final"]).tobytes()

    def test_unknown_strategy_is_named(self):
        # ReweightConfig names the mode and the modes there are.
        with pytest.raises(ConfigError, match="unknown weighting mode 'bogus'; expected one "
                                              "of uniform, linupper, quadratic, extremes, "
                                              "capped, dro_kl$"):
            _make_reweight_config(dict(RUN_DEFAULTS, strategy="bogus"))


class TestRun:
    def test_trajectory_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", SMALL_RUN)
        out = tmp_path / "traj.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        raw = out.read_bytes()
        assert b"\r\n" in raw
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == list(COLUMNS)
        steps = [int(r[0]) for r in rows[1:]]
        assert steps[0] == 0
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert len(steps) == SMALL_RUN["steps"]

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", SMALL_RUN)
        out = tmp_path / "traj.csv"
        main(["run", "--config", cfg, "--out", str(out), "--seed", "42"])
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["strategy"] == "linupper"

    def test_quadratic_strategy_runs_at_a_huge_alpha(self, tmp_path):
        # alpha**2 overflows a float above about 1.34e154; the config takes
        # any finite alpha > 0, so the run must go through.
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, strategy="quadratic",
                                                       alpha=1e200))
        out = tmp_path / "traj.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == SMALL_RUN["steps"]
        assert np.isfinite([float(row["train_loss"]) for row in rows]).all()

    def test_unknown_config_key_exits_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"learning_rate": 0.1})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) \
            == EXIT_CONFIG

    def test_unknown_strategy_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, strategy="bogus"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) \
            == EXIT_CONFIG
        assert "unknown weighting mode 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("steps", "50"),          # integer key given a string
        ("batch_size", 32.5),     # integer key given a float
        ("steps", True),          # integer key given a bool
        ("lr", "0.1"),            # number key given a string
        ("alpha", False),         # number key given a bool
        ("momentum", "no"),       # bool key given a (truthy) string
        ("momentum", 1),          # bool key given an integer
        ("cap", "0.5"),           # number-or-null key given a string
        ("strategy", 3),          # string key given a number
    ])
    def test_bad_value_type_exits_config(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, **{key: value}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, bound", [
        ("steps", -1, 0),
        ("batch_size", 0, 1),
    ])
    def test_out_of_range_value_exits_config(self, tmp_path, capsys, key, value, bound):
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, **{key: value}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"config key {key!r} must be >= {bound}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_sqrt_horizon_zero_steps_names_steps(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           dict(SMALL_RUN, stepsize_rule="sqrt_horizon", steps=0))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert ("stepsize_rule 'sqrt_horizon' needs config key 'steps' >= 1, got 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_steps_divergence_exits_diverged(self, tmp_path, capsys):
        # The step-0 losses overflow: the run diverges before any weighting.
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, steps=0, noise_c=1e300))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        assert capsys.readouterr().out.startswith("diverged at step 0; wrote 0 steps")
        assert out.read_text().splitlines() == [",".join(COLUMNS)]

    def test_huge_final_iterate_warns_nothing(self, tmp_path):
        # The iterate grows huge, yet its losses stay bounded and its update
        # finite, so the run converges; the overflows on the way warn
        # nothing. Run through the `python -m reweight.cli` entry point, with
        # numpy warnings made errors.
        cfg = write_config(tmp_path / "cfg.json", dict(problem="nonconvex", M=16, d=3,
                                                       lr=1e308, batch_size=8, steps=20,
                                                       strategy="dro_kl"))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "reweight.cli", "run", "--config", cfg,
                               "--out", str(tmp_path / "x.csv")],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.startswith("converged; wrote 20 steps")
        # The non-convex problem has no optimal losses, so no delta_t.
        _, rows = read_lines(tmp_path / "x.csv")
        assert rows[0][6] == "delta_t" and not any(row[6] for row in rows[1:])

    def test_infeasible_cap_precedes_step_zero_divergence(self, tmp_path, capsys):
        # The cap fails before step 0, so the overflowing losses are never
        # evaluated: a config error, not a divergence.
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, steps=0, noise_c=1e300,
                                                       strategy="capped", cap=0.01))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: infeasible cap: cap*b = 0.08 < 1\n"
        assert not out.exists()

    def test_capped_logit_overflow_exits_config(self, tmp_path, capsys):
        # alpha / r = 1e310 would overflow the capped solve's logits, and its
        # all-cap weights would sum to b * (2/b) = 2.
        cfg = write_config(tmp_path / "cfg.json",
                           dict(SMALL_RUN, strategy="capped", alpha=1e300, r_initial=1e-10,
                                r_final=1e-10, steps=3))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: mode 'capped' needs alpha / r_initial "
                                           "<= 8.98847e+307, got alpha = 1e+300 and "
                                           "r_initial = 1e-10\n")
        assert not out.exists()

    def test_batch_size_above_n_samples_names_both(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           dict(problem="quadratic", M=16, d=3, batch_size=32, steps=5))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: batch_size 32 is not in [1, 16] "
                                           "(the problem's n_samples)\n")
        assert not out.exists()

    def test_zero_steps_records_initial_evaluation(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dict(SMALL_RUN, steps=0))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 2 and rows[1][0] == "0"

    def test_config_not_an_object_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [1, 2])
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_number_keys_accept_integers(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           dict(SMALL_RUN, lr=1, alpha=1, cap=1, momentum=True))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_OK

    def test_convex_theory_observed_w_max_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "problem": "quadratic", "strategy": "linupper", "schedule": "constant",
            "r_initial": 0.01, "r_final": 0.01, "stepsize_rule": "convex_theory",
            "batch_size": 8, "steps": 20,
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(r"step \d+: observed w_max = [0-9.e-]+ exceeds 2/b = 0\.25", err)

    def test_high_temperature_matches_uniform_losses(self, tmp_path):
        def losses_for(payload, name):
            cfg = write_config(tmp_path / f"{name}.json", payload)
            out = tmp_path / f"{name}.csv"
            assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
            rows = list(csv.reader(out.read_text().splitlines()))[1:]
            return np.array([float(r[1]) for r in rows])

        base = dict(SMALL_RUN, schedule="constant", r_initial=1e6, r_final=1e6)
        hot = losses_for(dict(base, strategy="linupper"), "hot")
        uni = losses_for(dict(base, strategy="uniform"), "uni")
        assert np.abs(hot - uni).max() <= 1e-6


def check_toy_regression(out, stdout):
    lines, rows = read_lines(out)
    assert lines == 2001
    # delta_t is exact on the regression problem, so every step has one.
    assert rows[0][6] == "delta_t" and all(row[6] for row in rows[1:])


def check_quadratic_theory(out, stdout):
    lines, rows = read_lines(out)
    assert lines == 501
    # Under the 1/(8L) step size the observed w_max stays within 2/b.
    w_max = rows[0].index("w_max")
    assert max(float(row[w_max]) for row in rows[1:]) <= 2.0 / 64 + 1e-12


def check_dro_kl(out, stdout):
    # At the lr the other strategies share, dro_kl stops where it diverges,
    # with delta_t on every step up to there.
    lines, rows = read_lines(out)
    assert lines == 41
    assert stdout.startswith("diverged at step 40;")
    assert rows[0][6] == "delta_t" and all(row[6] for row in rows[1:])
    # The r column is the temperature the weights used: dro_kl's dro_tau,
    # not the schedule it ignores.
    assert rows[0][3] == "r" and all(row[3] == "1.0" for row in rows[1:])


def check_sweep_toy(out, stdout):
    # Exit 0 alone would pass a sweep whose every cell diverged.
    lines, summary = read_lines(out / "summary.csv")
    assert lines - 1 == 20
    assert all(row[-1] == "ok" for row in summary[1:])
    # A cell cut short inside its lockstep group would still read ok.
    cells = sorted(out.glob("*_seed*.csv"))
    assert len(cells) == 20
    assert [read_lines(path)[0] for path in cells] == [2001] * 20
    # uniform is the softmax of a constant score: exactly 1/b = 1/32 per
    # sample, so its weights' spread and delta_t are exactly zero.
    uniform = sorted(out.glob("uniform_*.csv"))
    assert len(uniform) == 5
    for path in uniform:
        _, rows = read_lines(path)
        assert rows[0][4:7] == ["w_max", "w_min", "delta_t"]
        assert all(row[4:7] == ["0.03125", "0.03125", "0.0"] for row in rows[1:])


# The command each shipped config runs as, the exit code it must give and
# the checks of what it writes. A config not named here runs as `run` and
# must exit 0.
SHIPPED = {
    "toy_regression": ("run", EXIT_OK, check_toy_regression),
    "quadratic_theory": ("run", EXIT_OK, check_quadratic_theory),
    "dro_kl": ("run", EXIT_DIVERGED, check_dro_kl),  # diverges by design
    "sweep_toy": ("sweep", EXIT_OK, check_sweep_toy),
}


@pytest.mark.parametrize("config", sorted((Path(__file__).resolve().parents[1] / "configs")
                                          .glob("*.json")), ids=lambda path: path.stem)
def test_shipped_config(tmp_path, capsys, config):
    command, code, check = SHIPPED.get(config.stem, ("run", EXIT_OK, None))
    out = tmp_path / config.stem
    assert main([command, "--config", str(config), "--out", str(out)]) == code
    if check is not None:
        check(out, capsys.readouterr().out)


class TestSweep:
    def test_single_cell_matches_run(self, tmp_path):
        sweep_cfg = write_config(
            tmp_path / "sweep.json",
            dict(SMALL_RUN, strategies=["linupper"], r_values=[1.0], seeds=[0]),
        )
        sweep_dir = tmp_path / "sweep_out"
        assert main(["sweep", "--config", sweep_cfg, "--out", str(sweep_dir)]) == EXIT_OK

        run_cfg = write_config(
            tmp_path / "run.json",
            dict(
                SMALL_RUN,
                strategy="linupper",
                schedule="constant",
                r_initial=1.0,
                r_final=1.0,
                seed=0,
            ),
        )
        run_out = tmp_path / "run.csv"
        assert main(["run", "--config", run_cfg, "--out", str(run_out)]) == EXIT_OK
        cell = sweep_dir / "linupper_r1.0_seed0.csv"
        assert cell.read_bytes() == run_out.read_bytes()

    MIXED_SWEEPS = {
        # dro_kl diverges mid-run at this lr, and cap = 0.001 is infeasible.
        "regression": dict(p=64, n=200, m=50, n_test=16, lr=1e-2, cap=0.001,
                           r_values=[1.0, 0.5], seeds=[0, 1]),
        "quadratic": dict(problem="quadratic", M=32, d=6, momentum=True,
                          r_values=[1.0, 0.1], seeds=[3]),
        # an integer r keeps its type: r2 cells write r = 2, like `run`
        "nonconvex": dict(problem="nonconvex", M=48, d=5, lr=0.05,
                          r_values=[2, 0.5, 1.0], seeds=[0, 2]),
    }

    # (problem, budget, n_workers, block): n_workers None leaves the CPU count
    # as it is, and block None leaves optim.BLOCK as it is.
    MIXED_CASES = [pytest.param(problem, budget, n_workers, None, id=f"{problem}-{budget}"
                                + (f"-{n_workers}" if n_workers else ""))
                   for problem in sorted(MIXED_SWEEPS) for budget in (None, 1, "3cells")
                   for n_workers in (None, 1, 2, 3, 99)]
    MIXED_CASES += [pytest.param("regression", None, None, block,
                                 id=f"regression-None-block{block}") for block in (1, 3)]

    @staticmethod
    def cell_payload(payload, strategy, r, seed):
        """The `run` config of one sweep cell."""
        run_payload = {k: v for k, v in payload.items()
                       if k not in ("strategies", "r_values", "seeds")}
        run_payload.update(strategy=strategy, schedule="constant", r_initial=r, r_final=r,
                           seed=seed)
        return run_payload

    @pytest.fixture(scope="class")
    def run_outputs(self, tmp_path_factory):
        """`run`'s exit code, CSV bytes and sidecar bytes for a run config,
        run once per config for the whole class: they depend only on the
        problem and the cell, which the cases share."""
        cache = {}

        def outputs(run_payload):
            key = json.dumps(run_payload, sort_keys=True)
            if key not in cache:
                tmp = tmp_path_factory.mktemp("run")
                out = tmp / "run.csv"
                code = main(["run", "--config", write_config(tmp / "run.json", run_payload),
                             "--out", str(out)])
                cache[key] = (code, *(path.read_bytes() if path.exists() else None
                                      for path in (out, tmp / "run.csv.meta.json")))
            return cache[key]

        return outputs

    @pytest.mark.parametrize("problem, budget, n_workers, block", MIXED_CASES)
    def test_every_cell_matches_run(self, tmp_path, monkeypatch, run_outputs, problem, budget,
                                    n_workers, block):
        # Cells train in lockstep groups, in shares of one worker each, and
        # neither a group's rows nor a share's cells may affect one another:
        # every cell CSV and sidecar equals its own `run` output. A budget of
        # 1 byte runs each cell in a group of its own; one of three cells
        # splits some strategy's cells across two groups. 99 workers are more
        # than any sweep's cells, so each cell trains in a share of its own.
        # A block of 1 or 3 steps flushes the diagnostic columns around the
        # dro_kl cells' divergence. The `run` outputs are made before any
        # setting is patched.
        strategies = ["uniform", "linupper", "quadratic", "extremes", "capped", "dro_kl"]
        payload = dict(SMALL_RUN, steps=60, strategies=strategies, **self.MIXED_SWEEPS[problem])
        for strategy in strategies:
            for r in payload["r_values"]:
                for seed in payload["seeds"]:
                    run_outputs(self.cell_payload(payload, strategy, r, seed))
        sweep_cfg = write_config(tmp_path / "sweep.json", payload)
        if budget == "3cells":
            built = _make_problem(_load_config(sweep_cfg, SWEEP_DEFAULTS))
            budget = 3 * cell_bytes(built, payload["batch_size"], payload["steps"])
        if budget is not None:
            monkeypatch.setattr(optim, "LOCKSTEP_BYTES", budget)
        if n_workers is not None:
            monkeypatch.setattr(workers, "cpus", lambda: n_workers)
        if block is not None:
            monkeypatch.setattr(optim, "BLOCK", block)
        sweep_dir = tmp_path / "sweep"
        code = main(["sweep", "--config", sweep_cfg, "--out", str(sweep_dir)])
        summary = list(csv.DictReader((sweep_dir / "summary.csv").read_text().splitlines()))
        assert len(summary) == len(strategies) * len(payload["r_values"]) * len(payload["seeds"])
        statuses = set()
        for row in summary:
            run_code, run_csv, run_meta = run_outputs(self.cell_payload(
                payload, row["strategy"], json.loads(row["r"]), int(row["seed"])))
            name = f"{row['strategy']}_r{row['r']}_seed{row['seed']}.csv"
            statuses.add(row["status"].split(":")[0])
            if row["status"].startswith("error"):
                assert run_code == EXIT_CONFIG and not (sweep_dir / name).exists()
                continue
            assert run_code == (EXIT_DIVERGED if row["status"] == "diverged" else EXIT_OK)
            assert (sweep_dir / name).read_bytes() == run_csv
            assert (sweep_dir / (name + ".meta.json")).read_bytes() == run_meta
        if problem == "regression":
            assert statuses == {"ok", "diverged", "error"} and code == EXIT_CONFIG
            assert {r["status"] for r in summary if r["strategy"] == "dro_kl"} == {"diverged"}
        else:
            assert statuses == {"ok"} and code == EXIT_OK

    def test_summary_rows_and_error_isolation(self, tmp_path):
        sweep_cfg = write_config(
            tmp_path / "sweep.json",
            dict(
                SMALL_RUN,
                strategies=["uniform", "linupper"],
                r_values=[1.0],
                seeds=[0, 1],
            ),
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", sweep_cfg, "--out", str(out_dir)]) == EXIT_OK
        rows = list(csv.reader((out_dir / "summary.csv").read_text().splitlines()))
        assert rows[0] == ["strategy", "r", "seed", "final_test_loss",
                           "auc_test_loss", "status"]
        assert len(rows) == 5
        assert all(r[5] == "ok" for r in rows[1:])

    def test_failed_cells_exit_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sweep.json",
                           dict(SMALL_RUN, strategies=["capped", "uniform"], cap=0.001,
                                seeds=[0], steps=5))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_CONFIG
        rows = list(csv.DictReader((out_dir / "summary.csv").read_text().splitlines()))
        assert [r["status"] for r in rows] == ["error: infeasible cap: cap*b = 0.008 < 1", "ok"]
        assert (out_dir / "uniform_r1.0_seed0.csv").exists()
        err = capsys.readouterr().err
        assert "failed cell capped r=1.0 seed=0: error: infeasible cap" in err
        assert "uniform" not in err

    def test_capped_logit_overflow_fails_only_its_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sweep.json",
                           dict(SMALL_RUN, strategies=["capped", "uniform"], alpha=1e300,
                                r_values=[1e-10], seeds=[0], steps=3))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_CONFIG
        rows = list(csv.DictReader((out_dir / "summary.csv").read_text().splitlines()))
        assert [r["status"] for r in rows] == [
            "error: mode 'capped' needs alpha / r_initial <= 8.98847e+307, got alpha = 1e+300 "
            "and r_initial = 1e-10", "ok"]
        assert "failed cell capped r=1e-10 seed=0" in capsys.readouterr().err

    def test_shared_cap_reaches_only_the_capped_cells(self, tmp_path):
        # cap and dro_tau are set for the whole sweep; the capped cell reads
        # cap, and the uniform cell runs as it would without either.
        alone = dict(SMALL_RUN, steps=5)
        shared = dict(alone, cap=0.5, dro_tau=2.0)
        sweep_dir = tmp_path / "sweep"
        cfg = write_config(tmp_path / "sweep.json",
                           dict(shared, strategies=["capped", "uniform"], seeds=[0]))
        assert main(["sweep", "--config", cfg, "--out", str(sweep_dir)]) == EXIT_OK
        rows = list(csv.DictReader((sweep_dir / "summary.csv").read_text().splitlines()))
        assert [r["status"] for r in rows] == ["ok", "ok"]

        def run_csv(name, **payload):
            out = tmp_path / f"{name}.csv"
            run_cfg = write_config(tmp_path / f"{name}.json",
                                   dict(payload, schedule="constant", r_initial=1.0,
                                        r_final=1.0, seed=0))
            assert main(["run", "--config", run_cfg, "--out", str(out)]) == EXIT_OK
            return out.read_bytes()

        capped = (sweep_dir / "capped_r1.0_seed0.csv").read_bytes()
        assert capped == run_csv("capped", **shared, strategy="capped")
        assert capped != run_csv("capped_2_over_b", **alone, strategy="capped")
        uniform = (sweep_dir / "uniform_r1.0_seed0.csv").read_bytes()
        assert uniform == run_csv("uniform", **alone, strategy="uniform")

    @pytest.mark.parametrize("n_strategies", [1, 2])
    def test_problem_build_error_recorded_by_every_cell(self, tmp_path, n_strategies):
        strategies = ["uniform", "linupper"][:n_strategies]
        cfg = write_config(tmp_path / "sweep.json",
                           dict(SMALL_RUN, problem="nope", strategies=strategies,
                                seeds=[0, 1, 2]))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_CONFIG
        rows = list(csv.DictReader((out_dir / "summary.csv").read_text().splitlines()))
        assert [r["status"] for r in rows] == ["error: unknown problem 'nope'"] * 3 * n_strategies

    def test_unexpected_shared_error_propagates(self, tmp_path, monkeypatch):
        # Only a ConfigError is recorded as every cell's result; anything
        # else is a bug, and raises as it does from `run`.
        def broken(cfg):
            raise RuntimeError("broken problem builder")

        monkeypatch.setattr(cli, "_make_problem", broken)
        cfg = write_config(tmp_path / "sweep.json", dict(SMALL_RUN, seeds=[0]))
        with pytest.raises(RuntimeError, match="broken problem builder"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_diverged_cells_exit_ok(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json",
                           dict(strategies=["dro_kl"], dro_tau=1.0, lr=0.01, seeds=[0],
                                r_values=[1.0]))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_OK
        rows = list(csv.DictReader((out_dir / "summary.csv").read_text().splitlines()))
        assert [r["status"] for r in rows] == ["diverged"]

    @pytest.mark.parametrize("key, value", [
        ("strategy", "uniform"),
        ("seed", 1),
        ("schedule", "constant"),
        ("r_initial", 1.0),
        ("r_final", 1.0),
    ])
    def test_cell_key_exits_config(self, tmp_path, capsys, key, value):
        # Every cell sets these keys itself, so a sweep config cannot.
        cfg = write_config(tmp_path / "sweep.json", dict(SMALL_RUN, **{key: value}))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_CONFIG
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_zero_steps_divergence_reads_diverged(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json",
                           dict(SMALL_RUN, steps=0, noise_c=1e300, strategies=["uniform"],
                                seeds=[0]))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_OK
        rows = list(csv.DictReader((out_dir / "summary.csv").read_text().splitlines()))
        assert [r["status"] for r in rows] == ["diverged"]

    @pytest.mark.parametrize("key, value", [
        ("strategies", "linupper"),
        ("r_values", 1.0),
        ("seeds", [0, 1.5]),
    ])
    def test_bad_list_value_exits_config(self, tmp_path, key, value):
        cfg = write_config(tmp_path / "sweep.json", dict(SMALL_RUN, **{key: value}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG

    @pytest.mark.parametrize("key", ["strategies", "r_values", "seeds"])
    def test_empty_list_exits_config(self, tmp_path, capsys, key):
        # An empty list would make a sweep of zero cells.
        cfg = write_config(tmp_path / "sweep.json", dict(SMALL_RUN, **{key: []}))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_CONFIG
        assert f"config key {key!r} must not be empty" in capsys.readouterr().err
        assert not (out_dir / "summary.csv").exists()

    def test_seed_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--out", str(tmp_path / "out"), "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value, item", [
        ("strategies", ["uniform", "linupper", "uniform"], "'uniform'"),
        ("r_values", [1, 1.0], "1.0"),
        ("seeds", [0, 0], "0"),
    ])
    def test_repeated_list_item_exits_config(self, tmp_path, capsys, key, value, item):
        # A repeated item would train the same cells twice and, for seeds,
        # write two summary rows for one CSV.
        cfg = write_config(tmp_path / "sweep.json", dict(SMALL_RUN, **{key: value}))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == EXIT_CONFIG
        assert f"config key {key!r} repeats {item}, got {value!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_existing_file_as_out_exits_config(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        cfg = write_config(tmp_path / "sweep.json", dict(SMALL_RUN, seeds=[0]))
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: cannot make --out directory {str(out)!r}" \
            in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_existing_directory_as_out_is_reused(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path / "sweep.json", dict(SMALL_RUN, seeds=[0], steps=2))
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "summary.csv").exists()


def assert_no_child_left():
    """Every child process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepWorkers:
    """A sweep trains its shares in forked workers: the outputs are those of
    one process, every worker is reaped, and a worker's failure is raised."""

    def test_pinned_and_default_runs_write_the_same_bytes(self, tmp_path):
        # The entry point as users run it: on every CPU this process may use,
        # and pinned to one, which trains every cell in one process.
        cfg = write_config(tmp_path / "sweep.json",
                           dict(SMALL_RUN, strategies=["uniform", "linupper", "capped"],
                                seeds=[0, 1], cap=0.001))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def sweep(out, preexec_fn=None):
            proc = subprocess.run([sys.executable, "-m", "reweight.cli", "sweep", "--config", cfg,
                                   "--out", str(tmp_path / out)], env=env, capture_output=True,
                                  text=True, preexec_fn=preexec_fn, timeout=120)
            assert proc.returncode == EXIT_CONFIG  # the capped cells' cap is infeasible
            assert proc.stderr.count("failed cell capped") == 2
            return {path.name: path.read_bytes() for path in (tmp_path / out).iterdir()}

        default = sweep("default")
        assert len(default) == 2 * 5  # four trained cells and the summary, with sidecars
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        if len(cpus) < 2:
            pytest.skip("a pinned run would train as the default one does on one CPU")
        assert sweep("pinned", lambda: os.sched_setaffinity(0, {min(cpus)})) == default

    def run_two_shares(self, tmp_path, monkeypatch, summary_row):
        """Sweep four cells in two shares, uniform's two seeds in this process
        and linupper's in a worker, with cli._summary_row replaced."""
        monkeypatch.setattr(workers, "cpus", lambda: 2)
        monkeypatch.setattr(cli, "_summary_row", summary_row)
        cfg = write_config(tmp_path / "sweep.json",
                           dict(SMALL_RUN, strategies=["uniform", "linupper"], seeds=[0, 1]))
        return main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_worker_exception_is_raised_again(self, tmp_path, monkeypatch):
        summary_row = cli._summary_row

        def failing(cell, out_dir, outcome):
            if (cell["strategy"], cell["seed"]) == ("linupper", 1):
                raise ValueError("cannot write linupper seed 1")
            return summary_row(cell, out_dir, outcome)

        with pytest.raises(ValueError, match="^cannot write linupper seed 1$"):
            self.run_two_shares(tmp_path, monkeypatch, failing)
        assert_no_child_left()

    def test_dead_worker_raises_its_exit_status(self, tmp_path, monkeypatch):
        parent, summary_row = os.getpid(), cli._summary_row

        def dying(cell, out_dir, outcome):
            if os.getpid() != parent:
                os._exit(7)
            return summary_row(cell, out_dir, outcome)

        with pytest.raises(RuntimeError, match="died with exit status 7$"):
            self.run_two_shares(tmp_path, monkeypatch, dying)
        assert_no_child_left()

    def test_workers_are_reaped_when_this_share_raises(self, tmp_path, monkeypatch):
        parent, summary_row = os.getpid(), cli._summary_row

        def failing_here(cell, out_dir, outcome):
            if os.getpid() == parent:
                raise OSError("disk full")
            return summary_row(cell, out_dir, outcome)

        with pytest.raises(OSError, match="^disk full$"):
            self.run_two_shares(tmp_path, monkeypatch, failing_here)
        assert_no_child_left()

    def test_reaping_never_waits_on_a_full_pipe(self):
        # This process's job raises while two workers each send more than a
        # pipe holds, and the second worker holds a copy of the first one's
        # read end. Every read end is closed before any wait, so each worker
        # gets EPIPE and exits instead of blocking; the alarm turns a hang
        # into a failure.
        def fail():
            raise OSError("disk full")

        def timeout(signum, frame):
            raise TimeoutError("a worker blocked on its pipe")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            with pytest.raises(OSError, match="^disk full$"):
                workers.in_workers([fail, partial(bytes, 1 << 20), partial(bytes, 1 << 20)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()

    def test_failed_fork_closes_its_pipe(self, monkeypatch):
        # A fork that fails (EAGAIN: too many processes) raises its error,
        # and the pipe opened for the worker is closed again.
        def failing_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("the open descriptors are counted in /proc/self/fd")
        monkeypatch.setattr(os, "fork", failing_fork)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            workers.in_workers([int, int])
        assert len(os.listdir("/proc/self/fd")) == before
        assert_no_child_left()


# Small problems whose sample counts are not a multiple of most batch sizes,
# so runs reshuffle mid-sweep with a partial epoch left over.
PROPERTY_PROBLEMS = {
    "regression": dict(p=4, n=40, m=10, n_test=8),
    "quadratic": dict(problem="quadratic", M=26, d=4),
    "nonconvex": dict(problem="nonconvex", M=34, d=4),
}


def sweep_payload(problem, rule, b, cap=None, **keys):
    """A sweep config on a PROPERTY_PROBLEMS problem. rule is a fixed lr or a
    theory step-size rule (which ignores lr), and cap is in units of 1/b."""
    return dict(PROPERTY_PROBLEMS[problem], batch_size=b,
                stepsize_rule="fixed" if isinstance(rule, float) else rule,
                lr=rule if isinstance(rule, float) else 1e-3,
                cap=None if cap is None else cap / b, **keys)


@st.composite
def small_sweeps(draw):
    """A sweep payload and the lockstep group size in cells (None for the
    default budget). The draws reach every way a row leaves the stack: a
    loss blow-up (dro_kl at lr 0.3, any mode at lr 1), an infeasible cap
    (cap*b < 1), a cap over 2/b or an observed w_max over 2/b (r = 0.01)
    under convex_theory, a non-finite update (lr 1e308), and the end of the
    run."""
    payload = sweep_payload(
        draw(st.sampled_from(sorted(PROPERTY_PROBLEMS))),
        draw(st.sampled_from([1e-3, 0.3, 1.0, 1e308, "convex_theory", "sqrt_horizon"])),
        draw(st.integers(3, 12)),
        cap=draw(st.sampled_from([None, 0.5, 1.5, 3.0])),
        strategies=draw(st.lists(st.sampled_from(sorted(MODES)), min_size=1, max_size=4,
                                 unique=True)),
        r_values=draw(st.lists(st.sampled_from([0.01, 0.5, 1.0, 2, 100.0]), min_size=1,
                               max_size=3, unique=True)),
        seeds=draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)),
        momentum=draw(st.booleans()),
        steps=draw(st.integers(0, 60)),
        dro_tau=draw(st.sampled_from([None, 0.05, 1.0])),
    )
    return payload, draw(st.sampled_from([None, 1, 2, 3]))


def _main_quietly(argv):
    """main(argv) and what it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestLockstepProperty:
    # Random draws seldom make some rows of a stack leave while others go
    # on, so three sweeps do it for certain: dro_kl cells blow up mid-run
    # beside the other modes, in groups that split a strategy's cells; a cap
    # over 2/b and an observed w_max over 2/b fail cells beside uniform
    # ones; and some rows' updates overflow while others stay finite, beside
    # an infeasible cap.
    @example((sweep_payload("regression", 0.3, 7, strategies=["uniform", "dro_kl", "linupper"],
                            r_values=[1.0], seeds=[0, 1], momentum=False, steps=60,
                            dro_tau=0.05), 3))
    @example((sweep_payload("quadratic", "convex_theory", 8, cap=3.0,
                            strategies=["capped", "linupper", "uniform"], r_values=[1.0, 0.01],
                            seeds=[2, 5], momentum=True, steps=40, dro_tau=None), None))
    @example((sweep_payload("nonconvex", 1e308, 5, cap=0.5,
                            strategies=["uniform", "extremes", "capped"], r_values=[1.0],
                            seeds=[0, 1, 2, 3], momentum=False, steps=20, dro_tau=None), 4))
    @given(small_sweeps())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_every_cell_matches_run(self, sweep):
        # Whatever rows leave a lockstep group, and when, every cell writes
        # the CSV and sidecar `run` writes for it, with the matching status.
        # As `run` trains through the same loop, a cell's length is also
        # checked on its own: all steps when it converges, and where the
        # plain reference loop stops when it diverges.
        payload, group = sweep
        with tempfile.TemporaryDirectory() as tmp, \
                np.errstate(over="ignore", invalid="ignore"):
            tmp = Path(tmp)
            sweep_cfg = write_config(tmp / "sweep.json", payload)
            budget = optim.LOCKSTEP_BYTES
            if group is not None:
                built = _make_problem(_load_config(sweep_cfg, SWEEP_DEFAULTS))
                budget = group * cell_bytes(built, payload["batch_size"], payload["steps"])
            with mock.patch.object(optim, "LOCKSTEP_BYTES", budget):
                code, _, _ = _main_quietly(["sweep", "--config", sweep_cfg,
                                            "--out", str(tmp / "sweep")])
            rows = list(csv.DictReader((tmp / "sweep" / "summary.csv").read_text()
                                       .splitlines()))
            assert len(rows) == (len(payload["strategies"]) * len(payload["r_values"])
                                 * len(payload["seeds"]))
            shared = {k: v for k, v in payload.items()
                      if k not in ("strategies", "r_values", "seeds")}
            failed = False
            for row in rows:
                r = json.loads(row["r"])
                run_cfg = write_config(tmp / "run.json",
                                       dict(shared, strategy=row["strategy"], schedule="constant",
                                            r_initial=r, r_final=r, seed=int(row["seed"])))
                run_code, out, err = _main_quietly(["run", "--config", run_cfg,
                                                    "--out", str(tmp / "run.csv")])
                name = f"{row['strategy']}_r{row['r']}_seed{row['seed']}.csv"
                if row["status"].startswith("error: "):
                    failed = True
                    assert run_code == EXIT_CONFIG
                    assert err == f"config error: {row['status'][len('error: '):]}\n"
                    assert not (tmp / "sweep" / name).exists()
                    continue
                written = (tmp / "run.csv").read_bytes()
                assert (tmp / "sweep" / name).read_bytes() == written
                assert (tmp / "sweep" / (name + ".meta.json")).read_bytes() \
                    == (tmp / "run.csv.meta.json").read_bytes()
                (tmp / "run.csv").unlink()
                recorded = written.count(b"\n") - 1
                if row["status"] == "ok":
                    assert run_code == EXIT_OK and recorded == max(payload["steps"], 1)
                    continue
                assert row["status"] == "diverged" and run_code == EXIT_DIVERGED
                cfg = _load_config(run_cfg, RUN_DEFAULTS)
                problem = _make_problem(cfg)
                want = _reference_run_training(
                    problem, _make_reweight_config(cfg), _make_stepsize(cfg, problem),
                    cfg["batch_size"], cfg["steps"], seed=cfg["seed"], momentum=cfg["momentum"])
                assert want.diverged and recorded == len(want.columns["step"])
                assert out.startswith(f"diverged at step {want.divergence_step};")
            assert code == (EXIT_CONFIG if failed else EXIT_OK)


class TestVerify:
    def test_stdout_is_pinned(self, capsys):
        # Every check's worst value, digit for digit: a change to how the
        # checks or the oracle compute must not move a printed number unless
        # it is declared by updating verify_stdout.txt.
        assert main(["verify"]) == EXIT_OK
        pinned = (Path(__file__).parent / "verify_stdout.txt").read_text()
        assert capsys.readouterr().out == pinned

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--threads", "2"],
                                      ["--config", "cfg.json"]])
    def test_unused_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_nan_oracle_solves_negative_control(self, monkeypatch):
        # Every other oracle solve is NaN. Python's max would drop a NaN
        # that does not come first, and no coordinate of an all-NaN w is
        # interior, so the KKT residual would read 0.0.
        solve = verify.brute_force_optimal_weights

        def every_other_nan(gaps, r, cap):
            w = solve(gaps, r, cap)
            w[1::2] = np.nan
            return w

        monkeypatch.setattr(verify, "brute_force_optimal_weights", every_other_nan)
        for check in (verify.check_prop1_agreement, verify.check_kkt):
            ok, msg = check()
            assert not ok
            assert "max |diff| = nan" in msg or "max = nan" in msg

    def test_nan_capped_weights_negative_control(self, monkeypatch):
        # The closed form returns NaN at b = 2 only.
        weigh = verify.capped_optimal_weights

        def nan_at_two(h, r, cap):
            w = weigh(h, r, cap)
            return np.full_like(w, np.nan) if w.shape[-1] == 2 else w

        monkeypatch.setattr(verify, "capped_optimal_weights", nan_at_two)
        ok, msg = verify.check_cap_enforcement()
        assert not ok
        assert "max excess = nan" in msg

    def test_wrong_sign_gradient_negative_control(self):
        problem = tampered(RegressionProblem, grad=lambda g: -g)(
            gen_regression(p=6, n=24, m=8, seed=0, n_test=1))
        ok, msg = verify.check_gradients(problems=[problem])
        assert not ok

    def test_failing_check_fails_run_all(self, monkeypatch, capsys):
        # One failing check fails the suite; every other check still runs
        # and prints its line.
        checks = list(verify.CHECKS)
        checks[2] = lambda: (False, "gradient check: failed on purpose")
        monkeypatch.setattr(verify, "CHECKS", checks)
        assert verify.run_all() is False
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "[FAIL] gradient check: failed on purpose"
        assert len(lines) == 6 and sum(line.startswith("[PASS]") for line in lines) == 5

    def test_failing_check_in_a_worker_fails_run_all(self, monkeypatch, capsys):
        # Three CPUs run check 2 in the second worker's share, and its
        # verdict comes back through the pipe.
        monkeypatch.setattr(workers, "cpus", lambda: 3)
        self.test_failing_check_fails_run_all(monkeypatch, capsys)
        assert_no_child_left()

    PINNED = (Path(__file__).parent / "verify_stdout.txt").read_text()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 6, 99])
    def test_stdout_is_pinned_at_every_worker_count(self, monkeypatch, capsys, cpus):
        # W = min(6, cpus) shares, check i in share i mod W; the lines are
        # printed in CHECKS order whichever share ran a check.
        monkeypatch.setattr(workers, "cpus", lambda: cpus)
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == self.PINNED
        assert_no_child_left()

    def test_one_cpu_never_forks(self, monkeypatch, capsys):
        def no_fork():
            raise AssertionError("verify forked on one CPU")

        monkeypatch.setattr(workers, "cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == self.PINNED

    # (cpus, indices of the checks that raise): with 2 CPUs check 2 runs in
    # this process and check 3 in the worker, with 3 CPUs check 1 runs in a
    # worker and check 3 here. The first check that raises is the one raised.
    RAISING = [pytest.param(cpus, raising, id=f"cpus{cpus}-raise{'+'.join(map(str, raising))}")
               for cpus, raising in [(1, (2,)), (2, (2,)), (2, (3,)), (2, (1, 2)), (3, (1, 3)),
                                     (3, (4, 5))]]

    @pytest.mark.parametrize("cpus, raising", RAISING)
    def test_raising_check_raises_after_the_lines_before_it(self, monkeypatch, capsys,
                                                            cpus, raising):
        # As the serial loop did, run_all prints the line of every check
        # before the first that raises, and then raises its exception.
        def fail(i):
            raise ValueError(f"check {i} raised on purpose")

        checks = list(verify.CHECKS)
        for i in raising:
            checks[i] = partial(fail, i)
        monkeypatch.setattr(verify, "CHECKS", checks)
        monkeypatch.setattr(workers, "cpus", lambda: cpus)
        with pytest.raises(ValueError, match=f"^check {raising[0]} raised on purpose$"):
            verify.run_all()
        out = capsys.readouterr().out
        assert out.splitlines(keepends=True) == self.PINNED.splitlines(keepends=True)[:raising[0]]
        assert_no_child_left()

    def test_scaled_quadratic_gradient_negative_control(self):
        problem = tampered(QuadraticProblem, grad=lambda g: (1.0 + 1e-4) * g)(
            gen_quadratic_suite(M=16, d=6, seed=0))
        ok, msg = verify.check_gradients(problems=[problem])
        assert not ok
        assert "max rel err = 1.00e-04" in msg

    @pytest.mark.parametrize("tamper", ["losses", "prev_losses"])
    def test_losses_one_ulp_off_negative_control(self, tamper):
        # The gradient is right; only the losses, or only the previous
        # losses, are one ulp off, so the two no longer swap with the iterates.
        problem = tampered(NonconvexProblem, **{tamper: lambda f: np.nextafter(f, np.inf)})(
            n_samples=32, dim=6)
        ok, msg = verify.check_gradients(problems=[problem])
        assert not ok
        assert msg.endswith("loss_grad's losses differ from its previous losses with theta "
                            "and prev swapped")

    GRAD_SQ_PROBLEMS = {
        "regression": (RegressionProblem, lambda: (gen_regression(p=6, n=24, m=8, n_test=1),)),
        "quadratic": (QuadraticProblem, lambda: (gen_quadratic_suite(M=16, d=6),)),
        "nonconvex": (NonconvexProblem, lambda: (32, 6)),
    }

    @pytest.mark.parametrize("name", sorted(GRAD_SQ_PROBLEMS))
    def test_perturbed_grad_sq_negative_control(self, name):
        # The gradients and losses are right; only the squared norms are off,
        # by 1e-10 relative. 1e-14 is inside the check's 1e-12 bound.
        base, args = self.GRAD_SQ_PROBLEMS[name]
        for scale, passes in ((1.0 + 1e-10, False), (1.0 + 1e-14, True)):
            problem = tampered(base, grad_sq=lambda s: scale * s)(*args())
            ok, msg = verify.check_gradients(problems=[problem])
            assert ok == passes, msg
            assert msg.endswith("squared gradient norms differ from its gradients'") != passes

    def test_scaled_nonconvex_gradient_negative_control(self):
        problem = tampered(NonconvexProblem, grad=lambda g: (1.0 + 1e-4) * g)(
            n_samples=32, dim=6, seed=2)
        ok, msg = verify.check_gradients(problems=[problem])
        assert not ok
        assert "max rel err = 1.00e-04" in msg

    def test_gradient_points_off_the_flat_regions(self):
        # Every point's gradient clears the check's 1e-3 floor, so every
        # comparison is relative; unit-scale non-convex iterates left 38 of
        # 100 points in the flat tails of 1 - exp(-r^2).
        points = list(verify.gradient_points())
        assert len(points) == 3
        for problem, theta, _, idx in points:
            fd = finite_diff_grad(lambda th: problem.loss_grad(th, idx)[0][:, 0], theta)
            assert np.abs(fd).max(axis=1).min() >= 1e-3, type(problem).__name__

    def test_untampered_problems_pass(self):
        problems = [tampered(RegressionProblem)(gen_regression(p=6, n=24, m=8, n_test=1)),
                    tampered(QuadraticProblem)(gen_quadratic_suite(M=16, d=6)),
                    tampered(NonconvexProblem)(n_samples=32, dim=6)]
        ok, msg = verify.check_gradients(problems=problems)
        assert ok, msg

    @pytest.mark.parametrize("name", ["worst", "regresion_grad", "tol", "rel_tol",
                                      "n_instances"])
    def test_run_all_rejects_unknown_override(self, name):
        # run_all takes nothing: a check's count, seed and tolerance are fixed
        # bars, and a misspelt override must not be dropped, or a negative
        # control with a typo would pass.
        with pytest.raises(TypeError, match=name):
            verify.run_all(**{name: 1.0})


def tampered(base, grad=lambda g: g, losses=lambda f: f, prev_losses=lambda f: f,
             grad_sq=lambda s: s):
    """A subclass of the problem class base whose loss_grad passes its
    losses, squared gradient norms and previous losses (None without prev)
    through the given functions, and whose weighted_grad passes its sum
    through grad."""

    class Tampered(base):
        def loss_grad(self, theta, idx, prev=None):
            f, parts, g_sq, f_prev = super().loss_grad(theta, idx, prev)
            f_prev = None if f_prev is None else prev_losses(f_prev)
            return losses(f), parts, grad_sq(g_sq), f_prev

        def weighted_grad(self, parts, w):
            return grad(super().weighted_grad(parts, w))

    return Tampered
