"""Self-tests of the benchmark harness, kept out of the repository's test
suite (pytest only collects test_*.py files by default). Run them with

    python3 -m pytest -q bench/selftest.py

They use tiny configs, so they take seconds, not a benchmark run.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()
import reweight.core  # noqa: E402
import reweight.optim  # noqa: E402
import reweight.verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_QUADRATIC = {"problem": "quadratic", "strategy": "capped", "schedule": "constant",
                  "r_initial": 0.1, "r_final": 0.1, "stepsize_rule": "convex_theory",
                  "batch_size": 8, "steps": 20, "M": 16, "d": 4}


def _traced_run(tmp_path, tracer, targets=tracing.TARGETS, momentum=False):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY_QUADRATIC, momentum=momentum)))
    with tracing.traced(tracer, targets) as absent:
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert code == 0
    return absent


def test_traced_run_counts_calls_through_from_imports(tmp_path):
    tracer = tracing.Tracer()
    absent = _traced_run(tmp_path, tracer)
    assert absent == []
    assert tracer.calls("cli.main") == 1
    assert tracer.calls("optim.run_training") == 1
    # run_training reaches these through `from .core import ...` bindings.
    assert tracer.calls("optim.gd_step") == 20
    assert tracer.calls("core.compute_batch_weights") == 20
    assert tracer.calls("core.capped_optimal_weights") == 20
    for name in tracer.stats:
        assert 0 <= tracer.self_seconds(name) <= tracer.seconds(name)


def test_traced_restores_every_reference(tmp_path):
    before = (reweight.optim.compute_batch_weights, reweight.verify.capped_optimal_weights,
              list(reweight.verify.CHECKS), reweight.optim.gd_step,
              reweight.core.compute_batch_weights)
    _traced_run(tmp_path, tracing.Tracer())
    after = (reweight.optim.compute_batch_weights, reweight.verify.capped_optimal_weights,
             list(reweight.verify.CHECKS), reweight.optim.gd_step,
             reweight.core.compute_batch_weights)
    assert after == before
    assert reweight.optim.compute_batch_weights is reweight.core.compute_batch_weights
    problems = sys.modules["reweight.problems"]
    assert "__wrapped__" not in vars(problems.QuadraticProblem.losses)


def test_missing_name_is_reported_absent(tmp_path):
    targets = dict(tracing.TARGETS)
    targets["problems.gone"] = ("reweight.problems", "no_such_function")
    targets["gone.module"] = ("reweight.no_such_module", "f")
    targets["problems.Gone.losses"] = ("reweight.problems", "NoSuchProblem.losses")
    tracer = tracing.Tracer()
    absent = _traced_run(tmp_path, tracer, targets)
    assert absent == ["gone.module", "problems.Gone.losses", "problems.gone"]
    assert tracer.calls("problems.gone") == 0


def test_two_traced_runs_give_equal_counts(tmp_path):
    first, second = tracing.Tracer(), tracing.Tracer()
    _traced_run(tmp_path, first, momentum=True)
    _traced_run(tmp_path, second, momentum=True)
    assert first.counts() == second.counts()
    assert first.calls("optim.momentum_step") == 20


def test_layer_metrics_match_benchmark_json(tmp_path):
    tracers = [tracing.Tracer(), tracing.Tracer()]
    for tracer in tracers:
        _traced_run(tmp_path, tracer)
    metrics = run.layer_metrics(tracers, [1.0, 1.0], [0.9])
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["optim.update.calls"] == 20
    assert metrics["problems.grads.calls_per_step"] == 1.0
    assert metrics["oracle.brute_force.calls"] == 0
    assert metrics["trace.overhead"] == pytest.approx(1.0 / 0.9 - 1.0)


def test_end_to_end_metrics_match_benchmark_json():
    metrics = run.end_to_end_metrics([0.5, 0.6, 0.4], [2.0, 3.0], [10.0, 20.0])
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert metrics["setup_s"] == 0.5 and metrics["wall_s"] == 2.5
    assert all(v > 0 for v in metrics.values())


def test_tail_percentile_needs_ten_samples_beyond():
    assert "too few samples" in run.tail([1.0] * 10)
    text = run.tail([float(i) for i in range(20)])
    assert "n=20" in text and "p50 9.0" in text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, workload):
    def configs(seed, tag):
        d = tmp_path / f"{seed}{tag}"
        d.mkdir()
        inputs = workloads.make_inputs(workload, seed, d)
        return inputs.describe(), [p.read_text() for p in inputs.configs]

    assert configs(7, "a") == configs(7, "b")
    if workload != "verify":
        assert configs(7, "c") != configs(8, "a")


def test_sweep_seeds_stay_in_the_recorded_pool(tmp_path):
    ref = workloads.load_reference()
    assert ref["base_config"] == workloads.load_base("sweep_toy.json")
    for seed in range(50):
        d = tmp_path / str(seed)
        d.mkdir()
        exp = workloads.make_inputs("sweep_toy", seed, d).expect
        for strategy in exp["strategies"]:
            for s in exp["seeds"]:
                key = workloads.reference_key(strategy, exp["data_seed"], s)
                assert key in ref["final_test_loss"]


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_capped_gate_rejects_weight_above_two_over_b(tmp_path):
    inputs = workloads.make_inputs("capped_theory", 0, tmp_path)
    inputs.expect["steps"] = 2
    for i, cell in enumerate(inputs.expect["cells"]):
        w_max = 2.0 / cell["b"] * (1.01 if i == 2 else 1.0)
        _write_csv(tmp_path / f"cell{i}.csv", [
            {"step": 0, "train_loss": 1.0, "w_max": w_max},
            {"step": 1, "train_loss": 0.5, "w_max": w_max},
        ])
    result = workloads.check_pass(inputs, tmp_path, [0, 0, 0, 0], "")
    assert [ok for _, ok, _ in result.checks] == [True, True, False, True]
    assert result.steps == 8


def test_sweep_gate_rejects_a_changed_final_loss(tmp_path):
    inputs = workloads.make_inputs("sweep_toy", 0, tmp_path)
    exp = inputs.expect
    ref = workloads.load_reference()["final_test_loss"]
    out = tmp_path / "out"
    out.mkdir()
    rows = []
    for strategy in exp["strategies"]:
        for seed in exp["seeds"]:
            final = ref[workloads.reference_key(strategy, exp["data_seed"], seed)]
            if strategy == "quadratic" and seed == exp["seeds"][0]:
                final *= 1.0 + 1e-4
            rows.append({"strategy": strategy, "r": 1.0, "seed": seed,
                         "final_test_loss": repr(final), "auc_test_loss": 0.0,
                         "status": "ok"})
            _write_csv(out / f"{strategy}_{seed}.csv",
                       [{"step": t} for t in range(exp["steps"])])
    _write_csv(out / "summary.csv", rows)
    result = workloads.check_pass(inputs, out, [0], "")
    failed = [name for name, ok, _ in result.checks if not ok]
    assert failed == [f"cell quadratic seed {exp['seeds'][0]}"]
    assert result.values["linupper_gain"] > workloads.MIN_LINUPPER_GAIN


def test_verify_gate_needs_six_passes(tmp_path):
    inputs = workloads.make_inputs("verify", 0, tmp_path)
    lines = [f"[PASS] check {i}: ok" for i in range(5)] + ["[FAIL] check 5: bad"]
    result = workloads.check_pass(inputs, tmp_path, [1], "\n".join(lines))
    failed = [name for name, ok, _ in result.checks if not ok]
    assert failed == ["check 5", "exit code 0", "six [PASS] lines"]


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or "correct" not in proc.stdout.splitlines()[-1]
