"""Workload inputs, the CLI calls of one pass, and the checks on its outputs.

Every workload is closed loop, single process and sequential: one pass is a
fixed list of `reweight` CLI invocations run one after another, and the next
pass starts only when the previous one has finished. No pass sets
`--threads`, and the runner removes `REWEIGHT_THREADS` from the environment.

Inputs are generated from the workload seed. The program only receives the
generated config files; all outputs go to a per-pass temporary directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_sweep_toy.json"

WORKLOADS = ("sweep_toy", "capped_theory", "verify")

# sweep_toy draws one data seed and five training seeds from these pools, so
# any workload seed maps to cells whose final test loss was recorded at the
# seed commit (see record_reference.py).
SWEEP_DATA_SEEDS = (0, 1, 2, 3)
SWEEP_TRAIN_SEEDS = tuple(range(10))
SWEEP_SEEDS_PER_PASS = 5
SWEEP_RTOL = 1e-6
MIN_LINUPPER_GAIN = 0.10

# capped_theory cells on top of configs/quadratic_theory.json: (M, b, r,
# momentum). r and b set the water-filling cost; the last cell runs
# momentum_step.
CAPPED_CELLS = (
    (64, 64, 1.0, False),
    (64, 64, 1e-2, False),
    (256, 256, 1e-2, False),
    (256, 64, 1e-2, True),
)
CAP_SLACK = 1e-12

VERIFY_CHECKS = 6


@dataclass
class Inputs:
    """Generated inputs of one workload run."""

    workload: str
    seed: int
    configs: list[Path] = field(default_factory=list)
    # what the output checks compare against
    expect: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {"workload": self.workload, "seed": self.seed, **self.expect}


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def load_base(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text())


def make_inputs(workload: str, seed: int, in_dir: Path) -> Inputs:
    """Generate the workload's config files from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workload, seed)
    if workload == "sweep_toy":
        data_seed = rng.choice(SWEEP_DATA_SEEDS)
        seeds = sorted(rng.sample(SWEEP_TRAIN_SEEDS, SWEEP_SEEDS_PER_PASS))
        cfg = dict(load_base("sweep_toy.json"), data_seed=data_seed, seeds=seeds)
        inputs.configs.append(_write_config(in_dir / "sweep_toy.json", cfg))
        inputs.expect = {"data_seed": data_seed, "seeds": seeds,
                         "strategies": cfg["strategies"], "steps": cfg["steps"]}
    elif workload == "capped_theory":
        base = load_base("quadratic_theory.json")
        cells = []
        for i, (M, b, r, momentum) in enumerate(CAPPED_CELLS):
            cfg = dict(base, M=M, batch_size=b, r_initial=r, r_final=r,
                       momentum=momentum, seed=rng.randrange(2**31),
                       data_seed=rng.randrange(2**31))
            inputs.configs.append(_write_config(in_dir / f"cell{i}.json", cfg))
            cells.append({"M": M, "b": b, "r": r, "momentum": momentum,
                          "seed": cfg["seed"], "data_seed": cfg["data_seed"]})
        inputs.expect = {"cells": cells, "steps": base["steps"]}
    elif workload == "verify":
        # verify takes no input: it runs exactly as users run it.
        inputs.expect = {"checks": VERIFY_CHECKS}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def pass_argvs(inputs: Inputs, out_dir: Path) -> list[list[str]]:
    """The CLI invocations of one pass, in order."""
    if inputs.workload == "sweep_toy":
        return [["sweep", "--config", str(inputs.configs[0]), "--out", str(out_dir)]]
    if inputs.workload == "capped_theory":
        return [["run", "--config", str(cfg), "--out", str(out_dir / f"cell{i}.csv")]
                for i, cfg in enumerate(inputs.configs)]
    return [["verify"]]


@dataclass
class PassResult:
    """Checks of one pass: (name, ok, detail) triples, the steps the pass
    completed (training steps, or verify checks), a digest of its outputs,
    and workload-specific values."""

    checks: list[tuple[str, bool, str]]
    steps: int
    digest: str
    values: dict = field(default_factory=dict)


def _digest(out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    if not any(out_dir.iterdir()):
        h.update(stdout.encode())
    return h.hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_key(strategy: str, data_seed: int, seed: int) -> str:
    return f"{strategy}/data{data_seed}/seed{seed}"


def _check_sweep(inputs: Inputs, out_dir: Path, codes: list[int]) -> PassResult:
    exp = inputs.expect
    ref = load_reference()
    checks = [("exit code 0", codes == [0], f"exit codes {codes}")]
    base = load_base("sweep_toy.json")
    checks.append(("reference base config", ref["base_config"] == base,
                   "configs/sweep_toy.json must equal the config the reference "
                   "was recorded with"))
    summary = out_dir / "summary.csv"
    rows = _read_rows(summary) if summary.exists() else []
    by_cell = {(row["strategy"], int(row["seed"])): row for row in rows}
    finals: dict[str, list[float]] = {}
    for strategy in exp["strategies"]:
        for seed in exp["seeds"]:
            name = f"cell {strategy} seed {seed}"
            row = by_cell.get((strategy, seed))
            if row is None:
                checks.append((name, False, "missing from summary.csv"))
                continue
            if row["status"] != "ok":
                checks.append((name, False, f"status {row['status']!r}"))
                continue
            got = float(row["final_test_loss"])
            want = ref["final_test_loss"].get(
                reference_key(strategy, exp["data_seed"], seed))
            ok = want is not None and math.isclose(got, want, rel_tol=SWEEP_RTOL, abs_tol=0.0)
            checks.append((name, ok, f"final test loss {got!r}, reference {want!r}"))
            finals.setdefault(strategy, []).append(got)
    steps = sum(len(_read_rows(p)) for p in out_dir.glob("*.csv") if p.name != "summary.csv")
    want_steps = len(exp["strategies"]) * len(exp["seeds"]) * exp["steps"]
    checks.append(("trajectory rows", steps == want_steps,
                   f"{steps} rows, expected {want_steps}"))
    values = {}
    if finals.get("linupper") and finals.get("uniform"):
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        gain = 1.0 - mean(finals["linupper"]) / mean(finals["uniform"])
        values["linupper_gain"] = gain
        checks.append(("linupper_gain", gain >= MIN_LINUPPER_GAIN,
                       f"{gain!r} (minimum {MIN_LINUPPER_GAIN})"))
    else:
        checks.append(("linupper_gain", False, "linupper or uniform cells missing"))
    return PassResult(checks, steps, "", values)


def _check_capped(inputs: Inputs, out_dir: Path, codes: list[int]) -> PassResult:
    exp = inputs.expect
    checks = []
    steps = 0
    for i, (cell, code) in enumerate(zip(exp["cells"], codes)):
        name = f"cell {i} (M={cell['M']}, b={cell['b']}, r={cell['r']}, momentum={cell['momentum']})"
        path = out_dir / f"cell{i}.csv"
        if code != 0 or not path.exists():
            checks.append((name, False, f"exit code {code}, diverged or failed"))
            continue
        rows = _read_rows(path)
        steps += len(rows)
        cap = 2.0 / cell["b"]
        w_max = max(float(row["w_max"]) for row in rows)
        losses = [float(row["train_loss"]) for row in rows]
        problems = []
        if len(rows) != exp["steps"]:
            problems.append(f"{len(rows)} rows, expected {exp['steps']}")
        if w_max > cap + CAP_SLACK:
            problems.append(f"observed w_max {w_max!r} > 2/b = {cap!r}")
        if not all(math.isfinite(x) for x in losses) or not losses[-1] < losses[0]:
            problems.append(f"train loss {losses[0]!r} -> {losses[-1]!r} did not decrease")
        checks.append((name, not problems,
                       "; ".join(problems) or f"max w_max {w_max!r} <= 2/b = {cap!r}"))
    if len(codes) != len(exp["cells"]):
        checks.append(("cell count", False, f"{len(codes)} runs, expected {len(exp['cells'])}"))
    return PassResult(checks, steps, "")


def _check_verify(inputs: Inputs, out_dir: Path, codes: list[int], stdout: str) -> PassResult:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
    checks = [(ln.split("] ", 1)[-1].split(":")[0], ln.startswith("[PASS]"), ln) for ln in lines]
    passed = sum(ok for _, ok, _ in checks)
    checks.append(("exit code 0", codes == [0], f"exit codes {codes}"))
    checks.append(("six [PASS] lines", passed == VERIFY_CHECKS and len(lines) == VERIFY_CHECKS,
                   f"{passed} of {len(lines)} lines pass, expected {VERIFY_CHECKS}"))
    # verify trains nothing; its unit of work is one check.
    return PassResult(checks, len(lines), "")


def check_pass(inputs: Inputs, out_dir: Path, codes: list[int], stdout: str) -> PassResult:
    """Check one pass's outputs against the workload's correctness gates."""
    if inputs.workload == "sweep_toy":
        result = _check_sweep(inputs, out_dir, codes)
    elif inputs.workload == "capped_theory":
        result = _check_capped(inputs, out_dir, codes)
    else:
        result = _check_verify(inputs, out_dir, codes, stdout)
    result.digest = _digest(out_dir, stdout)
    return result


def build_problems(cfg: dict):
    """Build the problem a generated config describes, through the public
    generators; used to time set-up."""
    from reweight.problems import (QuadraticProblem, RegressionProblem,
                                   gen_quadratic_suite, gen_regression)

    if cfg.get("problem", "regression") == "regression":
        keys = ("p", "n", "m", "noise_c", "n_test")
        data = gen_regression(seed=cfg.get("data_seed", 0),
                              **{k: cfg[k] for k in keys if k in cfg})
        return RegressionProblem(data)
    suite = gen_quadratic_suite(M=cfg["M"], d=cfg["d"], seed=cfg["data_seed"],
                                **{k: cfg[k] for k in ("cond_max",) if k in cfg})
    return QuadraticProblem(suite)
