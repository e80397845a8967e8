"""Experiment driver CLI.

Subcommands:
  gen-data  -- write a seeded regression dataset to CSV
  run       -- single training run, one CSV row per step
  sweep     -- strategy x temperature x seed grid, one CSV per cell and a
               summary CSV
  verify    -- brute-force oracle suite; nonzero exit on any failure

Configs are flat key-value JSON files, checked at load time against
CONFIG_KEYS (type and range per key); an unreadable file, bad JSON, an
unknown key or a bad value exits with code 2 and a message naming the path
or key. A --seed override and --out are checked the same way, before any
problem is built. Every output gets a sidecar <out>.meta.json with the
fully resolved config so results are reproducible from their artifacts alone.

A sweep config holds the run keys except strategy, seed, schedule, r_initial
and r_final, which every cell sets itself, plus the lists strategies,
r_values and seeds. Each cell runs one strategy at a constant r with one
seed. The sweep builds its problem and step-size rule once and trains its
cells in lockstep through optim.run_cells: cells are rows of one training
loop, run in groups whose per-step columns fit a fixed memory budget. `run` is the
one-cell case of that path, without iterate or weight history, and writes
its trajectory and sidecar with the same code, so each cell's CSV and
sidecar equal the ones `run` writes for the same config, byte for byte.

A sweep splits its runnable cells into W contiguous, near-equal shares, W
the smaller of their count and the CPUs this process may run on (1 where
os.fork or os.sched_getaffinity does not exist). The process trains and
writes share 0 itself and forks one worker per other share; a worker writes
its cells' CSVs and sidecars and sends back their summary rows. A row's
arithmetic does not depend on its group, so every output is that of one
process. The lockstep budget applies per worker: a sweep may hold
W x LOCKSTEP_BYTES (8 MiB) of group arrays.

Trajectory and dataset CSVs are written column by column by _write_csv:
each value is written with repr, rows end in CRLF, and a column shorter
than the others is empty in the first rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import os
import pickle
import sys
from functools import partial
from itertools import chain, repeat

import numpy as np

from .core import ConfigError, ReweightConfig, TemperatureSchedule
from .optim import COLUMNS, StepSizeRule, run_cells
from .problems import (
    NonconvexProblem,
    QuadraticProblem,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# lr calibrated once on the default dataset: the largest power-of-ten
# learning rate at which the uniform baseline both remains stable and is
# still in its descent phase at the 2000-step horizon. 1e-2 is also
# stable but reaches the stationary point by roughly step 700, at which
# point every strategy coincides; 1e-3 keeps the horizon informative.
# The DRO-KL stability contrast uses 1e-2, the largest stable shared lr
# (see configs/dro_kl.json).
RUN_DEFAULTS = {
    "problem": "regression",
    "strategy": "linupper",
    "alpha": 1.0,
    "schedule": "step_drop",
    "r_initial": 100.0,
    "r_final": 1.0,
    "warmup_steps": 100,
    "cap": None,
    "dro_tau": None,
    "stepsize_rule": "fixed",
    "lr": 0.001,
    "batch_size": 32,
    "steps": 2000,
    "seed": 0,
    "momentum": False,
    # regression problem parameters
    "p": 64,
    "n": 3200,
    "m": 800,
    "noise_c": 0.01,
    "n_test": 800,
    "data_seed": 0,
    # quadratic / nonconvex problem parameters
    "M": 64,
    "d": 16,
    "cond_max": 10.0,
}

# gen-data writes the dataset `run` builds for the regression problem, so
# its seed is run's data_seed.
GEN_DEFAULTS = {key: RUN_DEFAULTS[key] for key in ("p", "n", "m", "noise_c", "n_test")}
GEN_DEFAULTS["seed"] = RUN_DEFAULTS["data_seed"]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "bool": ("a boolean", lambda x: isinstance(x, bool)),
    "int": ("an integer", lambda x: isinstance(x, int) and not isinstance(x, bool)),
    "number": ("a number", _is_number),
    "number?": ("a number or null", lambda x: x is None or _is_number(x)),
    "string": ("a string", lambda x: isinstance(x, str)),
}

# Type and range of every config key: "[type]" is a nonempty list, and a
# range applies to the value, or to each item of a list, unless it is null.
CONFIG_KEYS = {
    "problem": "string", "strategy": "string", "schedule": "string",
    "stepsize_rule": "string", "momentum": "bool", "noise_c": "number",
    "alpha": "number > 0", "r_initial": "number > 0", "r_final": "number > 0",
    "cap": "number? > 0", "dro_tau": "number? > 0", "lr": "number > 0",
    "warmup_steps": "int >= 0", "batch_size": "int >= 1", "steps": "int >= 0",
    "seed": "int >= 0", "data_seed": "int >= 0", "p": "int >= 1", "n": "int >= 1",
    "m": "int >= 0", "n_test": "int >= 1", "M": "int >= 1", "d": "int >= 1",
    "cond_max": "number >= 1", "strategies": "[string]", "r_values": "[number] > 0",
    "seeds": "[int] >= 0",
}


def _check_value(key, value):
    """Raise ConfigError unless value has the type and range of key."""
    kind, *bound = CONFIG_KEYS[key].split()
    is_list = kind.startswith("[")
    name, check = _TYPES[kind.strip("[]")]
    items = value if is_list and isinstance(value, list) else [value]
    if isinstance(value, list) != is_list or not all(map(check, items)):
        raise ConfigError(f"config key {key!r} must be {'a list, each item ' * is_list}"
                          f"{name}, got {value!r}")
    if value == []:
        raise ConfigError(f"config key {key!r} must not be empty")
    # json.load accepts the non-standard constants NaN, Infinity and -Infinity.
    if not all(math.isfinite(x) for x in items if isinstance(x, float)):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    # A repeated item would train the same sweep cells twice; 1 and 1.0 repeat.
    repeated = [x for i, x in enumerate(items) if x in items[:i]]
    if repeated:
        raise ConfigError(f"config key {key!r} repeats {repeated[0]!r}, got {value!r}")
    op = {">": operator.gt, ">=": operator.ge}[bound[0]] if bound else None
    if op and not all(x is None or op(x, int(bound[1])) for x in items):
        raise ConfigError(f"config key {key!r} must be {' '.join(bound)}, got {value!r}")


def _load_config(path, defaults, seed=None):
    """The defaults updated by the checked config file, then by a checked
    --seed override."""
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc.msg} "
                              f"at line {exc.lineno} column {exc.colno}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"config file must hold a JSON object, got {user!r}")
        unknown = set(user) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in user.items():
            _check_value(key, value)
        cfg.update(user)
    if seed is not None:
        _check_value("seed", seed)
        cfg["seed"] = seed
    return cfg


def _check_out_file(path):
    """Raise ConfigError unless path can be written as a file: its directory
    exists and it is not a directory itself."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write --out {path!r}: no directory {folder!r}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write --out {path!r}: it is a directory")


def _write_meta(out_path, cfg):
    with open(str(out_path) + ".meta.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dataset(cfg, seed):
    return gen_regression(p=cfg["p"], n=cfg["n"], m=cfg["m"], noise_c=cfg["noise_c"],
                          seed=seed, n_test=cfg["n_test"])


def _make_problem(cfg):
    name = cfg["problem"]
    if name == "regression":
        return RegressionProblem(_dataset(cfg, cfg["data_seed"]))
    if name == "quadratic":
        suite = gen_quadratic_suite(
            M=cfg["M"], d=cfg["d"], cond_max=cfg["cond_max"], seed=cfg["data_seed"]
        )
        return QuadraticProblem(suite)
    if name == "nonconvex":
        return NonconvexProblem(n_samples=cfg["M"], dim=cfg["d"], seed=cfg["data_seed"])
    raise ConfigError(f"unknown problem {name!r}")


def _make_reweight_config(cfg):
    schedule = TemperatureSchedule(
        kind=cfg["schedule"],
        r_initial=cfg["r_initial"],
        r_final=cfg["r_final"],
        warmup_steps=cfg["warmup_steps"],
    )
    name = cfg["strategy"]
    # cap and dro_tau are shared keys (a sweep gives every cell the same
    # ones); each goes to the one mode that reads it.
    return ReweightConfig(mode=name, alpha=cfg["alpha"], schedule=schedule,
                          cap=cfg["cap"] if name == "capped" else None,
                          dro_tau=cfg["dro_tau"] if name == "dro_kl" else None)


def _make_stepsize(cfg, problem):
    kind = cfg["stepsize_rule"]
    if kind == "fixed":
        return StepSizeRule(kind="fixed", eta=cfg["lr"])
    if kind == "convex_theory":
        return StepSizeRule(kind="convex_theory", L=problem.L)
    if kind == "sqrt_horizon":
        if cfg["steps"] < 1:
            raise ConfigError(f"stepsize_rule 'sqrt_horizon' needs config key 'steps' >= 1, "
                              f"got {cfg['steps']!r}")
        return StepSizeRule(kind="sqrt_horizon", L=problem.L, horizon_T=cfg["steps"])
    raise ConfigError(f"unknown stepsize_rule {kind!r}")


def _run_cells(cfg, problem, cells):
    """Train (ReweightConfig, seed) cells with the shared keys of cfg."""
    return run_cells(problem, cells, _make_stepsize(cfg, problem), cfg["batch_size"],
                     cfg["steps"], momentum=cfg["momentum"])


# Rows of a column converted to Python values at a time; a small block keeps
# few of them alive at once, and writes no slower.
_CSV_BLOCK = 256


def _fields(column, rows):
    """A column's CSV fields over `rows` rows: empty until the column starts,
    then repr of each value."""
    blocks = (column[lo:lo + _CSV_BLOCK].tolist() for lo in range(0, len(column), _CSV_BLOCK))
    return chain(repeat("", rows - len(column)), map(repr, chain.from_iterable(blocks)))


def _write_csv(out_path, header, columns):
    """Write columns, a map from header name to array, as CSV rows. A
    column shorter than the longest fills the last rows; a name without a
    column writes empty fields."""
    cols = [columns.get(name, ()) for name in header]
    rows = max(map(len, cols))
    with open(out_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*(_fields(c, rows) for c in cols)))


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config, GEN_DEFAULTS, args.seed)
    _check_out_file(args.out)
    data = _dataset(cfg, cfg["seed"])
    rows, p = data.X.shape
    columns = {f"x_{j}": data.X[:, j] for j in range(p)}
    columns.update(y=data.y, is_outlier=data.is_outlier)
    _write_csv(args.out, list(columns), columns)
    _write_meta(args.out, cfg)
    print(f"wrote {rows} rows x {p + 2} columns (seed {cfg['seed']}) to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args.config, RUN_DEFAULTS, args.seed)
    _check_out_file(args.out)
    problem = _make_problem(cfg)
    (traj,) = _run_cells(cfg, problem, [(_make_reweight_config(cfg), cfg["seed"])])
    if isinstance(traj, Exception):
        raise traj
    _write_csv(args.out, COLUMNS, traj.columns)
    _write_meta(args.out, cfg)
    steps = len(traj.columns["step"])
    if traj.diverged:
        print(f"diverged at step {traj.divergence_step}; wrote {steps} steps to {args.out}")
        return EXIT_DIVERGED
    print(f"converged; wrote {steps} steps to {args.out}")
    return EXIT_OK


# Every sweep cell sets these run keys itself, so a sweep config cannot.
CELL_KEYS = ("strategy", "seed", "schedule", "r_initial", "r_final")
SWEEP_DEFAULTS = {k: v for k, v in RUN_DEFAULTS.items() if k not in CELL_KEYS}
SWEEP_DEFAULTS.update({
    "strategies": ["uniform", "linupper", "quadratic", "extremes"],
    "r_values": [1.0],
    "seeds": [0, 1, 2, 3, 4],
})


def _summary_row(cell, out_dir, outcome):
    """Write a trained cell's CSV and sidecar and return its summary row."""
    row = [cell["strategy"], cell["r_initial"], cell["seed"]]
    if isinstance(outcome, Exception):
        return row + ["", "", f"error: {outcome}"]
    out_path = os.path.join(out_dir, f"{row[0]}_r{row[1]}_seed{row[2]}.csv")
    _write_csv(out_path, COLUMNS, outcome.columns)
    _write_meta(out_path, cell)
    test_losses = outcome.columns.get("test_loss", np.empty(0)).tolist()
    final = test_losses[-1] if test_losses else ""
    auc = float(np.mean(test_losses)) if test_losses else ""
    return row + [final, auc, "diverged" if outcome.diverged else "ok"]


def _cpus():
    """The number of CPUs this process may run on: 1 where it cannot fork or
    the OS does not tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _write_share(cells, out_dir, share, trained):
    """Write the cells of one share as they train, and return their (cell
    index, summary row) pairs."""
    # each trajectory is dropped once its CSV is written
    return [(i, _summary_row(cells[i], out_dir, next(trained))) for i, _ in share]


def _fork(job):
    """Fork a worker that calls job and sends its pickled (value, None), or
    (None, the exception it raised), through a pipe. The worker leaves by
    os._exit, so no exit handler or stdio flush runs in it; it exits 0 once
    the pipe holds its result. Return its pid and the pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                result = (job(), None)
            except Exception as exc:  # the parent raises it again
                result = (None, exc)
            with open(write, "wb") as fh:
                pickle.dump(result, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write)  # a later worker must not hold this pipe open
    return pid, open(read, "rb")


def _in_workers(jobs):
    """Call every job and return their values in order: the first job in
    this process, each other in a worker forked for it. Every worker is
    reaped before this returns or raises, also when this process's own job
    raises. A worker's exception is raised here again, and a worker that
    died raises a RuntimeError naming its exit status."""
    workers, statuses = [], []
    try:
        for job in jobs[1:]:
            workers.append(_fork(job))
        values = [job() for job in jobs[:1]]
        payloads = [fh.read() for _, fh in workers]  # read every pipe before waiting
    finally:
        # Close every read end before waiting: a worker still writing gets
        # EPIPE once neither this process nor a later worker holds its pipe.
        for _, fh in workers:
            fh.close()
        for pid, _ in workers:
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), status, payload in zip(workers, statuses, payloads):
        if status != 0:
            raise RuntimeError(f"sweep worker {pid} died with exit status {status}")
        value, exc = pickle.loads(payload)
        if exc is not None:
            raise exc
        values.append(value)
    return values


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, SWEEP_DEFAULTS)
    try:  # an existing directory is reused
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make --out directory {args.out!r}: {exc.strerror}") from None
    shared = {k: v for k, v in cfg.items() if k not in ("strategies", "r_values", "seeds")}
    cells = [dict(shared, strategy=strategy, r_initial=r, r_final=r, schedule="constant",
                  seed=seed)
             for strategy in cfg["strategies"] for r in cfg["r_values"] for seed in cfg["seeds"]]
    # Cells differ only in strategy, r and seed, so they share one problem and
    # step-size rule and train as rows of one loop. A cell whose config fails
    # records its error; a problem or step-size ConfigError is recorded by
    # every cell, and any other exception propagates, as from `run`.
    outcomes, runnable = {}, []
    for i, cell in enumerate(cells):
        try:
            runnable.append((i, _make_reweight_config(cell)))
        except ConfigError as exc:
            outcomes[i] = exc
    # W contiguous shares, one per worker. run_cells checks eagerly and
    # trains lazily, so every share is checked here, before any fork.
    W = max(1, min(len(runnable), _cpus()))
    shares = [runnable[k * len(runnable) // W:(k + 1) * len(runnable) // W] for k in range(W)]
    try:
        problem = _make_problem(cfg)
        trained = [_run_cells(cfg, problem, [(rw, cells[i]["seed"]) for i, rw in share])
                   for share in shares]
    except ConfigError as exc:  # record the shared failure for every cell
        outcomes, shares, trained = dict.fromkeys(range(len(cells)), exc), [], []
    rows = [None] * len(cells)
    jobs = [partial(_write_share, cells, args.out, share, share_outcomes)
            for share, share_outcomes in zip(shares, trained)]
    for i, row in chain.from_iterable(_in_workers(jobs)):
        rows[i] = row
    for i, exc in outcomes.items():
        rows[i] = _summary_row(cells[i], args.out, exc)
    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["strategy", "r", "seed", "final_test_loss", "auc_test_loss", "status"])
        writer.writerows(rows)
    _write_meta(summary_path, cfg)
    print(f"sweep complete: {len(rows)} cells, summary at {summary_path}")
    failed = [row for row in rows if row[5].startswith("error")]
    for strategy, r, seed, _, _, status in failed:
        print(f"failed cell {strategy} r={r} seed={seed}: {status}", file=sys.stderr)
    return EXIT_CONFIG if failed else EXIT_OK


def cmd_verify(args) -> int:
    ok = verify_mod.run_all()
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reweight",
                                     description="loss-based sample reweighting experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate the regression dataset CSV")
    p_run = sub.add_parser("run", help="single training run -> trajectory CSV")
    p_sweep = sub.add_parser("sweep", help="strategy x r x seed sweep -> summary CSV")
    p_verify = sub.add_parser("verify", help="run the brute-force oracle suite")

    for p in (p_gen, p_run, p_sweep):
        p.add_argument("--config", default=None, help="flat JSON config file")
    for p in (p_gen, p_run):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_gen.add_argument("--out", required=True)
    p_run.add_argument("--out", required=True)
    p_sweep.add_argument("--out", required=True, help="output directory")

    p_gen.set_defaults(func=cmd_gen_data)
    p_run.set_defaults(func=cmd_run)
    p_sweep.set_defaults(func=cmd_sweep)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
