"""Benchmark of the `reweight` CLI: end-to-end metrics, per-layer metrics from
a traced run, and correctness gates on every pass's outputs.

    python3 bench/run.py --workload sweep_toy --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's `src/`. With `--trace 0` the result holds the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics.
Human-readable report lines come first; the last line of standard output is
the JSON result. See bench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, traced  # noqa: E402
from workloads import WORKLOADS, check_pass, make_inputs, pass_argvs  # noqa: E402

PROBES = 5  # fresh-process set-up measurements per run
MIN_PASSES = 3
TMP_PARENT = ROOT / ".bench_tmp"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import reweight.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "reweight" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no program source under {ROOT}: expected src/reweight/ and configs/")
    sys.path.insert(0, str(src))
    import reweight.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"reweight was imported from {cli.__file__}, not from {src}")
    return cli


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def probe_setup(configs: list[Path]) -> list[float]:
    """Fresh-process import plus problem building, PROBES times."""
    times = []
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, configs)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def call_main(cli, argv):
    """Exit code of one CLI call; a crash is recorded as a failed call so the
    pass is still checked and reported."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return "exception"


def run_pass(cli, inputs, out_dir: Path, tracer: Tracer | None):
    """Run one pass through reweight.cli.main, then check its outputs."""
    out_dir.mkdir()
    stdout = io.StringIO()
    absent = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            absent = stack.enter_context(traced(tracer))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        t0 = time.perf_counter()
        codes = [call_main(cli, argv) for argv in pass_argvs(inputs, out_dir)]
        wall = time.perf_counter() - t0
    result = check_pass(inputs, out_dir, codes, stdout.getvalue())
    shutil.rmtree(out_dir)
    return wall, result, absent


def schedule(trace: bool):
    """Whether each successive pass is traced: untraced only, or untraced,
    traced, traced and then alternating."""
    if trace:
        yield from (False, True, True)
        while True:
            yield False
            yield True
    while True:
        yield False


def tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond
    it, with the sample count."""
    xs = sorted(values)
    text = f"median {statistics.median(xs)!r} (n={len(xs)}"
    if len(xs) >= 11:
        pct = 100.0 * (len(xs) - 10) / len(xs)
        text += f", p{pct:.0f} {xs[len(xs) - 11]!r}"
    else:
        text += ", too few samples for a tail percentile"
    return text + f", max {xs[-1]!r})"


def end_to_end_metrics(probes: list[float], walls: list[float],
                       rates: list[float]) -> dict[str, float]:
    """Medians over the run's set-up probes and untraced passes, plus the
    peak resident memory of this process, which ran every pass."""
    return {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracers: list[Tracer], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced passes. Counts are per pass; times
    are totals over all traced passes divided by their calls or wall time."""
    first = tracers[0]
    wall = sum(traced_walls)

    def calls(*names):
        return sum(first.calls(n) for n in names)

    def seconds(*names):
        return sum(t.seconds(n) for t in tracers for n in names)

    def us_per_call(*names):
        n = sum(t.calls(name) for t in tracers for name in names)
        return seconds(*names) / n * 1e6 if n else 0.0

    steps = calls("optim.gd_step", "optim.momentum_step")

    def per_step(*names):
        return calls(*names) / steps if steps else 0.0

    losses = ("problems.RegressionProblem.losses", "problems.QuadraticProblem.losses")
    grads = ("problems.RegressionProblem.grads", "problems.QuadraticProblem.grads")
    test = ("problems.RegressionProblem.test_loss",)
    evals = losses + grads + test + ("problems.QuadraticProblem.losses_at_opt",
                                     "problems.regression_loss_grad",
                                     "problems.nonconvex_loss_grad")
    diag = ("diagnostics.delta_t", "diagnostics.mu_t", "diagnostics.grad_gap_term")
    update = ("optim.gd_step", "optim.momentum_step")
    weights = "core.compute_batch_weights"
    capped = "core.capped_optimal_weights"
    metrics = {
        "core.weights.calls": calls(weights),
        "core.weights.us_per_call": us_per_call(weights),
        "core.weights.share": seconds(weights) / wall,
        "core.capped.calls": calls(capped),
        "core.capped.us_per_call": us_per_call(capped),
        "problems.losses.calls_per_step": per_step(*losses),
        "problems.grads.calls_per_step": per_step(*grads),
        "problems.test_loss.calls_per_step": per_step(*test),
        "problems.losses.us_per_call": us_per_call(*losses),
        "problems.grads.us_per_call": us_per_call(*grads),
        "problems.test_loss.us_per_call": us_per_call(*test),
        "problems.share": seconds(*evals) / wall,
        "problems.gen_s": seconds("problems.gen_regression",
                                  "problems.gen_quadratic_suite") / len(tracers),
        "diagnostics.calls_per_step": per_step(*diag),
        "diagnostics.us_per_call": us_per_call(*diag),
        "diagnostics.share": seconds(*diag) / wall,
        "optim.update.calls": steps,
        "optim.update.us_per_call": us_per_call(*update),
        "optim.update.share": seconds(*update) / wall,
        "optim.loop_self.share": sum(t.self_seconds("optim.run_training") for t in tracers) / wall,
        "cli.self.share": sum(t.self_seconds("cli.main") for t in tracers) / wall,
        "oracle.brute_force.calls": calls("oracle.brute_force_optimal_weights"),
        "oracle.brute_force.us_per_call": us_per_call("oracle.brute_force_optimal_weights"),
        "oracle.project.calls": calls("oracle.project_capped_simplex"),
        "oracle.finite_diff.calls": calls("oracle.finite_diff_grad"),
    }
    for check in ("prop1_agreement", "kkt", "gradients", "delta_sign",
                  "cap_enforcement", "degenerate_limit"):
        metrics[f"verify.{check}.s"] = seconds(f"verify.check_{check}") / len(tracers)
    metrics["trace.overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    cli = import_cli()
    os.environ.pop("REWEIGHT_THREADS", None)
    print("env", json.dumps(environment(), sort_keys=True))

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        in_dir = tmp / "inputs"
        in_dir.mkdir()
        inputs = make_inputs(args.workload, args.seed, in_dir)
        print("inputs", json.dumps(inputs.describe(), sort_keys=True))
        probes = [] if args.trace else probe_setup(inputs.configs)

        walls = {False: [], True: []}
        checks: list[tuple[str, bool, str]] = []
        tracers: list[Tracer] = []
        absent: list[str] = []
        rates = []
        first = None
        start = time.perf_counter()
        for k, is_traced in enumerate(schedule(bool(args.trace))):
            done = walls[False] + walls[True]
            if (len(done) >= MIN_PASSES
                    and time.perf_counter() - start + statistics.median(done) > args.seconds):
                break
            tracer = Tracer() if is_traced else None
            wall, result, absent = run_pass(cli, inputs, tmp / f"pass{k}", tracer)
            walls[is_traced].append(wall)
            checks += [(f"pass {k}: {name}", ok, detail) for name, ok, detail in result.checks]
            if first is None:
                first = result
            else:
                checks.append((f"pass {k}: outputs equal pass 0",
                               result.digest == first.digest, result.digest))
            if tracer is not None:
                if tracers:
                    checks.append((f"pass {k}: trace counts equal the first traced pass",
                                   tracer.counts() == tracers[0].counts(),
                                   json.dumps(tracer.counts())))
                tracers.append(tracer)
            else:
                rates.append(result.steps / wall)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()

    if args.trace:
        metrics = layer_metrics(tracers, walls[True], walls[False])
        if absent:
            print("absent", json.dumps(absent))
        print("trace counts", json.dumps(tracers[0].counts(), sort_keys=True))
    else:
        metrics = end_to_end_metrics(probes, walls[False], rates)
        print("setup_s", tail(probes))
        print("wall_s", tail(walls[False]))
    if "linupper_gain" in first.values:
        print("linupper_gain", repr(first.values["linupper_gain"]))

    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAIL {name}: {detail}")
    print(f"fail_ratio {len(failed) / len(checks)!r} ({len(failed)} of {len(checks)} checks)")

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        fail(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
