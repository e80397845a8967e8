"""Record the sweep_toy reference: the final test loss of every cell that a
workload seed can select, computed through the CLI at the current commit.

    python3 bench/record_reference.py

Writes bench/reference_sweep_toy.json. Run it only at a commit whose
trajectories are known good; the benchmark's sweep_toy gate compares every
later commit against this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_cli  # noqa: E402
from workloads import (REFERENCE, SWEEP_DATA_SEEDS, SWEEP_RTOL,  # noqa: E402
                       SWEEP_TRAIN_SEEDS, load_base, reference_key)


def main() -> int:
    cli = import_cli()
    base = load_base("sweep_toy.json")
    finals = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for data_seed in SWEEP_DATA_SEEDS:
            cfg_path = Path(tmp) / f"data{data_seed}.json"
            cfg_path.write_text(json.dumps(dict(base, data_seed=data_seed,
                                                seeds=list(SWEEP_TRAIN_SEEDS))))
            out = Path(tmp) / f"out{data_seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"sweep for data seed {data_seed} exited {code}")
            with open(out / "summary.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    if row["status"] != "ok":
                        raise SystemExit(f"cell {row} did not finish ok")
                    key = reference_key(row["strategy"], data_seed, int(row["seed"]))
                    finals[key] = float(row["final_test_loss"])
    REFERENCE.write_text(json.dumps({
        "base_config": base,
        "rel_tol": SWEEP_RTOL,
        "final_test_loss": finals,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(finals)} reference values to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
