"""Set-up probe, run in a fresh process by run.py.

Times the import of the `reweight` CLI module plus building every problem the
given generated config files describe, and prints the seconds taken.

    python3 bench/setup_probe.py [config.json ...]
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import build_problems  # noqa: E402

t0 = time.perf_counter()
import reweight.cli  # noqa: E402,F401

for path in sys.argv[1:]:
    build_problems(json.loads(Path(path).read_text()))
print(repr(time.perf_counter() - t0))
