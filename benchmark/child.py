"""Benchmark child process: import the CLI, run one workload's op list, report.

``run.py`` starts this file with ``src/`` of the checkout on ``PYTHONPATH``.
The first stdout line is printed as soon as ``zetagamma.cli`` is imported, so
the parent can time set-up; the last stdout line is the child's result as
JSON (see ``runner.py``).

    python3 benchmark/child.py --probe
    python3 benchmark/child.py --workload tables --seed 1 --seconds 10 --trace 0
"""

import json
import sys
import time

_t0 = time.perf_counter()
import numpy  # noqa: E402  (timed on its own: most of the set-up cost)

_t_numpy = time.perf_counter()
import zetagamma.cli  # noqa: E402

_t_ready = time.perf_counter()
print(json.dumps({"numpy_import_s": _t_numpy - _t0,
                  "zetagamma_import_s": _t_ready - _t_numpy}), flush=True)

from runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
