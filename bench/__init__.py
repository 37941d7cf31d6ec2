"""The repository's benchmark of record (see bench/README.md).

Seven named workloads over the whole stack, end-to-end metrics with
regression bounds, and a traced per-layer ledger.  Entry points:
``python -m bench.run`` and ``python -m bench.compare``.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)
