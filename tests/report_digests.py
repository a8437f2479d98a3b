"""Digests of every scenario's report over a fixed grid of configs.

Runs each config in process through ``envstat.cli.main`` and prints one
line per (scenario, config): the exit status, then the SHA-256 of the
stderr line and of the rendered JSON report with its ``wall_time_s`` line
removed.  Two trees whose outputs are equal give the same exit statuses and
byte-identical reports apart from the wall time, so a change meant to keep
every report is checked by diffing this script's output before and after:

    PYTHONPATH=src python tests/report_digests.py > after.txt

The grid:
  - every scenario at its defaults, with seeds 12345, 7 and 99;
  - quantum-cycle at T in {400, 1000, 4000, 2e4, 2e5} and U in
    {inf, 1200, 2e4, 1e5};
  - spectrum-split at U in {1200, 2400, 4800, 9600}, d/L in {0.01, 0.05}
    and n_pairs in {5, 16}.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import tempfile

from envstat.cli import main
from envstat.scenarios import SCENARIOS


def grid() -> list[dict]:
    """Every raw config of the grid, in a fixed order."""
    configs = [{"scenario": name, "seeds": [seed]}
               for name in SCENARIOS for seed in (12345, 7, 99)]
    configs += [{"scenario": "quantum-cycle",
                 "engine": {"temperature": t, "barrier_height": u}}
                for t, u in itertools.product((400.0, 1000.0, 4000.0, 2e4, 2e5),
                                              ("inf", 1200.0, 2e4, 1e5))]
    configs += [{"scenario": "spectrum-split",
                 "engine": {"barrier_height": u, "barrier_width": dl * math.pi},
                 "params": {"n_pairs": n}}
                for u, dl, n in itertools.product((1200.0, 2400.0, 4800.0, 9600.0),
                                                  (0.01, 0.05), (5, 16))]
    return configs


def digest(raw: dict, workdir: str) -> str:
    """One line: the config, the exit status, and the two SHA-256 digests."""
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([raw["scenario"], "--config", path])
    report = "\n".join(line for line in out.getvalue().split("\n")
                       if '"wall_time_s"' not in line)
    return " ".join((json.dumps(raw, sort_keys=True), str(code),
                     hashlib.sha256(err.getvalue().encode()).hexdigest(),
                     hashlib.sha256(report.encode()).hexdigest()))


def run() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for raw in grid():
            print(digest(raw, workdir), flush=True)


if __name__ == "__main__":
    run()
