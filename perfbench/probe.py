"""Set-up probe: one fresh process pays what a CLI invocation pays.

Imports envstat (``workloads`` imports envstat.scenarios and the layers it
calls), builds the workload's first deck and prepares its inputs, then
prints ``ready`` and exits.  ``run.py`` times it from spawn to that line.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    for op in next(workloads.decks(workload, seed)):
        workloads.KINDS[op.kind].prepare(op)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
