"""Set-up probe: import ``repro`` and build one workload to ready-to-run.

Started as a fresh interpreter by ``run.py``, which times it from process
start to the ``ready`` line it prints; the time therefore covers the
interpreter, ``import repro``, spec validation and the fleet build
(schedule prewarming included).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not (SRC / "repro" / "__init__.py").is_file():
        print("usage: setup_probe.py <workload> <seed> (needs src/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[argv[0]](int(argv[1]))
    workload.setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
