"""Record the output digests every benchmark scenario is checked against.

    python3 perfbench/record_digests.py

Runs each pool seed of each workload once and writes digests.json.  Run it
only when a change is meant to alter the simulator's output bytes; the
simulator promises byte-identical metrics and chain files per seed.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import POOLS, WORKLOADS, Workspace  # noqa: E402


def main() -> int:
    run.load_program()
    digests = {}
    for workload in WORKLOADS:
        work = run.WORK / f"record-{workload}"
        ws = Workspace(run.ROOT, work, workload, 0)
        digests[workload] = {}
        for seed in POOLS[workload]:
            o = ws.run(seed)
            if o.problems:
                print(f"{workload} seed {seed}: {o.problems}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = o.digest
        shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {len(digests[workload])} scenarios recorded")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
