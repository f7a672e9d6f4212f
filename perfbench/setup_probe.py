"""Cold-start probe behind `setup_s`, run in a fresh interpreter:

    python3 perfbench/setup_probe.py honest|attack CONFIG
    python3 perfbench/setup_probe.py replay CONFIG CHAIN

imports algosim from this checkout's src/, loads the workload config and
builds the first SimulationRun, or for replay parses the first chain the way
`verify-chain` does.  The caller times the whole process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from algosim import cli  # noqa: E402
from algosim.crypto import KeyRegistry  # noqa: E402
from algosim.engine import SimulationRun  # noqa: E402
from algosim.ledger import chain_from_lines  # noqa: E402


def main(argv: list[str]) -> int:
    workload, config_path = argv[0], argv[1]
    config = cli.load_config(config_path)
    if workload == "replay":
        registry = KeyRegistry(config.seed, horizon=config.params.horizon,
                               max_step=config.params.max_step)
        for u in range(1, config.num_genesis_users + 1):
            registry.register_user(u)
        chain = chain_from_lines(Path(argv[2]).read_text().splitlines(), registry)
        return 0 if len(chain.blocks) > 1 else 1
    SimulationRun(config)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
