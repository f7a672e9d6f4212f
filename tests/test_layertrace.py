"""Smoke test of the benchmark's per-layer tracer (`perfbench/layertrace.py`,
run by `perfbench/run.py --trace 1`): it wraps the simulator's public names
from outside, so a rename in a layer it hooks breaks it silently.  The file is
read and executed here, never imported into `perfbench/`'s bytecode cache."""

import contextlib
import importlib
import io
import types
from pathlib import Path

import pytest

import algosim.cli as cli  # the tracer wraps every binding under algosim
from algosim.cli import load_config
from algosim.engine import ScenarioConfig, metrics_to_lines
from algosim.sortition import ProtocolParams

from conftest import export_lines

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def load_layertrace() -> types.ModuleType:
    module = types.ModuleType("layertrace")
    module.__file__ = str(LAYERTRACE)
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"),
         module.__dict__)
    return module


def test_tracer_counts_every_delivery():
    layertrace = load_layertrace()
    layers = {layer: importlib.import_module("algosim." + layer)
              for layer in layertrace.LAYERS}
    config = ScenarioConfig(
        seed=1, num_genesis_users=10, rounds=8, consensus_mode="both",
        params=ProtocolParams(leader_prob=0.5, verifier_prob=0.7, lookback=3,
                              max_ba_steps=9, cert_threshold=5, horizon=16))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.begin_scenario()
        _, metrics = layers["engine"].run_scenario(config)
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert metrics.total_messages > 0
    assert counts["netsim.deliveries"] == metrics.total_messages
    assert counts["engine.SimulationRun.run_round"] == config.rounds
    # uninstalled: a second run goes unseen
    layers["engine"].run_scenario(config._replace(rounds=4))
    assert tracer.counts() == counts


def test_tracer_sees_the_genesis_fork_attack():
    # the adversary binds `vote` by name; every binding is wrapped, and the
    # traced attack writes what an untraced one writes
    layertrace = load_layertrace()
    engine = importlib.import_module("algosim.engine")
    config = load_config(str(FIXTURES / "genesis_fork.cfg"))

    def outputs():
        chains, metrics = engine.run_scenario(config)
        return metrics_to_lines(metrics), [export_lines(c) for c in chains]

    untraced = outputs()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.begin_scenario()
        traced = outputs()
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert counts["adversary.fork_from"] == 1
    assert traced == untraced
    # uninstalled: a further run goes unseen
    outputs()
    assert tracer.counts() == counts


def cli_outputs(argv, out: Path):
    """Exit code of `cli.main(argv + --out out)` and the files it wrote."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv] + ["--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [
    ["run", "--config", FIXTURES / "honest.cfg", "--rounds", 8],
    ["attack", "genesis-fork", "--config", FIXTURES / "genesis_fork.cfg"],
], ids=["run", "attack"])
def test_traced_cli_writes_what_an_untraced_one_writes(argv, tmp_path):
    # the tracer's result hooks see what the CLI's calls return, so a hook
    # that no longer fits a return value fails the traced command here
    layertrace = load_layertrace()
    untraced = cli_outputs(argv, tmp_path / "untraced")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.begin_scenario()
        traced = cli_outputs(argv, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert tracer.counts()["cli.main"] == 1
    assert traced == untraced
    assert traced[0] == 0 and "chain.jsonl" in traced[1]
