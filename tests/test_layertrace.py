"""Smoke test of the benchmark's per-layer tracer (`perfbench/layertrace.py`,
run by `perfbench/run.py --trace 1`): it wraps the simulator's public names
from outside, so a rename in a layer it hooks breaks it silently.  The file is
read and executed here, never imported into `perfbench/`'s bytecode cache."""

import dataclasses
import importlib
import types
from pathlib import Path

import algosim.cli  # noqa: F401  the tracer wraps every binding under algosim
from algosim.engine import ScenarioConfig
from algosim.sortition import ProtocolParams

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


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
    layers["engine"].run_scenario(dataclasses.replace(config, rounds=4))
    assert tracer.counts() == counts
