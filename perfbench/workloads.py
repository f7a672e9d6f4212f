"""The three workloads: how each scenario's inputs are made from a seed, how
it runs through the public CLI entry point (`algosim.cli.main`), and how its
outputs are checked.

Why these workloads (the same text is the `why` in BENCHMARK.json):

* honest -- `run` of fixtures/honest.cfg (100 users, 50 rounds, mode both).
  Sortition-bound: committee sweeps are about half the time.  Runs graded
  consensus, binary agreement and the simple-vote shadow; no adversary, no
  chain re-validation.
* attack -- `attack genesis-fork`, `verify-chain` of the forged chain, then
  `attack bribery`.  Committees are tiny, so block hashing, proposal checks
  and certificate checks dominate.  The only workload where the adversary
  runs and ephemeral keys are retained.
* replay -- `verify-chain` of long honest chains exported during set-up.
  The read path only: chain parsing, the leader sweep, certificate checks
  and payset replay; no round pipeline, network or signing.

`modelcheck` is left out: its exhaustive checks finish in about 60 ms.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("honest", "attack", "replay")

# Scenario seeds come from a fixed pool per workload, so every scenario has
# output digests recorded in digests.json.  The workload seed picks the order.
# Honest rounds' tails differ by seed (a seed's slowest round takes 4 to
# 7.6 ms), so its pool is small enough for one run to cover most of it.
POOLS = {"honest": range(16), "attack": range(64), "replay": range(16)}

REPLAY_ROUNDS = 150
REPLAY_CHAINS = 4          # chains exported per run, verified in turn


class BenchError(Exception):
    """The benchmark cannot run here (missing program or fixtures)."""


@dataclass
class Outcome:
    seed: int
    seconds: float                  # raw wall time of the CLI calls
    rounds: int                     # rounds produced or re-validated
    digest: str = ""                # SHA-256 over the output files
    problems: list[str] = field(default_factory=list)


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


class Workspace:
    """Inputs and outputs of one benchmark run, all under `work`."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}")
        self.work = work
        self.workload = workload
        self.fixtures = root / "fixtures"
        for name in ("honest.cfg", "genesis_fork.cfg", "bribery.cfg"):
            if not (self.fixtures / name).is_file():
                raise BenchError(f"missing fixture {self.fixtures / name}")
        from algosim import cli, engine, ledger
        self.cli, self.engine, self.ledger = cli, engine, ledger
        order = list(POOLS[workload])
        random.Random(seed).shuffle(order)
        # Replay verifies the chains exported in set-up, in turn.
        self.order = order[:REPLAY_CHAINS] if workload == "replay" else order
        shutil.rmtree(work, ignore_errors=True)
        (work / "cfg").mkdir(parents=True)
        self._configs: dict = {}

    def scenario_seed(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def config(self, fixture: str, seed: int, **overrides) -> str:
        """Path of `fixture` rewritten with `seed` and `section__key` overrides."""
        key = (fixture, seed, tuple(sorted(overrides.items())))
        path = self._configs.get(key)
        if path is None:
            cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
            cp.read(self.fixtures / fixture)
            cp["scenario"]["seed"] = str(seed)
            for name, value in overrides.items():
                section, option = name.split("__")
                cp[section][option] = str(value)
            path = str(self.work / "cfg" / f"{Path(fixture).stem}-{len(self._configs)}.cfg")
            with open(path, "w") as f:
                cp.write(f)
            self._configs[key] = path
        return path

    def replay_config(self, seed: int, rounds: int = REPLAY_ROUNDS) -> str:
        return self.config("honest.cfg", seed, scenario__rounds=rounds,
                           params__horizon=rounds + 8, scenario__mode="ba")

    def fresh_dir(self, name: str) -> Path:
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        return d

    def call(self, argv: list[str]) -> tuple[int, str, str, float]:
        """Run one CLI command in-process; (exit code, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    # -- set-up ---------------------------------------------------------------

    def replay_chain(self, seed: int) -> Path:
        """Export (untimed) the honest chain a replay scenario verifies."""
        path = self.work / "replay" / f"chain-{seed}.jsonl"
        if not path.exists():
            out = self.fresh_dir("replay-export")
            code, _, err, _ = self.call(["run", "--config", self.replay_config(seed),
                                         "--out", str(out)])
            if code != 0:
                raise BenchError(f"replay chain export failed ({code}): {err[-300:]}")
            path.parent.mkdir(exist_ok=True)
            (out / "chain.jsonl").rename(path)
        return path

    def prepare(self) -> None:
        if self.workload == "replay":
            for seed in self.order:
                self.replay_chain(seed)

    # -- scenarios ------------------------------------------------------------

    def run(self, seed: int) -> Outcome:
        """One scenario, with every boundary failure recorded as a problem."""
        try:
            return getattr(self, "_" + self.workload)(seed)
        except Exception:  # noqa: BLE001 -- a crash is a failed scenario
            return Outcome(seed, 0.0, 0, problems=[traceback.format_exc(limit=3)])

    def _honest(self, seed: int, rounds: int | None = None) -> Outcome:
        cfg = (self.config("honest.cfg", seed) if rounds is None else
               self.config("honest.cfg", seed, scenario__rounds=rounds,
                           params__horizon=rounds + 14))
        out = self.fresh_dir("out")
        code, _, err, secs = self.call(["run", "--config", cfg, "--out", str(out)])
        o = Outcome(seed, secs, 0)
        if code != 0:
            o.problems.append(f"run exited {code}: {err[-300:]}")
            return o
        records = _metrics(out / "metrics.jsonl", o)
        if records:
            summary = records[-1]["summary"]
            o.rounds = summary["rounds"]
            if summary["forks_detected"]:
                o.problems.append("fork in an honest run")
            for rec in records[:-1]:
                if "bootstrap" not in rec["flags"] and rec["equivalent"] is not True:
                    o.problems.append(f"round {rec['round']}: agreement and "
                                      "simple vote differ")
        o.digest = file_digest([out / "metrics.jsonl", out / "chain.jsonl"])
        return o

    def _attack(self, seed: int) -> Outcome:
        gcfg = self.config("genesis_fork.cfg", seed)
        bcfg = self.config("bribery.cfg", seed)
        fork, bribe = self.fresh_dir("fork"), self.fresh_dir("bribery")
        steps = [
            ("attack genesis-fork", ["attack", "genesis-fork", "--config", gcfg,
                                     "--out", str(fork)]),
            ("verify-chain", ["verify-chain", "--chain",
                              str(fork / "chain_fork0.jsonl"), "--config", gcfg]),
            ("attack bribery", ["attack", "bribery", "--config", bcfg,
                                "--out", str(bribe)]),
        ]
        o = Outcome(seed, 0.0, 0)
        for name, argv in steps:
            code, stdout, err, secs = self.call(argv)
            o.seconds += secs
            if code != 0:
                o.problems.append(f"{name} exited {code}: {err[-300:]}")
                return o
            if name == "verify-chain" and not stdout.startswith("chain valid"):
                o.problems.append(f"verify-chain printed {stdout[:200]!r}")
        for d, kind in ((fork, "genesis-fork"), (bribe, "bribery-fork")):
            records = _metrics(d / "metrics.jsonl", o)
            if records:
                summary = records[-1]["summary"]
                o.rounds += summary["rounds"]
                kinds = [f["classification"] for f in summary["fork_descriptions"]]
                if kind not in kinds:
                    o.problems.append(f"{kind} not detected")
        o.digest = file_digest([d / f for d in (fork, bribe)
                                for f in ("metrics.jsonl", "chain.jsonl",
                                          "chain_fork0.jsonl")])
        return o

    def _replay(self, seed: int, chain: Path | None = None) -> Outcome:
        chain = chain or self.replay_chain(seed)
        code, stdout, err, secs = self.call(
            ["verify-chain", "--chain", str(chain), "--config", self.replay_config(seed)])
        blocks = sum(1 for line in chain.read_text().splitlines()[1:] if line.strip())
        o = Outcome(seed, secs, blocks - 1)
        if code != 0:
            o.problems.append(f"verify-chain exited {code}: {err[-300:]}")
        elif stdout.strip() != f"chain valid: {blocks} blocks":
            o.problems.append(f"verify-chain printed {stdout[:200]!r}")
        o.digest = file_digest([chain])
        return o

    # -- memory pass ----------------------------------------------------------

    def memory_pass(self, seed: int) -> tuple[float, float, list[Outcome]]:
        """(peak MB of one scenario, KB still held per extra round, outcomes).

        Runs under tracemalloc, so never during timed runs.  "Held" is the
        traced memory right after a run returns while everything it built is
        still referenced: the engine's first SimulationRun.run for honest and
        attack (there the genesis-fork run), and verify_chain as the CLI
        calls it for replay.  It is compared between the scenario and one
        variant of another length.  The genesis-fork run is used because its
        saturated sortition makes held memory per round independent of the
        seed; the bribery run's varies by 7% between seeds.
        """
        import gc
        import tracemalloc

        held: list[tuple[int, int]] = []
        if self.workload == "replay":
            owner, name = self.cli, "verify_chain"
            rounds_of = lambda args: len(args[0].blocks) - 1  # noqa: E731
        else:
            owner, name = self.engine.SimulationRun, "run"
            rounds_of = lambda args: args[0].config.rounds  # noqa: E731
        original = getattr(owner, name)

        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            held.append((tracemalloc.get_traced_memory()[0], rounds_of(args)))
            return result

        def measured(fn):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            first = len(held)
            o = fn()
            mem, rounds = held[first] if len(held) > first else (base, 0)
            return o, tracemalloc.get_traced_memory()[1] - base, mem - base, rounds

        setattr(owner, name, record)
        tracemalloc.start()
        try:
            o1, peak, held1, rounds1 = measured(lambda: self.run(seed))
            o2, _, held2, rounds2 = measured(lambda: self._memory_variant(seed))
        finally:
            tracemalloc.stop()
            setattr(owner, name, original)
        per_round = (held1 - held2) / (rounds1 - rounds2) if rounds1 != rounds2 else 0.0
        return peak / 1e6, per_round / 1e3, [o1, o2]

    def _memory_variant(self, seed: int) -> Outcome:
        """The scenario's measured run at another length: a 100-round honest
        run, a 19-round genesis-fork run, or a 49-round prefix of the replay
        chain."""
        if self.workload == "honest":
            return self._honest(seed, rounds=100)
        if self.workload == "replay":
            lines = self.replay_chain(seed).read_text().splitlines(keepends=True)
            short = self.work / "replay" / f"prefix-{seed}.jsonl"
            short.write_text("".join(lines[:51]))
            return self._replay(seed, short)
        gcfg = self.config("genesis_fork.cfg", seed, scenario__rounds=19)
        out = self.fresh_dir("fork")
        code, _, err, secs = self.call(["attack", "genesis-fork", "--config", gcfg,
                                        "--out", str(out)])
        o = Outcome(seed, secs, 0)
        if code != 0:
            o.problems.append(f"attack genesis-fork exited {code}: {err[-300:]}")
            return o
        records = _metrics(out / "metrics.jsonl", o)
        if records:
            o.rounds = records[-1]["summary"]["rounds"]
        return o


def _metrics(path: Path, o: Outcome) -> list[dict]:
    """Parsed metrics.jsonl, or [] with a problem recorded."""
    try:
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if not records or "summary" not in records[-1]:
            raise ValueError("no summary record")
        return records
    except (OSError, ValueError, KeyError) as exc:
        o.problems.append(f"{path.name}: {exc}")
        return []
