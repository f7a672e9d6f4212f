"""Command-line entry point: scenario execution, chain verification and
metrics comparison.

`main(argv)` returns the exit code: 0 success, 1 protocol violation
detected (or attack failed), 2 usage or config error.  It may be called many
times in one process, as the tests and perfbench do; the argument parser is
built on the first call and reused.  `ALGOSIM_LOG` (off|info|trace) sets
verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .adversary import (
    AdversaryConfig,
    ForkInfeasibleError,
    PreconditionViolatedError,
)
from .crypto import KeyRegistry
from .engine import (
    CommittedRound,
    EngineError,
    RunMetrics,
    ScenarioConfig,
    round_line,
    run_scenario,
    summary_line,
)
from .ledger import (LedgerError, block_pieces, chain_pieces, read_chain,
                     verify_chain)
from .sortition import ProtocolParams, default_cert_threshold

class ConfigError(Exception):
    pass


# The three config records are the schema: a key names a field, the text of
# the field's annotation (a string under `from __future__ import annotations`,
# kept as a `ForwardRef` by the NamedTuple base that declares the fields)
# says how its text is read, and the record holds its default and check.
_READERS = {"int": int, "float": float, "str": str,
            "int | None": lambda text: int(text) if text else None}
_KEY_OF = {"num_genesis_users": "genesis_users", "consensus_mode": "mode"}
_SCHEMA = {
    section: {_KEY_OF.get(name, name): (name, _READERS[ref.__forward_arg__])
              for base in cls.__mro__
              for name, ref in vars(base).get("__annotations__", {}).items()
              if ref.__forward_arg__ in _READERS}
    for section, cls in (("scenario", ScenarioConfig),
                         ("params", ProtocolParams),
                         ("adversary", AdversaryConfig))
}


def _section_values(cp: configparser.ConfigParser, section: str) -> dict:
    """Field values of one section, read by each field's type."""
    schema = _SCHEMA[section]
    values = {}
    for key, text in (cp.items(section) if cp.has_section(section) else ()):
        if key not in schema:
            raise ValueError(f"unknown key {key!r} in [{section}]")
        name, read = schema[key]
        values[name] = read(text)
    return values


def load_config(path: str, seed: int | None = None, rounds: int | None = None,
                mode: str | None = None) -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for section in cp.sections() + (["DEFAULT"] if cp.defaults() else []):
            if section not in _SCHEMA:
                raise ValueError(f"unknown section [{section}]")
        overrides = {"seed": seed, "rounds": rounds, "mode": mode}
        cp.read_dict({"scenario": {k: str(v) for k, v in overrides.items()
                                   if v is not None}})
        sc, pc, ac = (_section_values(cp, section) for section in _SCHEMA)
        pc.setdefault("horizon", sc.get("rounds", ScenarioConfig().rounds) + 8)
        if "strategy" in ac:
            ac["strategy"] = ac["strategy"].replace("-", "_")
        params = ProtocolParams(**pc)
        config = ScenarioConfig(params=params, adversary=AdversaryConfig(**ac),
                                **sc)
        if "cert_threshold" not in pc:
            # derived only once verifier_prob and genesis_users are in range
            config = config._replace(params=params._replace(
                cert_threshold=default_cert_threshold(
                    round(params.verifier_prob * config.num_genesis_users))))
        return config
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def _make_out_dir(out_dir: Path) -> None:
    """Create `out_dir`, or refuse it before any scenario runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise PermissionError(f"cannot write to output directory {out_dir}")


def _write(path: Path, pieces: Iterable[str]) -> None:
    """Write each of `pieces` to `path` as it is drawn, never one text."""
    with open(path, "w") as f:
        f.writelines(pieces)


def _run_one(config: ScenarioConfig,
             out_dir: Path | None) -> tuple[list[str] | None, RunMetrics]:
    """Run one scenario in this process; return (its metrics lines, its
    metrics).  With `out_dir`, each round's block goes to `chain.jsonl`, a
    record at a time as the ledger formats it, and its line to
    `metrics.jsonl` as the round commits, and the lines are returned as
    None: they are in the file.  Both files are opened at genesis, and a
    run that raises deletes them; an attack's forged chain is written after
    its run.  Without `out_dir`, each block is dropped as it commits."""
    lines: list[str] = []
    files = []  # chain.jsonl and metrics.jsonl, once genesis commits

    def sink(committed: CommittedRound) -> None:
        if out_dir is None:
            if committed.record:
                lines.append(round_line(committed.record))
            return
        if not files:
            for name in ("chain.jsonl", "metrics.jsonl"):
                files.append(open(out_dir / name, "w"))
            files[0].write(next(chain_pieces(committed.chain)))  # the header
        files[0].writelines(block_pieces(committed.block))
        if committed.record:
            files[1].write(round_line(committed.record) + "\n")
    try:
        chains, metrics = run_scenario(config, sink)
    except BaseException:
        for f in files:  # a failing run leaves no partial file
            f.close()
            os.unlink(f.name)
        raise
    if out_dir is None:
        return lines + [summary_line(metrics)], metrics
    chain_file, metrics_file = files
    chain_file.close()
    with metrics_file:
        metrics_file.write(summary_line(metrics) + "\n")
    for i, chain in enumerate(chains[1:]):  # chain.jsonl: as committed
        _write(out_dir / f"chain_fork{i}.jsonl", chain_pieces(chain))
    return None, metrics


def _print_metrics(lines: list[str] | None, out_dir: Path | None) -> None:
    """Print a scenario's metrics lines: with `out_dir`, copied from its
    finished `metrics.jsonl` a line at a time."""
    if out_dir:
        with open(out_dir / "metrics.jsonl") as f:
            sys.stdout.writelines(f)
    else:
        print(*lines, sep="\n")


def _seeds(text: str) -> list[int]:
    """The seeds of `--seed`: one integer or a comma-separated list."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"--seed takes an integer or a comma-separated list "
                         f"of integers, got {text!r}") from None


def cmd_run(args) -> int:
    try:
        seeds = _seeds(args.seed) if args.seed is not None else [None]
        twice = [s for s in seeds if seeds.count(s) > 1]
        if twice:  # each seed writes its own seed_<N>/
            raise ValueError(f"--seed names seed {twice[0]} more than once")
        # the file is read once; each further seed re-runs the config check
        config = load_config(args.config, seed=seeds[0], rounds=args.rounds,
                             mode=args.mode)
        configs = [config] + [config._replace(seed=s) for s in seeds[1:]]
    except ValueError as exc:
        raise ConfigError(exc) from None
    out_dirs = [Path(args.out) / (f"seed_{c.seed}" if len(configs) > 1 else "")
                if args.out else None for c in configs]
    for out_dir in filter(None, out_dirs):
        _make_out_dir(out_dir)

    if args.jobs > 1 and len(configs) > 1:
        # imported here so that no other command loads multiprocessing; the
        # pool forks all its workers up front, so never more than seeds
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(configs))) as pool:
            results = list(pool.map(_run_one, configs, out_dirs))
    else:
        results = list(map(_run_one, configs, out_dirs))

    log = _logger()
    for (lines, metrics), config, out_dir in zip(results, configs, out_dirs):
        _print_metrics(lines, out_dir)
        if log:
            log.info("seed=%d rounds=%d forks=%d messages=%d wall=%.3fs",
                     config.seed, metrics.round_count, metrics.forks_detected,
                     metrics.total_messages, metrics.wall_time)
    return 0


def cmd_attack(args) -> int:
    strategy = args.kind.replace("-", "_")
    config = load_config(args.config, seed=args.seed, rounds=args.rounds)
    if config.adversary.strategy != strategy:
        raise ConfigError(
            f"config adversary strategy is {config.adversary.strategy!r}, "
            f"expected {strategy!r}")
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        _make_out_dir(out_dir)
    lines, metrics = _run_one(config, out_dir)
    _print_metrics(lines, out_dir)
    if metrics.forks_detected > 0:
        for rep in metrics.fork_reports:
            print(f"fork at round {rep.round} [{rep.classification}]: "
                  f"{rep.digest_a.hex()[:16]} vs {rep.digest_b.hex()[:16]}",
                  file=sys.stderr)
        return 0
    print(f"attack failed: {metrics.attack_error or 'no fork produced'}",
          file=sys.stderr)
    return 1


def _records(f: Iterable[str]) -> Iterator[str]:
    """The records of an open text file, read one line at a time."""
    # `str.splitlines` also ends a record at the boundaries a text file's
    # lines do not, such as \x1e and \x0c
    return (record for line in f for record in line.splitlines())


def cmd_verify_chain(args) -> int:
    config = load_config(args.config)
    registry = KeyRegistry(config.seed, horizon=config.params.horizon,
                           max_step=config.params.max_step)
    genesis = dict.fromkeys(range(1, config.num_genesis_users + 1),
                            config.initial_balance)
    # each block is validated as it is read; a record that cannot be read
    # anywhere in the file is exit 2 with nothing printed, so the violations
    # are printed only once the file is read to its end
    try:
        with open(args.chain) as f:
            chain, blocks = read_chain(_records(f), registry, config.params)
            problems = verify_chain(chain, genesis, blocks)
    except (OSError, UnicodeDecodeError, LedgerError) as exc:
        print(f"error: cannot load chain: {exc}", file=sys.stderr)
        return 2
    for round, violation in problems:
        print(f"round {round}: {violation}")
    if problems:
        return 1
    print(f"chain valid: {len(chain.blocks)} blocks")
    return 0


def cmd_compare(args) -> int:
    # each file is read twice, a record at a time: counted, then diffed
    counts = []
    for path in (args.metrics_a, args.metrics_b):
        with open(path) as f:
            counts.append(sum(1 for _ in _records(f)))
    if counts[0] != counts[1]:
        print(f"length mismatch: {counts[0]} vs {counts[1]} records")
        return 1
    with open(args.metrics_a) as fa, open(args.metrics_b) as fb:
        return _diff(_records(fa), _records(fb))


def _diff(records_a: Iterable[str], records_b: Iterable[str]) -> int:
    """Print how two equally long record streams differ; the exit code."""
    differences = 0
    for i, (la, lb) in enumerate(zip(records_a, records_b)):
        if la == lb:
            continue
        differences += 1
        try:
            oa, ob = json.loads(la), json.loads(lb)
            same = oa == ob
        except (ValueError, RecursionError):
            same = oa = ob = None
        if same:  # spacing or key order only
            print(f"record {i}: same JSON, different text")
        elif isinstance(oa, dict) and isinstance(ob, dict):
            for k in sorted(set(oa) | set(ob)):
                if oa.get(k) != ob.get(k):
                    print(f"record {i}: {k}: {oa.get(k)!r} != {ob.get(k)!r}")
        else:
            print(f"record {i}: raw difference")
    if differences:
        print(f"{differences} differing records")
        return 1
    print("identical")
    return 0


def _logger():
    """The CLI's logger, with this call's verbosity set afresh, when
    `ALGOSIM_LOG` is `info` or `trace`; else None, and `logging` is not
    imported.  No call disables logging, so an earlier `off` call in the same
    process does not silence a later `info` or `trace` one."""
    level = {"trace": "DEBUG", "info": "INFO"}.get(
        os.environ.get("ALGOSIM_LOG", "off").lower())
    if level is None:
        return None
    import logging
    logging.basicConfig(level=level, stream=sys.stderr, force=True)
    return logging.getLogger("algosim.cli")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algosim",
        description="Deterministic committee-vote consensus simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", help="seed or comma-separated seed list")
    run.add_argument("--rounds", type=int)
    run.add_argument("--mode", choices=["ba", "simple", "both"])
    run.add_argument("--out", help="directory for metrics and chain files")
    run.add_argument("--jobs", type=_positive_int, default=1,
                     help="parallel workers for multi-seed runs")

    attack = sub.add_parser("attack", help="run a fork attack scenario")
    attack.add_argument("kind", choices=["genesis-fork", "bribery"])
    attack.add_argument("--config", required=True)
    attack.add_argument("--seed", type=int)
    attack.add_argument("--rounds", type=int)
    attack.add_argument("--out")

    verify = sub.add_parser("verify-chain", help="re-validate an exported chain")
    verify.add_argument("--chain", required=True)
    verify.add_argument("--config", required=True,
                        help="scenario config the chain was produced with")

    compare = sub.add_parser("compare", help="diff two metrics files")
    compare.add_argument("metrics_a")
    compare.add_argument("metrics_b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so that a command rebound after the parser was
    # built (a test's monkeypatch, a tracer's wrapper) is the one that runs
    command = {"run": cmd_run, "attack": cmd_attack,
               "verify-chain": cmd_verify_chain,
               "compare": cmd_compare}[args.command]
    try:
        return command(args)
    except (ConfigError, EngineError, PreconditionViolatedError,
            ForkInfeasibleError, OSError, UnicodeDecodeError) as exc:
        # a bad config or `--seed` list, a config whose rounds cannot
        # complete, an out-of-range attack, a forged branch whose committees
        # hold too few corrupted keys, or a file that cannot be read as text
        # or written (`--out`, `compare`)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
