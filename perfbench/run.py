"""Repository benchmark: three workloads through algosim's CLI entry point.

    python3 perfbench/run.py --workload honest|attack|replay --seed N \
        --seconds S --trace 0|1

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run (see README.md in this directory).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit code 0 when every scenario's
output check passed, 1 when one failed, 2 when the benchmark cannot run
here (for example without the repository's src/ and fixtures/).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import drift  # noqa: E402
import layertrace  # noqa: E402
from workloads import BenchError, Outcome, Workspace  # noqa: E402

SETUP_REPEATS = 9
ROUND_REPEATS = 3
TRACE_COUNTED_SCENARIOS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "rounds_per_s": "rounds/s", "round_p50_ms": "ms",
    "round_p99_ms": "ms", "peak_mem_mb": "MB", "retained_kb_per_round": "KB",
}


def load_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import algosim
    except ImportError as exc:
        raise BenchError(f"cannot import algosim from {src}: {exc}") from exc
    if not Path(algosim.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"algosim was imported from {algosim.__file__}, not {src}")


class Results:
    """Tally of checked scenario runs against the recorded output digests."""

    def __init__(self, workload: str):
        digests = json.loads((HERE / "digests.json").read_text())
        self.expected = digests[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, o: Outcome, recorded: bool = True) -> None:
        problems = list(o.problems)
        if recorded and not problems:
            want = self.expected.get(str(o.seed))
            if want != o.digest:
                problems.append(f"output digest {o.digest[:16]} != recorded "
                                f"{(want or 'none')[:16]}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"seed {o.seed}: {p}" for p in problems]


class RoundProbe:
    """Times each call that finalizes (SimulationRun.run_round) or
    re-validates (ledger.validate_block, as verify_chain calls it) a round."""

    def __init__(self, ws: Workspace):
        if ws.workload == "replay":
            self.owner, self.attr = ws.ledger, "validate_block"
        else:
            self.owner, self.attr = ws.engine.SimulationRun, "run_round"
        self.original = vars(self.owner)[self.attr]
        self.samples: list[float] = []

    def __enter__(self):
        original, samples, clock = self.original, self.samples, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(clock() - t0)
        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


def timed_loop(ws: Workspace, results: Results, seconds: float,
               minimum: int = 1, probe: RoundProbe | None = None,
               repeats: int = 1, tracer: layertrace.Tracer | None = None,
               on_run=None):
    """Run scenarios 0, 1, ... for `seconds` (at least `minimum` runs), each
    `repeats` times in a row.  Returns [(outcome, correction factor,
    corrected round times)] per run."""
    rows = []
    deadline = time.perf_counter() + seconds
    i = 0
    while len(rows) < minimum or time.perf_counter() < deadline:
        seed = ws.scenario_seed(i)
        for _ in range(repeats):
            gc.collect()
            if tracer is not None:
                tracer.begin_scenario()
            mark = len(probe.samples) if probe else 0
            o = ws.run(seed)
            f = drift.correction(drift.reference_seconds())
            results.check(o)
            rows.append((o, f, [s * f for s in probe.samples[mark:]] if probe else []))
            if on_run is not None:
                on_run(len(rows))
        i += 1
    return rows


def rates(rows) -> tuple[float, float]:
    """Median corrected and raw rounds per second over runs."""
    ok = [(o, f) for o, f, _ in rows if o.seconds > 0 and o.rounds > 0]
    if not ok:
        return 0.0, 0.0
    return (drift.median([o.rounds / (o.seconds * f) for o, f in ok]),
            drift.median([o.rounds / o.seconds for o, _ in ok]))


def setup_seconds(ws: Workspace) -> tuple[float, float]:
    """Median corrected and raw wall time of SETUP_REPEATS cold starts, each
    corrected by the empty interpreter starts right before and after it."""
    seed = ws.scenario_seed(0)
    if ws.workload == "replay":
        args = ["replay", ws.replay_config(seed), str(ws.replay_chain(seed))]
    elif ws.workload == "attack":
        args = ["attack", ws.config("genesis_fork.cfg", seed)]
    else:
        args = ["honest", ws.config("honest.cfg", seed)]
    env = {k: v for k, v in os.environ.items() if k != "ALGOSIM_LOG"}

    def start(cmd: list[str]) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr[-500:]}")
        return elapsed

    empty = [sys.executable, "-c", "pass"]
    corrected, raw = [], []
    before = start(empty)
    for attempt in range(SETUP_REPEATS + 1):
        elapsed = start([sys.executable, str(HERE / "setup_probe.py"), *args])
        after = start(empty)
        if attempt:  # the first start also writes bytecode caches
            corrected.append(elapsed * drift.STARTUP_NOMINAL_S / ((before + after) / 2))
            raw.append(elapsed)
        before = after
    return drift.median(corrected), drift.median(raw)


def end_to_end(ws: Workspace, results: Results, seconds: float):
    ws.prepare()
    results.check(ws.run(ws.scenario_seed(0)))  # warm-up, untimed
    setup = setup_seconds(ws)
    with RoundProbe(ws) as probe:
        rows = timed_loop(ws, results, seconds, probe=probe, repeats=ROUND_REPEATS)
    # p50: each run's median round time, median over runs.  p99: over rounds,
    # each the minimum of its ROUND_REPEATS runs.  The simulator is
    # deterministic, so the repeats do identical work and the minimum drops
    # interference from other tenants, which otherwise sets the tail here.
    p50 = drift.median([drift.median(ts) for _, _, ts in rows if ts])
    p50_raw = drift.median([drift.median(ts) / f for _, f, ts in rows if ts])
    groups = [rows[i:i + ROUND_REPEATS] for i in range(0, len(rows), ROUND_REPEATS)]
    tail = [min(ts) for g in groups for ts in zip(*(t for _, _, t in g))]
    p99, q = drift.tail_percentile(tail)
    p99_raw, _ = drift.tail_percentile([t / f for _, f, ts in rows for t in ts])
    peak_mb, kb_per_round, mem_outcomes = ws.memory_pass(ws.scenario_seed(0))
    results.check(mem_outcomes[0])
    results.check(mem_outcomes[1], recorded=False)
    rate, rate_raw = rates(rows)
    metrics = {
        "setup_s": setup,
        "rounds_per_s": (rate, rate_raw),
        "round_p50_ms": (p50 * 1e3, p50_raw * 1e3),
        "round_p99_ms": (p99 * 1e3, p99_raw * 1e3),
        "peak_mem_mb": (peak_mb, None),
        "retained_kb_per_round": (kb_per_round, None),
    }
    for name, (value, raw) in metrics.items():
        unit = END_TO_END_UNITS[name]
        note = f"raw {raw:.6g}" if raw is not None else "memory pass, not timed"
        if name == "round_p99_ms":
            note += (f" over all runs; p{q * 100:g} of {len(tail)} rounds, each "
                     f"the min of {ROUND_REPEATS} runs")
        print(f"{ws.workload:7s} {name:24s} {value:14.6g} {unit:9s} {note}")
    print(f"{ws.workload:7s} {'fail_ratio':24s} "
          f"{results.failed / max(1, results.attempted):14.6g} {'-':9s} "
          f"{results.failed} of {results.attempted} scenarios failed their check")
    print(f"{ws.workload:7s} timed runs: {len(rows)}, median correction "
          f"factor {drift.median([f for _, f, _ in rows]):.4f}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, (value, _) in metrics.items()}


def traced(ws: Workspace, results: Results, seconds: float):
    ws.prepare()
    results.check(ws.run(ws.scenario_seed(0)))  # warm-up, untimed
    plain = timed_loop(ws, results, seconds / 2)
    tracer = layertrace.Tracer()
    counts_k: dict[str, int] = {}

    def snapshot(done: int) -> None:
        if done == TRACE_COUNTED_SCENARIOS:
            counts_k.update(tracer.counts())

    tracer.install()
    try:
        rows = timed_loop(ws, results, seconds / 2,
                          minimum=TRACE_COUNTED_SCENARIOS, tracer=tracer,
                          on_run=snapshot)
    finally:
        tracer.uninstall()
    values = layertrace.layer_metrics(
        tracer, [f for _, f, _ in rows], [o.rounds for o, _, _ in rows],
        TRACE_COUNTED_SCENARIOS, counts_k, rates(rows)[0], rates(plain)[0])
    tracer.write(WORK / f"trace-{ws.workload}")
    metrics = {}
    for name, unit, _, moves in layertrace.PER_LAYER:
        print(f"{ws.workload:7s} {name:30s} {values[name]:14.6g} {unit:6s} "
              f"-> {moves}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(f"{ws.workload:7s} traced scenarios: {len(rows)} "
          f"({len(tracer.name)} spans), untraced: {len(plain)}; counts from the "
          f"first {TRACE_COUNTED_SCENARIOS}; spans in {WORK / ('trace-' + ws.workload)}.*")
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "algosim").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("ALGOSIM_LOG", None)
    work = WORK / args.workload
    try:
        load_program()
        ws = Workspace(ROOT, work, args.workload, args.seed)
        results = Results(args.workload)
        print(f"# python {platform.python_version()} ({sys.executable}), "
              f"nproc {os.cpu_count()}, src/ lines {src_lines()}, "
              f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}")
        run = traced if args.trace else end_to_end
        metrics = run(ws, results, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in results.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": results.failed == 0,
                      "attempted": results.attempted,
                      "failed": results.failed, "metrics": metrics}))
    return 0 if results.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
