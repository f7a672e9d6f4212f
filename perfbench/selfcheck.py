"""Self-check of the benchmark itself:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names the metrics run.py and layertrace.py report.
2. A very short run of every workload passes, in both modes, and prints
   every declared metric.
3. A deliberately mutated output file makes the scenario's check fail, so
   fail_ratio becomes non-zero (one mutation per workload).
4. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits non-zero without printing a result.
5. The span file written by a traced run reads back.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workspace  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(args: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def check_declarations() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, "end_to_end metrics match run.py")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == {n: u for n, u, _, _ in layertrace.PER_LAYER},
           "per_layer metrics match layertrace.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "workloads match workloads.WORKLOADS")
    return spec


def check_short_runs(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace)], run.ROOT)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            names = {m["name"] for m in spec[key]}
            ok = (code == 0 and result.get("correct") is True
                  and result.get("failed") == 0
                  and set(result.get("metrics", {})) == names)
            if ok and trace == 0:
                ok = all(v["value"] > 0 for v in result["metrics"].values())
            expect(ok, f"{workload} --trace {trace}: exit 0, correct, every metric")


def check_mutation() -> None:
    run.load_program()
    for workload in WORKLOADS:
        ws = Workspace(run.ROOT, run.WORK / f"selfcheck-{workload}", workload, 7)
        ws.prepare()
        results = run.Results(workload)
        seed = ws.scenario_seed(0)
        results.check(ws.run(seed))
        expect(results.failed == 0, f"{workload}: unmutated scenario passes")
        if workload == "replay":
            chain = ws.replay_chain(seed)
            text = chain.read_text()
            i = text.index('"sig":"') + len('"sig":"')
            chain.write_text(text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:])
            results.check(ws.run(seed))
        else:
            real_main = ws.cli.main

            def mutating_main(argv):
                code = real_main(argv)
                if "--out" in argv:
                    metrics = Path(argv[argv.index("--out") + 1]) / "metrics.jsonl"
                    metrics.write_text(metrics.read_text().replace('"round":3,', '"round":4,', 1))
                return code
            ws.cli.main = mutating_main
            try:
                results.check(ws.run(seed))
            finally:
                ws.cli.main = real_main
        ratio = results.failed / results.attempted
        expect(ratio > 0, f"{workload}: mutated output gives fail_ratio {ratio:g}")
        shutil.rmtree(ws.work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, out = bench(["--workload", "honest", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and '"correct"' not in out,
           f"without src/ and fixtures/: exit {code}, no result printed")


def check_span_file() -> None:
    meta, spans = layertrace.read_spans(run.WORK / "trace-replay")
    roots = [s for s in spans if s[1] < 0]
    expect(len(spans) == meta["spans"] > 0 and all(s[0] == "cli.main" for s in roots)
           and all(s[3] <= s[4] for s in spans),
           f"span file reads back: {len(spans)} spans, roots are cli.main calls")


def main() -> int:
    spec = check_declarations()
    check_short_runs(spec)
    check_mutation()
    check_bare_directory()
    check_span_file()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
