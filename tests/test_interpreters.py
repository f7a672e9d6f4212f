"""The same bytes on every installed interpreter.

Each interpreter other than the one running the tests drives `cli.main` in a
subprocess of its own: `run --out` over SMALL in each mode, and `attack
--out` over seed 0 of both attack fixtures.  A run's `metrics.jsonl` and
`chain.jsonl`, concatenated, are the text `transcript_digest` hashes, so they
must match `TRANSCRIPT_DIGESTS`; the attack files must equal this process's.

The interpreters are the paths in `ALGOSIM_PYTHONS` (an `os.pathsep` list)
or, when it is unset, `$PYENV_ROOT/versions/*/bin/python3` (default
`~/.pyenv/versions`).  One below `requires-python` is listed as skipped, with
its version.  All of them start at once, so the file costs about one
interpreter's run.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algosim.cli as cli

from test_engine import SMALL, TRANSCRIPT_DIGESTS

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
REQUIRES_PYTHON = (3, 10)  # pyproject.toml
MODES = ("ba", "simple", "both")
ATTACKS = {"genesis_fork": "genesis-fork", "bribery": "bribery"}

SMALL_CFG = """
[scenario]
seed = 42
genesis_users = 10
initial_balance = 1000
rounds = 20
payments_per_round = 3

[params]
leader_prob = 0.5
verifier_prob = 0.7
lookback = 3
max_ba_steps = 9
cert_threshold = 5
horizon = 32
"""

# Prints the interpreter's version, then, on one that meets
# `requires-python`, runs each job's argv through `cli.main` and prints the
# exit codes.  It parses on any Python 3, so an older one reports its version.
DRIVER = """
import sys
print("%d.%d.%d" % tuple(sys.version_info[:3]))
if sys.version_info >= (3, 10):
    import contextlib, io, json
    from algosim.cli import main
    codes = {}
    for name, argv in json.loads(sys.argv[1]).items():
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes[name] = main(argv)
    print(json.dumps(codes))
"""


def interpreters() -> list[str]:
    """The paths to check, apart from the interpreter running the tests,
    which every other tier-1 test runs on."""
    listed = os.environ.get("ALGOSIM_PYTHONS")
    if listed is not None:
        paths = [p for p in listed.split(os.pathsep) if p]
    else:
        root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
        paths = sorted(str(p) for p in root.glob("versions/*/bin/python3"))
    host = os.path.realpath(sys.executable)
    return [p for p in paths if os.path.realpath(p) != host]


PYTHONS = interpreters() or [pytest.param(None, marks=pytest.mark.skip(
    reason="no other interpreter: set ALGOSIM_PYTHONS or install one under "
           "$PYENV_ROOT/versions"))]


def jobs(cfg: Path, out: Path) -> dict[str, list[str]]:
    """Name of each command, and its argv writing into `out / name`."""
    runs = {mode: ["run", "--config", str(cfg), "--mode", mode,
                   "--out", str(out / mode)] for mode in MODES}
    attacks = {name: ["attack", kind, "--config", str(FIXTURES / f"{name}.cfg"),
                      "--seed", "0", "--out", str(out / name)]
               for name, kind in ATTACKS.items()}
    return runs | attacks


def written(out: Path) -> dict[str, dict[str, bytes]]:
    """The files of every job's directory under `out`."""
    return {d.name: {f.name: f.read_bytes() for f in sorted(d.iterdir())}
            for d in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("interpreters") / "small.cfg"
    path.write_text(SMALL_CFG)
    for mode in MODES:
        assert cli.load_config(str(path), mode=mode) == \
            SMALL._replace(consensus_mode=mode)
    return path


@pytest.fixture(scope="module")
def host(small_cfg, tmp_path_factory):
    """Exit codes and files of every job, run in this process."""
    out = tmp_path_factory.mktemp("host")
    codes = {}
    for name, argv in jobs(small_cfg, out).items():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes[name] = cli.main(argv)
    return codes, written(out)


@pytest.fixture(scope="module")
def launched(small_cfg, tmp_path_factory):
    """Every interpreter's driver, started at once: by path, its output
    directory and process, or None when it does not start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    procs = {}
    for path in PYTHONS:
        out = tmp_path_factory.mktemp("python")
        try:
            procs[path] = out, subprocess.Popen(
                [path, "-c", DRIVER, json.dumps(jobs(small_cfg, out))],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)
        except OSError:
            procs[path] = None
    yield procs
    for _, proc in filter(None, procs.values()):
        proc.kill()
        proc.communicate()


def test_host_writes_the_pinned_transcripts(host):
    codes, files = host
    assert codes == dict.fromkeys([*MODES, *ATTACKS], 0)
    for mode in MODES:
        text = files[mode]["metrics.jsonl"] + files[mode]["chain.jsonl"]
        assert hashlib.sha256(text).hexdigest() == TRANSCRIPT_DIGESTS[mode, 0]


@pytest.mark.parametrize("python", PYTHONS)
def test_interpreter_writes_the_same_bytes(python, launched, host):
    if launched[python] is None:
        pytest.skip(f"{python} does not start")
    out, proc = launched[python]
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    version, *results = stdout.splitlines()
    if tuple(map(int, version.split("."))) < REQUIRES_PYTHON:
        pytest.skip(f"Python {version} is below requires-python >= 3.10")
    codes, files = host
    assert json.loads(results[0]) == codes
    theirs = written(out)
    for mode in MODES:
        text = theirs[mode]["metrics.jsonl"] + theirs[mode]["chain.jsonl"]
        assert hashlib.sha256(text).hexdigest() == \
            TRANSCRIPT_DIGESTS[mode, 0], mode
    for name in ATTACKS:
        assert theirs[name] == files[name], name
