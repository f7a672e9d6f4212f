import argparse
import concurrent.futures
import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algosim.cli as cli
import algosim.engine as engine
from algosim.adversary import _held_voters
from algosim.consensus import vote
from algosim.crypto import KeyRegistry
from algosim.engine import (CommittedRound, EngineError, ScenarioConfig,
                            run_scenario)
from algosim.ledger import (
    Block,
    Chain,
    LedgerError,
    Status,
    Vote,
    block_hash,
    cert_payload,
    chain_from_lines,
    chain_pieces,
    eligible,
    leader_round_seed,
    make_payment,
    read_chain,
    verify_chain,
)
from algosim.sortition import Credential, ProtocolParams

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
HEX = "ab" * 32  # a digest as the writer makes it

SMALL_CFG = """
[scenario]
seed = 42
genesis_users = 10
initial_balance = 1000
rounds = 10
mode = both
payments_per_round = 3

[params]
leader_prob = 0.5
verifier_prob = 0.7
lookback = 3
max_ba_steps = 9
cert_threshold = 5
horizon = 32
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def round_records(stdout):
    records = []
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "round" in obj:
            records.append(obj)
    return records


class TestRun:
    def test_run_emits_metric_lines_and_files(self, small_cfg, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "run", "--config", small_cfg,
                                  "--seed", "42", "--out", out_dir)
        assert code == 0
        assert len(round_records(stdout)) == 10
        assert (out_dir / "metrics.jsonl").exists()
        assert (out_dir / "chain.jsonl").exists()

    def test_out_path_that_is_a_file_is_usage_error(self, small_cfg,
                                                    tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, stdout, err = run_cli(capsys, "run", "--config", small_cfg,
                                    "--out", taken)
        assert code == 2 and stdout == ""  # refused before any scenario runs
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_round_override(self, small_cfg, capsys):
        code, stdout, _ = run_cli(capsys, "run", "--config", small_cfg,
                                  "--rounds", "6")
        assert code == 0
        assert len(round_records(stdout)) == 6

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config",
                               tmp_path / "missing.cfg")
        assert code == 2
        assert "error" in err

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("[scenario]\nrounds = many\n")
        code, _, err = run_cli(capsys, "run", "--config", path)
        assert code == 2

    def test_duplicate_option_is_usage_error(self, small_cfg, capsys):
        small_cfg.write_text(SMALL_CFG + "cert_threshold = 6\n")
        code, _, err = run_cli(capsys, "run", "--config", small_cfg)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_unreachable_cert_threshold_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ct90.cfg"
        path.write_text((FIXTURES / "honest.cfg").read_text().replace(
            "cert_threshold = 14", "cert_threshold = 90"))
        out = tmp_path / "out"
        # with --out, round 3 fails after blocks 0-2 were written: the
        # partial chain file is removed
        for extra in ([], ["--out", out]):
            code, stdout, err = run_cli(capsys, "run", "--config", path,
                                        "--rounds", "4", *extra)
            assert code == 2
            assert err.count("\n") == 1 and err.startswith("error:")
            assert "round 3: certificate threshold unreachable" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (("--seed", "-1"), "seed must be in [0, 2**64)"),
        (("--seed", str(2**64)), "seed must be in [0, 2**64)"),
        (("--seed", "3,-1"), "seed must be in [0, 2**64)"),
    ], ids=["negative", "2**64", "in-list"])
    def test_out_of_range_seed_is_usage_error(self, small_cfg, capsys, argv,
                                              message):
        code, stdout, err = run_cli(capsys, "run", "--config", small_cfg, *argv)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert message in err and stdout == ""

    @pytest.mark.parametrize("old, new, message", [
        ("payments_per_round = 3", "payments_per_round = -1",
         "payments_per_round and new_users_per_round must be >= 0"),
        ("payments_per_round = 3",
         "payments_per_round = 3\nnew_users_per_round = -1",
         "payments_per_round and new_users_per_round must be >= 0"),
        ("initial_balance = 1000", "initial_balance = -5",
         "initial_balance must be >= 1"),
        ("initial_balance = 1000", "initial_balance = 0",
         "initial_balance must be >= 1"),
        ("seed = 42", "seed = -1", "seed must be in [0, 2**64)"),
        ("initial_balance = 1000", f"initial_balance = {2**70}",
         "total genesis money must be below 2**64"),
        ("initial_balance = 1000", f"initial_balance = {2**61}",
         "total genesis money must be below 2**64"),
        # no cert_threshold: its default is derived from verifier_prob
        ("verifier_prob = 0.7\nlookback = 3\nmax_ba_steps = 9\ncert_threshold = 5",
         "verifier_prob = inf\nlookback = 3\nmax_ba_steps = 9",
         "verifier_prob must be in [0, 1]"),
        ("verifier_prob = 0.7\nlookback = 3\nmax_ba_steps = 9\ncert_threshold = 5",
         "verifier_prob = 1e308\nlookback = 3\nmax_ba_steps = 9",
         "verifier_prob must be in [0, 1]"),
    ], ids=["payments", "new-users", "negative-balance", "zero-balance",
            "config-seed", "balance-2**70", "total-money", "infinite-prob",
            "huge-prob"])
    def test_out_of_range_scenario_key_is_usage_error(self, small_cfg, capsys,
                                                      old, new, message):
        small_cfg.write_text(SMALL_CFG.replace(old, new))
        code, stdout, err = run_cli(capsys, "run", "--config", small_cfg)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert message in err and stdout == ""

    def test_attack_config_does_not_trip_honest_exit(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "--config",
                             FIXTURES / "genesis_fork.cfg")
        assert code == 0  # forks are the expected outcome here

    def test_multi_seed_batch(self, small_cfg, tmp_path, capsys):
        out_dir = tmp_path / "batch"
        code, stdout, _ = run_cli(capsys, "run", "--config", small_cfg,
                                  "--seed", "1,2", "--out", out_dir)
        assert code == 0
        assert len(round_records(stdout)) == 20
        assert (out_dir / "seed_1" / "metrics.jsonl").exists()
        assert (out_dir / "seed_2" / "metrics.jsonl").exists()


class TestDeterminismAndCompare:
    def test_same_seed_compares_equal(self, small_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "run", "--config", small_cfg, "--out", a)[0] == 0
        assert run_cli(capsys, "run", "--config", small_cfg, "--out", b)[0] == 0
        assert (a / "metrics.jsonl").read_bytes() == \
            (b / "metrics.jsonl").read_bytes()
        assert (a / "chain.jsonl").read_bytes() == (b / "chain.jsonl").read_bytes()
        code, stdout, _ = run_cli(capsys, "compare", a / "metrics.jsonl",
                                  b / "metrics.jsonl")
        assert code == 0 and "identical" in stdout

    def test_different_seeds_differ(self, small_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "run", "--config", small_cfg, "--seed", "1", "--out", a)
        run_cli(capsys, "run", "--config", small_cfg, "--seed", "2", "--out", b)
        code, stdout, _ = run_cli(capsys, "compare", a / "metrics.jsonl",
                                  b / "metrics.jsonl")
        assert code == 1
        assert "!=" in stdout

    def test_length_mismatch(self, small_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "run", "--config", small_cfg, "--out", a)
        run_cli(capsys, "run", "--config", small_cfg, "--rounds", "6",
                "--out", b)
        code, stdout, _ = run_cli(capsys, "compare", a / "metrics.jsonl",
                                  b / "metrics.jsonl")
        assert code == 1
        assert "length mismatch" in stdout


    @pytest.mark.parametrize("a, b", [
        ("[1]", "[2]"), ("1", "2"), ('{"a": 1}', "[1]"), ("null", "{}"),
        ("[" * 100_000 + "]" * 100_000, "[]"),
    ], ids=["lists", "numbers", "object-list", "null-object", "deep"])
    def test_records_that_are_not_objects_differ_raw(self, tmp_path, capsys,
                                                     a, b):
        # a second, object record is still compared key by key
        (tmp_path / "a").write_text(a + '\n{"x":1}\n')
        (tmp_path / "b").write_text(b + '\n{"x":2}\n')
        code, stdout, err = run_cli(capsys, "compare", tmp_path / "a",
                                    tmp_path / "b")
        assert code == 1 and err == ""
        assert stdout == ("record 0: raw difference\nrecord 1: x: 1 != 2\n"
                          "2 differing records\n")

    @pytest.mark.parametrize("a, b", [
        ('{"a":1}', '{"a": 1}'), ('{"a":1,"b":2}', '{"b":2,"a":1}'),
        ("[1,2]", "[1, 2]"),
    ], ids=["spacing", "key-order", "list"])
    def test_same_json_in_different_text_is_named(self, tmp_path, capsys,
                                                  a, b):
        # a difference in text is still a difference: exit 1, but named
        (tmp_path / "a").write_text(a + "\n")
        (tmp_path / "b").write_text(b + "\n")
        code, stdout, err = run_cli(capsys, "compare", tmp_path / "a",
                                    tmp_path / "b")
        assert code == 1 and err == ""
        assert stdout == ("record 0: same JSON, different text\n"
                          "1 differing records\n")

    @pytest.mark.parametrize("bad", ["a", "b"])
    def test_non_utf8_metrics_file_is_usage_error(self, tmp_path, capsys, bad):
        for name in "ab":
            (tmp_path / name).write_bytes(b"\xff{}\n" if name == bad
                                          else b"{}\n")
        code, stdout, err = run_cli(capsys, "compare", tmp_path / "a",
                                    tmp_path / "b")
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and err.startswith("error:")


@pytest.fixture(scope="module")
def fork_attack_chain(tmp_path_factory):
    """The honest chain.jsonl lines of a genesis_fork.cfg attack."""
    out = tmp_path_factory.mktemp("fork")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["attack", "genesis-fork", "--config",
                         str(FIXTURES / "genesis_fork.cfg"), "--out",
                         str(out)]) == 0
    return (out / "chain.jsonl").read_text().splitlines()


class TestVerifyChain:
    def test_exported_honest_chain_verifies(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        code, stdout, _ = run_cli(capsys, "verify-chain", "--chain",
                                  out / "chain.jsonl", "--config", small_cfg)
        assert code == 0
        assert "chain valid" in stdout

    def test_thinned_cert_fails(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        rec = json.loads(lines[6])
        rec["cert"] = rec["cert"][:4]  # below the threshold of 5
        lines[6] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (out / "thin.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, _ = run_cli(capsys, "verify-chain", "--chain",
                                  out / "thin.jsonl", "--config", small_cfg)
        assert code == 1
        assert "insufficient certificates" in stdout

    def test_chain_of_another_seed_reports_violations(self, tmp_path, capsys):
        # every block would fail for the one reason, so only it is named
        out = tmp_path / "out"
        honest = FIXTURES / "honest.cfg"  # seed 0
        run_cli(capsys, "run", "--config", honest, "--seed", "42", "--out", out)
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    out / "chain.jsonl", "--config", honest)
        assert (code, err) == (1, "")
        assert stdout == ("round 0: genesis seed does not match the "
                          "registry's genesis seed\n")

    def test_payset_that_does_not_apply_stops_the_replay(self, small_cfg,
                                                         tmp_path, capsys):
        # later rounds have no status to be checked against
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        rec = json.loads(lines[5])
        rec["payset"][0]["amount"] += 1  # its signature no longer verifies
        lines[5] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (out / "unpaid.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    out / "unpaid.jsonl", "--config", small_cfg)
        assert (code, err) == (1, "")
        reason = "payment 0: invalid signature"
        assert f"round 4: payset does not apply: {reason}\n" in stdout
        assert stdout.endswith(
            "".join(f"round {r}: chain prefix does not replay: {reason}\n"
                    for r in range(5, 11)))

    def test_short_digest_is_parse_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        rec = json.loads(lines[4])
        rec["prev_hash"] = "00"
        lines[4] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (out / "short.jsonl").write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify-chain", "--chain",
                               out / "short.jsonl", "--config", small_cfg)
        assert code == 2
        assert "cannot load chain" in err

    @pytest.mark.parametrize("tail", ["", "\n", "\n\n  \n"],
                             ids=["bare", "newline", "blank-lines"])
    def test_header_without_blocks_is_load_error(self, small_cfg, tmp_path,
                                                 capsys, tail):
        # a header alone is no chain: `verify_chain` reads the genesis block
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        header = (out / "chain.jsonl").read_text().splitlines()[0]
        (out / "header.jsonl").write_text(header + tail)
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    out / "header.jsonl", "--config", small_cfg)
        assert code == 2 and stdout == ""
        assert err == "error: cannot load chain: no block record follows the header\n"

    def test_empty_file_is_load_error(self, small_cfg, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    tmp_path / "empty.jsonl", "--config", small_cfg)
        assert (code, stdout) == (2, "")
        assert err == ("error: cannot load chain: malformed chain file header: "
                       "the file is empty\n")

    @pytest.mark.parametrize("header, cause", [
        ("[]", "expected an object"),
        ('{"genesis_status":5}', "genesis_status: expected an object"),
        ("{}", "missing key 'genesis_status'"),
    ], ids=["list", "status-int", "no-status"])
    def test_header_of_the_wrong_json_shape_is_load_error(
            self, small_cfg, tmp_path, capsys, header, cause):
        (tmp_path / "shape.jsonl").write_text(header + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    tmp_path / "shape.jsonl", "--config", small_cfg)
        assert (code, stdout) == (2, "")
        assert err == ("error: cannot load chain: line 1: malformed chain file "
                       f"header: {cause}\n")

    @pytest.mark.parametrize("record, cause", [
        ("[]", "expected an object"),
        ('{"cert":5}', "missing key 'payset'"),
        ('{"cert":[],"payset":[5]}', "expected an object"),
        ('{"cert":[[]],"payset":[]}', "expected an object"),
        ('{"cert":[],"payset":[],"prev_hash":"00","round":1}', "missing key 'seed'"),
        ('{"cert":[],"payset":[],"prev_hash":"00","round":1,"seed":5}',
         "seed: expected 32-byte lowercase hex, got 5"),
        ('{"cert":[],"payset":[],"prev_hash":"0g","round":1,"seed":"%s"}' % HEX,
         "prev_hash: expected 32-byte lowercase hex, got '0g'"),
        ('{"cert":[],"payset":[{"amount":1,"payee":1,"payer":1,"sig":[]}]}',
         "payment sig: expected 32-byte lowercase hex, got []"),
        ('{"cert":[{"bit":0,"block_digest":"%s","round":1,"step":4,"voter":1}],'
         '"payset":[]}' % HEX.upper(),
         f"cert block_digest: expected 32-byte lowercase hex, got {HEX.upper()!r}"),
    ], ids=["list", "no-payset", "payment-int", "message-list", "no-seed",
            "seed-int", "prev-hash-not-hex", "payment-sig-list",
            "block-digest-uppercase"])
    def test_record_of_the_wrong_json_shape_is_load_error(
            self, small_cfg, tmp_path, capsys, record, cause):
        (tmp_path / "shape.jsonl").write_text(
            '{"genesis_status":{"1":1000}}\n' + record + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    tmp_path / "shape.jsonl", "--config", small_cfg)
        assert (code, stdout) == (2, "")
        assert err == ("error: cannot load chain: line 2: malformed chain "
                       f"record: {cause}\n")

    @pytest.mark.parametrize("value", [5, None, "x", {}],
                             ids=["int", "null", "string", "object"])
    @pytest.mark.parametrize("field", ["payset", "cert"])
    def test_payset_or_cert_that_is_not_a_list_is_load_error(
            self, exported_chain, tmp_path, capsys, field, value):
        # the genesis block's lists are empty, so `{}` in place of one once
        # verified
        cfg, lines = exported_chain
        genesis = json.loads(lines[1])
        assert genesis[field] == []
        genesis[field] = value
        path = tmp_path / "unlisted.jsonl"
        path.write_text("\n".join(
            [lines[0], json.dumps(genesis, sort_keys=True, separators=(",", ":"))]
            + lines[2:]) + "\n")
        assert run_cli(capsys, "verify-chain", "--chain", path, "--config", cfg) == (
            2, "", f"error: cannot load chain: line 2: malformed chain record: "
                   f"{field}: expected a list\n")

    def test_header_user_id_in_another_spelling_is_load_error(
            self, small_cfg, tmp_path, capsys):
        # `int` reads each of these as a genesis user id; the writer makes none
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        for key in ["+1", " 2", "0_3", "01", "\uff14"]:
            header = json.loads(lines[0])
            balances = header["genesis_status"]
            balances[key] = balances.pop(str(int(key)))
            (out / "respelled.jsonl").write_text(
                "\n".join([json.dumps(header)] + lines[1:]) + "\n")
            code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                        out / "respelled.jsonl",
                                        "--config", small_cfg)
            assert (code, stdout) == (2, ""), key
            assert err == ("error: cannot load chain: line 1: malformed chain "
                           f"file header: expected a user id in plain decimal, "
                           f"got {key!r}\n")

    def test_negative_amount_is_parse_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        rec = json.loads(lines[5])
        rec["payset"][0]["amount"] = -5
        lines[5] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (out / "negative.jsonl").write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify-chain", "--chain",
                               out / "negative.jsonl", "--config", small_cfg)
        assert code == 2
        assert err.startswith("error: cannot load chain")

    @pytest.mark.parametrize("field", ["amount", "round"])
    def test_true_as_number_is_parse_error(self, tmp_path, capsys, field):
        # JSON true serializes as 1, so a block whose field is 1 would still
        # hash and verify as the block the run wrote
        out = tmp_path / "out"
        config = FIXTURES / "honest.cfg"
        run_cli(capsys, "run", "--config", config, "--rounds", "8", "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        if field == "round":
            i, target = 2, records[2]
        else:
            i, target = next((i, p) for i, rec in enumerate(records[1:], 1)
                             for p in rec["payset"] if p["amount"] == 1)
        assert target[field] == 1
        target[field] = True
        lines[i] = json.dumps(records[i], sort_keys=True, separators=(",", ":"))
        (out / "true.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    out / "true.jsonl", "--config", config)
        assert code == 2
        assert err.startswith("error: cannot load chain") and stdout == ""

    @pytest.mark.parametrize("field, credential_field, value", [
        ("step", "step", 2**70),
        ("step", "step", "4"),
        ("step", "step", 4.0),
        ("voter", "user", [1]),
    ], ids=["huge", "string", "float", "list"])
    def test_bad_cert_number_is_parse_error(self, small_cfg, tmp_path, capsys,
                                            field, credential_field, value):
        # the message and its credential agree, so only the parser stops it
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        rec = json.loads(lines[5])
        message = rec["cert"][0]
        message[field] = message["credential"][credential_field] = value
        lines[5] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (out / "bad.jsonl").write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify-chain", "--chain",
                               out / "bad.jsonl", "--config", small_cfg)
        assert code == 2
        assert err.startswith("error: cannot load chain")

    @pytest.mark.parametrize("bit", [2, 255, 256, 2**64 - 1])
    def test_cert_bit_must_fit_one_byte(self, fork_attack_chain, tmp_path,
                                        capsys, bit):
        # a cert message signs bytes([bit]) + digest: a bit that fits the
        # byte but is wrong is a violation, a larger one a malformed record
        lines = list(fork_attack_chain)
        rec = json.loads(lines[5])
        rec["cert"][0]["bit"] = bit
        lines[5] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (tmp_path / "bit.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    tmp_path / "bit.jsonl", "--config",
                                    FIXTURES / "genesis_fork.cfg")
        if bit < 256:
            assert (code, err) == (1, "")
            assert stdout.startswith(
                f"round 4: cert message from user {rec['cert'][0]['voter']}: "
                "bit does not match block emptiness\n")
        else:
            assert (code, stdout) == (2, "")
            assert err == ("error: cannot load chain: line 6: malformed chain "
                           f"record: expected a cert bit in [0, 256), got {bit}\n")

    @pytest.mark.parametrize("round, violation", [
        (0, "malformed genesis block"),
        (1, "cert message from user {voter}: wrong round")])
    def test_cert_before_the_lookback_horizon_fails(self, fork_attack_chain,
                                                    tmp_path, capsys, round,
                                                    violation):
        # no committee serves before the lookback horizon: a cert message
        # on the genesis block or a bootstrap block is a violation
        lines = list(fork_attack_chain)
        message = json.loads(lines[5])["cert"][0]  # of round 4
        rec = json.loads(lines[round + 1])
        rec["cert"] = [message]
        lines[round + 1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (tmp_path / "early.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    tmp_path / "early.jsonl", "--config",
                                    FIXTURES / "genesis_fork.cfg")
        assert (code, err) == (1, "")
        assert stdout == (f"round {round}: "
                          f"{violation.format(voter=message['voter'])}\n")

    def test_deeply_nested_record_is_parse_error(self, small_cfg, tmp_path,
                                                 capsys):
        # json.loads gives up past the interpreter's recursion limit
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        for index in (0, 4):
            nested = lines[:index] + ["[" * 200_000 + "]" * 200_000] + lines[index + 1:]
            (out / "nested.jsonl").write_text("\n".join(nested) + "\n")
            code, _, err = run_cli(capsys, "verify-chain", "--chain",
                                   out / "nested.jsonl", "--config", small_cfg)
            assert code == 2
            assert err.startswith("error: cannot load chain")

    @pytest.mark.parametrize("header", [
        '{"genesis_status": 5}',
        '[1]',
        '{"genesis_status": {"1": [2]}}',
        '{"genesis_status": {"1": 1e400}}',
        '{"genesis_status": {"1": -5}}',
        '{"genesis_status": {"18446744073709551616": 5}}',
    ], ids=["number", "list", "list-balance", "infinite", "negative", "huge-user"])
    def test_malformed_header_is_parse_error(self, small_cfg, tmp_path, capsys,
                                             header):
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        (out / "header.jsonl").write_text("\n".join([header] + lines[1:]) + "\n")
        code, _, err = run_cli(capsys, "verify-chain", "--chain",
                               out / "header.jsonl", "--config", small_cfg)
        assert code == 2
        assert err.startswith("error: cannot load chain")

    def test_unknown_genesis_user_reports_violations(self, small_cfg, tmp_path,
                                                      capsys):
        # a holder the config does not list is a genesis of another scenario
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["genesis_status"]["500"] = 5
        lines[0] = json.dumps(header)
        (out / "extra.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    out / "extra.jsonl", "--config", small_cfg)
        assert code == 1
        assert stdout == "round 0: genesis balances do not match the config\n"
        assert err == ""

    @pytest.mark.parametrize("seed,violation", [
        (42, "genesis balances do not match the config"),
        (7, "genesis seed does not match the registry's genesis seed"),
    ])
    def test_genesis_balances_must_match_the_config(self, small_cfg, tmp_path,
                                                    capsys, seed, violation):
        # user 1 given 1,000,000 units, or also the chain of another seed:
        # the seed is compared first, and one violation checks no block
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--seed", seed,
                "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["genesis_status"]["1"] = 1_000_000
        lines[0] = json.dumps(header)
        (out / "rich.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain",
                                    out / "rich.jsonl", "--config", small_cfg)
        assert (code, stdout, err) == (1, f"round 0: {violation}\n", "")

    def test_truncated_file_is_parse_error(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        text = (out / "chain.jsonl").read_text()
        (out / "broken.jsonl").write_text(text[: len(text) // 2 - 7])
        code, _, err = run_cli(capsys, "verify-chain", "--chain",
                               out / "broken.jsonl", "--config", small_cfg)
        assert code == 2


    @pytest.mark.parametrize("where", ["header", "early-block", "late-block"])
    def test_non_utf8_chain_is_usage_error(self, small_cfg, tmp_path,
                                           capsys, where):
        # the reader decodes ahead of the line it hands on, so a bad byte
        # in a later record surfaces while the header is read: still the
        # codec's message, never a malformed header
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_bytes().splitlines(keepends=True)
        index = {"header": 0, "early-block": 2, "late-block": -1}[where]
        offset = sum(map(len, lines[:index % len(lines)])) + 10
        assert (offset < 8192) == (where != "late-block")
        lines[index] = lines[index][:10] + b"\xff" + lines[index][11:]
        chain = tmp_path / "bin.jsonl"
        chain.write_bytes(b"".join(lines))
        code, stdout, err = run_cli(capsys, "verify-chain", "--chain", chain,
                                    "--config", small_cfg)
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(
            "error: cannot load chain: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\x1e", "\x0c"],
                             ids=["crlf", "cr", "record-separator", "form-feed"])
    def test_records_split_at_every_line_boundary(self, small_cfg, tmp_path,
                                                  capsys, newline):
        # `str.splitlines` ends a record at each of these, so every file
        # reads as the newline-separated one does
        out = tmp_path / "out"
        run_cli(capsys, "run", "--config", small_cfg, "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        expected = run_cli(capsys, "verify-chain", "--chain",
                           out / "chain.jsonl", "--config", small_cfg)
        assert expected[:2] == (0, "chain valid: 11 blocks\n")
        joined = tmp_path / "joined.jsonl"
        joined.write_bytes((newline.join(lines) + newline).encode())
        assert run_cli(capsys, "verify-chain", "--chain", joined,
                       "--config", small_cfg) == expected

    @pytest.mark.parametrize("edit, rounds", [
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], (1, 2)),
        (lambda lines: lines[:1] + lines[2:], (0, 1)),
    ], ids=["rounds-1-and-2-swapped", "no-genesis-record"])
    def test_record_out_of_order_is_load_error(self, tmp_path, capsys, edit,
                                               rounds):
        # a block is appended as it is read, in round order from genesis,
        # so a record out of its place ends the read (a first record of
        # another round than 0 included)
        out = tmp_path / "out"
        config = FIXTURES / "honest.cfg"
        run_cli(capsys, "run", "--config", config, "--rounds", "8", "--out", out)
        lines = (out / "chain.jsonl").read_text().splitlines()
        (out / "moved.jsonl").write_text("\n".join(edit(lines)) + "\n")
        assert run_cli(capsys, "verify-chain", "--chain", out / "moved.jsonl",
                       "--config", config) == (
            2, "", "error: cannot load chain: expected block for round "
                   "%d, got %d\n" % rounds)

    @pytest.mark.parametrize("text, line", [
        ('{"genesis_status":{"1":1000}}\n\n  \n[]\n', 4),
        ('{"genesis_status":{"1":1000}}\r\n\x1e[]\n', 3),
    ], ids=["after-blank-records", "record-separator"])
    def test_parse_error_names_the_record_it_is_in(self, small_cfg, tmp_path,
                                                    capsys, text, line):
        # records count from the header's 1 as the reader splits the file,
        # blank ones included
        (tmp_path / "located.jsonl").write_text(text, newline="")
        assert run_cli(capsys, "verify-chain", "--chain",
                       tmp_path / "located.jsonl", "--config", small_cfg) == (
            2, "", f"error: cannot load chain: line {line}: malformed chain "
                   "record: expected an object\n")


NO_LEADER_CFG = """
[scenario]
seed = 5
genesis_users = 10
initial_balance = 1000
rounds = 5
payments_per_round = 3

[params]
leader_prob = 0.0
verifier_prob = 0.8
lookback = 3
max_ba_steps = 9
cert_threshold = 5
horizon = 16
"""


def test_block_with_no_potential_leader_gives_its_one_violation(tmp_path, capsys):
    # nobody may lead under leader_prob = 0, so a non-empty round-6 block is
    # refused even when its payset applies and its certificate is genuine:
    # the committee members of steps 2 and up, none of whose round-6 keys
    # the 5-round run spent, sign it
    cfg = tmp_path / "no_leader.cfg"
    cfg.write_text(NO_LEADER_CFG)
    chain = run_scenario(cli.load_config(str(cfg)))[0][0]
    registry, prev, r = chain.registry, chain.tip(), chain.tip_round + 1
    payment = make_payment(registry, 1, 2, 1, r)
    block = Block(r, (payment,), leader_round_seed(registry.unique_sign(1, prev.seed)),
                  block_hash(prev), ())
    voters = _held_voters(chain, r, prev.seed, eligible(r, chain),
                          lambda user, step: True)
    need = chain.params.cert_threshold
    assert len(voters) >= need
    payload, cert = cert_payload(0, block_hash(block)), []
    for step in sorted({c.step for c in voters[:need]}):
        cert += vote([c for c in voters[:need] if c.step == step], payload, registry)
    chain.append(block.with_cert(cert))
    violation = "non-empty block in a round with no potential leader"
    assert verify_chain(chain) == [(r, violation)]
    path = tmp_path / "forged.jsonl"
    cli._write(path, chain_pieces(chain))
    assert run_cli(capsys, "verify-chain", "--chain", path, "--config", cfg) == (
        1, f"round {r}: {violation}\n", "")


class TestAttack:
    def test_genesis_fork_attack_succeeds(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "attack", "genesis-fork",
                                    "--config", FIXTURES / "genesis_fork.cfg",
                                    "--out", out)
        assert code == 0
        assert "genesis-fork" in err
        assert (out / "chain_fork0.jsonl").exists()
        summary = json.loads(stdout.splitlines()[-1])["summary"]
        assert summary["forks_detected"] == 1

    def test_out_path_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, stdout, err = run_cli(capsys, "attack", "genesis-fork", "--config",
                                    FIXTURES / "genesis_fork.cfg", "--out", taken)
        assert code == 2 and stdout == ""  # refused before the scenario runs
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_bribery_attack_succeeds(self, capsys):
        code, stdout, err = run_cli(capsys, "attack", "bribery",
                                    "--config", FIXTURES / "bribery.cfg")
        assert code == 0
        assert "bribery-fork" in err

    def test_failed_attack_exits_one(self, tmp_path, capsys):
        cfg = (FIXTURES / "bribery.cfg").read_text().replace(
            "retention_fraction = 1.0", "retention_fraction = 0.0")
        path = tmp_path / "noretain.cfg"
        path.write_text(cfg)
        code, _, err = run_cli(capsys, "attack", "bribery", "--config", path)
        assert code == 1
        assert "attack failed" in err

    @pytest.mark.parametrize("fixture, old, new, message", [
        ("genesis_fork.cfg", "fork_round = 2", "fork_round = 11",
         "exceeds the one-third budget"),
        ("bribery.cfg", "target_round = 5", "target_round = 40",
         "must lie strictly inside the chain"),
    ])
    def test_out_of_range_attack_is_usage_error(self, tmp_path, capsys,
                                                fixture, old, new, message):
        path = tmp_path / fixture
        path.write_text((FIXTURES / fixture).read_text().replace(old, new))
        kind = fixture.removesuffix(".cfg").replace("_", "-")
        code, _, err = run_cli(capsys, "attack", kind, "--config", path)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize("command", [["attack", "genesis-fork"], ["run"]])
    @pytest.mark.parametrize("verifier_prob, max_ba_steps", [
        ("0.6", "1"), ("0.5", "2"), ("0.4", "2"),
    ])
    def test_infeasible_fork_is_usage_error(self, tmp_path, capsys, command,
                                            verifier_prob, max_ba_steps):
        path = tmp_path / "infeasible.cfg"
        path.write_text((FIXTURES / "genesis_fork.cfg").read_text()
                        .replace("verifier_prob = 1.0",
                                 f"verifier_prob = {verifier_prob}")
                        .replace("max_ba_steps = 9",
                                 f"max_ba_steps = {max_ba_steps}"))
        code, _, err = run_cli(capsys, *command, "--config", path)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "corrupted certifiers available" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "attack", "genesis-fork", "--config",
                               FIXTURES / "genesis_fork.cfg", "--seed", "-1")
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "seed must be in [0, 2**64)" in err

    def test_strategy_mismatch_is_usage_error(self, small_cfg, capsys):
        code, _, err = run_cli(capsys, "attack", "bribery",
                               "--config", small_cfg)
        assert code == 2


def test_fixture_configs_parse():
    # a ScenarioConfig is checked when it is constructed
    for name in ("honest.cfg", "genesis_fork.cfg", "bribery.cfg"):
        assert isinstance(cli.load_config(str(FIXTURES / name)), ScenarioConfig)


@pytest.mark.parametrize("old, new, name", [
    ("mode = both", "mdoe = both", "'mdoe' in [scenario]"),
    ("genesis_users = 10", "num_genesis_users = 10",
     "'num_genesis_users' in [scenario]"),
    ("verifier_prob = 0.7", "verifer_prob = 0.7", "'verifer_prob' in [params]"),
    ("retention_fraction = 0.5", "retention_fractoin = 0.5",
     "'retention_fractoin' in [adversary]"),
    ("[params]", "[parms]", "unknown section [parms]"),
    ("[params]", "[DEFAULT]", "unknown section [DEFAULT]"),
], ids=["scenario", "field-name", "params", "adversary", "section",
        "default-section"])
def test_unknown_key_or_section_is_usage_error(small_cfg, capsys, old, new,
                                               name):
    # a misspelt key would otherwise run a different experiment
    small_cfg.write_text((SMALL_CFG + "\n[adversary]\nretention_fraction = 0.5\n")
                         .replace(old, new))
    code, stdout, err = run_cli(capsys, "run", "--config", small_cfg)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert name in err and stdout == ""


def readme_config() -> str:
    text = (FIXTURES.parent / "README.md").read_text()
    return text.split("### Config format")[1].split("```ini\n")[1].split("```")[0]


@pytest.mark.parametrize("text", [
    "[scenario]\ngenesis_users = 10\n", readme_config(),
], ids=["genesis-users-only", "readme"])
def test_dataclass_defaults_are_the_config_defaults(tmp_path, text):
    path = tmp_path / "defaults.cfg"
    path.write_text(text)
    # horizon is rounds + 8; cert_threshold is 2/3 of the expected
    # committee (0.2 * 10 users), rounded down, plus one
    assert cli.load_config(str(path)) == ScenarioConfig(
        params=ProtocolParams(cert_threshold=2, horizon=28))


def test_default_scenario_runs_and_verifies(tmp_path):
    # a config file that sets no field is the library's default scenario,
    # and a direct library caller can run that scenario as it is
    path = tmp_path / "empty.cfg"
    path.write_text("[scenario]\n")
    assert cli.load_config(str(path)) == ScenarioConfig()
    [chain], _ = run_scenario(ScenarioConfig())
    assert chain.tip_round == ScenarioConfig().rounds == 20
    assert verify_chain(chain) == []


def test_readme_run_then_verify_chain_example_passes(tmp_path, capsys,
                                                    monkeypatch):
    # verify-chain reads the run seed from its config, so the documented
    # pair must run with the config's own seed
    block = (ROOT / "README.md").read_text().split("## CLI")[1]
    commands = [line.split()[1:] for line in
                block.split("```sh\n")[1].split("```")[0].splitlines()]
    run = next(c for c in commands if c[0] == "run" and "out/" in c)
    verify = next(c for c in commands if c[0] == "verify-chain")
    (tmp_path / "fixtures").symlink_to(FIXTURES)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *run)[0] == 0
    code, stdout, err = run_cli(capsys, *verify)
    assert (code, err) == (0, "")
    assert stdout.startswith("chain valid:")


def test_unknown_flag_rejected_with_usage(small_cfg, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--config", str(small_cfg), "--turbo"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


# -- repeated in-process calls ----------------------------------------------------
# `main` is called many times in one process; the parser is built on the
# first call only, and each call must still behave like a fresh process.

def test_later_call_builds_no_parser(small_cfg, capsys, monkeypatch):
    argv = ["compare", small_cfg, small_cfg]
    assert run_cli(capsys, *argv)[0] == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(capsys, *argv) == (0, "identical\n", "")
    assert built == []


def test_cli_import_builds_no_parser():
    probe = ("import argparse; built = []; real = argparse.ArgumentParser.__init__\n"
             "def counted(self, *a, **k): built.append(1); real(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import algosim.cli; print(len(built))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


def test_repeated_calls_match_fresh_processes(small_cfg, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.delenv("ALGOSIM_LOG", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
    fork_cfg = FIXTURES / "genesis_fork.cfg"
    run_out, fork_out = tmp_path / "run", tmp_path / "fork"
    sequence = [
        ["run", "--config", small_cfg, "--turbo"],
        ["--help"],
        ["run", "--config", small_cfg, "--out", run_out],
        ["attack", "genesis-fork", "--config", fork_cfg, "--out", fork_out],
        ["verify-chain", "--config", fork_cfg,
         "--chain", fork_out / "chain_fork0.jsonl"],
        ["compare", run_out / "metrics.jsonl", fork_out / "metrics.jsonl"],
    ]
    probe = "import sys, algosim.cli; sys.exit(algosim.cli.main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    codes = []
    for argv in ([str(a) for a in argv] for argv in sequence):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                               capture_output=True, text=True)
        assert (code, out.out, out.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0, 0, 1]


def test_command_is_looked_up_at_each_call(small_cfg, capsys, monkeypatch):
    fork_cfg = FIXTURES / "genesis_fork.cfg"
    assert run_cli(capsys, "attack", "genesis-fork", "--config", fork_cfg)[0] == 0
    assert run_cli(capsys, "compare", small_cfg, small_cfg)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args) or 0)
    monkeypatch.setattr(cli, "cmd_compare", lambda args: seen.append(args) or 7)
    assert run_cli(capsys, "run", "--config", small_cfg)[0] == 0
    assert run_cli(capsys, "compare", small_cfg, small_cfg) == (7, "", "")
    # a `run` namespace holds run's options only, none left by `attack`
    assert sorted(vars(seen[0])) == ["command", "config", "jobs", "mode",
                                     "out", "rounds", "seed"]
    assert seen[1].command == "compare"


def test_parallel_jobs_match_sequential(small_cfg, tmp_path, capsys):
    seq, par = tmp_path / "seq", tmp_path / "par"
    run_cli(capsys, "run", "--config", small_cfg, "--seed", "5,6", "--out", seq)
    run_cli(capsys, "run", "--config", small_cfg, "--seed", "5,6",
            "--jobs", "2", "--out", par)
    for seed in (5, 6):
        for name in ("metrics.jsonl", "chain.jsonl"):
            # each worker writes its own seed's files; a chain or registry
            # sent back to this process would fail to pickle
            assert (seq / f"seed_{seed}" / name).read_bytes() == \
                (par / f"seed_{seed}" / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_duplicate_seed_is_a_usage_error(small_cfg, tmp_path, capsys, jobs):
    # two runs of one seed would write the same seed_<N>/ files
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--config", small_cfg,
                                "--seed", "5,6,5", "--jobs", jobs, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == "error: --seed names seed 5 more than once\n"
    assert not out.exists()  # nothing ran


@pytest.mark.parametrize("seeds", ["1,,2", "1,", "x", "1;2"])
def test_seed_that_is_not_a_list_of_integers_is_named(small_cfg, capsys, seeds):
    code, stdout, err = run_cli(capsys, "run", "--config", small_cfg,
                                "--seed", seeds)
    assert (code, stdout) == (2, "")
    assert err == ("error: --seed takes an integer or a comma-separated list "
                   f"of integers, got {seeds!r}\n")


def test_failing_seed_prints_nothing_and_keeps_finished_files(
        small_cfg, tmp_path, capsys, monkeypatch):
    # each seed writes its files as it finishes; stdout waits for them all
    real = cli.run_scenario

    def failing(config, sink):
        if config.seed == 6:
            raise EngineError("seed 6 cannot complete")
        return real(config, sink)

    monkeypatch.setattr(cli, "run_scenario", failing)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--config", small_cfg,
                                "--rounds", "4", "--seed", "5,6,7", "--out", out)
    assert (code, stdout, err) == (2, "", "error: seed 6 cannot complete\n")
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "seed_5", "seed_5/chain.jsonl", "seed_5/metrics.jsonl", "seed_6",
        "seed_7"]


def test_each_payset_is_verified_once(tmp_path, capsys, monkeypatch):
    # the payments' signatures are checked once per chain: `run` when a
    # later round reads the status after a payset (so every payment but the
    # tip's, whose status no round reads), `verify-chain` when a block is
    # validated (one per payment); neither replays a payset it applied
    cfg = tmp_path / "long.cfg"
    cfg.write_text((FIXTURES / "honest.cfg").read_text()
                   .replace("seed = 0", "seed = 3").replace("rounds = 50", "rounds = 150")
                   .replace("mode = both", "mode = ba").replace("horizon = 64", "horizon = 158"))
    verify = KeyRegistry.verify_unique
    calls = []

    def counted(self, owner, message, sig):
        calls.append(message[:4])
        return verify(self, owner, message, sig)

    monkeypatch.setattr(KeyRegistry, "verify_unique", counted)
    assert run_cli(capsys, "run", "--config", cfg, "--out", tmp_path)[0] == 0
    chain_lines = (tmp_path / "chain.jsonl").read_text().splitlines()
    paysets = [len(json.loads(line)["payset"]) for line in chain_lines[1:]]
    payments = sum(paysets)
    assert calls.count(b"PAY_") == len(calls) == payments - paysets[-1]
    calls.clear()
    code, out, _ = run_cli(capsys, "verify-chain", "--chain",
                           tmp_path / "chain.jsonl", "--config", cfg)
    assert (code, out) == (0, "chain valid: 151 blocks\n")
    assert calls.count(b"PAY_") == len(calls) == payments == 735


def test_jobs_capped_at_seed_count(small_cfg, capsys, monkeypatch):
    # the pool forks every worker up front; an inline stand-in records how
    # many were asked for and starts no process
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    # `cmd_run` imports the pool class when it needs one, from this module
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    code, _, _ = run_cli(capsys, "run", "--config", small_cfg, "--seed", "5,6",
                         "--rounds", "4", "--jobs", "10000")
    assert code == 0
    assert asked == [2]
    run_cli(capsys, "run", "--config", small_cfg, "--seed", "5,6,7",
            "--rounds", "4", "--jobs", "2")
    assert asked == [2, 2]


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_a_usage_error(small_cfg, capsys, jobs):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--config", str(small_cfg), "--jobs", jobs])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --jobs: must be at least 1, got {jobs}" in out.err


def test_jobs_not_an_int_is_a_usage_error(small_cfg, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--config", str(small_cfg), "--jobs", "x"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --jobs: invalid int value: 'x'" in out.err


def test_cli_import_loads_no_process_pool():
    # a fresh interpreter, since this one has loaded the pool already; only
    # `run --jobs N` over several seeds needs it.  Nor does it load
    # `dataclasses` (nor so `inspect`), or `logging`, which only an
    # `ALGOSIM_LOG` of info or trace needs
    probe = ("import sys, algosim.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing', "
             "'dataclasses', 'inspect', 'logging')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_info_log_after_an_unlogged_call(small_cfg, capsys, monkeypatch):
    # an `off` call must not silence a later `info` call in the same process
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    disabled = logging.root.manager.disable
    argv = ["run", "--config", small_cfg, "--rounds", "4", "--seed", "5"]
    try:
        monkeypatch.delenv("ALGOSIM_LOG", raising=False)
        _, _, err = run_cli(capsys, *argv)
        assert err == ""
        monkeypatch.setenv("ALGOSIM_LOG", "info")
        _, _, err = run_cli(capsys, *argv)
        assert "INFO:algosim.cli:seed=5 rounds=4 " in err
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
        logging.disable(disabled)


# `--out` runs of each command: (argv with SMALL for the small config, the
# scenarios it runs).
OUT_RUNS = [
    (["run", "--config", "SMALL", "--rounds", "4"], 1),
    (["run", "--config", "SMALL", "--rounds", "4", "--seed", "1,2"], 2),
    (["attack", "genesis-fork", "--config", FIXTURES / "genesis_fork.cfg"], 1),
]
OUT_IDS = ["run", "run-batch", "attack"]


def deny_writes_under(monkeypatch, root):
    """Make `os.access` refuse write access at and below `root`; a root
    process passes the real check whatever the mode bits say."""
    real = os.access

    def access(path, mode, *args, **kwargs):
        if mode & os.W_OK and Path(path).is_relative_to(root):
            return False
        return real(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "access", access)


@pytest.mark.parametrize("argv,scenarios", OUT_RUNS, ids=OUT_IDS)
def test_unwritable_out_dir_is_refused_before_any_scenario(
        argv, scenarios, small_cfg, tmp_path, capsys, monkeypatch):
    out = tmp_path / "locked"
    out.mkdir()
    deny_writes_under(monkeypatch, out)
    argv = [small_cfg if a == "SMALL" else a for a in argv]
    code, stdout, err = run_cli(capsys, *argv, "--out", out)
    assert code == 2 and stdout == ""  # no scenario ran
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "locked" in err
    assert [p.name for p in out.rglob("*.jsonl")] == []


@pytest.mark.parametrize("argv,scenarios", OUT_RUNS, ids=OUT_IDS)
def test_metrics_lines_are_built_once_per_scenario(
        argv, scenarios, small_cfg, tmp_path, capsys, monkeypatch):
    # each round's line is formatted once, as the round commits, and
    # written to its scenario's metrics.jsonl; stdout is copied from them
    built = []
    real = cli.round_line

    def counted(record):
        built.append(real(record))
        return built[-1]

    monkeypatch.setattr(cli, "round_line", counted)
    out = tmp_path / "out"
    argv = [small_cfg if a == "SMALL" else a for a in argv]
    code, stdout, _ = run_cli(capsys, *argv, "--out", out)
    files = sorted(out.rglob("metrics.jsonl"))
    assert code == 0 and len(files) == scenarios
    lines = [f.read_text().splitlines() for f in files]
    assert all(json.loads(ls[-1]).keys() == {"summary"} for ls in lines)
    assert [line for ls in lines for line in ls[:-1]] == built
    assert stdout == "".join(f.read_text() for f in files)


# -- memory per chain byte or round ----------------------------------------------
# No command holds a chain file's text: verify-chain holds its status window
# and one line, run --out the one record being written, formatted as it is
# written.  The measure is how much a command's traced peak grows per added
# byte of chain file, or per added round, from a 20-round to a 60-round chain
# of honest.cfg (seed 5, mode ba).

MEMORY_ROUNDS = (20, 60)


@pytest.fixture(scope="module")
def seed5_runs(tmp_path_factory):
    """The config, and per round count the scenario's result and chain file."""
    base = tmp_path_factory.mktemp("memory")
    cfg = base / "honest5.cfg"
    cfg.write_text((FIXTURES / "honest.cfg").read_text()
                   .replace("seed = 0", "seed = 5")
                   .replace("mode = both", "mode = ba"))
    runs = {}
    for rounds in MEMORY_ROUNDS:
        result = run_scenario(cli.load_config(str(cfg), rounds=rounds))
        chain = base / f"chain{rounds}.jsonl"
        chain.write_text("".join(chain_pieces(result[0][0])))
        runs[rounds] = result, chain
    return cfg, runs


def traced_peak(argv) -> int:
    """Peak bytes traced while `cli.main(argv)` runs; output discarded."""
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def growth_per_chain_byte(runs, peak_of) -> float:
    # the long chain goes first, so allocations made only by a process's
    # first call raise the growth rather than hide some of it
    (long_peak, long), (short_peak, short) = (
        (peak_of(rounds), runs[rounds][1].stat().st_size)
        for rounds in reversed(MEMORY_ROUNDS))
    return (long_peak - short_peak) / (long - short)


def test_verify_chain_holds_no_copy_of_the_file(seed5_runs):
    # each block is validated as it is read and dropped once the status
    # window stops reading it: what verify-chain holds does not grow with
    # its chain
    cfg, runs = seed5_runs
    argv = ["verify-chain", "--config", cfg, "--chain"]

    def peak(rounds):
        return traced_peak(argv + [runs[rounds][1]])

    peak(MEMORY_ROUNDS[0])  # a process's first command also builds the parser
    low, high = MEMORY_ROUNDS
    per_round = (peak(high) - peak(low)) / (high - low)  # the longer chain first
    assert per_round < 2_000  # about 7.8 KB with the parsed chain held


def test_run_out_holds_no_joined_copy(seed5_runs, tmp_path, monkeypatch):
    # the scenario is served from memory, so the peaks differ only by the
    # CLI's own export: one record being formatted and written
    cfg, runs = seed5_runs

    def stored(config, sink):
        result = runs[config.rounds][0]
        [chain], metrics = result
        for block, record in zip(chain.blocks, [None, *metrics.rounds]):
            sink(CommittedRound(chain, block, record))
        return result

    monkeypatch.setattr(cli, "run_scenario", stored)

    def export_peak(rounds):
        argv = ["run", "--config", cfg, "--rounds", rounds]
        out = tmp_path / str(rounds)
        peak = traced_peak(argv + ["--out", out]) - traced_peak(argv)
        assert (out / "chain.jsonl").read_bytes() == runs[rounds][1].read_bytes()
        return peak

    per_byte = growth_per_chain_byte(runs, export_peak)
    assert per_byte < 0.3  # 1.16 with the file's formatted lines held


@pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
def test_honest_run_holds_no_chain(tmp_path, out):
    # an honest run's blocks are written, or dropped, as they commit: what
    # it holds grows by its key state and, without `--out`, the metrics
    # lines kept for stdout
    def peak(rounds):
        argv = ["run", "--config", FIXTURES / "honest.cfg", "--rounds", rounds]
        return traced_peak(argv + (["--out", tmp_path / str(rounds)] if out
                                   else []))

    peak(2)  # a process's first command also builds the parser
    low, high = MEMORY_ROUNDS
    per_round = (peak(high) - peak(low)) / (high - low)  # the longer run first
    assert per_round < 2_000  # about 8.5 KB with the chain held


@pytest.mark.parametrize("seed", [0, 7])
def test_run_out_holds_no_round_record(tmp_path, monkeypatch, seed):
    # `run --out` writes each round's metrics line as the round commits:
    # when the run returns, it holds its status window and its key state
    # (held memory at the return of `SimulationRun.run`, as perfbench
    # takes it)
    held = []
    real = engine.SimulationRun.run

    def run(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(engine.SimulationRun, "run", run)

    def growth(rounds):
        start = len(held)
        traced_peak(["run", "--config", FIXTURES / "honest.cfg", "--seed", seed,
                     "--rounds", rounds, "--out", tmp_path / str(rounds)])
        return held[start]

    growth(2)  # a process's first command also builds the parser
    low, high = MEMORY_ROUNDS
    per_round = (growth(high) - growth(low)) / (high - low)  # longer first
    assert per_round < 700  # 594 and 350 B; 982 and 738 with the records held


def test_attack_run_holds_its_fork_prefix_not_its_chain(tmp_path):
    # an attack writes its honest blocks as they commit and keeps the prefix
    # it reads back and its status window; the forged chain is held whole
    def peak(rounds):
        return traced_peak(["attack", "genesis-fork", "--config",
                            FIXTURES / "genesis_fork.cfg", "--rounds", rounds,
                            "--out", tmp_path / str(rounds)])

    peak(12)  # a process's first command also builds the parser
    per_round = (peak(19) - peak(12)) / (19 - 12)  # the longer run first
    assert per_round < 16_000  # about 12.5 KB; 21 KB with the chain held


# A failing attack under `--out`: (case, fixture, edits, exit code, stderr,
# the files it leaves with their SHA-256), as when its chain was written
# after the run.
FAILING_ATTACKS = [
    ("starved-fork", "genesis_fork.cfg",
     [("verifier_prob = 1.0", "verifier_prob = 0.6"),
      ("max_ba_steps = 9", "max_ba_steps = 1")],
     2, "error: round 4: only 6 corrupted certifiers available, need 7\n", {}),
    ("over-budget", "genesis_fork.cfg", [("fork_round = 2", "fork_round = 11")],
     2, "error: corrupting 37 of 40 users exceeds the one-third budget\n", {}),
    ("target-outside", "bribery.cfg", [("target_round = 5", "target_round = 40")],
     2, "error: target round 40 must lie strictly inside the chain\n", {}),
    ("target-negative", "bribery.cfg", [("target_round = 5", "target_round = -2")],
     2, "error: target round -2 must lie strictly inside the chain\n", {}),
    ("fork-past-tip", "genesis_fork.cfg", [("rounds = 12", "rounds = 1")],
     2, "error: fork round 2 not on chain\n", {}),
    ("no-retention", "bribery.cfg",
     [("retention_fraction = 1.0", "retention_fraction = 0.0")],
     1, "attack failed: insufficient keys: have 0, need 7\n", {
         "chain.jsonl": "da3d7314bfb0885f2e2607882f14d14a"
                        "3426889eb94c55b19283a16a296ba40d",
         "metrics.jsonl": "91f457c45ab381648b21c2f527ab9261"
                          "68f3f0131ed1567ae24f577af87e39d4"}),
]


@pytest.mark.parametrize("case, fixture, edits, code, err, files",
                         FAILING_ATTACKS, ids=[a[0] for a in FAILING_ATTACKS])
def test_failing_attack_leaves_its_files(tmp_path, capsys, case, fixture, edits,
                                         code, err, files):
    # the chain and metrics written as rounds commit are removed when the
    # attack raises
    text = (FIXTURES / fixture).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path, out = tmp_path / fixture, tmp_path / "out"
    path.write_text(text)
    kind = fixture.removesuffix(".cfg").replace("_", "-")
    got_code, stdout, got_err = run_cli(capsys, "attack", kind, "--config", path,
                                        "--out", out)
    assert (got_code, got_err) == (code, err)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == files
    assert stdout == ((out / "metrics.jsonl").read_text() if files else "")


def test_export_holds_one_certificate_message(tmp_path):
    # a block's line is never built: its certificate is formatted and
    # written a message at a time
    def export_peak(messages):
        credential = Credential(7, 9, 2, b"\x02" * 32)
        cert = tuple(Vote(u, 9, 2, cert_payload(0, b"\x03" * 32), b"\x01" * 32,
                          credential) for u in range(messages))
        chain = Chain(Status(0, {1: 5}), params=ProtocolParams())
        chain.blocks.append(Block(0, (), b"\x04" * 32, b"\x05" * 32, cert))
        path = tmp_path / f"{messages}.jsonl"
        gc.collect()
        tracemalloc.start()
        try:
            cli._write(path, chain_pieces(chain))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(path) as f:
            assert chain_from_lines(f).blocks == chain.blocks
        return peak

    growth = export_peak(2_000) - export_peak(100)  # the larger one first
    assert growth < 16_000  # 2.5 MB with the block's line built


def test_run_batch_holds_no_chain():
    # a seed's chains are written and dropped in `_run_one`; the batch holds
    # only each seed's metrics until it prints them
    cfg = FIXTURES / "honest.cfg"

    def peak(seeds):
        return traced_peak(["run", "--config", cfg, "--rounds", 20, "--seed",
                            ",".join(map(str, range(seeds)))])

    per_seed = (peak(16) - peak(4)) / 12  # the larger batch first, as above
    assert per_seed < 100_000  # 225 KB with every seed's chains held


def test_compare_holds_no_copy_of_its_files(tmp_path):
    # each file is read a record at a time, counted and then diffed
    def peak(records):
        path = tmp_path / f"{records}.jsonl"
        with open(path, "w") as f:
            f.writelines(json.dumps({"record": i, "pad": "x" * 190}) + "\n"
                         for i in range(records))
        return traced_peak(["compare", path, path])

    peak(2_000)  # a process's first command also builds the parser
    growth = peak(20_000) - peak(2_000)
    assert growth < 16_000  # 13.8 MB with both files' line lists held


# Any JSON value, with the shapes that once broke the parser drawn often.
JSON_JUNK = st.one_of(
    st.sampled_from([2**70, -1, 4.0, "4", [1], {}, None]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6))


def field_paths(obj, path=()):
    """Key paths of every field inside a JSON record, containers included."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


@pytest.fixture(scope="module")
def exported_chain(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    cfg = base / "small.cfg"
    cfg.write_text(SMALL_CFG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(cfg), "--rounds", "6",
                         "--out", str(base)]) == 0
    return cfg, (base / "chain.jsonl").read_text().splitlines()


def fuzzed_chain(cfg, lines, draw) -> Path:
    """The chain file of `lines` with one field of one record (the header
    included) replaced by arbitrary JSON."""
    index = draw(st.integers(0, len(lines) - 1), label="record")
    record = json.loads(lines[index])
    path = draw(st.sampled_from(list(field_paths(record))), label="field")
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(JSON_JUNK, label="value")
    fuzzed = cfg.parent / "fuzzed.jsonl"
    fuzzed.write_text("\n".join(lines[:index] + [json.dumps(record)]
                                + lines[index + 1:]) + "\n")
    return fuzzed


def verify_outcome(chain, cfg) -> tuple[int, str, str]:
    """verify-chain's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify-chain", "--chain", str(chain), "--config", str(cfg)])
    return code, out.getvalue(), err.getvalue()


# A block record of the writer's fields in a text the writer never makes.
NOT_THE_WRITERS_TEXT = {
    "extra-key": lambda o, line: json.dumps({**o, "extra": 0}, sort_keys=True,
                                            separators=(",", ":")),
    "default-spacing": lambda o, line: json.dumps(o, sort_keys=True),
    "reversed-keys": lambda o, line: json.dumps(dict(reversed(o.items())),
                                                separators=(",", ":")),
    "duplicated-key": lambda o, line: '{"round":%d,' % o["round"] + line[1:],
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
@pytest.mark.parametrize("form", NOT_THE_WRITERS_TEXT)
def test_record_not_in_the_writers_text_is_load_error(exported_chain, tmp_path,
                                                      form):
    # the reader should take only the text the writer makes; today each of
    # these forms is read as the block it spells and the chain verifies
    cfg, lines = exported_chain
    edited = NOT_THE_WRITERS_TEXT[form](json.loads(lines[-1]), lines[-1])
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines[:-1] + [edited]) + "\n")
    code, out, _ = verify_outcome(path, cfg)
    assert (code, out) == (2, "")


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_fuzzed_chain_file_keeps_exit_contract(exported_chain, data):
    # verify-chain reports a verdict or a parse error, never a traceback
    cfg, lines = exported_chain
    assert verify_outcome(fuzzed_chain(cfg, lines, data.draw), cfg)[0] in (0, 1, 2)


def whole_chain_verify_outcome(chain, cfg) -> tuple[int, str, str]:
    """verify-chain's outcome as the whole-chain reader gives it: the file
    parsed into one `Chain`, every payer and payee registered, and only then
    each block validated."""
    config = cli.load_config(str(cfg))
    registry = KeyRegistry(config.seed, horizon=config.params.horizon,
                           max_step=config.params.max_step)
    for u in range(1, config.num_genesis_users + 1):
        registry.register_user(u)
    try:
        with open(chain) as f:
            whole = chain_from_lines(cli._records(f), registry, config.params)
    except (OSError, UnicodeDecodeError, LedgerError) as exc:
        return 2, "", f"error: cannot load chain: {exc}\n"
    for block in whole.blocks:
        for p in block.payset:
            registry.register_user(p.payer)
            registry.register_user(p.payee)
    problems = verify_chain(whole, dict.fromkeys(
        range(1, config.num_genesis_users + 1), config.initial_balance))
    if problems:
        return 1, "".join(f"round {r}: {v}\n" for r, v in problems), ""
    return 0, f"chain valid: {len(whole.blocks)} blocks\n", ""


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_streamed_verify_chain_equals_the_whole_chain_reader(exported_chain, data):
    cfg, lines = exported_chain
    fuzzed = fuzzed_chain(cfg, lines, data.draw)
    assert verify_outcome(fuzzed, cfg) == whole_chain_verify_outcome(fuzzed, cfg)


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """A 60-round chain of the small config (round 5 pays), its config and
    the config of another seed."""
    base = tmp_path_factory.mktemp("long")
    cfg, other = base / "long.cfg", base / "other.cfg"
    text = SMALL_CFG.replace("rounds = 10", "rounds = 60").replace(
        "horizon = 32", "horizon = 68")
    cfg.write_text(text)
    other.write_text(text.replace("seed = 42", "seed = 7"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(cfg), "--out", str(base)]) == 0
    lines = (base / "chain.jsonl").read_text().splitlines()
    assert json.loads(lines[6])["payset"]
    return cfg, other, lines


def unpaid_round_5(lines):
    record = json.loads(lines[6])
    record["payset"][0]["amount"] += 1  # its signature no longer verifies
    return lines[:6] + [json.dumps(record)] + lines[7:]


@pytest.mark.parametrize("edit, verifier, code", [
    (unpaid_round_5, "cfg", 1),
    (lambda lines: lines[:-1] + [lines[-1][:-9]], "cfg", 2),
    (lambda lines: lines[:-1] + [lines[-1][:-9]], "other", 2),
    (lambda lines: lines, "other", 1),
    (lambda lines: lines[:31] + lines[32:], "cfg", 2),
], ids=["payset-fails-at-5", "malformed-last", "seed-mismatch-then-malformed",
        "seed-mismatch", "missing-record"])
def test_streamed_verify_chain_equals_the_whole_chain_reader_on(
        long_chain, tmp_path, edit, verifier, code):
    cfg, other, lines = long_chain
    cfg = {"cfg": cfg, "other": other}[verifier]
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(edit(lines)) + "\n")
    outcome = verify_outcome(path, cfg)
    assert outcome == whole_chain_verify_outcome(path, cfg)
    assert outcome[0] == code and (code == 1) == (outcome[1] != "")


# The scenario of fixtures/golden_chain.jsonl: 6 users, 5 rounds.
GOLDEN_CFG = """
[scenario]
seed = 2024
genesis_users = 6
initial_balance = 500

[params]
leader_prob = 0.5
verifier_prob = 1.0
lookback = 2
max_ba_steps = 1
cert_threshold = 6
"""
UNNAMED = 999  # a payer no record of the golden chain names


def streamed_problems(lines, config, users) -> list[tuple[int, str]]:
    """`verify_chain` of `lines` as `verify-chain` streams them, into a
    registry of the config's seed that holds `users` and no other."""
    registry = KeyRegistry(config.seed, horizon=config.params.horizon,
                           max_step=config.params.max_step)
    for u in users:
        registry.register_user(u)
    chain, blocks = read_chain(lines, registry, config.params)
    return verify_chain(chain, dict.fromkeys(
        range(1, config.num_genesis_users + 1), config.initial_balance), blocks)


def paid_by_the_unnamed(lines, config):
    """The golden chain with round 4's first payment made by `UNNAMED`,
    signed with its own key for round 4."""
    registry = KeyRegistry(config.seed, horizon=config.params.horizon,
                           max_step=config.params.max_step)
    registry.register_user(UNNAMED)
    record = json.loads(lines[5])
    first = record["payset"][0]
    payment = make_payment(registry, UNNAMED, first["payee"], first["amount"], 4)
    first.update(payer=UNNAMED, sig=payment.sig.hex())
    return lines[:5] + [json.dumps(record, sort_keys=True,
                                   separators=(",", ":"))] + lines[6:]


@pytest.mark.parametrize("case", ["golden", "fork-attack", "unnamed-payer"])
def test_verify_chain_registers_the_users_it_reads(fork_attack_chain, tmp_path,
                                                   case):
    # the ledger registers the genesis users and each block's payers and
    # payees as it reads the block, so a chain reads into a registry that
    # holds no user as into one that holds the config's users and every
    # user the file names; an unregistered payer could not have signed
    if case == "fork-attack":
        config = cli.load_config(str(FIXTURES / "genesis_fork.cfg"))
        lines = list(fork_attack_chain)
    else:
        (tmp_path / "golden.cfg").write_text(GOLDEN_CFG)
        config = cli.load_config(str(tmp_path / "golden.cfg"))
        lines = (FIXTURES / "golden_chain.jsonl").read_text().splitlines()
        if case == "unnamed-payer":
            lines = paid_by_the_unnamed(lines, config)
    named = {u for line in lines[1:] for p in json.loads(line)["payset"]
             for u in (p["payer"], p["payee"])}
    problems = streamed_problems(lines, config, ())
    assert problems == streamed_problems(
        lines, config, [*range(1, config.num_genesis_users + 1), *named])
    if case == "unnamed-payer":
        assert (4, "payset does not apply: payment 0: insufficient funds "
                   f"for payer {UNNAMED}") in problems
    else:
        assert problems == []


# -- fuzzed config files --------------------------------------------------------

# Keys that size a scenario draw only small integers or non-numeric text, so
# each example runs in well under a second.
SIZE_KEYS = ("genesis_users", "rounds", "payments_per_round",
             "new_users_per_round", "max_ba_steps", "horizon")
SIZE_VALUES = st.one_of(st.integers(-2, 12).map(str),
                        st.text(alphabet="abcxyz-_. ", max_size=5))
CONFIG_VALUES = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "-1", str(2**70), "1_0", "1e308"]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\r\n"), max_size=10))


@pytest.fixture(scope="module")
def config_bases(tmp_path_factory):
    """(config text, matching attack kind, exported chain) per base config;
    the small base derives its cert_threshold, the same 5 it sets."""
    base = tmp_path_factory.mktemp("config-fuzz")
    texts = {
        "small": (SMALL_CFG.replace("cert_threshold = 5\n", ""), None),
        "genesis_fork": ((FIXTURES / "genesis_fork.cfg").read_text(),
                         "genesis-fork"),
        "bribery": ((FIXTURES / "bribery.cfg").read_text(), "bribery"),
    }
    bases = {}
    for name, (text, kind) in texts.items():
        cfg = base / f"{name}.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["run", "--config", str(cfg),
                             "--out", str(base / name)]) == 0
        bases[name] = (text, kind, base / name / "chain.jsonl")
    return base, bases


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_fuzzed_config_keeps_exit_contract(config_bases, data):
    # one key of a base config replaced by arbitrary text or a number,
    # deleted, or renamed: run, attack and verify-chain give 0, 1 or 2, never
    # a traceback, and 2 for a renamed key
    base, bases = config_bases
    name = data.draw(st.sampled_from(sorted(bases)), label="base")
    text, kind, chain = bases[name]
    values = dict(re.findall(r"^(\w+) = (.*)$", text, flags=re.M))
    key = data.draw(st.sampled_from(list(values)), label="key")
    edit = data.draw(st.sampled_from(["replace", "delete", "rename"]),
                     label="edit")
    if edit == "replace":
        value = data.draw(SIZE_VALUES if key in SIZE_KEYS else CONFIG_VALUES,
                          label="value")
        line = f"{key} = {value}"
    elif edit == "rename":
        # no key is another key plus a suffix of these characters
        suffix = data.draw(st.text(alphabet="xyz_", min_size=1, max_size=3),
                           label="suffix")
        line = f"{key}{suffix} = {values[key]}"
    else:
        line = ""
    fuzzed = base / "fuzzed.cfg"
    fuzzed.write_text(re.sub(rf"^{key} = .*$", lambda _: line, text,
                             flags=re.M))
    commands = [["run", "--config", fuzzed],
                ["verify-chain", "--chain", chain, "--config", fuzzed]]
    if kind is not None:
        commands.append(["attack", kind, "--config", fuzzed])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        assert code in ((2,) if edit == "rename" else (0, 1, 2)), argv
