import contextlib
import errno
import filecmp
import io
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridledger import chain as chain_mod
from gridledger.chain import Block, Chain
from gridledger.cli import main
from gridledger.credit import CreditReason

from testutil import build_chain, export_with_an_empty_data_class

SCENARIOS = Path(__file__).parent / "scenarios"
RUNNABLE = sorted(p.name for p in SCENARIOS.glob("*.txt") if p.name != "parse_bad.txt")

RUN_FLAGS = ["--recorders", "3", "--supervisors", "1"]


def run_scenario(tmp_path, name="sharing.txt", seed="7", out="out"):
    out_dir = tmp_path / out
    code = main(
        ["run", str(SCENARIOS / name), "--seed", seed, "--out", str(out_dir), *RUN_FLAGS]
    )
    return code, out_dir


def insert_metrics_row(out_dir, section, row):
    """Put ``row`` first in the ``[section]`` of the run's metrics.txt;
    returns its line number."""
    path = out_dir / "metrics.txt"
    lines = path.read_text().splitlines()
    at = lines.index(f"[{section}]") + 1
    lines.insert(at, row)
    path.write_text("\n".join(lines) + "\n")
    return at + 1


def metrics_sections(text):
    """The non-blank lines of each ``[name]`` section of a metrics.txt."""
    sections = {}
    for line in text.splitlines():
        if line.startswith("["):
            rows = sections[line.strip("[]")] = []
        elif line:
            rows.append(line)
    return sections


class TestRun:
    def test_writes_four_files(self, tmp_path, capsys):
        code, out_dir = run_scenario(tmp_path)
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["chain.txt", "credits.txt", "metrics.txt", "trace.txt"]
        assert "run complete" in capsys.readouterr().out

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        _, out_a = run_scenario(tmp_path, out="a")
        _, out_b = run_scenario(tmp_path, out="b")
        for name in ("chain.txt", "credits.txt", "trace.txt", "metrics.txt"):
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name

    @pytest.mark.parametrize("flags, nodes", [([], 101 + 20 + 2), (RUN_FLAGS, 6)])
    def test_scenario_without_nodes_runs_under_the_committee_flags(self, tmp_path, capsys, flags, nodes):
        # --nodes defaults to the committee seats plus two candidates
        scenario = tmp_path / "bare.txt"
        scenario.write_text("run until 600\n")
        code = main(["run", str(scenario), "--out", str(tmp_path / "o"), *flags])
        assert code == 0, capsys.readouterr().err
        capsys.readouterr()
        assert main(["roles", str(tmp_path / "o")]) == 0
        roles = capsys.readouterr().out.splitlines()[1:]
        assert [row.split("\t")[0] for row in roles] == [str(n) for n in range(nodes)]

    def test_parse_error_names_line_seven(self, tmp_path, capsys):
        code, _ = run_scenario(tmp_path, name="parse_bad.txt")
        assert code == 2
        assert "line 7" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "directive", ["run until -5", "share 4 1 0 at -5", "fault crash-node 1 at -1"]
    )
    def test_negative_tick_is_a_parse_error(self, tmp_path, capsys, directive):
        scenario = tmp_path / "negative.txt"
        scenario.write_text(f"authorize 4\nupload 4 load 8 at 10\n{directive}\nrun until 700\n")
        code = main(["run", str(scenario), "--out", str(tmp_path / "o"), *RUN_FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "line 3" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_tick_past_u64_is_a_parse_error(self, tmp_path, capsys):
        # a block stamped at such a tick cannot be encoded
        scenario = tmp_path / "far.txt"
        scenario.write_text(f"upload 0 grid 8 at {2**64}\nrun until {2**64 + 1}\n")
        code = main(["run", str(scenario), "--out", str(tmp_path / "o"), "--interval", str(2**64), *RUN_FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "line 1" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_second_run_until_is_a_parse_error(self, tmp_path, capsys):
        scenario = tmp_path / "twice.txt"
        scenario.write_text("authorize 4\nrun until 600\nrun until 1200\n")
        code = main(["run", str(scenario), "--out", str(tmp_path / "o"), *RUN_FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "line 3" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("blocker", ["out", "out/chain.txt"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, blocker):
        # a regular file where the output directory should be, or a
        # directory where an artifact should be
        if blocker == "out":
            (tmp_path / "out").write_text("")
            out = tmp_path / "out" / "run"
        else:
            (tmp_path / blocker).mkdir(parents=True)
            out = tmp_path / "out"
        code = main(["run", str(SCENARIOS / "sharing.txt"), "--out", str(out), *RUN_FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: cannot write ") and "Traceback" not in err


class TestVerify:
    def test_honest_chain_exits_zero(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        assert main(["verify", str(out_dir / "chain.txt")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_hex_edited_record_byte_exits_one(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        lines = (out_dir / "chain.txt").read_text().splitlines()
        # flip one byte inside block 1's record area (past the 196-byte header)
        line = lines[1]
        pos = 420
        flipped = "0" if line[pos] != "0" else "1"
        lines[1] = line[:pos] + flipped + line[pos + 1 :]
        bad = tmp_path / "tampered.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 1
        assert "violation at block 1" in capsys.readouterr().out

    def test_repeated_record_exits_one(self, tmp_path, capsys):
        chain = build_chain(2)
        block = chain.blocks[1]
        duplicated = Block(header=block.header, records=block.records + block.records[-1:])
        path = tmp_path / "duplicated.txt"
        path.write_text(chain_mod.export_chain(Chain((chain.blocks[0], duplicated, chain.blocks[2]))))
        assert main(["verify", str(path)]) == 1
        assert "violation at block 1: duplicate-record" in capsys.readouterr().out

    def test_record_with_an_empty_data_class_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty-class.txt"
        path.write_text(export_with_an_empty_data_class())
        assert main(["verify", str(path)]) == 1
        assert "violation at block 1: undecodable" in capsys.readouterr().out

    def test_empty_file_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["verify", str(empty)]) == 2

    def test_non_hex_exits_two(self, tmp_path):
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("not hex at all\n")
        assert main(["verify", str(garbage)]) == 2


class TestTrace:
    def test_lineage_origin_plus_share_in_order(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        capsys.readouterr()
        chain = chain_mod.import_chain((out_dir / "chain.txt").read_text())
        origin = next(r for b in chain.blocks for r in b.records)
        code = main(["trace", str(out_dir / "chain.txt"), "--digest", origin.payload_digest.hex()])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = [line.split("\t") for line in out[1:]]
        assert len(rows) == 2
        assert rows[0][3] == "grid-data"
        assert rows[1][3] == "share-transaction"
        assert (int(rows[0][0]), int(rows[0][1])) < (int(rows[1][0]), int(rows[1][1]))

    def test_unknown_digest_no_records_exit_zero(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        code = main(["trace", str(out_dir / "chain.txt"), "--digest", "ab" * 32])
        assert code == 0
        assert "no records" in capsys.readouterr().out

    def test_key_selector(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        chain = chain_mod.import_chain((out_dir / "chain.txt").read_text())
        uploader = next(r for b in chain.blocks for r in b.records).uploader_public_key
        assert main(["trace", str(out_dir / "chain.txt"), "--key", uploader.hex()]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) >= 2

    def test_both_selectors_usage_error(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        code = main(
            ["trace", str(out_dir / "chain.txt"), "--digest", "ab" * 32, "--key", "cd" * 64]
        )
        assert code == 2

    def test_neither_selector_usage_error(self, tmp_path):
        _, out_dir = run_scenario(tmp_path)
        assert main(["trace", str(out_dir / "chain.txt")]) == 2

    def test_each_selector_takes_only_its_own_length(self, tmp_path, capsys):
        # a payload digest given as --key, a key given as --digest, and an
        # empty selector of each flag: one error line each, not a query
        _, out_dir = run_scenario(tmp_path)
        chain = chain_mod.import_chain((out_dir / "chain.txt").read_text())
        record = next(r for b in chain.blocks for r in b.records)
        for flag, selector, size in [
            ("--key", record.payload_digest.hex(), 64),
            ("--digest", record.uploader_public_key.hex(), 32),
            ("--digest", "", 32),
            ("--key", "", 64),
        ]:
            capsys.readouterr()
            assert main(["trace", str(out_dir / "chain.txt"), flag, selector]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {flag} takes {size} bytes, not {len(selector) // 2}\n"


class TestTables:
    def test_credits_table_sorted_and_non_negative_for_honest_run(self, tmp_path, capsys):
        code, out_dir = run_scenario(tmp_path, name="honest.txt")
        assert code == 0
        # all-honest run: the exported log carries no negative deltas at all
        deltas = [
            line.split("\t")[2]
            for line in (out_dir / "credits.txt").read_text().splitlines()
        ]
        assert deltas and all(d == "+1" for d in deltas)
        capsys.readouterr()
        assert main(["credits", str(out_dir)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = [line.split("\t") for line in out[1:]]
        ids = [int(r[0]) for r in rows]
        assert ids == sorted(ids)
        assert all(int(r[1]) >= 0 for r in rows)

    @pytest.mark.parametrize(
        "line",
        [
            "600\t3",  # two fields
            "600\t3\t+1\tmade-up",  # not a CreditReason
            "600\t3\t+1\trecord-correct\textra",
            "600\t3\t+2\trecord-correct",
            "600\t3\t1\trecord-correct",
            "6e2\t3\t+1\trecord-correct",
            "600\t-3\t+1\trecord-correct",
            "600\t3\t+1\tRECORD-CORRECT",
            "600 3 +1 record-correct",
            "",
            "0\t3\t+1\trecord-correct",  # tick goes down
        ],
        ids=[
            "two-fields", "made-up-reason", "five-fields", "delta-2", "unsigned-delta",
            "float-tick", "negative-node", "upper-case-reason", "spaces", "blank", "tick-down",
        ],
    )
    def test_credits_rejects_a_malformed_line(self, tmp_path, capsys, line):
        _, out_dir = run_scenario(tmp_path, name="honest.txt")
        log = out_dir / "credits.txt"
        log.write_text(log.read_text() + line + "\n")
        capsys.readouterr()
        assert main(["credits", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_credits_rejects_a_log_that_is_not_utf8(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path, name="honest.txt")
        (out_dir / "credits.txt").write_bytes(b"600\t3\t+1\trecord-correct\xff\n")
        capsys.readouterr()
        assert main(["credits", str(out_dir)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_credits_accepts_every_reason_and_an_empty_log(self, tmp_path, capsys):
        lines = [f"{i}\t{i % 2}\t{'+1' if i % 3 else '-1'}\t{r.value}" for i, r in enumerate(CreditReason)]
        (tmp_path / "credits.txt").write_text("\n".join(lines) + "\n")
        assert main(["credits", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "node_id\tcredit\n0\t1\n1\t1\n"
        (tmp_path / "credits.txt").write_text("")
        assert main(["credits", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "node_id\tcredit\n"

    def test_credits_numbers_lines_as_an_editor_does(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path, name="honest.txt")
        log = out_dir / "credits.txt"
        first, rest = log.read_text().split("\n", 1)
        log.write_text(first + "\x0c\n" + rest)  # a form feed ends no line
        capsys.readouterr()
        assert main(["credits", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {log}: line 1 is not a credit event in tick order\n"

    def test_roles_numbers_lines_as_an_editor_does(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        number = insert_metrics_row(out_dir, "roles", "5\tkingmaker\t0\t30")
        path = out_dir / "metrics.txt"
        first, rest = path.read_text().split("\n", 1)
        path.write_text(first[:1] + "\x0b" + first[1:] + "\n" + rest)  # a vertical tab ends no line
        capsys.readouterr()
        assert main(["roles", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line {number} is not a [roles] row\n"

    def test_roles_reflect_reelection(self, tmp_path, capsys):
        out_dir = tmp_path / "epochy"
        code = main(
            [
                "run", str(SCENARIOS / "honest.txt"), "--seed", "7",
                "--out", str(out_dir), *RUN_FLAGS, "--epoch", "2",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["roles", str(out_dir)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = [r.split("\t") for r in out[1:]]
        roles = {int(r[0]): r[1] for r in rows}
        credits = {int(r[0]): int(r[2]) for r in rows}
        # node 2 uploaded 12 records; highest credit makes it a recorder,
        # and the idle zero-credit recorders sink after the epoch-2 reelection
        assert roles[2] == "recorder"
        # the printed partition must match an independent sort oracle
        oracle = sorted(sorted(credits), key=lambda nid: -credits[nid])
        expected = (
            {nid: "recorder" for nid in oracle[:3]}
            | {oracle[3]: "supervisor"}
            | {nid: "candidate" for nid in oracle[4:]}
        )
        assert roles == expected

    def test_audit_healthy_store_zero_flags(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path, name="honest.txt")
        assert main(["audit", str(out_dir)]) == 0
        assert "0 under-replicated" in capsys.readouterr().out

    def test_audit_exits_one_on_a_bit_flipped_chain(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path, name="all_faults.txt")
        lines = (out_dir / "chain.txt").read_text().splitlines()
        lines[1] = lines[1][:420] + ("0" if lines[1][420] != "0" else "1") + lines[1][421:]
        (out_dir / "chain.txt").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["audit", str(out_dir)]) == 1
        assert main(["verify", str(out_dir / "chain.txt")]) == 1
        audit_out, verify_out = capsys.readouterr().out.splitlines()
        assert audit_out == verify_out and audit_out.startswith("violation at block 1:")

    def test_audit_exits_two_on_a_chain_that_is_not_hex(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path, name="all_faults.txt")
        (out_dir / "chain.txt").write_text("zz")
        capsys.readouterr()
        assert main(["audit", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "chain.txt" in captured.err

    @pytest.mark.parametrize(
        "row",
        [
            "5\tkingmaker\tzz\t30\textra",
            "5\tkingmaker\t0\t30",
            "5\trecorder\t0",
            "5\trecorder\t0\t30\textra",
            "5\tRECORDER\t0\t30",
            "-5\trecorder\t0\t30",
            "5\trecorder\t+1\t30",
            "5\trecorder\tzz\t30",
            "5 recorder 0 30",
            " ",
        ],
        ids=[
            "kingmaker-extra", "made-up-role", "three-fields", "five-fields", "upper-case-role",
            "negative-node", "signed-credit", "non-int-credit", "spaces", "whitespace",
        ],
    )
    def test_roles_rejects_a_malformed_row(self, tmp_path, capsys, row):
        _, out_dir = run_scenario(tmp_path)
        number = insert_metrics_row(out_dir, "roles", row)
        capsys.readouterr()
        assert main(["roles", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out_dir / 'metrics.txt'}: line {number} is not a [roles] row\n"

    @pytest.mark.parametrize(
        "row",
        [
            f"{'ab' * 31}a\t3\t3\tu0,u1,u2\tok",
            f"{'AB' * 32}\t3\t3\tu0,u1,u2\tok",
            f"{'ab' * 32}\tthree\t3\tu0,u1,u2\tok",
            f"{'ab' * 32}\t3\t-3\tu0,u1,u2\tok",
            f"{'ab' * 32}\t3\t3\tu0,,u2\tok",
            f"{'ab' * 32}\t3\t3\tu0,x1\tok",
            f"{'ab' * 32}\t3\t3\tu0,u1,u2\tlost",
            f"{'ab' * 32}\t3\t3\tu0,u1,u2\tok\textra",
            f"{'ab' * 32}\t3\t3\tok",
            f"{'ab' * 32}\t3\t0\tu0\tok",
            f"{'ab' * 32}\t3\t3\tu0,u1,u2\tunder-replicated",
            f"{'ab' * 32}\t3\t4\tu0,u1,u2\tok",
            f"{'ab' * 32}\t3\t2\tu0\tunder-replicated",
            f"{'ab' * 32}\t3\t3\tu0,u1,u2,u3\tok",
        ],
        ids=[
            "short-digest", "upper-case-digest", "non-int-expected", "negative-live", "empty-unit",
            "bad-unit", "made-up-status", "six-fields", "no-units-field", "short-but-ok",
            "whole-but-under-replicated", "more-live-than-expected", "more-live-than-units",
            "more-units-than-expected",
        ],
    )
    def test_audit_rejects_a_malformed_row(self, tmp_path, capsys, row):
        _, out_dir = run_scenario(tmp_path)
        number = insert_metrics_row(out_dir, "datastore", row)
        capsys.readouterr()
        assert main(["audit", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out_dir / 'metrics.txt'}: line {number} is not a [datastore] row\n"

    def test_audit_accepts_a_row_with_no_units(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path)
        insert_metrics_row(out_dir, "datastore", f"{'ab' * 32}\t3\t0\t\tunder-replicated")
        capsys.readouterr()
        assert main(["audit", str(out_dir)]) == 0
        assert capsys.readouterr().out.endswith(", 1 under-replicated\n")

    @pytest.mark.parametrize("name", RUNNABLE)
    def test_roles_and_audit_read_back_every_row_a_run_writes(self, tmp_path, capsys, name):
        code, out_dir = run_scenario(tmp_path, name=name)
        assert code == 0
        sections = metrics_sections((out_dir / "metrics.txt").read_text())
        assert sections["roles"] and sections["datastore"]
        capsys.readouterr()
        assert main(["roles", str(out_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == sections["roles"]
        assert main(["audit", str(out_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[1:-1] == sections["datastore"]

    def test_missing_dir_exits_two(self, tmp_path, capsys):
        assert main(["credits", str(tmp_path / "missing")]) == 2
        assert main(["roles", str(tmp_path / "missing")]) == 2
        assert main(["audit", str(tmp_path / "missing")]) == 2


class TestInspect:
    def test_lists_blocks(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path, name="honest.txt")
        capsys.readouterr()
        assert main(["inspect", str(out_dir / "chain.txt")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4  # header + genesis + 2 blocks
        assert out[1].startswith("0\t0\t0m00s\t0")
        assert out[2].startswith("1\t600\t10m00s\t6")

    def test_undecodable_block_exits_one(self, tmp_path, capsys):
        _, out_dir = run_scenario(tmp_path, name="honest.txt")
        lines = (out_dir / "chain.txt").read_text().splitlines()
        lines[2] = lines[2][:-2]  # drop the last byte of block 2
        bad = tmp_path / "truncated.txt"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["inspect", str(bad)]) == 1
        assert "violation at block 2: undecodable" in capsys.readouterr().out


def test_unknown_flag_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--frobnicate", "x"])
    assert exc_info.value.code == 2


def test_outputs_byte_stable_against_golden(tmp_path):
    import hashlib
    import json

    golden = json.loads((Path(__file__).parent / "fixtures" / "cli_golden.json").read_text())
    code, out_dir = run_scenario(tmp_path, name=golden["scenario"], seed=str(golden["seed"]))
    assert code == 0
    for name, expected in golden["sha256"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == expected, name


# --- no traceback from a read command ------------------------------------------

RUN_FILES = ("chain.txt", "credits.txt", "metrics.txt")
# bytes that keep a damaged file near the shapes the readers parse: loose
# characters, and lines of tab-separated fields
NEAR_TEXT = st.text(alphabet="0123456789abcdefu-+\t\n\r[],=zok ", max_size=24).map(str.encode)
FIELDS = st.sampled_from(["7", "-1", "+1", "recorder", "candidate", "ok", "u0,u1", "ab" * 32, "record-correct", ""])
ROW = st.lists(FIELDS, max_size=6).map(lambda fields: "\t".join(fields).encode())


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """The files of a sharing.txt run, and the payload digest of its first
    record, as a `trace` query."""
    code, out_dir = run_scenario(tmp_path_factory.mktemp("run"))
    assert code == 0
    chain = chain_mod.import_chain((out_dir / "chain.txt").read_text())
    return {name: (out_dir / name).read_bytes() for name in RUN_FILES}, chain.blocks[1].records[0].payload_digest.hex()


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_read_command_raises_on_a_damaged_run_directory(run_files, tmp_path_factory, data):
    """Whatever bytes one of chain.txt, credits.txt or metrics.txt holds,
    each command that reads a run directory or an export exits 0, 1 or 2."""
    files, query = run_files
    name = data.draw(st.sampled_from(RUN_FILES))
    original = files[name]
    edit = data.draw(st.sampled_from(["replace", "splice", "line"]))
    if edit == "replace":
        damaged = data.draw(st.binary(max_size=200) | NEAR_TEXT)
    elif edit == "splice":
        at = data.draw(st.integers(0, len(original)))
        cut = data.draw(st.integers(0, 16))
        damaged = original[:at] + data.draw(st.binary(max_size=16) | NEAR_TEXT) + original[at + cut:]
    else:  # replace one line, or insert one before it
        lines = original.split(b"\n")
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at : at + data.draw(st.integers(0, 1))] = [data.draw(ROW | NEAR_TEXT | st.binary(max_size=16))]
        damaged = b"\n".join(lines)
    out_dir = tmp_path_factory.mktemp("damaged")
    for file_name, content in files.items():
        (out_dir / file_name).write_bytes(damaged if file_name == name else content)
    chain = str(out_dir / "chain.txt")
    for argv in (
        ["verify", chain], ["inspect", chain], ["trace", chain, "--digest", query],
        ["credits", str(out_dir)], ["roles", str(out_dir)], ["audit", str(out_dir)],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2), argv


# --- how a command stops ------------------------------------------------------

def _duplicated_record_export() -> str:
    chain = build_chain(2)
    block = chain.blocks[1]
    duplicated = Block(header=block.header, records=block.records + block.records[-1:])
    return chain_mod.export_chain(Chain((chain.blocks[0], duplicated, chain.blocks[2])))


EXPORT = chain_mod.export_chain(build_chain(2))
VIOLATION = _duplicated_record_export()
UNDECODABLE = export_with_an_empty_data_class()
NO_SUCH_FILE, FILE_EXISTS = os.strerror(errno.ENOENT), os.strerror(errno.EEXIST)
DATASTORE = "[datastore]\n" + "ab" * 32 + "\t3\t3\tu0,u1,u2\tok\n"

# Each way a command stops: the files it finds in its directory ``{d}``, its
# arguments, its exit code and the one line it prints. An exit-1 line is a
# chain verdict, on stdout; an exit-2 line is an input or usage error, on
# stderr. Nothing else is printed.
STOPS = {
    "run-missing-scenario": (
        {}, ["run", "{d}/nope.txt", "--out", "{d}/o"], 2, f"error: cannot read {{d}}/nope.txt: {NO_SUCH_FILE}"
    ),
    "run-parse-error": (
        {"s.txt": "upload 2 load at 50\nrun until 600\n"}, ["run", "{d}/s.txt", "--out", "{d}/o"], 2,
        "error: {d}/s.txt: line 1: expected: upload <id> <class> <size> at <tick>",
    ),
    "run-unknown-node": (
        {"s.txt": "authorize 2\nupload 9 load 8 at 10\nrun until 600\n"},
        ["run", "{d}/s.txt", "--out", "{d}/o", *RUN_FLAGS], 2, "error: {d}/s.txt: line 2: unknown node 9",
    ),
    "run-interval-zero": (
        {"s.txt": "run until 600\n"}, ["run", "{d}/s.txt", "--out", "{d}/o", "--interval", "0", *RUN_FLAGS], 2,
        "error: block interval and epoch length must be >= 1",
    ),
    "run-no-run-until": (
        {"s.txt": "authorize 2\n"}, ["run", "{d}/s.txt", "--out", "{d}/o", *RUN_FLAGS], 2,
        "error: {d}/s.txt: missing 'run until <tick>' directive",
    ),
    "run-out-is-a-file": (
        {"s.txt": "run until 600\n", "o": ""}, ["run", "{d}/s.txt", "--out", "{d}/o", *RUN_FLAGS], 2,
        f"error: cannot write {{d}}/o: {FILE_EXISTS}",
    ),
    **{
        f"{command}-{case}": (files, [command, "{d}/chain.txt"], code, line)
        for command in ("verify", "inspect")
        for case, files, code, line in [
            ("missing-file", {}, 2, f"error: cannot read {{d}}/chain.txt: {NO_SUCH_FILE}"),
            ("not-utf8", {"chain.txt": EXPORT.encode() + b"\xff\n"}, 2, "error: {d}/chain.txt: not UTF-8 text"),
            ("empty-export", {"chain.txt": ""}, 2, "error: {d}/chain.txt: empty chain export"),
            ("non-hex-line", {"chain.txt": EXPORT + "zz\n"}, 2, "error: {d}/chain.txt: line 4 is not hex"),
            (
                "undecodable-block", {"chain.txt": UNDECODABLE}, 1,
                "violation at block 1: undecodable (block 1: data_class length out of bounds)",
            ),
        ]
    },
    "verify-violation": (
        {"chain.txt": VIOLATION}, ["verify", "{d}/chain.txt"], 1, "violation at block 1: duplicate-record"
    ),
    "trace-both-flags": (
        {"chain.txt": EXPORT}, ["trace", "{d}/chain.txt", "--digest", "ab" * 32, "--key", "cd" * 64], 2,
        "error: exactly one of --digest or --key is required",
    ),
    "trace-non-hex-selector": (
        {"chain.txt": EXPORT}, ["trace", "{d}/chain.txt", "--digest", "zz"], 2, "error: selector is not hex"
    ),
    "trace-wrong-length": (
        {"chain.txt": EXPORT}, ["trace", "{d}/chain.txt", "--key", "ab" * 32], 2, "error: --key takes 64 bytes, not 32"
    ),
    "credits-out-of-order": (
        {"credits.txt": "600\t3\t+1\trecord-correct\n0\t3\t+1\trecord-correct\n"}, ["credits", "{d}"], 2,
        "error: {d}/credits.txt: line 2 is not a credit event in tick order",
    ),
    "roles-no-section": (
        {"metrics.txt": DATASTORE}, ["roles", "{d}"], 2, "error: metrics file has no [roles] section"
    ),
    "roles-bad-row": (
        {"metrics.txt": "[roles]\n5\tkingmaker\t0\t30\n"}, ["roles", "{d}"], 2,
        "error: {d}/metrics.txt: line 2 is not a [roles] row",
    ),
    "audit-violation": (
        {"chain.txt": VIOLATION, "metrics.txt": DATASTORE}, ["audit", "{d}"], 1,
        "violation at block 1: duplicate-record",
    ),
}


@pytest.mark.parametrize("files, argv, code, line", STOPS.values(), ids=STOPS.keys())
def test_a_stop_prints_one_line_on_the_stream_of_its_exit_code(tmp_path, capsys, files, argv, code, line):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content.encode() if isinstance(content, str) else content)
    assert main([arg.replace("{d}", str(tmp_path)) for arg in argv]) == code
    printed = line.replace("{d}", str(tmp_path)) + "\n"
    assert capsys.readouterr() == ((printed, "") if code == 1 else ("", printed))
