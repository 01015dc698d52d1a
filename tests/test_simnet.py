import gc
import hashlib
import itertools
import json
import os
import random
import select
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from gridledger import chain as chain_mod
from gridledger import crypto, record_protocol, sigpass, simnet
from gridledger.chain import Chain, RecordKind
from gridledger.codec import ByteReader
from gridledger.credit import QUORUM, CreditEvent, CreditReason, RejectReason, fold_events
from gridledger.record_protocol import ProtocolError
from gridledger.simnet import (
    FaultSpec,
    Scenario,
    ScenarioError,
    SimConfig,
    UploadPlan,
    new_sim,
    parse_scenario,
    run,
)
from testutil import assert_no_children, ciphertext_span, failing_worker, sealed_payloads

SCENARIOS = Path(__file__).parent / "scenarios"

SIX_NODES = """
node 0 assessment 60
node 1 assessment 50
node 2 assessment 40
node 3 assessment 30
node 4 assessment 20
node 5 assessment 10
"""


# each place a scenario names a node by id, other than ``node`` itself
NODE_ID_DIRECTIVES = [
    "authorize {n}",
    "upload {n} load 8 at 20",
    "share {n} 4 0 at 20",
    "share 2 {n} 0 at 20",
    "fault crash-node {n} at 20",
    "fault byzantine-validator {n} at 20",
]


def desk_config(seed=0, **overrides):
    defaults = dict(seed=seed, r_max=3, s_max=1)
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestParseScenario:
    def test_full_grammar(self):
        scenario = parse_scenario(
            SIX_NODES
            + "authorize 2\n"
            + "upload 2 load 64 at 50\n"
            + "share 2 4 0 at 700\n"
            + "fault crash-node 1 at 500\n"
            + "fault fail-storage-unit u1 at 100 recover=900\n"
            + "run until 1200\n"
        )
        assert len(scenario.nodes) == 6
        assert scenario.authorized[0][0] == 2
        assert scenario.uploads[0].size == 64
        assert scenario.shares[0].upload_ref == 0
        assert scenario.faults[0].kind == "crash-node"
        assert scenario.faults[1].params == {"recover": 900}
        assert scenario.run_until == 1200

    def test_comments_and_blanks_ignored(self):
        scenario = parse_scenario("# comment\n\nnode 1 assessment 5  # trailing\n")
        assert scenario.nodes == [(1, 5)]

    def test_error_carries_line_number(self):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario("node 0 assessment 1\nnode 1 assessment 2\nbogus directive\n")
        assert exc_info.value.line == 3
        assert "line 3" in str(exc_info.value)

    def test_a_form_feed_in_a_comment_starts_no_line(self):
        # str.splitlines breaks at \x0c, so "more" was parsed as line 2
        scenario = parse_scenario("# note\x0cmore\nrun until 5\n")
        assert scenario.run_until == 5

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_are_numbered_as_an_editor_numbers_them(self, separator):
        # only \n ends a line: "bogus" is on line 2, not line 3
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(f"node 0 assessment 1{separator}\nbogus\n")
        assert exc_info.value.line == 2
        assert str(exc_info.value) == "line 2: unknown directive 'bogus'"

    def test_malformed_upload(self):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario("upload 2 load at 50\n")
        assert exc_info.value.line == 1

    def test_duplicate_node_id(self):
        with pytest.raises(ScenarioError):
            parse_scenario("node 1 assessment 5\nnode 1 assessment 6\n")

    def test_share_ref_out_of_range(self):
        with pytest.raises(ScenarioError):
            parse_scenario("upload 1 load 4 at 0\nshare 1 2 3 at 10\n")

    def test_unknown_fault_kind(self):
        with pytest.raises(ScenarioError):
            parse_scenario("fault melt-node 1 at 5\n")

    def test_bad_fault_params_rejected_with_line(self):
        for directive in (
            "fault forge-record 2 at 60 sise=0",
            "fault crash-node 1 at 500 recover=900",
            "fault forge-record 2 at 60 size=-3",
            "fault tamper-chain-copy 4 at 800 block=-1",
            "fault fail-storage-unit u1 at 300 recover=100",
            "fault fail-storage-unit u1 at 300 recover=300",
        ):
            with pytest.raises(ScenarioError) as exc_info:
                parse_scenario(SIX_NODES + directive + "\nrun until 700\n")
            assert exc_info.value.line == 8, directive

    @pytest.mark.parametrize(
        "directive", ["run until -5", "share 2 4 0 at -5", "fault crash-node 1 at -1"]
    )
    def test_negative_tick_rejected_with_line(self, directive):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(SIX_NODES + "upload 2 load 8 at 10\n" + directive + "\n")
        assert exc_info.value.line == 9
        assert "non-negative" in str(exc_info.value)

    @pytest.mark.parametrize("directive", NODE_ID_DIRECTIVES)
    def test_negative_node_id_rejected_with_line(self, directive):
        # a node id is a u64 wherever a scenario names one, so a negative
        # id is a parse error, not an unknown node found when the run starts
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(SIX_NODES + "upload 2 load 8 at 10\n" + directive.format(n=-1) + "\n")
        assert exc_info.value.line == 9
        assert "must be non-negative" in str(exc_info.value)

    @pytest.mark.parametrize(
        "directive",
        [
            "upload 2 load 8 at {n}",
            "share 2 4 0 at {n}",
            "fault crash-node 1 at {n}",
            "fault fail-storage-unit u1 at 5 recover={n}",
            "run until {n}",
            "node {n} assessment 5",
            *NODE_ID_DIRECTIVES,
        ],
    )
    def test_number_of_2_64_or_more_rejected_with_line(self, directive):
        # a block stamped with such a tick, or a key derived from such a
        # node id, cannot be encoded
        parse_scenario(SIX_NODES + "upload 2 load 8 at 10\n" + directive.format(n=2**64 - 1) + "\n")
        for n in (2**64, 2**70):
            with pytest.raises(ScenarioError) as exc_info:
                parse_scenario(SIX_NODES + "upload 2 load 8 at 10\n" + directive.format(n=n) + "\n")
            assert exc_info.value.line == 9
            assert "below 2**64" in str(exc_info.value)

    def test_oversized_data_class_rejected_at_parse(self):
        with pytest.raises(ScenarioError, match=r"^line 1: data class must be 1\.\.64 bytes$"):
            parse_scenario(f"upload 1 {'x' * 65} 4 at 0\n")
        with pytest.raises(ScenarioError, match=r"^line 1: class parameter must be 1\.\.64 bytes$"):
            parse_scenario(f"fault forge-record 1 at 5 class={'y' * 65}\n")

    @pytest.mark.parametrize(
        "directive, expected",
        [
            ("node 7 assessment", "expected: node <id> assessment <n>"),
            ("authorize 2 3", "expected: authorize <id>"),
            ("share 2 4 0 on 700", "expected: share <from> <to> <upload-ref> at <tick>"),
            ("fault crash-node 1 500", "expected: fault <kind> <target> at <tick> [k=v ...]"),
            ("run at 1200", "expected: run until <tick>"),
        ],
    )
    def test_a_directive_of_the_wrong_shape_is_refused(self, directive, expected):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(directive + "\n")
        assert str(exc_info.value) == f"line 1: {expected}"

    def test_a_fault_parameter_without_a_value_is_refused(self):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario("fault crash-node 1 at 500 recover\n")
        assert str(exc_info.value) == "line 1: fault parameter 'recover' is not key=value"

    def test_second_run_until_rejected_with_line(self):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(SIX_NODES + "run until 600\nrun until 1200\n")
        assert exc_info.value.line == 9
        assert "run until" in str(exc_info.value)


def test_config_defaults_carry_reference_values():
    config = SimConfig()
    assert config.r_max == 101
    assert config.s_max == 20
    assert config.block_interval_ticks == 600  # ten minutes at one tick per second
    assert config.epoch_length_blocks == 10
    assert config.message_delay_ticks == 1
    assert (simnet.STORAGE_UNIT_COUNT, simnet.REPLICATION_FACTOR) == (5, 3)


class TestNewSim:
    def test_default_nodes_from_config(self):
        sim = new_sim(SimConfig(node_count=150), Scenario(run_until=0))
        assert len(sim.nodes) == 150
        assert len(sim.credit.assignment.recorders) == 101
        assert len(sim.credit.assignment.supervisors) == 20
        assert len(sim.credit.assignment.candidates) == 29

    def test_desk_partition(self):
        sim = new_sim(desk_config(), SIX_NODES + "run until 0\n")
        assert sim.credit.assignment.recorders == (0, 1, 2)
        assert sim.credit.assignment.supervisors == (3,)
        assert sim.credit.assignment.candidates == (4, 5)

    def test_identical_inputs_identical_initial_state(self):
        a = new_sim(desk_config(seed=5), SIX_NODES + "run until 0\n")
        b = new_sim(desk_config(seed=5), SIX_NODES + "run until 0\n")
        assert {n: v.keypair for n, v in a.nodes.items()} == {
            n: v.keypair for n, v in b.nodes.items()
        }
        assert a.chain.tip_digest == b.chain.tip_digest

    def test_rejects_config_without_validators(self):
        with pytest.raises(ValueError):
            new_sim(SimConfig(node_count=3, r_max=3, s_max=1), Scenario(run_until=0))

    def test_rejects_a_negative_message_delay(self):
        with pytest.raises(ValueError, match=r"^message delay cannot be negative$"):
            new_sim(desk_config(message_delay_ticks=-1), SIX_NODES + "run until 0\n")

    def test_unknown_node_in_directive(self):
        with pytest.raises(ScenarioError) as exc_info:
            new_sim(desk_config(), SIX_NODES + "authorize 9\nrun until 0\n")
        assert "unknown node 9" in str(exc_info.value)


class TestRun:
    def test_zero_ticks_genesis_only(self):
        report = run(new_sim(desk_config(), SIX_NODES + "run until 0\n"))
        assert len(report.chain) == 1
        assert report.blocks_committed == 0

    def test_upload_every_100_ticks_makes_two_blocks_of_12(self):
        # interval arithmetic: uploads at 0,100..1100; seals at 600 and 1200
        uploads = "".join(f"upload 2 load 32 at {t}\n" for t in range(0, 1200, 100))
        scenario = SIX_NODES + "authorize 2\n" + uploads + "run until 1200\n"
        report = run(new_sim(desk_config(seed=3), scenario))
        assert report.blocks_committed == 2
        assert report.records_committed == 12
        assert [len(b.records) for b in report.chain.blocks] == [0, 6, 6]
        assert chain_mod.verify_chain(report.chain) is None

    def test_identical_uploads_commit_one_record(self):
        scenario = (
            SIX_NODES
            + "authorize 2\n"
            + "upload 2 load 0 at 10\n" * 2
            + "upload 2 load 32 at 700\n"
            + "run until 1800\n"
        )
        report = run(new_sim(desk_config(seed=3), scenario))
        assert [len(b.records) for b in report.chain.blocks] == [0, 1, 1, 0]
        assert report.blocks_rejected == 0
        assert chain_mod.verify_chain(report.chain) is None

    def test_step_advances_one_tick(self):
        sim = new_sim(desk_config(), SIX_NODES + "run until 10\n")
        assert sim.tick == 0
        sim.step()
        assert sim.tick == 1

    def test_run_steps_only_ticks_with_something_due(self, monkeypatch):
        scenario = SIX_NODES + "authorize 2\nupload 2 load 8 at 10\nrun until 1300\n"
        sim = new_sim(desk_config(), scenario)
        stepped = []
        original = type(sim).step

        def counting(self):
            stepped.append(self.tick)
            return original(self)

        monkeypatch.setattr(type(sim), "step", counting)
        report = sim.run()
        # start, upload plan, request/grant/envelope deliveries, rounds
        assert stepped == [0, 10, 11, 12, 13, 600, 1200]
        assert sim.tick == 1301
        assert report.records_committed == 1

    def test_a_boundary_ticks_events_run_before_its_round(self):
        # the envelope sent at 599 is accepted at 600, the first round's
        # tick, and joins that round's block: a round is the last event of
        # its tick, after every message delivered at it
        scenario = SIX_NODES + "authorize 2\nupload 2 load 8 at 597\nrun until 600\n"
        report = run(new_sim(desk_config(), scenario))
        assert "600\tupload-envelope\t2\t0\taccepted" in "\n".join(report.trace_lines)
        assert report.records_committed == 1 and report.pending_left == ()

    def test_missing_horizon_errors(self):
        sim = new_sim(desk_config(), SIX_NODES)
        with pytest.raises(ValueError):
            run(sim)

    def test_horizon_before_stepped_tick_errors(self):
        sim = new_sim(desk_config(seed=11), (SCENARIOS / "faults.txt").read_text())
        sim.run(1200)
        for behind in (700, 1199):
            with pytest.raises(ValueError):
                sim.run(behind)
        # the last tick stepped still reports, without stepping again
        report = sim.run(1200)
        assert "run_until_tick=1200 " in report.metrics_text()
        assert sim.tick == 1201

    def test_upload_payload_hashed_three_times(self, monkeypatch):
        # The plan's trace line and `upload_digests` share one digest; then
        # `prepare_upload` and `receive_upload` hash the payload once each.
        size = 65536
        hashed = []
        real_digest = crypto.digest

        def counting_digest(data):
            hashed.append(len(data))
            return real_digest(data)

        monkeypatch.setattr(crypto, "digest", counting_digest)
        monkeypatch.setattr(simnet, "digest", counting_digest)
        scenario = SIX_NODES + f"authorize 2\nupload 2 load {size} at 10\nrun until 600\n"
        report = run(new_sim(desk_config(seed=3), scenario))
        assert report.records_committed == 1
        assert hashed.count(size) == 3

    def test_report_is_deterministic(self):
        scenario = (SCENARIOS / "faults.txt").read_text()
        a = run(new_sim(desk_config(seed=11), scenario))
        b = run(new_sim(desk_config(seed=11), scenario))
        assert a.chain_export_text() == b.chain_export_text()
        assert a.credit_log_text() == b.credit_log_text()
        assert a.trace_text() == b.trace_text()
        assert a.metrics_text() == b.metrics_text()

    def test_different_seed_different_trace(self):
        scenario = SIX_NODES + "authorize 2\nupload 2 load 32 at 10\nrun until 700\n"
        a = run(new_sim(desk_config(seed=1), scenario))
        b = run(new_sim(desk_config(seed=2), scenario))
        assert a.trace_text() != b.trace_text()

    def test_unauthorized_upload_never_reaches_chain(self):
        scenario = SIX_NODES + "upload 2 load 32 at 10\nrun until 700\n"
        report = run(new_sim(desk_config(), scenario))
        assert report.records_committed == 0
        assert (10 + 2, 2, "permission-denied") in [
            (f.tick, f.dst, f.reason) for f in report.upload_failures  # a grant's receiver, its uploader
        ]
        for block in report.chain.blocks:
            assert block.records == ()

    def test_credit_log_folds_to_final_credits(self):
        scenario = (SCENARIOS / "faults.txt").read_text()
        sim = new_sim(desk_config(seed=11), scenario)
        report = run(sim)
        # the report folds the logged events; the run booked them into its state
        assert fold_events(report.credits.keys(), report.events) == report.credits == sim.credit.credits

    def test_chain_plus_quarantine_replay_reproduces_credit_events(self):
        # record/block credit events are exactly reconstructible from the
        # committed chain, the quarantine list, and the rejection log
        scenario = (SCENARIOS / "faults.txt").read_text()
        sim = new_sim(desk_config(seed=11), scenario)
        report = run(sim)
        key_to_id = {node.keypair.public_key: nid for nid, node in sim.nodes.items()}
        recorder_ids = {
            b.header.recorder_public_key: key_to_id[b.header.recorder_public_key]
            for b in report.chain.blocks[1:]
        }
        expected = []
        for block in report.chain.blocks[1:]:
            expected.append((recorder_ids[block.header.recorder_public_key], 1, "block-clean"))
            for record in block.records:
                expected.append((key_to_id[record.uploader_public_key], 1, "record-correct"))
        for rejection in report.rejections:
            expected.append((rejection.outcome.recorder, -1, "block-erroneous"))
        for entry in report.quarantine:
            expected.append((key_to_id[entry.record.uploader_public_key], -1, "record-erroneous"))
        replayable = {"block-clean", "record-correct", "block-erroneous", "record-erroneous"}
        actual = [
            (e.node_id, e.delta, e.reason.value)
            for e in report.events
            if e.reason.value in replayable
        ]
        assert sorted(actual) == sorted(expected)


class TestEpochs:
    def test_reelection_fires_on_epoch_boundary(self):
        scenario = SIX_NODES + "run until 1200\n"
        report = run(new_sim(desk_config(epoch_length_blocks=2), scenario))
        assert len(report.epoch_changes) == 1
        assert report.epoch_changes[0].epoch == 1
        assert report.epoch_changes[0].tick == 1200

    def test_validators_outrank_idle_recorders_after_epoch(self):
        # candidates earn +1 per validated block; idle recorders earn nothing
        scenario = SIX_NODES + "run until 2400\n"
        report = run(new_sim(desk_config(epoch_length_blocks=2), scenario))
        assert len(report.epoch_changes) == 2
        final = report.assignment
        assert final.epoch == 2
        # the supervisor and both candidates validated every block
        assert report.credits[3] >= 2
        assert report.credits[4] >= 2
        assert report.credits[5] >= 2

    @pytest.mark.parametrize("name", ["all_faults.txt", "sharing.txt"])
    def test_changed_counts_the_nodes_whose_role_changed(self, name):
        sim = new_sim(desk_config(seed=7, epoch_length_blocks=1), (SCENARIOS / name).read_text())

        def role(nid, recorders, supervisors):
            return "recorder" if nid in recorders else "supervisor" if nid in supervisors else "candidate"

        before = sim.credit.assignment.recorders, sim.credit.assignment.supervisors
        report = run(sim)
        assert len(report.epoch_changes) >= 2
        for change in report.epoch_changes:
            after = change.recorders, change.supervisors
            assert change.changed == sum(1 for nid in sim.nodes if role(nid, *before) != role(nid, *after))
            before = after
        assert any(change.changed for change in report.epoch_changes)


class TestFaults:
    def test_crash_duty_recorder_skips_round_then_resumes(self):
        scenario = SIX_NODES + "fault crash-node 1 at 700\nrun until 1800\n"
        report = run(new_sim(desk_config(), scenario))
        # round 0 (tick 600) sealed by node 0; round 1's duty node 1 is down;
        # round 2 (tick 1800) sealed by node 2
        assert report.rounds_skipped == 1
        assert report.blocks_committed == 2
        ticks = [b.header.timestamp_tick for b in report.chain.blocks]
        assert ticks == [0, 600, 1800]
        assert chain_mod.verify_chain(report.chain) is None

    def test_a_crashed_uploader_sends_nothing(self):
        # node 2 crashes at tick 5, before its upload at tick 10: the plan
        # is skipped, and no data-path message is ever sent
        scenario = (
            SIX_NODES
            + "authorize 2\n"
            + "fault crash-node 2 at 5\n"
            + "upload 2 load 32 at 10\n"
            + "run until 700\n"
        )
        report = run(new_sim(desk_config(), scenario))
        assert "10\tupload-skip\t2\t-\tuploader crashed" in report.trace_lines
        assert report.message_counts and not set(report.message_counts) & set(simnet._DATA_PATH)
        assert report.records_committed == 0

    def test_a_message_to_a_node_that_crashed_in_flight_is_dropped(self):
        # node 2's request leaves at tick 10 for duty recorder 0, which
        # crashes at tick 11 before the request arrives: no grant follows
        scenario = SIX_NODES + "authorize 2\nupload 2 load 32 at 10\nfault crash-node 0 at 11\nrun until 700\n"
        report = run(new_sim(desk_config(), scenario))
        assert "11\tupload-request\t2\t0\tdropped=crashed" in report.trace_lines
        assert report.message_counts == {"upload-request": 1}
        assert report.records_committed == 0

    def test_forge_record_quarantined_with_credit_penalty(self):
        scenario = SIX_NODES + "authorize 2\nfault forge-record 2 at 100\nrun until 700\n"
        report = run(new_sim(desk_config(), scenario))
        assert report.blocks_rejected == 1
        assert report.records_quarantined == 1
        outcome = next(f for f in report.fault_outcomes if f.spec.kind == "forge-record")
        assert outcome.outcome.startswith("quarantined@600")
        erroneous = [
            e for e in report.events
            if e.node_id == 2 and e.reason is CreditReason.RECORD_ERRONEOUS
        ]
        assert len(erroneous) == 1

    def test_forge_never_quarantines_honest_upload_of_same_bytes(self):
        # the forged and the honest payload are both empty, so their
        # digests are equal; only the forged record may be flagged
        scenario = (
            SIX_NODES
            + "authorize 2\nauthorize 4\n"
            + "upload 4 load 0 at 50\n"
            + "fault forge-record 2 at 60 size=0\n"
            + "run until 1200\n"
        )
        sim = new_sim(desk_config(), scenario)
        report = run(sim)
        honest_key = sim.nodes[4].keypair.public_key
        assert [q.record.uploader_public_key for q in report.quarantine] == [
            sim.nodes[2].keypair.public_key
        ]
        outcome = next(f for f in report.fault_outcomes if f.spec.kind == "forge-record")
        assert outcome.outcome == "quarantined@600"
        assert not [
            e for e in report.events
            if e.node_id == 4 and e.reason is CreditReason.RECORD_ERRONEOUS
        ]
        committed = [r for b in report.chain.blocks for r in b.records]
        assert [r.uploader_public_key for r in committed] == [honest_key]

    def test_tamper_chain_copy_hits_only_that_node(self):
        scenario = (
            SIX_NODES
            + "authorize 2\n"
            + "upload 2 load 32 at 10\n"
            + "fault tamper-chain-copy 4 at 800\n"
            + "run until 1200\n"
        )
        report = run(new_sim(desk_config(seed=2), scenario))
        assert report.node_chain_status[4].startswith("violation@")
        for nid in (0, 1, 2, 3, 5):
            assert report.node_chain_status[nid] == "ok"
        # the committed chain the honest majority holds is untouched
        assert chain_mod.verify_chain(report.chain) is None

    def test_tamper_chain_copy_pinned_block_reports_that_index(self):
        scenario = (
            SIX_NODES
            + "authorize 2\n"
            + "upload 2 load 32 at 10\n"
            + "fault tamper-chain-copy 4 at 800 block=1\n"
            + "run until 1200\n"
        )
        report = run(new_sim(desk_config(seed=2), scenario))
        assert report.node_chain_status[4] == "violation@1:root-mismatch"
        outcome = next(f for f in report.fault_outcomes if f.spec.kind == "tamper-chain-copy")
        assert "tampered block 1" in outcome.outcome
        assert "local-verify=violation@1" in outcome.outcome

    def test_crashed_node_copy_stops_at_its_crash(self):
        scenario = (
            SIX_NODES
            + "authorize 2\n"
            + "upload 2 load 16 at 10\n"
            + "fault crash-node 0 at 650\n"
            + "fault tamper-chain-copy 0 at 1250 block=2\n"
            + "fault tamper-chain-copy 0 at 1260 block=1\n"
            + "run until 1300\n"
        )
        sim = new_sim(desk_config(), scenario)
        report = sim.run()
        # node 0 holds genesis and the block of tick 600, not that of 1200
        assert len(report.chain) == 3
        assert [len(sim.replica(nid)) for nid in range(6)] == [2, 3, 3, 3, 3, 3]
        outcomes = [f.outcome for f in report.fault_outcomes if f.spec.kind == "tamper-chain-copy"]
        assert outcomes[0] == "skipped: block 2 out of range"
        assert outcomes[1].startswith("tampered block 1@1260")
        assert report.node_chain_status[0] == "violation@1:root-mismatch"

    def test_tamper_in_flight_rejected_by_receiver(self):
        # the share envelope at its receiver, then the upload envelope at
        # the duty recorder
        at_share_receiver = (
            SIX_NODES
            + "authorize 2\nauthorize 4\n"
            + "upload 2 load 64 at 10\n"
            + "fault tamper-in-flight 4 at 650\n"
            + "share 2 4 0 at 700\n"
            + "run until 1300\n"
        )
        at_upload_recorder = """\
node 0 assessment 60
node 1 assessment 50
node 2 assessment 40
node 3 assessment 30
node 4 assessment 20
node 5 assessment 10
authorize 4
upload 4 load 96 at 50
fault tamper-in-flight 0 at 40
run until 1200
"""
        cases = (
            (at_share_receiver, 8, "share_failures", 1),
            (at_upload_recorder, 7, "upload_failures", 0),
        )
        for scenario, seed, failures, records in cases:
            report = run(new_sim(desk_config(seed=seed), scenario))
            assert len(report.deliveries) == 0
            assert any(f.reason == "decryption-failure" for f in getattr(report, failures)), failures
            outcome = next(f for f in report.fault_outcomes if f.spec.kind == "tamper-in-flight")
            assert "rejected=decryption-failure" in outcome.outcome
            # nobody is blamed for bytes that fail to decrypt: not the uploader
            assert not any(e.reason is CreditReason.RECORD_ERRONEOUS for e in report.events)
            # nothing recorded for the failed share or upload
            assert report.records_committed == records
            shares = [
                r
                for b in report.chain.blocks
                for r in b.records
                if r.metadata.kind is RecordKind.SHARE_TRANSACTION
            ]
            assert shares == []

    def test_byzantine_validator_penalized(self):
        scenario = SIX_NODES + "fault byzantine-validator 3 at 10\nrun until 1200\n"
        report = run(new_sim(desk_config(), scenario))
        # supervisor 3 inverts on two clean blocks: two dissents
        assert report.credits[3] == -2
        assert report.blocks_committed == 2

    @pytest.mark.parametrize(
        "byzantine", [c for n in range(4) for c in itertools.combinations((3, 4, 5), n)], ids=str
    )
    def test_the_committee_outvotes_fewer_than_quorum_byzantine_validators(self, byzantine):
        # On the desk network every round's committee is supervisor 3 and
        # candidates 4 and 5. Fewer than QUORUM byzantine validators cannot
        # get a forged record committed or an honest one quarantined;
        # QUORUM of them can.
        outvoted = len(byzantine) < QUORUM
        faults = "".join(f"fault byzantine-validator {v} at 5\n" for v in byzantine)
        honest = SIX_NODES + "authorize 2\nupload 2 load 8 at 10\n" + faults + "run until 600\n"
        report = run(new_sim(desk_config(), honest))
        assert (report.records_committed, len(report.quarantine)) == ((1, 0) if outvoted else (0, 1))

        report = run(new_sim(desk_config(), honest + "fault forge-record 2 at 20\n"))
        forged = next(f for f in report.fault_outcomes if f.spec.kind == "forge-record")
        if outvoted:  # the forged record is quarantined, the honest one waits
            assert (forged.outcome, forged.detected_tick) == ("quarantined@600", 600)
            assert (report.records_committed, len(report.quarantine), len(report.pending_left)) == (0, 1, 1)
        else:
            assert (forged.outcome, forged.detected_tick) == ("committed-undetected@600", None)
            assert (report.records_committed, len(report.quarantine), len(report.pending_left)) == (2, 0, 0)

    def test_fail_storage_unit_flags_then_recovery_clears(self):
        uploads = "".join(f"upload 2 load 64 at {t}\n" for t in range(10, 400, 30))
        scenario = (
            SIX_NODES
            + "authorize 2\n"
            + uploads
            + "fault fail-storage-unit u1 at 450 recover=500\n"
            + "run until 700\n"
        )
        report = run(new_sim(desk_config(seed=4), scenario))
        assert all(not s.under_replicated for s in report.store_audit)
        assert len(report.repair_reports) == 1
        assert report.repair_reports[0].unrecoverable == ()
        outcome = next(f for f in report.fault_outcomes if f.spec.kind == "fail-storage-unit")
        assert "recovered@500" in outcome.outcome

    def test_rerun_leaves_earlier_report_as_it_was(self):
        sim = new_sim(desk_config(seed=11), (SCENARIOS / "faults.txt").read_text())
        first = sim.run(700)
        sim.inject_fault(FaultSpec(kind="tamper-chain-copy", target=4, tick=800, params={"block": 0}))
        second = sim.run(1200)

        def byzantine(report):
            return next(f for f in report.fault_outcomes if f.spec.kind == "byzantine-validator")

        assert byzantine(first).outcome == "byzantine@10; dissents=1"
        assert byzantine(second).outcome == "byzantine@10; dissents=2"
        # the first report's trace, tap and replica verdicts stop at tick 700
        fresh = new_sim(desk_config(seed=11), (SCENARIOS / "faults.txt").read_text()).run(700)
        assert first.trace_text() == fresh.trace_text() != second.trace_text()
        assert list(first.tap) == list(fresh.tap) != list(second.tap)
        assert first.node_chain_status == fresh.node_chain_status
        assert second.node_chain_status[4] == "violation@0:root-mismatch" != first.node_chain_status[4]

    def test_inject_fault_validates_target(self):
        sim = new_sim(desk_config(), SIX_NODES + "run until 0\n")
        with pytest.raises(ScenarioError):
            sim.inject_fault(FaultSpec(kind="crash-node", target=77, tick=10))
        with pytest.raises(ScenarioError):
            sim.inject_fault(FaultSpec(kind="fail-storage-unit", target="u99", tick=10))
        with pytest.raises(ValueError):
            sim.inject_fault(FaultSpec(kind="rewire", target=1, tick=10))

    def test_inject_fault_refuses_a_past_tick(self):
        sim = new_sim(desk_config(), SIX_NODES + "run until 10\n")
        sim.run(5)
        with pytest.raises(ValueError, match=r"^fault activation tick is in the past$"):
            sim.inject_fault(FaultSpec(kind="crash-node", target=1, tick=5))


class TestWireDiscipline:
    def test_no_plaintext_payload_on_the_wire(self):
        uploads = "upload 2 load 128 at 10\nupload 2 telemetry 96 at 60\n"
        scenario = (
            SIX_NODES + "authorize 2\nauthorize 4\n" + uploads + "share 2 4 0 at 700\nrun until 1300\n"
        )
        with sealed_payloads() as payloads:
            report = run(new_sim(desk_config(seed=6), scenario))
        assert payloads and all(len(p) >= 96 for p in payloads)
        for entry in report.tap:
            for payload in payloads:
                assert payload not in entry.data, f"plaintext leaked in {entry.kind}"

    def test_the_recorder_opens_the_bytes_that_were_sent(self, monkeypatch):
        # one ciphertext bit flipped in the bytes of the first upload
        # envelope as they arrive, and in nothing else the message may
        # carry, is what the recorder refuses
        deliver = simnet.Sim._deliver

        def flipping(sim, msg):
            if msg.kind == "upload-envelope" and not flipped:
                data = msg.data
                lo, _ = ciphertext_span(msg.kind, data)
                flipped.append(lo)
                msg = msg._replace(data=data[:lo] + bytes([data[lo] ^ 1]) + data[lo + 1 :])
            return deliver(sim, msg)

        flipped = []
        monkeypatch.setattr(simnet.Sim, "_deliver", flipping)
        scenario = SIX_NODES + "authorize 2\nupload 2 load 64 at 10\nrun until 700\n"
        report = run(new_sim(desk_config(seed=1), scenario))
        assert flipped and [f.reason for f in report.upload_failures] == ["decryption-failure"]
        assert report.blocks_committed == 0 or not report.chain.blocks[-1].records

    def test_only_receiver_can_open_captured_share(self):
        scenario = (
            SIX_NODES
            + "authorize 2\nauthorize 4\n"
            + "upload 2 load 64 at 10\n"
            + "share 2 4 0 at 700\n"
            + "run until 1300\n"
        )
        sim = new_sim(desk_config(seed=6), scenario)
        report = run(sim)
        captured = [e for e in report.tap if e.kind == "share-envelope"]
        assert len(captured) == 1
        envelope = crypto.ENVELOPE.decode(ByteReader(captured[0].data[224:]).var_bytes())
        opened = []
        for nid, node in sim.nodes.items():
            try:
                crypto.decrypt(node.keypair.private_key, envelope)
                opened.append(nid)
            except crypto.DecryptionError:
                pass
        assert opened == [4]

    def test_per_link_fifo_and_no_early_delivery(self):
        scenario = SIX_NODES + "authorize 2\n" + "upload 2 load 8 at 10\n" + "run until 700\n"
        report = run(new_sim(desk_config(seed=1), scenario))  # default delay: 1 tick
        lines = [l.split("\t") for l in report.trace_lines]
        request = next(l for l in lines if l[1] == "upload-request")
        grant = next(l for l in lines if l[1] == "upload-grant")
        envelope = next(l for l in lines if l[1] == "upload-envelope")
        assert int(request[0]) == 11  # sent at 10, delivered one tick later
        assert int(grant[0]) == 12
        assert int(envelope[0]) == 13


class TestShareFlow:
    def test_share_lineage_on_chain(self):
        scenario = (SCENARIOS / "sharing.txt").read_text()
        with sealed_payloads() as payloads:
            report = run(new_sim(desk_config(seed=1), scenario))
        assert len(report.deliveries) == 1
        delivery = report.deliveries[0]
        assert delivery.payload == payloads[0]
        rows = chain_mod.trace(report.chain, report.upload_digests[0])
        assert len(rows) == 2
        kinds = [r.metadata.kind for _, _, r in rows]
        assert kinds == [RecordKind.GRID_DATA, RecordKind.SHARE_TRANSACTION]
        assert any(f.reason == "not-owner" for f in report.share_failures)

    def test_delivery_count_matches_committed_share_records(self):
        scenario = (SCENARIOS / "sharing.txt").read_text()
        report = run(new_sim(desk_config(seed=1), scenario))
        committed_shares = [
            r
            for b in report.chain.blocks
            for r in b.records
            if r.metadata.kind is RecordKind.SHARE_TRANSACTION
        ]
        assert len(committed_shares) == len(report.deliveries) == 1

    @pytest.mark.xfail(strict=True, reason="ROADMAP 3(a): the store and owner check key on the payload digest alone")
    def test_an_owner_shares_its_upload_of_bytes_another_node_also_uploaded(self):
        # nodes 2 and 4 upload identical bytes and both records commit; node
        # 4 owns its own upload, so its share of it is delivered
        scenario = (
            SIX_NODES
            + "authorize 2\nauthorize 4\n"
            + "upload 2 load 0 at 10\nupload 4 load 0 at 20\n"
            + "share 4 5 1 at 1300\n"
            + "run until 1400\n"
        )
        report = run(new_sim(desk_config(), scenario))
        assert report.records_committed == 2
        assert report.share_failures == ()
        assert [(d.sender, d.receiver) for d in report.deliveries] == [(4, 5)]


def test_liveness_under_random_honest_scenarios():
    # every granted upload lands on-chain within two block intervals
    rng = random.Random(13)
    for trial in range(5):
        interval = 100
        n_uploads = rng.randrange(3, 9)
        ticks = sorted(rng.randrange(0, 500) for _ in range(n_uploads))
        uploads = "".join(f"upload 2 load 16 at {t}\n" for t in ticks)
        scenario = SIX_NODES + "authorize 2\n" + uploads + "run until 800\n"
        config = desk_config(seed=trial, block_interval_ticks=interval)
        report = run(new_sim(config, scenario))
        assert report.records_committed == n_uploads
        for ordinal, upload_tick in enumerate(ticks):
            on_chain = chain_mod.trace(report.chain, report.upload_digests[ordinal])
            assert on_chain, f"upload {ordinal} missing (trial {trial})"
            block_index = on_chain[0][0]
            sealed_tick = report.chain.blocks[block_index].header.timestamp_tick
            assert sealed_tick - upload_tick <= 2 * interval


def detection(report):
    """Per fault kind, the faults injected and those with a detected tick."""
    counts = {}
    for fo in report.fault_outcomes:
        entry = counts.setdefault(fo.spec.kind.value, {"injected": 0, "detected": 0})
        entry["injected"] += 1
        entry["detected"] += fo.detected_tick is not None
    return counts


def test_metrics_summary():
    scenario = (SCENARIOS / "faults.txt").read_text()
    report = run(new_sim(desk_config(seed=11), scenario))
    assert report.blocks_rejected == 1
    assert report.records_quarantined == 3
    assert detection(report)["forge-record"] == {"injected": 3, "detected": 3}
    assert detection(report)["byzantine-validator"]["detected"] == 1
    # the byzantine validator sits strictly below the honest validators' mean
    honest_validators = [4, 5]
    honest_mean = sum(report.credits[n] for n in honest_validators) / 2
    assert report.credits[3] < honest_mean


def test_every_fault_outcome_and_detected_tick_pinned():
    # metrics.txt pins each outcome's text; nothing else pins when the
    # system caught each fault
    report = run(new_sim(desk_config(seed=7), (SCENARIOS / "all_faults.txt").read_text()))
    assert [(fo.spec.kind.value, fo.spec.target, fo.outcome, fo.detected_tick) for fo in report.fault_outcomes] == [
        ("byzantine-validator", 3, "byzantine@10; dissents=3", 600),
        ("forge-record", 6, "quarantined@600", 600),
        ("fail-storage-unit", "u2", "failed@400; recovered@900: restored=3 unrecoverable=0", 400),
        ("tamper-in-flight", 5, "applied@1901; rejected=decryption-failure", 1901),
        ("crash-node", 1, "crashed@1000", 1200),
        ("tamper-chain-copy", 7, "tampered block 1@2000; local-verify=violation@1:root-mismatch", 2400),
    ]


# ROADMAP 3: the intake `put` of an upload whose record a round then
# quarantines is never undone
STRAY_PAYLOADS = {
    "all_faults.txt": "ROADMAP 3: 4 payloads stored, 3 committed",
    "faults.txt": "ROADMAP 3: 3 payloads stored, none committed or pending: the quarantined forged ones",
}


@pytest.mark.parametrize("name", [
    pytest.param(path.name, marks=[pytest.mark.xfail(strict=True, reason=STRAY_PAYLOADS[path.name])])
    if path.name in STRAY_PAYLOADS else path.name
    for path in sorted(SCENARIOS.glob("*.txt")) if path.name != "parse_bad.txt"
])
def test_the_store_holds_only_payloads_of_committed_or_pending_records(name):
    # ROADMAP 8(vi), in the direction that needs no protocol decision: every
    # [datastore] row of metrics.txt is a payload some record on the chain,
    # or still pending, covers
    report = run(new_sim(desk_config(seed=7), (SCENARIOS / name).read_text()))
    lines = report.metrics_text().splitlines()
    start = lines.index("[datastore]") + 1
    stored = {bytes.fromhex(row.split("\t", 1)[0]) for row in lines[start : lines.index("", start)]}
    records = [*(r for block in report.chain.blocks for r in block.records), *report.pending_left]
    assert stored and stored <= {record.payload_digest for record in records}


@pytest.mark.parametrize("name, lines", [
    # an upload and a share planned by nodes that crashed first, and a
    # share of an upload that was skipped, so its digest never was
    ("crashed_plans.txt", [
        "700\tupload-skip\t7\t-\tuploader crashed",
        "1300\tshare-skip\t6\t2\tsender crashed",
        "1300\tshare-reject\t4\t2\treason=digest-not-on-chain",
    ]),
    # a payload that reaches its recorder while only two storage units live
    ("storage_outage.txt", ["53\tdatastore\t-\t0\tput-failed: need 3 live units, have 2"]),
])
def test_plans_the_run_cannot_carry_out_are_traced(name, lines):
    report = run(new_sim(desk_config(seed=7), (SCENARIOS / name).read_text()))
    traced = report.trace_text().splitlines()
    assert [line for line in traced if line in lines] == lines


# each kind of refusal's trace detail, ``{}`` standing for its reason
REFUSAL_DETAILS = {
    "upload-grant": "denied",
    "upload-envelope": "rejected={}",
    "share-envelope": "rejected={}",
    "share-reject": "reason={}",
}


@pytest.mark.parametrize("reason", list(RejectReason), ids=[r.value for r in RejectReason])
@pytest.mark.parametrize("kind", list(REFUSAL_DETAILS))
def test_a_refusal_traces_the_value_of_its_reason(kind, reason):
    # the goldens reach only some reasons; each renders as its value, not
    # as the member's name, which formatting the member gives on Python 3.11
    line = simnet.Refusal(9, kind, 2, 4, reason).trace_text()
    assert line == f"9\t{kind}\t2\t4\t{REFUSAL_DETAILS[kind].format(reason.value)}\n"


def test_fault_outcome_edge_cases_pinned():
    # a second crash of a crashed node, a forger that crashed, a block
    # index past the copy's end, and a tamper armed long before it applies
    text = (SCENARIOS / "all_faults.txt").read_text().replace(
        "run until 2400\n",
        "fault crash-node 1 at 1100\n"
        "fault forge-record 1 at 1300\n"
        "fault tamper-chain-copy 7 at 2100 block=99\n"
        "fault tamper-in-flight 2 at 100\n"
        "run until 2400\n",
    )
    report = run(new_sim(desk_config(seed=7), text))
    assert [(fo.outcome, fo.detected_tick) for fo in report.fault_outcomes[6:]] == [
        ("crashed@1100", None),  # only the crash that took the node down is detected
        ("skipped: forger crashed", None),
        ("skipped: block 99 out of range", None),  # no local-verify note
        ("applied@1303; rejected=decryption-failure", 1303),
    ]
    first_crash = report.fault_outcomes[4]
    assert (first_crash.outcome, first_crash.detected_tick) == ("crashed@1000", 1200)


def retained_per_empty_round(node_count: int, warm: int = 20, rounds: int = 40) -> float:
    """Bytes an empty round leaves allocated once a run is under way, on a
    network with 20 recorders and 4 supervisors. `new_sim` loads every
    node's private key and each verify key is derived before measuring, so
    the key caches, which fill once per node, do not count."""
    config = SimConfig(seed=4, node_count=node_count, r_max=20, s_max=4)
    sim = new_sim(config, "")
    for node in sim.nodes.values():
        signature = crypto.sign(node.keypair.private_key, b"warm")
        assert crypto.verify(node.keypair.public_key, b"warm", signature)
    sim.run(warm * config.block_interval_ticks)
    gc.collect()
    tracemalloc.start()
    try:
        report = sim.run((warm + rounds) * config.block_interval_ticks)
        assert report.blocks_committed == warm + rounds
        del report
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / rounds


def count_key_loads(monkeypatch) -> Counter:
    """Count private-key loads by class name, and `crypto.encrypt_for` calls,
    each of which loads one ephemeral X25519 key."""
    counts = Counter()

    def counting_loader(key_class):
        class Loader:
            @staticmethod
            def from_private_bytes(data):
                counts[key_class.__name__] += 1
                return key_class.from_private_bytes(data)

        return Loader

    def counting_encrypt_for(*args, **kwargs):
        counts["encrypt_for"] += 1
        return original_encrypt_for(*args, **kwargs)

    original_encrypt_for = crypto.encrypt_for
    for name in ("Ed25519PrivateKey", "X25519PrivateKey"):
        monkeypatch.setattr(crypto, name, counting_loader(getattr(crypto, name)))
    monkeypatch.setattr(crypto, "encrypt_for", counting_encrypt_for)
    return counts


@pytest.mark.parametrize(
    "config, scenario",
    [
        (SimConfig(seed=3, node_count=150, r_max=20, s_max=4), "run until 18000\n"),
        (desk_config(seed=7), (SCENARIOS / "sharing.txt").read_text()),
    ],
    ids=["idle-150", "sharing"],
)
def test_a_run_loads_no_node_key_after_new_sim(monkeypatch, config, scenario):
    # start from empty key caches, so keys a previous test loaded do not count
    for value in vars(crypto).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    sim = new_sim(config, scenario)
    loads = count_key_loads(monkeypatch)
    report = run(sim)
    assert report.blocks_committed >= 2
    assert loads["Ed25519PrivateKey"] == 0
    assert loads["X25519PrivateKey"] == loads["encrypt_for"]


def test_empty_round_memory_does_not_grow_with_node_count():
    # a committed round keeps one commit notice and no per-node replica
    # entry, so 150 nodes retain what 30 do, give or take longer node ids
    small, large = retained_per_empty_round(30), retained_per_empty_round(150)
    assert large < 1.1 * small, (small, large)


def counting_verify(monkeypatch) -> Counter:
    """Count each `crypto.verify` call as (calling function, block judged or
    None, key, message, signature); the block is `validate_block`'s. A call
    from `record_protocol.open_signed` counts for the protocol step that
    opened the payload (`receive_upload` or `receive_share`)."""
    counts = Counter()
    original = crypto.verify
    opener = record_protocol.open_signed.__code__

    def counting(public_key, message, signature):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<") or frame.f_code is opener:  # a generator expression, the opener
            frame = frame.f_back
        caller = frame.f_code.co_name
        block = frame.f_locals["block"] if caller == "validate_block" else None
        counts[caller, block, public_key, message, signature] += 1
        return original(public_key, message, signature)

    monkeypatch.setattr(crypto, "verify", counting)
    return counts


def uploaded_records(report) -> list:
    """Every record intake accepted: committed, quarantined or still pending."""
    committed = [r for block in report.chain.blocks for r in block.records]
    return committed + [entry.record for entry in report.quarantine] + list(report.pending_left)


def test_block_checks_verify_each_signature_at_most_three_times(monkeypatch):
    # Block checks (`chain.validate_block`) run once per round: `commit`
    # gates on the round's check, and neither `Chain.append` nor the report
    # checks a block again. Three is a ceiling, not the count; the test below
    # pins one verify per record signature per run. Every other caller verifies a
    # signature once, as a protocol step of its own: the recorder's intake
    # and the share receiver check the record signature, and the run's one
    # signature pass (`sigpass._scan`, in this process for so few votes)
    # the votes.
    counts = counting_verify(monkeypatch)
    report = run(new_sim(desk_config(seed=7), (SCENARIOS / "sharing.txt").read_text()))
    assert report.records_committed > 0 and report.deliveries
    assert {key[0] for key in counts} == {
        "validate_block", "receive_upload", "receive_share", "_scan"
    }
    per_caller = Counter()
    for (caller, _, *triple), n in counts.items():
        per_caller[(caller, *triple)] += n
    for (caller, *_), n in per_caller.items():
        assert n <= (3 if caller == "validate_block" else 1), (caller, n)
    for record in uploaded_records(report):
        triple = chain_mod.RECORD.triple(record)
        assert per_caller[("receive_upload", *triple)] + per_caller[("validate_block", *triple)] == 1


@pytest.mark.parametrize("name", ["sharing.txt", "all_faults.txt"])
def test_block_checks_verify_each_signature_once_per_block(monkeypatch, name):
    # Intake verifies each record's uploader signature; the round's check
    # (`validate_block`, with the triples intake verified) does not verify
    # it again, in the block that commits it or quarantines it, nor in a
    # rejected block it survives. The recorder signature is verified once
    # per block judged: the round's check is the one `commit` gates on, and
    # neither `Chain.append` nor the report checks a block again.
    counts = counting_verify(monkeypatch)
    sim = new_sim(desk_config(seed=7), (SCENARIOS / name).read_text())
    report = run(sim)
    assert report.records_committed > 0
    # a triple is dropped once its record is committed or quarantined
    assert [triple for _, triple in sim.pending.values()] == [chain_mod.RECORD.triple(r) for r in report.pending_left]
    checked = Counter()
    for (caller, block, *triple), n in counts.items():
        if caller in ("receive_upload", "validate_block"):
            checked[tuple(triple)] += n
        if caller == "validate_block":
            assert triple[2] == block.header.recorder_signature, "a record signature was verified again"
            assert n == 1
    records = uploaded_records(report)
    assert records and all(checked[chain_mod.RECORD.triple(r)] == 1 for r in records)
    if name == "all_faults.txt":  # a rejected block whose survivors commit later
        assert any(rejection.survivors == 2 for rejection in report.rejections)


@pytest.mark.parametrize("byte", [0, 63])
def test_a_record_changed_after_intake_is_verified_again(monkeypatch, byte):
    # The round's check skips the signatures intake verified, by exact
    # (key, digest, signature) triple. A pending record whose signature
    # changed by one byte keeps its key and digest, so a memo keyed by either
    # would pass it; its triple is new, so it is verified, flagged and
    # quarantined, and the untouched record survives.
    scenario = SIX_NODES + "authorize 2\nauthorize 3\nupload 2 load 64 at 50\nupload 3 load 64 at 60\n"
    sim = new_sim(desk_config(seed=5), scenario)
    sim.run(599)
    original, untouched = sim.pending
    signature = bytearray(original.uploader_signature)
    signature[byte] ^= 0x01
    changed = replace(original, uploader_signature=bytes(signature))
    sim.pending = {changed: sim.pending[original], untouched: sim.pending[untouched]}
    calls = []
    validate_block = chain_mod.validate_block

    def recording(block, *args, **kwargs):
        calls.append((block, validate_block(block, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(chain_mod, "validate_block", recording)
    report = sim.run(600)
    round_block, round_check = calls[0]
    assert round_block.records == (changed, untouched)
    assert round_check.fault is None and round_check.bad_records == (0,)
    assert [(entry.index, entry.record) for entry in report.quarantine] == [(0, changed)]
    assert report.blocks_committed == 0 and report.pending_left == (untouched,)


# --- the run's vote signature pass --------------------------------------------

def forge_a_vote(monkeypatch, *ticks: int) -> list[int]:
    """Flip one bit of the signature on the second assigned validator's vote
    in each round decided at one of ``ticks``; the list gets those
    validators' ids, in order."""
    forged = []
    original = record_protocol.validate_proposal

    def forging(validator, validator_id, proposal, check, predicate):
        vote = original(validator, validator_id, proposal, check, predicate)
        if proposal.block.header.timestamp_tick in ticks and validator_id == proposal.validator_ids[1]:
            forged.append(validator_id)
            vote = vote._replace(signature=bytes([vote.signature[0] ^ 1]) + vote.signature[1:])
        return vote

    monkeypatch.setattr(record_protocol, "validate_proposal", forging)
    return forged


def count_forks(monkeypatch, cpus: int) -> list[int]:
    """Tell `sigpass` the process may use ``cpus`` CPUs; the list gets the
    pid of each worker forked. A worker's own copy of the list holds the
    workers forked before it, so its length is the worker's ordinal."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(sigpass, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


BATCH = sigpass.BATCH_TRIPLES
LONG_IDLE = 86 * 600  # 86 decided rounds: 258 vote triples, eight full batches and a partial one of 2


def chunk_tick(index: int) -> int:
    """The tick of the round whose second vote is vote triple ``index`` of a
    run with no skipped round."""
    assert index % 3 == 1
    return (index // 3 + 1) * 600


def slow_worker(monkeypatch, forks: list[int], seconds: float, done: Path) -> None:
    """Make the first worker wait before it verifies its first batch. Each
    worker appends a line to ``done`` when it has verified a batch: its
    ordinal and the index in the batch of the first failing triple (-1), so
    the file lists batches in the order they were done."""
    parent, scan = os.getpid(), sigpass._scan

    def scan_slowly(triples):
        if os.getpid() == parent:
            return scan(triples)
        if not forks and not done.exists():
            time.sleep(seconds)
        found = scan(triples)
        with open(done, "a", encoding="ascii") as fh:
            fh.write(f"{len(forks)} {found}\n")
        return found

    monkeypatch.setattr(sigpass, "_scan", scan_slowly)


@pytest.mark.parametrize(
    "scenario, tick, n_forks",
    [
        ((SCENARIOS / "sharing.txt").read_text(), 1200, 0),
        (f"run until {LONG_IDLE}\n", chunk_tick(1), 1),  # in the worker's first batch
        (f"run until {LONG_IDLE}\n", chunk_tick(151), 1),  # in a later batch
        (f"run until {LONG_IDLE}\n", chunk_tick(256), 1),  # in the partial batch, verified in the process
    ],
    ids=["desk", "long-first-round", "long-middle-round", "long-last-round"],
)
def test_a_forged_vote_fails_the_run(monkeypatch, scenario, tick, n_forks):
    # the vote is tallied in its round and verified by the run's pass,
    # which raises the round's error at the end of the run: no report
    # comes back
    forged = forge_a_vote(monkeypatch, tick)
    forks = count_forks(monkeypatch, cpus=2)
    sim = new_sim(desk_config(seed=7), scenario)
    with pytest.raises(ProtocolError) as raised:
        sim.run()
    assert len(forged) == 1 and str(raised.value) == f"vote signature from {forged[0]} does not verify"
    assert len(forks) == n_forks
    assert sim.tick > sim.scenario.run_until  # checked at the end of the run
    assert_no_children()


def test_the_earliest_forged_vote_is_reported_when_a_later_chunk_answers_first(monkeypatch, tmp_path):
    # three CPUs: the first two batches go to two workers, and the first
    # one, which holds the earlier forged vote, is made to answer last
    forged = forge_a_vote(monkeypatch, chunk_tick(1), chunk_tick(BATCH + 2))
    done = tmp_path / "done"
    forks = count_forks(monkeypatch, cpus=3)
    slow_worker(monkeypatch, forks, 0.5, done)
    sim = new_sim(desk_config(seed=7), f"run until {LONG_IDLE}\n")
    with pytest.raises(ProtocolError) as raised:
        sim.run()
    lines = done.read_text(encoding="ascii").splitlines()
    assert lines.index("1 2") < lines.index("0 1")  # the second worker answered first
    assert len(set(forged)) == 2 and str(raised.value) == f"vote signature from {forged[0]} does not verify"
    assert len(forks) == 2
    assert_no_children()


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_a_lost_workers_chunk_is_verified_in_the_process(monkeypatch, how):
    # the worker is lost at its first batch: the process verifies that
    # batch again and every later one, up to the forged vote, and not the
    # partial batch. Each poll for answers waits until the lost worker's
    # pipe ends, so the loss is seen at the next batch.
    forged = forge_a_vote(monkeypatch, chunk_tick(151))
    monkeypatch.setattr(sigpass, "_scan", failing_worker(how))
    real_select = select.select
    monkeypatch.setattr(select, "select", lambda r, w, x, timeout=None: real_select(r, w, x, 30))
    forks = count_forks(monkeypatch, cpus=2)
    counts = counting_verify(monkeypatch)
    sim = new_sim(desk_config(seed=7), f"run until {LONG_IDLE}\n")
    with pytest.raises(ProtocolError) as raised:
        sim.run()
    assert str(raised.value) == f"vote signature from {forged[0]} does not verify"
    assert len(forks) == 1
    scanned = sum(n for (caller, *_), n in counts.items() if caller == "_scan")
    assert scanned == 152
    assert_no_children()


@pytest.mark.parametrize("forged_tick", [None, chunk_tick(1)], ids=["clean-votes", "forged-vote"])
def test_a_round_that_raises_while_a_worker_is_live(monkeypatch, tmp_path, forged_tick):
    # the round at triple 150 raises while the worker is still verifying
    # its first batch: the pass waits for it, and a forged vote it finds
    # wins over the round's error; otherwise the round's error comes out
    forged = forge_a_vote(monkeypatch, forged_tick) if forged_tick else []
    done = tmp_path / "done"
    forks = count_forks(monkeypatch, cpus=2)
    slow_worker(monkeypatch, forks, 0.3, done)
    commit = record_protocol.commit

    def failing_commit(proposal, *args):
        if proposal.block.header.timestamp_tick == chunk_tick(151):
            raise RuntimeError("a later round fails")
        return commit(proposal, *args)

    monkeypatch.setattr(record_protocol, "commit", failing_commit)
    sim = new_sim(desk_config(seed=7), f"run until {LONG_IDLE}\n")
    with pytest.raises(ProtocolError if forged_tick else RuntimeError) as raised:
        sim.run()
    if forged_tick:
        assert str(raised.value) == f"vote signature from {forged[0]} does not verify"
        assert isinstance(raised.value.__context__, RuntimeError)
    # it answered its first batch before the run returned
    assert done.read_text(encoding="ascii").split("\n")[0] == ("0 1" if forged_tick else "0 -1")
    assert len(forks) == 1 and sim.tick == chunk_tick(151)
    assert_no_children()


def test_a_forged_vote_wins_over_a_later_rounds_error(monkeypatch):
    forged = forge_a_vote(monkeypatch, 600)
    commit = record_protocol.commit

    def failing_commit(proposal, *args):
        if proposal.block.header.timestamp_tick == 1800:
            raise RuntimeError("a later round fails")
        return commit(proposal, *args)

    monkeypatch.setattr(record_protocol, "commit", failing_commit)
    sim = new_sim(desk_config(seed=7), SIX_NODES + "run until 2400\n")
    with pytest.raises(ProtocolError) as raised:
        sim.run()
    assert str(raised.value) == f"vote signature from {forged[0]} does not verify"
    assert isinstance(raised.value.__context__, RuntimeError)


def test_a_direct_step_verifies_its_rounds_votes(monkeypatch):
    forged = forge_a_vote(monkeypatch, 600)
    sim = new_sim(desk_config(seed=7), SIX_NODES + "run until 1200\n")
    while sim.tick < 600:
        sim.step()
    with pytest.raises(ProtocolError) as raised:
        sim.step()
    assert str(raised.value) == f"vote signature from {forged[0]} does not verify"
    # raised after the round tallied its votes, before the step returned
    assert sum(getattr(e, "kind", None) == "vote" for e in sim.log) == 3
    assert any(isinstance(e, CreditEvent) for e in sim.log) and sim.tick == 601


def sent_votes(sim, report) -> Counter:
    """(validator key, signed bytes) of each vote the run's tap carries."""
    return Counter((sim.nodes[e.src].keypair.public_key, e.data) for e in report.tap if e.kind == "vote")


def test_each_vote_triple_is_verified_once_in_process(monkeypatch):
    counts = counting_verify(monkeypatch)
    sim = new_sim(desk_config(seed=7), (SCENARIOS / "all_faults.txt").read_text())
    report = sim.run()
    scanned = Counter()
    for (caller, _, key, message, _), n in counts.items():
        if caller == "_scan":
            scanned[key, message] += n
    decided = report.blocks_committed + report.blocks_rejected
    assert report.blocks_rejected and sum(scanned.values()) == 3 * decided
    assert scanned == sent_votes(sim, report)


def test_each_vote_triple_is_verified_once_across_processes(monkeypatch, tmp_path):
    # each process appends the vote triples it verifies to one file; a
    # worker cannot report back otherwise
    log = tmp_path / "verified"
    original = crypto.verify

    def logging_verify(public_key, message, signature):
        if sys._getframe(1).f_code.co_name == "_scan":
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {public_key.hex()} {message.hex()}\n")
        return original(public_key, message, signature)

    forks = count_forks(monkeypatch, cpus=2)
    monkeypatch.setattr(crypto, "verify", logging_verify)
    sim = new_sim(desk_config(seed=7), f"run until {LONG_IDLE}\n")
    report = sim.run()
    assert report.blocks_committed == 86
    rows = [line.split() for line in log.read_text(encoding="ascii").splitlines()]
    scanned = Counter((bytes.fromhex(key), bytes.fromhex(message)) for _, key, message in rows)
    assert len(rows) == 258 and scanned == sent_votes(sim, report)
    # the one worker takes whole batches, at least the first BACKLOG; the
    # process takes the rest, the partial batch of 2 among them
    by_pid = Counter(int(pid) for pid, *_ in rows)
    assert len(forks) == 1 and set(by_pid) == {forks[0], os.getpid()}
    assert by_pid[forks[0]] % BATCH == 0 and by_pid[forks[0]] >= sigpass.BACKLOG * BATCH
    assert by_pid[os.getpid()] % BATCH == 2
    assert_no_children()


def test_a_default_network_run_forks_one_worker_on_two_cpus(monkeypatch):
    # 200 rounds of the default network, as the benchmark's idle run: one
    # standing worker takes the 600 votes' batches for the whole run
    forks = count_forks(monkeypatch, cpus=2)
    report = new_sim(SimConfig(seed=3), f"run until {200 * 600}\n").run()
    assert report.blocks_committed == 200
    assert len(forks) == 1
    assert_no_children()


def test_each_vote_is_encoded_once(monkeypatch):
    # the bytes a vote's signature covers are built once, in `sign_vote`;
    # the triple verified and the tap entry carry that same object. The
    # byzantine validator's votes are signed twice, once as validated and
    # once inverted, and so encoded twice.
    encoded, signed = [], []
    signing_bytes, sign = record_protocol.VOTE.signing_bytes, crypto.sign

    def encoding(verdict):
        encoded.append(signing_bytes(verdict))
        return encoded[-1]

    def signing(private_key, message):
        signed.append(message)
        return sign(private_key, message)

    monkeypatch.setattr(record_protocol.VOTE, "signing_bytes", encoding)
    monkeypatch.setattr(crypto, "sign", signing)
    sim = new_sim(SimConfig(seed=3), f"run until {200 * 600}\n")
    report = sim.run()
    assert report.blocks_committed == 200 and len(encoded) == 600
    sent = [e.data for e in report.tap if e.kind == "vote"]
    assert all(a is b for a, b in zip(sent, encoded, strict=True))
    assert all(any(m is b for m in signed) for b in encoded)

    encoded.clear()
    sim = new_sim(desk_config(seed=7), (SCENARIOS / "all_faults.txt").read_text())
    report = sim.run()
    byzantine = sum(getattr(e, "kind", None) == "byzantine" for e in sim.log)
    sent = [e.data for e in report.tap if e.kind == "vote"]
    assert byzantine and len(encoded) == len(sent) + byzantine
    assert all(any(s is b for b in encoded) for s in sent)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_report_chain_with_a_zeroed_root_fails_verify(index):
    # nothing the rounds appended is taken on trust: a zeroed root or a
    # flipped recorder signature in any block of the report chain is found
    report = run(new_sim(desk_config(seed=7), (SCENARIOS / "sharing.txt").read_text()))
    assert len(report.chain) == 3 and chain_mod.verify_chain(report.chain) is None
    block = report.chain.blocks[index]
    signature = bytearray(block.header.recorder_signature)
    signature[0] ^= 0x01
    for header, reason in [
        (block.header._replace(merkle_root=bytes(32)), "root-mismatch"),
        (block.header._replace(recorder_signature=bytes(signature)), "bad-signature"),
    ]:
        blocks = list(report.chain.blocks)
        blocks[index] = replace(block, header=header)
        mutated = replace(report.chain, blocks=tuple(blocks))
        assert chain_mod.verify_chain(mutated) == chain_mod.Violation(index, reason)


@pytest.mark.parametrize(
    "scenario, missed",
    [
        # crash-node 1 fires at tick 1000; at seed 7 round 0 is rejected and
        # round 1 skipped, so the blocks are committed at 1800 and 2400
        ((SCENARIOS / "all_faults.txt").read_text(), ["missed=1", "missed=1"]),
        # blocks at 600 and 1800, either side of the crash at 700
        (SIX_NODES + "fault crash-node 1 at 700\nrun until 1800\n", ["missed=-", "missed=1"]),
    ],
    ids=["all_faults", "six_nodes"],
)
def test_one_commit_notice_line_per_committed_block(scenario, missed):
    # each committed round traces one commit-notice line naming the nodes
    # down at that tick; every other node is a destination of that tick's
    # notices in the tap
    report = run(new_sim(desk_config(seed=7), scenario))
    notices = [line.split("\t") for line in report.trace_lines if line.split("\t")[1] == "commit-notice"]
    assert [int(n[0]) for n in notices] == [block.header.timestamp_tick for block in report.chain.blocks[1:]]
    assert [n[4].split(";")[1] for n in notices] == missed
    tapped = {}
    for entry in report.tap:
        if entry.kind == "commit-notice":
            tapped.setdefault(entry.tick, []).append((entry.src, entry.dst))
    node_ids = list(report.assessments)  # in `Sim.nodes` order
    for tick, _, recorder, dst, detail in notices:
        assert dst == "-"
        sent, down = detail.removeprefix("sent=").split(";missed=")
        reached = [nid for nid in node_ids if str(nid) not in down.split(",")]
        assert tapped[int(tick)] == [(int(recorder), nid) for nid in reached]
        assert int(sent) == len(reached)


def test_fault_artifacts_and_detection_pinned():
    # every fault kind fires once; the four artifacts and the detection
    # counts are pinned, since cli_golden.json's scenario has no faults
    golden = json.loads((Path(__file__).parent / "fixtures" / "fault_golden.json").read_text())
    scenario = (SCENARIOS / golden["scenario"]).read_text()
    report = run(new_sim(desk_config(seed=golden["seed"]), scenario))
    artifacts = {
        "chain.txt": report.chain_export_text(),
        "credits.txt": report.credit_log_text(),
        "trace.txt": report.trace_text(),
        "metrics.txt": report.metrics_text(),
    }
    for name, expected in golden["sha256"].items():
        assert hashlib.sha256(artifacts[name].encode("utf-8")).hexdigest() == expected, name
    detected = detection(report)
    assert detected == golden["detection"]
    assert len(detected) == 6
    assert all(entry == {"injected": 1, "detected": 1} for entry in detected.values())


@pytest.mark.parametrize(
    "name, entries, expected",
    [
        ("sharing.txt", 31, "bf5e1a9b2c4e3a6b450b35e1964a9b39ecfd1dc731ddbe546039d1dae3b6a0a0"),
        ("all_faults.txt", 45, "bd736998fc9d74c33258bda83aaf46224bc4c0cf2f1709f8f03914cfd96f87f3"),
    ],
)
def test_tap_pinned(name, entries, expected):
    # the expanded tap, commit notices included, at seed 7: the artifacts
    # pin the trace but not the bytes each message carries
    report = run(new_sim(desk_config(seed=7), (SCENARIOS / name).read_text()))
    rows = "".join(f"{e.tick}\t{e.kind}\t{e.src}\t{e.dst}\t{e.data.hex()}\n" for e in report.tap)
    assert len(report.tap) == entries
    assert hashlib.sha256(rows.encode("utf-8")).hexdigest() == expected
    assert report.message_counts == dict(Counter(e.kind for e in report.tap))
