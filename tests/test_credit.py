import json
import random
from pathlib import Path

import pytest

from gridledger.credit import (
    CreditLedger,
    CreditReason,
    NodeProfile,
    apply_block_outcome,
    apply_record_outcome,
    apply_validator_outcomes,
    duty_recorder,
    fold_events,
    initialize_roles,
    reelect,
)
from gridledger.record_protocol import ProtocolError, choose_validators

FIXTURES = Path(__file__).parent / "fixtures"


def profiles(scores):
    return [
        NodeProfile(node_id=i, public_key=bytes([i]) * 64, assessment=s)
        for i, s in enumerate(scores)
    ]


class TestInitializeRoles:
    def test_paper_committee_sizes(self):
        # 150 nodes with the paper's capacities: 101 recorders, 20 supervisors
        assignment = initialize_roles(profiles(range(150, 0, -1)), r_max=101, s_max=20)
        assert len(assignment.recorders) == 101
        assert len(assignment.supervisors) == 20
        assert len(assignment.candidates) == 29

    def test_desk_scale_partition(self):
        assignment = initialize_roles(profiles([5, 4, 3, 2, 1]), r_max=3, s_max=1)
        assert assignment.recorders == (0, 1, 2)
        assert assignment.supervisors == (3,)
        assert assignment.candidates == (4,)

    def test_ranking_by_assessment_desc(self):
        assignment = initialize_roles(profiles([10, 30, 20]), r_max=1, s_max=1)
        assert assignment.recorders == (1,)
        assert assignment.supervisors == (2,)
        assert assignment.candidates == (0,)

    def test_equal_assessment_breaks_by_node_id(self):
        assignment = initialize_roles(profiles([7, 7, 7]), r_max=2, s_max=0)
        assert assignment.recorders == (0, 1)
        assert assignment.candidates == (2,)

    def test_errors(self):
        with pytest.raises(ValueError):
            initialize_roles([], r_max=1, s_max=0)
        with pytest.raises(ValueError):
            initialize_roles(profiles([1]), r_max=0, s_max=0)


class TestCreditEvents:
    def test_correct_upload_plus_one(self):
        ledger = CreditLedger([1])
        event = apply_record_outcome(ledger, 1, correct=True, tick=5)
        assert event.delta == 1 and event.reason is CreditReason.RECORD_CORRECT
        assert ledger.credit(1) == 1

    def test_erroneous_upload_minus_one(self):
        ledger = CreditLedger([1])
        apply_record_outcome(ledger, 1, correct=False, tick=5)
        assert ledger.credit(1) == -1

    def test_three_correct_two_erroneous_sums_to_one(self):
        ledger = CreditLedger([1])
        for _ in range(3):
            apply_record_outcome(ledger, 1, True, 0)
        for _ in range(2):
            apply_record_outcome(ledger, 1, False, 0)
        assert ledger.credit(1) == 1

    def test_block_outcomes(self):
        ledger = CreditLedger([9])
        apply_block_outcome(ledger, 9, erroneous=False, tick=0)
        assert ledger.credit(9) == 1
        apply_block_outcome(ledger, 9, erroneous=True, tick=0)
        assert ledger.credit(9) == 0

    def test_four_clean_one_flagged_sums_to_three(self):
        ledger = CreditLedger([9])
        for _ in range(4):
            apply_block_outcome(ledger, 9, False, 0)
        apply_block_outcome(ledger, 9, True, 0)
        assert ledger.credit(9) == 3

    def test_unknown_node_raises(self):
        ledger = CreditLedger([1])
        with pytest.raises(KeyError):
            apply_record_outcome(ledger, 2, True, 0)

    def test_negative_credit_allowed(self):
        ledger = CreditLedger([1])
        for _ in range(5):
            apply_record_outcome(ledger, 1, False, 0)
        assert ledger.credit(1) == -5


class TestValidatorOutcomes:
    def test_unanimous_ok(self):
        ledger = CreditLedger([1, 2, 3])
        events, verdict = apply_validator_outcomes(ledger, [(1, True), (2, True), (3, True)], 0)
        assert verdict is True
        assert all(e.delta == 1 for e in events)

    def test_majority_ok_with_dissenter(self):
        ledger = CreditLedger([1, 2, 3])
        events, verdict = apply_validator_outcomes(ledger, [(1, True), (2, True), (3, False)], 0)
        assert verdict is True
        assert [e.delta for e in events] == [1, 1, -1]
        assert events[2].reason is CreditReason.VALIDATOR_DISSENTED

    def test_majority_erroneous(self):
        ledger = CreditLedger([1, 2, 3])
        events, verdict = apply_validator_outcomes(ledger, [(1, False), (2, False), (3, True)], 0)
        assert verdict is False
        assert [e.delta for e in events] == [1, 1, -1]

    def test_even_or_empty_votes_rejected(self):
        ledger = CreditLedger([1, 2])
        with pytest.raises(ValueError):
            apply_validator_outcomes(ledger, [], 0)
        with pytest.raises(ValueError):
            apply_validator_outcomes(ledger, [(1, True), (2, True)], 0)

    def test_all_eight_patterns_match_pinned_table(self):
        table = json.loads((FIXTURES / "vote_patterns.json").read_text())
        assert len(table) == 8
        for row in table:
            ledger = CreditLedger([0, 1, 2])
            votes = [(i, v) for i, v in enumerate(row["votes"])]
            events, verdict = apply_validator_outcomes(ledger, votes, 0)
            assert verdict == row["verdict"], row
            assert [e.delta for e in events] == row["deltas"], row


class TestReelection:
    def test_all_equal_orders_by_node_id(self):
        assignment = initialize_roles(profiles([0] * 6), r_max=3, s_max=1)
        ledger = CreditLedger(range(6))
        new = reelect(ledger, assignment, r_max=3, s_max=1)
        assert new.recorders == (0, 1, 2)
        assert new.supervisors == (3,)
        assert new.candidates == (4, 5)
        assert new.epoch == 1

    def test_high_credit_candidate_rises(self):
        # 6-node scenario checked against an independent sort oracle
        assignment = initialize_roles(profiles([60, 50, 40, 30, 20, 10]), r_max=3, s_max=1)
        ledger = CreditLedger(range(6))
        for _ in range(5):
            apply_record_outcome(ledger, 5, True, 0)  # candidate earns credit
        apply_record_outcome(ledger, 2, False, 0)  # lowest recorder slips
        new = reelect(ledger, assignment, r_max=3, s_max=1)
        credits = ledger.credits()
        ids_sorted = sorted(credits)
        oracle = sorted(ids_sorted, key=lambda n: -credits[n])  # stable sort
        assert new.recorders == tuple(oracle[:3]) == (5, 0, 1)
        assert new.supervisors == (3,)
        assert 2 not in new.recorders
        assert 2 in new.candidates

    def test_idempotent_without_credit_changes(self):
        assignment = initialize_roles(profiles([9, 8, 7, 6]), r_max=2, s_max=1)
        ledger = CreditLedger(range(4))
        first = reelect(ledger, assignment, r_max=2, s_max=1)
        second = reelect(ledger, first, r_max=2, s_max=1)
        assert first.recorders == second.recorders
        assert first.supervisors == second.supervisors
        assert first.candidates == second.candidates

    def test_membership_conserved(self):
        rng = random.Random(3)
        assignment = initialize_roles(profiles([rng.randrange(100) for _ in range(25)]), 10, 5)
        ledger = CreditLedger(range(25))
        for _ in range(100):
            apply_record_outcome(ledger, rng.randrange(25), rng.random() < 0.5, 0)
        new = reelect(ledger, assignment, 10, 5)
        assert sorted(new.all_nodes()) == list(range(25))

    def test_oracle_sweep_200_random_ledgers(self):
        rng = random.Random(616)
        for trial in range(200):
            n = rng.randrange(3, 201)
            node_ids = list(range(n))
            assignment = initialize_roles(
                [NodeProfile(i, bytes([i % 256]) * 64, 0) for i in node_ids],
                r_max=101,
                s_max=20,
            )
            ledger = CreditLedger(node_ids)
            for nid in node_ids:
                delta = rng.randrange(-30, 31)
                for _ in range(abs(delta)):
                    apply_record_outcome(ledger, nid, delta > 0, 0)
            new = reelect(ledger, assignment, r_max=101, s_max=20)
            credits = ledger.credits()
            oracle = sorted(sorted(node_ids), key=lambda nid: -credits[nid])
            assert list(new.all_nodes()) == oracle, f"trial={trial}"
            assert len(new.recorders) == min(101, n)
            assert len(new.supervisors) == min(20, max(0, n - 101))

    def test_monotone_rank(self):
        # raising one node's credit never lowers its rank position
        rng = random.Random(18)
        node_ids = list(range(30))
        credits = {nid: rng.randrange(-10, 11) for nid in node_ids}

        def rank(creds, nid):
            order = sorted(sorted(node_ids), key=lambda x: -creds[x])
            return order.index(nid)

        for nid in node_ids:
            before = rank(credits, nid)
            bumped = dict(credits)
            bumped[nid] += 1
            assert rank(bumped, nid) <= before


class TestDutyRotation:
    def test_three_recorders_cycle(self):
        assignment = initialize_roles(profiles([3, 2, 1]), r_max=3, s_max=0)
        assert [duty_recorder(assignment, r) for r in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_round_101_wraps_with_101_recorders(self):
        assignment = initialize_roles(profiles(range(101, 0, -1)), r_max=101, s_max=0)
        assert duty_recorder(assignment, 101) == assignment.recorders[0]

    def test_single_recorder(self):
        assignment = initialize_roles(profiles([1]), r_max=1, s_max=0)
        assert all(duty_recorder(assignment, r) == 0 for r in range(5))

    def test_empty_committee_errors(self):
        assignment = initialize_roles(profiles([2, 1]), r_max=2, s_max=0)
        stripped = type(assignment)(recorders=(), supervisors=(), candidates=(0, 1), epoch=0)
        with pytest.raises(ValueError):
            duty_recorder(stripped, 0)
        with pytest.raises(ProtocolError):
            choose_validators(stripped, 0)

    def test_supervisor_rotation(self):
        # two candidates, the fewest `choose_validators` draws validators from
        assignment = initialize_roles(profiles([5, 4, 3, 2, 1]), r_max=1, s_max=2)
        assert [choose_validators(assignment, r)[0] for r in range(4)] == [1, 2, 1, 2]


class TestAuditLog:
    def test_ledger_equals_fold_of_audit_log(self):
        rng = random.Random(9)
        ledger = CreditLedger(range(10))
        for _ in range(300):
            kind = rng.randrange(3)
            nid = rng.randrange(10)
            if kind == 0:
                apply_record_outcome(ledger, nid, rng.random() < 0.6, rng.randrange(1000))
            elif kind == 1:
                apply_block_outcome(ledger, nid, rng.random() < 0.3, rng.randrange(1000))
            else:
                trio = rng.sample(range(10), 3)
                apply_validator_outcomes(
                    ledger, [(v, rng.random() < 0.7) for v in trio], rng.randrange(1000)
                )
        assert fold_events(range(10), ledger.events) == ledger.credits()

    def test_replay_detects_corrupted_credit(self):
        ledger = CreditLedger(range(4))
        apply_record_outcome(ledger, 0, True, 0)
        apply_validator_outcomes(ledger, [(1, True), (2, False), (3, True)], 0)
        assert fold_events(range(4), ledger.events) == ledger.credits() == {0: 1, 1: 1, 2: -1, 3: 1}
        ledger._credits[2] += 1
        assert fold_events(range(4), ledger.events) != ledger.credits()

    def test_all_deltas_have_magnitude_one_and_reason(self):
        ledger = CreditLedger(range(4))
        apply_record_outcome(ledger, 0, True, 0)
        apply_block_outcome(ledger, 1, True, 0)
        apply_validator_outcomes(ledger, [(1, True), (2, False), (3, True)], 0)
        for event in ledger.events:
            assert abs(event.delta) == 1
            assert isinstance(event.reason, CreditReason)
