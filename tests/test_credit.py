import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridledger.credit import (
    CreditReason,
    CreditState,
    RoundOutcome,
    apply_block_outcome,
    apply_intake,
    apply_record_outcome,
    apply_round,
    apply_validator_outcomes,
    duty_recorder,
    fold_events,
    initialize_roles,
    reelect,
)
from gridledger.record_protocol import ProtocolError, UploadError, choose_validators

FIXTURES = Path(__file__).parent / "fixtures"


def assessments(scores):
    """Node ids 0, 1, ... with ``scores`` as their assessments."""
    return dict(enumerate(scores))


# six nodes at assessment 0: recorders 0-2, supervisor 3, candidates 4-5
VALIDATORS = (3, 4, 5)
ALL_OK = tuple((v, True) for v in VALIDATORS)
ALL_ERRONEOUS = tuple((v, False) for v in VALIDATORS)


def six_nodes(epoch_length=1000):
    assignment = initialize_roles(assessments([0] * 6), r_max=3, s_max=1)
    return CreditState(dict.fromkeys(range(6), 0), assignment, epoch_length)


def committed(recorder=0, uploaders=(), tick=0, votes=ALL_OK):
    return RoundOutcome(tick, recorder, votes, tuple(uploaders))


def rejected(recorder=0, uploaders=(), tick=0, votes=ALL_ERRONEOUS):
    return RoundOutcome(tick, recorder, votes, tuple(uploaders))


def fold(state, outcomes):
    """``state`` after each outcome in turn, and every event booked."""
    events = []
    for outcome in outcomes:
        state, booked = apply_round(state, outcome)
        events += booked
    return state, events


class TestInitializeRoles:
    def test_paper_committee_sizes(self):
        # 150 nodes with the paper's capacities: 101 recorders, 20 supervisors
        assignment = initialize_roles(assessments(range(150, 0, -1)), r_max=101, s_max=20)
        assert len(assignment.recorders) == 101
        assert len(assignment.supervisors) == 20
        assert len(assignment.candidates) == 29

    def test_desk_scale_partition(self):
        assignment = initialize_roles(assessments([5, 4, 3, 2, 1]), r_max=3, s_max=1)
        assert assignment.recorders == (0, 1, 2)
        assert assignment.supervisors == (3,)
        assert assignment.candidates == (4,)

    def test_ranking_by_assessment_desc(self):
        assignment = initialize_roles(assessments([10, 30, 20]), r_max=1, s_max=1)
        assert assignment.recorders == (1,)
        assert assignment.supervisors == (2,)
        assert assignment.candidates == (0,)

    def test_equal_assessment_breaks_by_node_id(self):
        assignment = initialize_roles(assessments([7, 7, 7]), r_max=2, s_max=0)
        assert assignment.recorders == (0, 1)
        assert assignment.candidates == (2,)

    def test_errors(self):
        with pytest.raises(ValueError):
            initialize_roles({}, r_max=1, s_max=0)
        with pytest.raises(ValueError):
            initialize_roles(assessments([1]), r_max=0, s_max=0)


class TestCreditEvents:
    def test_correct_upload_plus_one(self):
        state, events = apply_round(six_nodes(), committed(uploaders=[1], tick=5))
        assert events[-1] == (1, 1, CreditReason.RECORD_CORRECT, 5)
        assert state.credits[1] == 1

    def test_erroneous_upload_minus_one(self):
        state, events = apply_round(six_nodes(), rejected(uploaders=[1], tick=5))
        assert events[-1] == (1, -1, CreditReason.RECORD_ERRONEOUS, 5)
        assert state.credits[1] == -1

    def test_three_correct_two_erroneous_sums_to_one(self):
        state, _ = fold(six_nodes(), [committed(uploaders=[1, 1, 1]), rejected(uploaders=[1, 1])])
        assert state.credits[1] == 1

    def test_block_outcomes(self):
        assert apply_block_outcome(2, erroneous=False, tick=4) == (2, 1, CreditReason.BLOCK_CLEAN, 4)
        assert apply_block_outcome(2, erroneous=True, tick=4) == (2, -1, CreditReason.BLOCK_ERRONEOUS, 4)
        state, events = apply_round(six_nodes(), committed(recorder=2))
        assert (events[3].node_id, events[3].reason) == (2, CreditReason.BLOCK_CLEAN)
        assert state.credits[2] == 1
        state, events = apply_round(state, rejected(recorder=2))
        assert (events[3].node_id, events[3].reason) == (2, CreditReason.BLOCK_ERRONEOUS)
        assert state.credits[2] == 0

    def test_four_clean_one_flagged_sums_to_three(self):
        state, _ = fold(six_nodes(), [committed(recorder=2)] * 4 + [rejected(recorder=2)])
        assert state.credits[2] == 3

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            apply_round(six_nodes(), committed(uploaders=[6]))
        with pytest.raises(KeyError):
            apply_intake(six_nodes(), 6, UploadError.SIGNATURE_INVALID.value, 0)

    def test_negative_credit_allowed(self):
        state, _ = fold(six_nodes(), [rejected(uploaders=[1])] * 5)
        assert state.credits[1] == -5


class TestRoundTransition:
    def test_committed_round_books_validators_then_recorder_then_records(self):
        _, events = apply_round(six_nodes(), committed(recorder=0, uploaders=[1, 2, 1], tick=600))
        assert [(e.node_id, e.delta, e.reason) for e in events] == [
            (3, 1, CreditReason.VALIDATOR_AGREED),
            (4, 1, CreditReason.VALIDATOR_AGREED),
            (5, 1, CreditReason.VALIDATOR_AGREED),
            (0, 1, CreditReason.BLOCK_CLEAN),
            (1, 1, CreditReason.RECORD_CORRECT),
            (2, 1, CreditReason.RECORD_CORRECT),
            (1, 1, CreditReason.RECORD_CORRECT),
        ]
        assert {e.tick for e in events} == {600}

    def test_rejected_round_penalises_recorder_and_quarantined_uploaders(self):
        votes = ((3, False), (4, True), (5, False))
        state, events = apply_round(six_nodes(), rejected(recorder=0, uploaders=[2], votes=votes))
        assert [(e.node_id, e.delta) for e in events] == [(3, 1), (4, -1), (5, 1), (0, -1), (2, -1)]
        assert state.credits == {0: -1, 1: 0, 2: -1, 3: 1, 4: -1, 5: 1}

    def test_majority_decides_the_block_and_record_credits(self):
        # one dissenter does not turn the verdict
        votes = ((3, True), (4, False), (5, True))
        state, _ = apply_round(six_nodes(), RoundOutcome(0, 0, votes, (1,)))
        assert state.credits == {0: 1, 1: 1, 2: 0, 3: 1, 4: -1, 5: 1}

    def test_skipped_round_books_nothing_and_counts_toward_the_epoch(self):
        start = six_nodes(epoch_length=2)
        state, events = apply_round(start, committed(recorder=0, uploaders=[5, 5, 5]))
        assert state.assignment is start.assignment and state.rounds == 1
        state, events = apply_round(state, RoundOutcome(1200, 1))
        assert events == ()
        assert state.rounds == 2 and state.assignment.epoch == 1
        # node 5 earned 3 and the validators 1 each, so 5 leads the re-election
        assert state.assignment.recorders == (5, 0, 3)

    def test_reelects_only_at_epoch_boundaries(self):
        state, _ = fold(six_nodes(epoch_length=3), [RoundOutcome(t, 0) for t in range(7)])
        assert state.rounds == 7 and state.assignment.epoch == 2

    def test_state_is_never_changed_in_place(self):
        start = six_nodes(epoch_length=1)
        before = dict(start.credits), start.assignment
        apply_round(start, committed(uploaders=[5]))
        apply_intake(start, 5, UploadError.DIGEST_MISMATCH.value, 0)
        assert (start.credits, start.assignment, start.rounds) == (*before, 0)

    @pytest.mark.parametrize("reason", list(UploadError), ids=[r.value for r in UploadError])
    def test_intake_blames_only_the_uploaders_own_bytes(self, reason):
        # a bad signature or a payload that does not match its signed digest
        # is the uploader's doing; ciphertext that does not authenticate, or
        # a key off the permission list, is nobody's
        blamed = reason in (UploadError.SIGNATURE_INVALID, UploadError.DIGEST_MISMATCH)
        state, events = apply_intake(six_nodes(), 2, reason.value, 40)
        assert events == (((2, -1, CreditReason.RECORD_ERRONEOUS, 40),) if blamed else ())
        assert state.credits[2] == (-1 if blamed else 0)
        assert state.rounds == 0


class TestValidatorOutcomes:
    def test_unanimous_ok(self):
        events, verdict = apply_validator_outcomes([(1, True), (2, True), (3, True)], 0)
        assert verdict is True
        assert all(e.delta == 1 for e in events)

    def test_majority_ok_with_dissenter(self):
        events, verdict = apply_validator_outcomes([(1, True), (2, True), (3, False)], 0)
        assert verdict is True
        assert [e.delta for e in events] == [1, 1, -1]
        assert events[2].reason is CreditReason.VALIDATOR_DISSENTED

    def test_majority_erroneous(self):
        events, verdict = apply_validator_outcomes([(1, False), (2, False), (3, True)], 0)
        assert verdict is False
        assert [e.delta for e in events] == [1, 1, -1]

    def test_even_or_empty_votes_rejected(self):
        with pytest.raises(ValueError):
            apply_validator_outcomes([], 0)
        with pytest.raises(ValueError):
            apply_validator_outcomes([(1, True), (2, True)], 0)

    def test_all_eight_patterns_match_pinned_table(self):
        table = json.loads((FIXTURES / "vote_patterns.json").read_text())
        assert len(table) == 8
        for row in table:
            votes = [(i, v) for i, v in enumerate(row["votes"])]
            events, verdict = apply_validator_outcomes(votes, 0)
            assert verdict == row["verdict"], row
            assert [e.delta for e in events] == row["deltas"], row


def random_credits(rng, node_ids, spread):
    """Credits built from ``rng``'s record events: up to ``spread`` each way per node."""
    events = []
    for nid in node_ids:
        delta = rng.randrange(-spread, spread + 1)
        events += [apply_record_outcome(nid, delta > 0, 0)] * abs(delta)
    return fold_events(node_ids, events)


class TestReelection:
    def test_all_equal_orders_by_node_id(self):
        assignment = initialize_roles(assessments([0] * 6), r_max=3, s_max=1)
        new = reelect(dict.fromkeys(range(6), 0), assignment)
        assert new.recorders == (0, 1, 2)
        assert new.supervisors == (3,)
        assert new.candidates == (4, 5)
        assert new.epoch == 1

    def test_high_credit_candidate_rises(self):
        # 6-node scenario checked against an independent sort oracle
        assignment = initialize_roles(assessments([60, 50, 40, 30, 20, 10]), r_max=3, s_max=1)
        events = [apply_record_outcome(5, True, 0)] * 5  # candidate earns credit
        events.append(apply_record_outcome(2, False, 0))  # lowest recorder slips
        credits = fold_events(range(6), events)
        new = reelect(credits, assignment)
        ids_sorted = sorted(credits)
        oracle = sorted(ids_sorted, key=lambda n: -credits[n])  # stable sort
        assert new.recorders == tuple(oracle[:3]) == (5, 0, 1)
        assert new.supervisors == (3,)
        assert 2 not in new.recorders
        assert 2 in new.candidates

    def test_idempotent_without_credit_changes(self):
        assignment = initialize_roles(assessments([9, 8, 7, 6]), r_max=2, s_max=1)
        credits = dict.fromkeys(range(4), 0)
        first = reelect(credits, assignment)
        second = reelect(credits, first)
        assert first.recorders == second.recorders
        assert first.supervisors == second.supervisors
        assert first.candidates == second.candidates

    def test_membership_conserved(self):
        rng = random.Random(3)
        assignment = initialize_roles(assessments([rng.randrange(100) for _ in range(25)]), 10, 5)
        events = [apply_record_outcome(rng.randrange(25), rng.random() < 0.5, 0) for _ in range(100)]
        new = reelect(fold_events(range(25), events), assignment)
        assert sorted(new.all_nodes()) == list(range(25))

    def test_oracle_sweep_200_random_ledgers(self):
        rng = random.Random(616)
        for trial in range(200):
            n = rng.randrange(3, 201)
            node_ids = list(range(n))
            assignment = initialize_roles(dict.fromkeys(node_ids, 0), r_max=101, s_max=20)
            credits = random_credits(rng, node_ids, 30)
            new = reelect(credits, assignment)
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
        assignment = initialize_roles(assessments([3, 2, 1]), r_max=3, s_max=0)
        assert [duty_recorder(assignment, r) for r in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_round_101_wraps_with_101_recorders(self):
        assignment = initialize_roles(assessments(range(101, 0, -1)), r_max=101, s_max=0)
        assert duty_recorder(assignment, 101) == assignment.recorders[0]

    def test_single_recorder(self):
        assignment = initialize_roles(assessments([1]), r_max=1, s_max=0)
        assert all(duty_recorder(assignment, r) == 0 for r in range(5))

    def test_empty_committee_errors(self):
        assignment = initialize_roles(assessments([2, 1]), r_max=2, s_max=0)
        stripped = type(assignment)(recorders=(), supervisors=(), candidates=(0, 1), epoch=0)
        with pytest.raises(ValueError):
            duty_recorder(stripped, 0)
        with pytest.raises(ProtocolError):
            choose_validators(stripped, 0)

    def test_supervisor_rotation(self):
        # two candidates, the fewest `choose_validators` draws validators from
        assignment = initialize_roles(assessments([5, 4, 3, 2, 1]), r_max=1, s_max=2)
        assert [choose_validators(assignment, r)[0] for r in range(4)] == [1, 2, 1, 2]


# one step of a random run: a decided or skipped round (its tick, recorder,
# votes and credited uploaders), or an intake refusal (uploader and reason)
node = st.integers(0, 5)
rounds = st.builds(
    RoundOutcome,
    tick=st.integers(0, 10_000),
    recorder=node,
    votes=st.one_of(st.just(()), st.lists(st.tuples(node, st.booleans()), min_size=3, max_size=3).map(tuple)),
    uploaders=st.lists(node, max_size=4).map(tuple),
)
intakes = st.tuples(node, st.sampled_from([r.value for r in UploadError]), st.integers(0, 10_000))


class TestAuditLog:
    @settings(max_examples=150, database=None, deadline=None, derandomize=True)
    @given(steps=st.lists(st.one_of(rounds, intakes), max_size=40), epoch_length=st.integers(1, 5))
    def test_ledger_equals_fold_of_audit_log(self, steps, epoch_length):
        state = six_nodes(epoch_length)
        events = []
        for step in steps:
            if isinstance(step, RoundOutcome):
                state, booked = apply_round(state, step)
            else:
                state, booked = apply_intake(state, *step)
            events += booked
        assert fold_events(range(6), events) == state.credits
        n = sum(isinstance(step, RoundOutcome) for step in steps)
        assert state.rounds == n and state.assignment.epoch == n // epoch_length
        assert sorted(state.assignment.all_nodes()) == list(range(6))
        for event in events:
            assert abs(event.delta) == 1 and isinstance(event.reason, CreditReason)

    def test_replay_detects_corrupted_credit(self):
        votes = ((3, True), (4, False), (5, True))
        state, events = fold(six_nodes(), [committed(recorder=0, uploaders=[1], votes=votes)])
        assert fold_events(range(6), events) == state.credits == {0: 1, 1: 1, 2: 0, 3: 1, 4: -1, 5: 1}
        corrupted = {**state.credits, 4: state.credits[4] + 1}
        assert fold_events(range(6), events) != corrupted

    def test_all_deltas_have_magnitude_one_and_reason(self):
        _, events = fold(six_nodes(epoch_length=1), [committed(0, [1]), rejected(1, [2, 2]), RoundOutcome(0, 2)])
        _, intake = apply_intake(six_nodes(), 1, UploadError.SIGNATURE_INVALID.value, 0)
        for event in events + list(intake):
            assert abs(event.delta) == 1
            assert isinstance(event.reason, CreditReason)
