import random
from dataclasses import replace

import pytest

from gridledger import chain as chain_mod
from gridledger import crypto
from gridledger.chain import Chain, LinkMismatchError, RecordKind, RecordMetadata, RootMismatchError, genesis
from gridledger.credit import CreditState, RoundOutcome, apply_round, initialize_roles
from gridledger.merkle import build_tree
from gridledger.record_protocol import (
    VOTE,
    ProtocolError,
    RejectReason,
    Rejected,
    SignedVerdict,
    choose_validators,
    commit,
    prepare_upload,
    receive_upload,
    seal_block,
    sign_vote,
    validate_proposal,
    vote_triple,
)

from testutil import keypair, stream_verdict


def metadata(tick=0, data_class="load"):
    return RecordMetadata(kind=RecordKind.GRID_DATA, data_class=data_class, created_tick=tick)


@pytest.fixture
def net():
    """Six keyed nodes, ids 0..5: recorders 0-2, supervisor 3, candidates 4-5."""
    keys = {i: keypair(100 + i) for i in range(6)}
    assignment = initialize_roles({i: 60 - 10 * i for i in range(6)}, r_max=3, s_max=1)
    permissions = frozenset(k.public_key for k in keys.values())
    return keys, assignment, permissions


class TestPrepareReceive:
    def test_round_trip_reproduces_digest(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"telemetry bytes", metadata())
        stored = receive_upload(keys[0], env, permissions)
        assert env.record.payload_digest == stored.payload_digest == crypto.digest(b"telemetry bytes")
        assert env.record.uploader_public_key == keys[2].public_key
        assert env.record.metadata == metadata()
        assert crypto.verify(*chain_mod.RECORD.triple(env.record))

    def test_zero_byte_payload(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"", metadata())
        stored = receive_upload(keys[0], env, permissions)
        assert stored.payload_digest == crypto.digest(b"")

    def test_wrong_recorder_key_decryption_failure(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[1].public_key, b"data", metadata())
        with pytest.raises(Rejected) as exc_info:
            receive_upload(keys[0], env, permissions)
        assert exc_info.value.reason is RejectReason.DECRYPTION_FAILURE

    def test_unauthorized_uploader_denied(self, net):
        keys, _, _ = net
        env = prepare_upload(keys[2], keys[0].public_key, b"data", metadata())
        with pytest.raises(Rejected) as exc_info:
            receive_upload(keys[0], env, frozenset())
        assert exc_info.value.reason is RejectReason.PERMISSION_DENIED

    def test_payload_swapped_after_signing_is_digest_mismatch(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"honest", metadata())
        swapped = env._replace(payload_envelope=crypto.encrypt_for(keys[0].public_key, b"swapped"))
        with pytest.raises(Rejected) as exc_info:
            receive_upload(keys[0], swapped, permissions)
        assert exc_info.value.reason is RejectReason.DIGEST_MISMATCH

    def test_signature_by_other_key_is_signature_invalid(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"claim", metadata())
        # claimed key B, signed by A
        imposter = env._replace(record=replace(env.record, uploader_public_key=keys[4].public_key))
        with pytest.raises(Rejected) as exc_info:
            receive_upload(keys[0], imposter, permissions)
        assert exc_info.value.reason is RejectReason.SIGNATURE_INVALID

    def test_at_rest_object_sealed_to_uploader(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"owner sealed", metadata())
        stored = receive_upload(keys[0], env, permissions)
        assert stored.owner_public_key == keys[2].public_key
        assert crypto.decrypt(keys[2].private_key, stored.ciphertext) == b"owner sealed"
        with pytest.raises(crypto.DecryptionError):
            crypto.decrypt(keys[0].private_key, stored.ciphertext)

    def test_payload_hashed_once(self, net, monkeypatch):
        keys, _, _ = net
        payload = bytes(range(256)) * 256  # 64 KiB
        hashed = []
        real_digest = crypto.digest

        def counting_digest(data):
            hashed.append(len(data))
            return real_digest(data)

        monkeypatch.setattr(crypto, "digest", counting_digest)
        env = prepare_upload(keys[2], keys[0].public_key, payload, metadata())
        assert env.record.payload_digest == real_digest(payload)
        assert hashed.count(len(payload)) == 1

    def test_oversized_metadata_rejected(self, net):
        keys, _, _ = net
        with pytest.raises(chain_mod.EncodingError):
            prepare_upload(keys[2], keys[0].public_key, b"x", metadata(data_class="y" * 65))


def pending_records(keys, permissions, payloads, uploader=2, recorder=0):
    out = []
    for tick, payload in payloads:
        env = prepare_upload(keys[uploader], keys[recorder].public_key, payload, metadata(tick))
        receive_upload(keys[recorder], env, permissions)
        out.append(env.record)
    return out


def committee(assignment, rng_seed=1):
    return choose_validators(assignment, 0, random.Random(rng_seed))


class TestSealBlock:
    def test_root_matches_independent_recompute(self, net):
        keys, assignment, permissions = net
        chain = Chain((genesis("t"),))
        pending = pending_records(keys, permissions, [(10, b"a"), (20, b"b"), (30, b"c"), (40, b"d"), (50, b"e")])
        proposal = seal_block(keys[0], pending, chain.tip_digest, 600, committee(assignment))
        assert len(proposal.block.records) == 5
        oracle = build_tree([crypto.digest(chain_mod.record_bytes(r)) for r in pending]).root
        assert proposal.block.header.merkle_root == oracle
        assert proposal.block.records == tuple(pending)  # arrival order

    def test_empty_interval_seals_empty_block(self, net):
        keys, assignment, _ = net
        chain = Chain((genesis("t"),))
        proposal = seal_block(keys[0], [], chain.tip_digest, 600, committee(assignment))
        assert proposal.block.records == ()
        assert proposal.block.header.merkle_root == build_tree([]).root

    def test_a_record_pending_twice_is_sealed_once(self, net):
        keys, assignment, permissions = net
        pending = pending_records(keys, permissions, [(10, b"a"), (20, b"b")])
        proposal = seal_block(keys[0], pending + pending[:1], b"\x00" * 32, 600, committee(assignment))
        assert proposal.block.records == tuple(pending)
        assert proposal.validator_ids == committee(assignment)


def make_proposal(net, payloads, rng_seed=1):
    keys, assignment, permissions = net
    chain = Chain((genesis("t"),))
    pending = pending_records(keys, permissions, payloads)
    proposal = seal_block(keys[0], pending, chain.tip_digest, 600, committee(assignment, rng_seed))
    return chain, proposal


def check_of(proposal, tip):
    return chain_mod.validate_block(proposal.block, tip)


class TestValidateProposal:
    def test_clean_block_gets_ok_vote(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"fine")])
        vote = validate_proposal(keys[3], 3, proposal, check_of(proposal, chain.tip), lambda r: True)
        assert vote.ok and vote.bad_indices == ()

    def test_fabricated_record_flagged(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"good"), (20, b"fake"), (30, b"good2")])
        fake = crypto.digest(b"fake")
        vote = validate_proposal(
            keys[3], 3, proposal, check_of(proposal, chain.tip), lambda r: r.payload_digest != fake
        )
        assert not vote.ok
        assert vote.bad_indices == (1,)

    def test_header_level_failure_flags_no_records(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"x")])
        vote = validate_proposal(keys[3], 3, proposal, check_of(proposal, genesis("other")), lambda r: True)
        assert not vote.ok and vote.bad_indices == ()

    def test_vote_signature_verifies(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"x")])
        vote = validate_proposal(keys[3], 3, proposal, check_of(proposal, chain.tip), lambda r: True)
        assert crypto.verify(
            keys[3].public_key,
            VOTE.signing_bytes(SignedVerdict(chain_mod.block_digest(proposal.block), vote.ok, vote.bad_indices)),
            vote.signature,
        )


def commit_env(net, payloads):
    keys, assignment, permissions = net
    chain, proposal = make_proposal(net, payloads)
    public_keys = {i: keys[i].public_key for i in range(6)}
    return keys, chain, proposal, public_keys


def credits_after(net, proposal, votes, result, recorder=0):
    """Each node's credit after `credit.apply_round` of the tallied round,
    every node starting at 0: the outcome carries ``recorder``, the votes,
    and the uploaders of the records the verdict credits."""
    keys, assignment, _ = net
    uploader_ids = {keys[i].public_key: i for i in range(6)}
    records = proposal.block.records if result.committed else [record for _, record in result.quarantined]
    outcome = RoundOutcome(
        proposal.block.header.timestamp_tick,
        recorder,
        tuple((vote.validator_id, vote.ok) for vote in votes),
        tuple(uploader_ids[record.uploader_public_key] for record in records),
    )
    return apply_round(CreditState(dict.fromkeys(range(6), 0), assignment, 1000), outcome)[0].credits


def votes_for(keys, proposal, verdicts):
    block_digest = chain_mod.block_digest(proposal.block)
    out = []
    for vid, (ok, bad) in zip(proposal.validator_ids, verdicts):
        out.append(sign_vote(keys[vid], vid, block_digest, ok, bad))
    return out


class TestCommit:
    def test_unanimous_ok_appends_and_credits(self, net):
        keys, chain, proposal, pks = commit_env(net, [(10, b"a"), (20, b"b")])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        result = commit(proposal, votes, check_of(proposal, chain.tip))
        assert result.committed
        credits = credits_after(net, proposal, votes, result)
        assert credits[0] == 1  # recorder block-clean
        assert credits[2] == 2  # uploader, two records
        for vid in proposal.validator_ids:
            assert credits[vid] == 1

    def test_majority_erroneous_quarantines_flagged(self, net):
        keys, chain, proposal, pks = commit_env(net, [(10, b"good"), (20, b"bad"), (30, b"good2")])
        votes = votes_for(keys, proposal, [(False, (1,)), (False, (1,)), (True, ())])
        result = commit(proposal, votes, check_of(proposal, chain.tip))
        assert not result.committed
        assert [i for i, _ in result.quarantined] == [1]
        credits = credits_after(net, proposal, votes, result)
        assert credits[0] == -1  # recorder block-erroneous
        assert credits[2] == -1  # uploader of the flagged record
        dissenter = proposal.validator_ids[2]
        assert credits[dissenter] == -1

    def test_ok_majority_with_dissenter_appends(self, net):
        keys, chain, proposal, pks = commit_env(net, [(10, b"a")])
        votes = votes_for(keys, proposal, [(True, ()), (True, ()), (False, (0,))])
        result = commit(proposal, votes, check_of(proposal, chain.tip))
        assert result.committed
        dissenter = proposal.validator_ids[2]
        assert credits_after(net, proposal, votes, result)[dissenter] == -1

    def test_quarantine_requires_quorum_of_flags(self, net):
        # two erroneous votes naming different records: neither reaches quorum
        keys, chain, proposal, pks = commit_env(net, [(10, b"a"), (20, b"b")])
        votes = votes_for(keys, proposal, [(False, (0,)), (False, (1,)), (True, ())])
        result = commit(proposal, votes, check_of(proposal, chain.tip))
        assert not result.committed
        assert result.quarantined == ()

    def test_wrong_vote_count_rejected(self, net):
        keys, chain, proposal, pks = commit_env(net, [])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        with pytest.raises(ProtocolError):
            commit(proposal, votes[:2], check_of(proposal, chain.tip))

    def test_unverifiable_vote_signature_rejected(self, net):
        # commit tallies votes unverified; the caller's signature pass over
        # their `vote_triple`s rejects a vote whose verdict no longer
        # matches its signature, and points at that vote
        keys, chain, proposal, pks = commit_env(net, [])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        block_digest = chain_mod.block_digest(proposal.block)
        forged = votes[1]._replace(signed=VOTE.signing_bytes(SignedVerdict(block_digest, False, ())))
        assert not forged.ok and forged.bad_indices == ()

        def triples(tallied):
            return [vote_triple(v, pks[v.validator_id]) for v in tallied]

        assert stream_verdict(triples(votes)) is None
        assert stream_verdict(triples([votes[0], forged, votes[2]])) == 1
        # what the validator signed: its key, `VOTE.signing_bytes`, its signature
        assert triples(votes)[0] == (
            pks[votes[0].validator_id], VOTE.signing_bytes(SignedVerdict(block_digest, True, ())), votes[0].signature
        )

    def test_vote_on_another_block_rejected(self, net):
        # a vote signed on another block verifies as its own statement, so
        # commit is its gate: it refuses the vote and names its validator
        keys, chain, proposal, pks = commit_env(net, [])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        vid = votes[1].validator_id
        elsewhere = sign_vote(keys[vid], vid, crypto.digest(b"other"), True, ())
        assert elsewhere.block_digest == crypto.digest(b"other")
        assert votes[1].block_digest == chain_mod.block_digest(proposal.block)
        assert stream_verdict([vote_triple(elsewhere, pks[vid])]) is None
        with pytest.raises(ProtocolError, match=f"^vote from {vid} judges another block$"):
            commit(proposal, [votes[0], elsewhere, votes[2]], check_of(proposal, chain.tip))

    def test_timestamp_regression_voted_erroneous_and_not_committed(self, net):
        keys, assignment, permissions = net
        chain = Chain((genesis("t"),))
        chain = chain.append(chain_mod.make_block(keys[0], chain.tip_digest, 600, ()))
        pending = pending_records(keys, permissions, [(10, b"early")])
        for tick, ok in ((600, True), (5, False)):  # the tip's own tick is allowed
            proposal = seal_block(keys[1], pending, chain.tip_digest, tick, committee(assignment))
            votes = [
                validate_proposal(keys[v], v, proposal, check_of(proposal, chain.tip), lambda r: True)
                for v in proposal.validator_ids
            ]
            assert [(v.ok, v.bad_indices) for v in votes] == [(ok, ())] * 3, tick
        result = commit(proposal, votes, check_of(proposal, chain.tip))
        assert not result.committed
        assert result.quarantined == ()
        assert credits_after(net, proposal, votes, result, recorder=1)[1] == -1  # recorder block-erroneous

    @pytest.mark.parametrize("fault", ["flipped-root", "stale-link"])
    def test_ok_votes_on_a_faulty_block_raise_its_fault(self, net, fault):
        # the round's check is commit's gate: three ok votes do not commit a
        # block it faults; the fault aborts the round before any credit moves
        keys, chain, proposal, pks = commit_env(net, [(10, b"a")])
        if fault == "flipped-root":
            header = proposal.block.header
            root = bytes([header.merkle_root[0] ^ 1]) + header.merkle_root[1:]
            block = replace(proposal.block, header=header._replace(merkle_root=root))
            proposal, expected = proposal._replace(block=block), RootMismatchError
        else:  # sealed on genesis, judged against a block appended since
            chain = chain.append(chain_mod.make_block(keys[1], chain.tip_digest, 300, ()))
            expected = LinkMismatchError
        check = check_of(proposal, chain.tip)
        assert isinstance(check.error(), expected)
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        with pytest.raises(expected):
            commit(proposal, votes, check)

    def test_vote_from_unassigned_validator_rejected(self, net):
        keys, chain, proposal, pks = commit_env(net, [])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        outsider = sign_vote(keys[1], 1, chain_mod.block_digest(proposal.block), True, ())
        with pytest.raises(ProtocolError):
            commit(proposal, [outsider, votes[1], votes[2]], check_of(proposal, chain.tip))


class TestChooseValidators:
    def test_validators_are_supervisor_plus_two_candidates(self, net):
        _, assignment, _ = net
        for seed in range(8):
            sup, c1, c2 = committee(assignment, seed)
            assert sup == 3
            assert {c1, c2} == set(assignment.candidates)

    def test_duty_supervisor_skips_crashed(self):
        assignment = initialize_roles({i: 70 - 10 * i for i in range(7)}, r_max=2, s_max=2)  # supervisors 2, 3
        drawn = set()
        for seed in range(16):
            sup, *candidates = choose_validators(assignment, 0, random.Random(seed), alive=lambda n: n != 2)
            assert sup == 3 and len(set(candidates)) == 2
            drawn.update(candidates)
        assert drawn == {4, 5, 6}

    def test_single_crashed_supervisor_raises(self, net):
        _, assignment, _ = net
        with pytest.raises(ProtocolError):
            choose_validators(assignment, 0, random.Random(1), alive=lambda n: n != 3)

    def test_pool_excludes_crashed_candidates(self, net):
        _, assignment, _ = net
        with pytest.raises(ProtocolError, match="^fewer than two alive candidates$"):
            choose_validators(assignment, 0, random.Random(1), alive=lambda n: n != 4)

    def test_needs_two_candidates(self, net):
        _, assignment, _ = net
        rng = random.Random(1)
        with pytest.raises(ProtocolError, match="^fewer than two alive candidates$"):
            choose_validators(assignment._replace(candidates=(4,)), 0, rng)
        assert rng.getstate() == random.Random(1).getstate()  # nothing drawn
