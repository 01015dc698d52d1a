"""Seeded input generation for the three benchmark workloads.

Everything here is a pure function of the workload seed. `ingest` and
`idle` produce scenario text that the simulator parses; `audit` produces a
chain export through the public `crypto`/`chain`/`share_protocol` functions
of the code under test, plus the lineage rows every query must return.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

NODES = 150
RECORDERS = 101  # SimConfig defaults: 101 recorders, 20 supervisors
SUPERVISORS = 20
INTERVAL = 600  # ticks per block, the SimConfig default

DATA_CLASSES = ("load", "voltage", "frequency", "meter", "pmu", "weather")
MIN_PAYLOAD = 16
MAX_PAYLOAD = 64 * 1024

# ingest: uploads arrive in UPLOAD_INTERVALS intervals; SETTLE_INTERVALS
# quiet intervals follow so that the last uploads and share transactions
# commit even after a block is rejected for a forged record.
UPLOAD_INTERVALS = 6
SETTLE_INTERVALS = 2
# Records per block interval are 15..20, each count equally often, so every
# seed has the same total and runs with different seeds compare.
UPLOADS_PER_INTERVAL = range(15, 21)
AUTHORIZED = 60
SHARE_SHARE = 0.05
SHARE_DELAY = 3 * INTERVAL
FORGES = 3
# A forged upload reaches the pending queue three ticks after it is made, so
# every forge in this window lands in the block sealed at tick 1800: each
# seed has exactly one rejected block.
FORGE_FROM, FORGE_UNTIL = 2 * INTERVAL, 3 * INTERVAL - 10

# The known-defect probe run beside ingest (bench.py): the desk committees
# (3 recorders, 1 supervisor) with the recorder on duty for node 4's upload,
# node 0, armed to tamper with the next envelope it receives.
TAMPER_UPLOAD_PROBE = """\
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

# idle: many re-election epochs (SimConfig epoch length is 10 blocks).
IDLE_BLOCKS = 200

# audit: an ingest-shaped export far longer than one ingest run.
AUDIT_BLOCKS = 300
AUDIT_UPLOADERS = 60


@dataclass
class SimInputs:
    """Scenario text plus what the checks need to know about it."""

    scenario: str
    horizon: int
    uploads: list[tuple[int, int, str, int, int]] = field(default_factory=list)  # ordinal, node, class, size, tick
    shares: list[tuple[int, int, int, int]] = field(default_factory=list)  # sender, receiver, upload_ref, tick
    faults: list[str] = field(default_factory=list)
    tampered_share: int | None = None  # index into shares hit by tamper-in-flight

    def sizes(self) -> dict:
        return {
            "nodes": NODES,
            "uploads": len(self.uploads),
            "shares": len(self.shares),
            "faults": len(self.faults),
            "payload_bytes": sum(u[3] for u in self.uploads),
            "ticks": self.horizon,
            "intervals": self.horizon // INTERVAL,
        }


def _zipf_weights(n: int, s: float = 1.2) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def _interval_counts(rng: random.Random, intervals: int) -> list[int]:
    """Per-interval record counts cycling through UPLOADS_PER_INTERVAL in a
    seeded order, so the total depends only on the number of intervals."""
    counts = [UPLOADS_PER_INTERVAL[i % len(UPLOADS_PER_INTERVAL)] for i in range(intervals)]
    rng.shuffle(counts)
    return counts


def _log_uniform_size(rng: random.Random) -> int:
    return int(math.exp(rng.uniform(math.log(MIN_PAYLOAD), math.log(MAX_PAYLOAD))))


def _node_lines(rng: random.Random) -> tuple[list[str], list[int]]:
    """150 nodes with distinct assessments; returns the lines and the
    bootstrap ranking (assessment desc), whose slices are the committees."""
    scores = rng.sample(range(1, 10_000), NODES)
    lines = [f"node {nid} assessment {score}" for nid, score in enumerate(scores)]
    ranked = sorted(range(NODES), key=lambda nid: (-scores[nid], nid))
    return lines, ranked


def ingest_inputs(seed: int) -> SimInputs:
    rng = random.Random(f"ingest/{seed}")
    lines, ranked = _node_lines(rng)
    supervisors = ranked[RECORDERS : RECORDERS + SUPERVISORS]
    non_recorders = ranked[RECORDERS:]
    authorized = rng.sample(range(NODES), AUTHORIZED)
    lines += [f"authorize {nid}" for nid in authorized]
    horizon = (UPLOAD_INTERVALS + SETTLE_INTERVALS) * INTERVAL
    inputs = SimInputs(scenario="", horizon=horizon)

    # Heavy-tailed uploaders: authorized[0] uploads most, the tail rarely.
    weights = _zipf_weights(len(authorized))
    for interval, count in enumerate(_interval_counts(rng, UPLOAD_INTERVALS)):
        ticks = sorted(interval * INTERVAL + 1 + rng.randrange(INTERVAL - 10) for _ in range(count))
        for tick in ticks:
            node = rng.choices(authorized, weights)[0]
            size = _log_uniform_size(rng)
            data_class = rng.choice(DATA_CLASSES)
            inputs.uploads.append((len(inputs.uploads), node, data_class, size, tick))
    lines += [f"upload {n} {c} {s} at {t}" for _, n, c, s, t in inputs.uploads]

    # About 5% of uploads are shared SHARE_DELAY ticks after upload. An
    # upload carried over the rejected block is on chain by then, and the
    # share transaction still has two intervals to commit.
    last_share_tick = horizon - 2 * INTERVAL
    shareable = [u for u in inputs.uploads if u[4] + SHARE_DELAY <= last_share_tick]
    n_shares = max(2, round(SHARE_SHARE * len(inputs.uploads)))
    for ordinal, node, _, _, tick in sorted(rng.sample(shareable, n_shares)):
        receiver = rng.choice([nid for nid in range(NODES) if nid != node])
        inputs.shares.append((node, receiver, ordinal, tick + SHARE_DELAY))

    # The share hit by tamper-in-flight goes to a node outside the recorder
    # committee that receives no other share: recorders receive upload
    # envelopes, and tampering with one of those aborts the run. That
    # defect is reported by a separate probe (TAMPER_UPLOAD_PROBE), so the
    # timed run stays whole while the defect shows in every ingest result.
    pick = rng.randrange(len(inputs.shares))
    sender, _, ordinal, tick = inputs.shares[pick]
    receivers = {r for _, r, _, _ in inputs.shares}
    receiver = rng.choice([nid for nid in non_recorders if nid != sender and nid not in receivers])
    inputs.shares[pick] = (sender, receiver, ordinal, tick)
    inputs.tampered_share = pick
    lines += [f"share {s} {r} {ref} at {t}" for s, r, ref, t in inputs.shares]

    # Light fault schedule, every fault one the system must detect.
    for _ in range(FORGES):
        inputs.faults.append(
            f"fault forge-record {rng.choice(authorized)} at {rng.randrange(FORGE_FROM, FORGE_UNTIL)}"
            f" class={rng.choice(DATA_CLASSES)} size={_log_uniform_size(rng)}"
        )
    # The on-duty supervisor of round r is supervisors[r % 20]; every round
    # of this run has one, so the byzantine node is sure to vote.
    byzantine = supervisors[rng.randrange(horizon // INTERVAL)]
    inputs.faults.append(f"fault byzantine-validator {byzantine} at 1")
    inputs.faults.append(
        f"fault tamper-chain-copy {rng.randrange(NODES)} at {rng.randrange(3 * INTERVAL, horizon - 10)}"
    )
    inputs.faults.append(f"fault tamper-in-flight {receiver} at {tick - 1}")
    fail_at = rng.randrange(INTERVAL, 3 * INTERVAL)
    inputs.faults.append(
        f"fault fail-storage-unit u{rng.randrange(5)} at {fail_at} recover={fail_at + rng.randrange(INTERVAL, 2 * INTERVAL)}"
    )
    lines += inputs.faults
    lines.append(f"run until {horizon}")
    inputs.scenario = "\n".join(lines) + "\n"
    return inputs


def idle_inputs(seed: int) -> SimInputs:
    rng = random.Random(f"idle/{seed}")
    lines, _ = _node_lines(rng)
    horizon = IDLE_BLOCKS * INTERVAL
    lines.append(f"run until {horizon}")
    return SimInputs(scenario="\n".join(lines) + "\n", horizon=horizon)


# --- audit -------------------------------------------------------------------

@dataclass
class AuditExport:
    """A generated chain export and the ground truth its queries check."""

    text: str
    blocks: int
    records: int
    # (block, record, tick, kind label, uploader prefix hex, data_class)
    rows_by_digest: dict[bytes, list[tuple]]
    rows_by_key: dict[bytes, list[tuple]]
    absent_digests: list[bytes]

    def sizes(self) -> dict:
        return {
            "blocks": self.blocks,
            "records": self.records,
            "export_bytes": len(self.text),
            "uploaders": len(self.rows_by_key),
        }


def audit_export(seed: int) -> AuditExport:
    """Build an ingest-shaped chain with the code under test: genesis, then
    AUDIT_BLOCKS blocks of 15-20 signed records from heavy-tailed uploaders,
    about 5% of grid-data records later shared (a share-transaction record
    signed by the owner)."""
    from gridledger import chain as chain_mod
    from gridledger import crypto
    from gridledger import share_protocol

    rng = random.Random(f"audit/{seed}")
    uploaders = [crypto.generate_keypair(rng.randbytes(crypto.SEED_LEN)) for _ in range(AUDIT_UPLOADERS)]
    recorders = [crypto.generate_keypair(rng.randbytes(crypto.SEED_LEN)) for _ in range(RECORDERS)]
    weights = _zipf_weights(len(uploaders))
    blocks = [chain_mod.genesis("grid")]
    rows_by_digest: dict[bytes, list[tuple]] = {}
    rows_by_key: dict[bytes, list[tuple]] = {up.public_key: [] for up in uploaders}
    shares_due: list[tuple[int, object, bytes, bytes]] = []  # due block, owner, receiver key, digest
    n_records = 0

    for b, count in enumerate(_interval_counts(rng, AUDIT_BLOCKS), start=1):
        tick = b * INTERVAL
        due = [s for s in shares_due if s[0] == b]
        shares_due = [s for s in shares_due if s[0] != b]
        entries = []
        for _ in range(count - len(due)):
            owner = rng.choices(uploaders, weights)[0]
            payload_digest = crypto.digest(rng.randbytes(32) + _log_uniform_size(rng).to_bytes(4, "big"))
            metadata = chain_mod.RecordMetadata(
                kind=chain_mod.RecordKind.GRID_DATA,
                data_class=rng.choice(DATA_CLASSES),
                created_tick=tick - INTERVAL + 1 + rng.randrange(INTERVAL - 10),
            )
            entries.append((owner, payload_digest, metadata))
            if rng.random() < SHARE_SHARE and b + 2 <= AUDIT_BLOCKS:
                receiver = rng.choice(uploaders)
                shares_due.append((b + 2, owner, receiver.public_key, payload_digest))
        for _, owner, receiver_key, shared in due:
            tx = share_protocol.ShareTransaction(
                sender_public_key=owner.public_key,
                receiver_public_key=receiver_key,
                payload_digest=shared,
                tick=tick - INTERVAL + rng.randrange(INTERVAL - 10),
            )
            tx_payload, metadata = share_protocol.record_share(tx)
            entries.append((owner, crypto.digest(tx_payload), metadata))
        entries.sort(key=lambda e: e[2].created_tick)

        records = []
        for ri, (owner, payload_digest, metadata) in enumerate(entries):
            records.append(
                chain_mod.Record(
                    uploader_public_key=owner.public_key,
                    payload_digest=payload_digest,
                    metadata=metadata,
                    uploader_signature=crypto.sign(owner.private_key, payload_digest),
                )
            )
            row = (b, ri, metadata.created_tick, metadata.kind.label, owner.public_key[:8].hex(), metadata.data_class)
            rows_by_key[owner.public_key].append(row)
            rows_by_digest.setdefault(payload_digest, []).append(row)
            if metadata.kind is chain_mod.RecordKind.SHARE_TRANSACTION:
                rows_by_digest.setdefault(bytes.fromhex(metadata.data_class), []).append(row)
        n_records += len(records)
        prev = chain_mod.block_digest(blocks[-1])
        blocks.append(chain_mod.make_block(recorders[b % len(recorders)], prev, tick, tuple(records)))

    for rows in rows_by_digest.values():
        rows.sort()
    absent = [crypto.digest(rng.randbytes(32)) for _ in range(8)]
    return AuditExport(
        text=chain_mod.export_chain(chain_mod.Chain(tuple(blocks))),
        blocks=len(blocks),
        records=n_records,
        rows_by_digest=rows_by_digest,
        rows_by_key=rows_by_key,
        absent_digests=absent,
    )


def flip_bit(export_text: str, rng: random.Random) -> tuple[str, int]:
    """Flip one random bit of one random block's bytes; returns the new
    export text and the block index."""
    lines = export_text.splitlines()
    index = rng.randrange(len(lines))
    raw = bytearray(bytes.fromhex(lines[index]))
    bit = rng.randrange(len(raw) * 8)
    raw[bit // 8] ^= 1 << (bit % 8)
    lines[index] = raw.hex()
    return "".join(line + "\n" for line in lines), index
