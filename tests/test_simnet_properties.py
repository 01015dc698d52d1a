"""Property tests over random scenarios: a scenario either fails to load with
ScenarioError/ValueError, or runs to its horizon without raising, and every
node's reported chain status is what a full verify of its copy gives. The
run's typed log must hold whole-system invariants: no upload's plaintext on
the wire, message counts that are those of the tap, each handler given the
decode of the bytes the tap logged (a tampered envelope one ciphertext bit
apart), no handler of a crashed node called, each credit event, penalty
or reward, matching the round or record that earned it; each fault
detected within its own lifetime; no record penalty for a node no
forge-record fault drives; and each epoch's committees those a ranking of
the credits at its tick gives. A run's credits and committees replay from
the round outcomes and refusals in its log alone. `Sim.run` jumps over
ticks with nothing due; its artifacts must be those of a `Sim.step` loop
over every tick."""

from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridledger import chain as chain_mod
from gridledger import credit, simnet
from gridledger.credit import CreditReason, fold_events
from gridledger.simnet import (
    EpochChange,
    FaultKind,
    FaultSpec,
    Refusal,
    RoundEnd,
    ScenarioError,
    SimConfig,
    new_sim,
)

from testutil import sealed_payloads

SCENARIOS = Path(__file__).parent / "scenarios"

HEADER = """\
node 0 assessment 60
node 1 assessment 50
node 2 assessment 40
node 3 assessment 30
node 4 assessment 20
node 5 assessment 10
"""

# ids 6 and 7 are unknown nodes; -1 is malformed
node_ids = st.integers(-1, 7)
ticks = st.integers(-5, 1300)
numbers = st.integers(-5, 1500).map(str)
param_values = st.one_of(numbers, st.sampled_from(["", "x", "grid", "y" * 65]))
params = st.lists(
    st.tuples(st.sampled_from(["class", "size", "block", "recover", "sise"]), param_values).map(
        "=".join
    ),
    max_size=2,
)
fault_targets = st.one_of(node_ids.map(str), st.integers(-1, 6).map(lambda n: f"u{n}"))
kinds = st.sampled_from([k.value for k in FaultKind] + ["melt-node"])

directives = st.one_of(
    st.builds("authorize {}".format, node_ids),
    st.builds(
        "upload {} {} {} at {}".format, node_ids, st.sampled_from(["load", "telemetry"]),
        st.integers(-1, 200), ticks,
    ),
    st.builds("share {} {} {} at {}".format, node_ids, node_ids, st.integers(-1, 3), ticks),
    st.builds(
        lambda kind, target, tick, kv: " ".join([f"fault {kind} {target} at {tick}", *kv]),
        kinds, fault_targets, ticks, params,
    ),
)


@settings(
    max_examples=100,
    database=None,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 3),
    lines=st.lists(directives, max_size=10),
    horizon=st.integers(0, 1300),
)
@example(seed=0, lines=["authorize 2", "fault forge-record 2 at 10 size=-3"], horizon=700)
@example(  # the stored copy of the empty payload is the forger's, not node 4's
    seed=0,
    lines=[
        "authorize 2", "authorize 4", "fault forge-record 2 at 40 size=0",
        "upload 4 load 0 at 50", "share 4 5 0 at 1300",
    ],
    horizon=1400,
)
@example(  # copies tampered before and after a crash, then grown by later blocks
    seed=1,
    lines=[
        "authorize 2", "upload 2 load 16 at 10", "fault tamper-chain-copy 4 at 5",
        "fault tamper-chain-copy 5 at 650", "fault crash-node 1 at 700",
    ],
    horizon=1300,
)
@example(  # node 0 crashes holding 2 blocks: block 2 is out of its range, not the chain's
    seed=0,
    lines=[
        "authorize 2", "upload 2 load 16 at 10", "fault crash-node 0 at 650",
        "fault tamper-chain-copy 0 at 1250 block=2",
    ],
    horizon=1300,
)
@example(  # one block of one copy tampered twice
    seed=0,
    lines=[
        "authorize 2", "upload 2 load 16 at 10", "fault tamper-chain-copy 4 at 700 block=1",
        "fault tamper-chain-copy 4 at 800 block=1",
    ],
    horizon=1300,
)
@example(seed=0, lines=["fault tamper-chain-copy 3 at 650 block=0"], horizon=1300)  # genesis
@example(  # the recorder cannot open the tampered envelope: no one is penalised for it
    seed=7, lines=["authorize 4", "upload 4 load 96 at 50", "fault tamper-in-flight 0 at 40"], horizon=1200
)
@example(  # a unit fails and recovers; node 1's crash is caught at its first missed duty
    seed=0,
    lines=[
        "authorize 2", "upload 2 load 16 at 10", "fault fail-storage-unit u1 at 300 recover=900",
        "fault crash-node 1 at 5",
    ],
    horizon=1300,
)
@example(  # two honest records share a block with a forged one; only the forger is penalised
    seed=0,
    lines=[
        "authorize 2", "authorize 3", "authorize 4", "upload 2 load 16 at 10",
        "upload 4 load 16 at 20", "fault forge-record 3 at 30",
    ],
    horizon=1300,
)
@example(  # duty recorder 0 crashes while node 2's request is on its way to it
    seed=0, lines=["authorize 2", "upload 2 load 16 at 10", "fault crash-node 0 at 11"], horizon=700
)
def test_random_scenario_loads_cleanly_or_runs(seed, lines, horizon):
    text = HEADER + "".join(line + "\n" for line in lines) + f"run until {horizon}\n"
    try:
        sim = new_sim(SimConfig(seed=seed, r_max=3, s_max=1), text)
    except (ScenarioError, ValueError):
        return
    handled = []  # each message, the value its handler got, and whether its receiver was down

    def hooked(handler):
        def handle(self, msg, value):
            handled.append((msg, value, self.nodes[msg.dst].crashed))
            handler(self, msg, value)

        return handle

    hooks = {kind: (layout, hooked(handler)) for kind, (layout, handler) in simnet._DATA_PATH.items()}
    with sealed_payloads() as sealed, mock.patch.dict(simnet._DATA_PATH, hooks):
        report = sim.run()
    assert chain_mod.verify_chain(report.chain) is None
    assert report.credits == sim.credit.credits  # the fold of the logged events is the live state
    assert replayed(report) == recorded(report)
    for nid in sim.nodes:
        full = chain_mod.verify_chain(sim.replica(nid))
        expected = "ok" if full is None else f"violation@{full.index}:{full.reason}"
        assert report.node_chain_status[nid] == expected

    tap = report.tap
    payloads = [p for p in sealed if len(p) >= 16]
    assert not any(p in entry.data for entry in tap for p in payloads)
    assert report.message_counts == Counter(entry.kind for entry in tap)
    # a handler gets the decode of the bytes the tap logged for its message,
    # but for the bit of ciphertext a tamper-in-flight fault flipped; a link
    # delivers in order, and a crashed node gets nothing more
    sent = defaultdict(list)
    for entry in tap:
        sent[entry.kind, entry.src, entry.dst].append(entry.data)
    taken = Counter()
    for msg, value, crashed in handled:
        link = msg.kind, msg.src, msg.dst
        logged = sent[link][taken[link]]
        taken[link] += 1
        assert msg.data == logged and not crashed, msg
        decoded = simnet._DATA_PATH[msg.kind][0].decode(logged)
        if msg.tampered_by is None:
            assert value == decoded
        else:
            got, want = value.payload_envelope.ciphertext, decoded.payload_envelope.ciphertext
            changed = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
            assert len(got) == len(want) and len(changed) == 1 and got[changed[0]] ^ want[changed[0]] == 1, msg
            assert value._replace(payload_envelope=value.payload_envelope._replace(ciphertext=want)) == decoded
    node_of = {node.keypair.public_key: nid for nid, node in sim.nodes.items()}

    def credited(reason):
        return Counter((e.tick, e.node_id) for e in report.events if e.reason is reason)

    blamed = Counter((q.tick, node_of[q.record.uploader_public_key]) for q in report.quarantine)
    blamed.update(
        (f.tick, f.src)  # an upload envelope's sender, its uploader
        for f in report.upload_failures
        if f.reason in ("signature-invalid", "digest-mismatch")
    )
    assert credited(CreditReason.RECORD_ERRONEOUS) == blamed
    rejected = Counter((r.outcome.tick, r.outcome.recorder) for r in report.rejections)
    assert credited(CreditReason.BLOCK_ERRONEOUS) == rejected

    committed = report.chain.blocks[1:]  # past genesis
    assert credited(CreditReason.RECORD_CORRECT) == Counter(
        (b.header.timestamp_tick, node_of[r.uploader_public_key]) for b in committed for r in b.records
    )
    assert credited(CreditReason.BLOCK_CLEAN) == Counter(
        (b.header.timestamp_tick, node_of[b.header.recorder_public_key]) for b in committed
    )
    voted = Counter(
        e.tick for e in report.events
        if e.reason in (CreditReason.VALIDATOR_AGREED, CreditReason.VALIDATOR_DISSENTED)
    )
    decided = [b.header.timestamp_tick for b in committed] + [r.outcome.tick for r in report.rejections]
    assert voted == Counter(decided * 3)

    # a fault is caught no earlier than it fires and no later than the run's end
    for fo in report.fault_outcomes:
        assert fo.detected_tick is None or fo.spec.tick <= fo.detected_tick <= report.until_tick, fo
    # ROADMAP 8(ii): only a node a forge-record fault drives is penalised for a record
    forgers = {fo.spec.target for fo in report.fault_outcomes if fo.spec.kind is FaultKind.FORGE_RECORD}
    assert {node for _, node in credited(CreditReason.RECORD_ERRONEOUS)} <= forgers
    epoch_changes_follow_the_ranking(sim, report)


def epoch_changes_follow_the_ranking(sim, report) -> int:
    """ROADMAP 8(iii): at every epoch change, the new recorders and
    supervisors are the sort oracle's, every node ranked by (credit desc,
    id asc) over the credit events at or before that tick. Returns the
    number of epoch changes checked."""
    r_max, s_max = sim.config.r_max, sim.config.s_max
    changes = [event for event in sim.log if isinstance(event, EpochChange)]
    for change in changes:
        credits = fold_events(sim.nodes, (e for e in report.events if e.tick <= change.tick))
        ranked = sorted(credits, key=lambda nid: (-credits[nid], nid))
        assert change.recorders == tuple(ranked[:r_max]), change
        assert change.supervisors == tuple(ranked[r_max : r_max + s_max]), change
    return len(changes)


def replayed(report) -> tuple[str, str, str]:
    """credits.txt and the [roles] and [epochs] sections of metrics.txt,
    from the outcomes in ``report.log`` alone: `credit.apply_round` folded
    over each round's `RoundOutcome`, and `credit.apply_intake` over each
    refused upload envelope, from the committees `initialize_roles` gives
    the nodes' assessments."""
    config = report.config
    assignment = credit.initialize_roles(report.assessments, config.r_max, config.s_max)
    state = credit.CreditState(dict.fromkeys(report.assessments, 0), assignment, config.epoch_length_blocks)
    credit_log, epochs = [], ["[epochs]"]
    for event in report.log:
        before = state.assignment
        if isinstance(event, RoundEnd):
            state, booked = credit.apply_round(state, event.outcome)
        elif isinstance(event, Refusal) and event.kind == "upload-envelope":
            state, booked = credit.apply_intake(state, event.src, event.reason, event.tick)
        else:
            continue
        credit_log += [f"{e.tick}\t{e.node_id}\t{e.delta:+d}\t{e.reason.value}\n" for e in booked]
        new = state.assignment
        if new is not before:
            recorders = ",".join(map(str, new.recorders))
            supervisors = ",".join(map(str, new.supervisors))
            changed = sum(new.role_of(nid) is not before.role_of(nid) for nid in report.assessments)
            epochs.append(
                f"{new.epoch}\t{event.outcome.tick}\tchanged={changed}"
                f"\trecorders={recorders}\tsupervisors={supervisors}"
            )
    roles = ["[roles]"] + [
        f"{nid}\t{state.assignment.role_of(nid).value}\t{state.credits[nid]}\t{report.assessments[nid]}"
        for nid in sorted(state.credits)
    ]
    return "".join(credit_log), "\n".join(roles) + "\n", "\n".join(epochs) + "\n"


def recorded(report) -> tuple[str, str, str]:
    """What the run wrote: credits.txt, and the [roles] and [epochs]
    sections of metrics.txt, each from its header to its blank line."""
    metrics = report.metrics_text()

    def section(name):
        start = metrics.index(f"[{name}]\n")
        return metrics[start : metrics.index("\n\n", start) + 1]

    return report.credit_log_text(), section("roles"), section("epochs")


@pytest.mark.parametrize("epoch_length", [1, 2])
def test_credits_and_committees_replay_from_the_log(epoch_length):
    # ROADMAP 12: a fold of the one transition over the log, not a second
    # copy of the rules, gives the run's credit files byte for byte
    epochs = 0
    for name in ("all_faults.txt", "faults.txt", "honest.txt", "sharing.txt"):
        text = (SCENARIOS / name).read_text()
        for seed in range(6):
            config = SimConfig(seed=seed, r_max=3, s_max=1, epoch_length_blocks=epoch_length)
            report = new_sim(config, text).run()
            assert replayed(report) == recorded(report), (name, seed)
            epochs += len(report.epoch_changes)
    assert epochs == {1: 60, 2: 30}[epoch_length]


@pytest.mark.parametrize("epoch_length", [1, 2, 10])
def test_epoch_changes_follow_the_ranking_on_every_scenario(epoch_length):
    checked = 0
    for name in ("all_faults.txt", "faults.txt", "honest.txt", "sharing.txt"):
        text = (SCENARIOS / name).read_text()
        for seed in range(6):
            sim = new_sim(SimConfig(seed=seed, r_max=3, s_max=1, epoch_length_blocks=epoch_length), text)
            checked += epoch_changes_follow_the_ranking(sim, sim.run())
    assert checked == {1: 60, 2: 30, 10: 0}[epoch_length]  # runs of 2 to 4 rounds


def artifacts(report) -> tuple[str, ...]:
    return (
        report.chain_export_text(), report.credit_log_text(), report.trace_text(),
        report.metrics_text(),
    )


def step_to(sim, until_tick: int):
    """The report of a `step` loop over every tick up to ``until_tick``."""
    while sim.tick <= until_tick:
        sim.step()
    return sim.run(until_tick)  # past the horizon: reports without stepping


timing = {
    # 0: a message is delivered within the tick it was sent
    "delay": st.sampled_from([0, 1, 3]),
    # 250 and 97 do not divide the horizons below
    "interval": st.sampled_from([600, 250, 97]),
}
jump_settings = settings(
    max_examples=40,
    database=None,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def config_of(seed: int, delay: int, interval: int) -> SimConfig:
    return SimConfig(
        seed=seed, r_max=3, s_max=1, message_delay_ticks=delay, block_interval_ticks=interval
    )


@jump_settings
@given(
    seed=st.integers(0, 3),
    lines=st.lists(directives, max_size=10),
    horizon=st.integers(0, 1300),
    **timing,
)
@example(
    seed=0, lines=["authorize 2", "upload 2 load 8 at 10", "share 2 4 0 at 700"],
    horizon=1300, delay=0, interval=250,
)
@example(  # with no delay the whole upload runs at 599, the tick before a boundary
    seed=0, lines=["authorize 2", "upload 2 load 8 at 599"], horizon=1300, delay=0, interval=600,
)
def test_run_gives_the_artifacts_of_a_step_loop(seed, lines, horizon, delay, interval):
    text = HEADER + "".join(line + "\n" for line in lines)
    config = config_of(seed, delay, interval)
    try:
        jumped = new_sim(config, text)
    except (ScenarioError, ValueError):
        return
    assert artifacts(jumped.run(horizon)) == artifacts(step_to(new_sim(config, text), horizon))
    assert jumped.tick == horizon + 1


injected = st.one_of(
    st.tuples(
        st.sampled_from([
            FaultKind.CRASH_NODE, FaultKind.BYZANTINE_VALIDATOR, FaultKind.TAMPER_IN_FLIGHT,
            FaultKind.TAMPER_CHAIN_COPY,
        ]),
        st.integers(0, 5),
        st.just({}),
    ),
    st.tuples(st.just(FaultKind.FORGE_RECORD), st.integers(0, 5), st.builds(dict, size=st.integers(0, 64))),
    st.tuples(
        st.just(FaultKind.FAIL_STORAGE_UNIT),
        st.integers(0, 4).map("u{}".format),
        st.builds(dict, recover=st.integers(1, 400)),  # ticks after the fault
    ),
)


@jump_settings
@given(
    seed=st.integers(0, 3),
    lines=st.lists(directives, max_size=6),
    first=st.integers(0, 900),
    gap=st.integers(0, 700),
    second=st.integers(0, 900),
    fault=injected,
    **timing,
)
@example(
    seed=1, lines=["authorize 2", "upload 2 load 8 at 10", "upload 2 load 8 at 400"],
    first=300, gap=50, second=600, fault=(FaultKind.FORGE_RECORD, 2, {"size": 0}),
    delay=1, interval=600,
)
def test_split_run_with_an_injected_fault_matches_a_step_loop(
    seed, lines, first, gap, second, fault, delay, interval
):
    text = HEADER + "".join(line + "\n" for line in lines)
    config = config_of(seed, delay, interval)
    try:
        jumped, stepped = new_sim(config, text), new_sim(config, text)
    except (ScenarioError, ValueError):
        return
    assert artifacts(jumped.run(first)) == artifacts(step_to(stepped, first))
    assert jumped.tick == stepped.tick == first + 1
    kind, target, params = fault
    tick = jumped.tick + gap
    if "recover" in params:
        params = {"recover": tick + params["recover"]}
    for sim in (jumped, stepped):
        sim.inject_fault(FaultSpec(kind=kind, target=target, tick=tick, params=dict(params)))
    horizon = first + second
    assert artifacts(jumped.run(horizon)) == artifacts(step_to(stepped, horizon))
