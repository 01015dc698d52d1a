"""Property tests over random scenarios: a scenario either fails to load with
ScenarioError/ValueError, or runs to its horizon without raising, and every
node's reported chain status is what a full verify of its copy gives."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, configuration, example, given, settings
from hypothesis import strategies as st

from gridledger import chain as chain_mod
from gridledger.credit import fold_events
from gridledger.simnet import FaultKind, ScenarioError, SimConfig, new_sim

# While pytest collects, Hypothesis caches constants scraped from local
# sources under its home directory (./.hypothesis by default), even with
# database=None. Keep that cache out of the checkout.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gridledger-hypothesis")

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
def test_random_scenario_loads_cleanly_or_runs(seed, lines, horizon):
    text = HEADER + "".join(line + "\n" for line in lines) + f"run until {horizon}\n"
    try:
        sim = new_sim(SimConfig(seed=seed, r_max=3, s_max=1), text)
    except (ScenarioError, ValueError):
        return
    report = sim.run()
    assert chain_mod.verify_chain(report.chain) is None
    assert fold_events(report.credits.keys(), report.events) == report.credits
    for nid, node in sim.nodes.items():
        full = chain_mod.verify_chain(chain_mod.Chain(tuple(node.local_chain)))
        expected = "ok" if full is None else f"violation@{full.index}:{full.reason}"
        assert report.node_chain_status[nid] == expected
