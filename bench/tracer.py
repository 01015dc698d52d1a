"""Span tracing for the traced benchmark run.

`Tracer.install()` replaces the public functions and methods listed in
`LAYERS` with wrappers that time each call. A function bound by name in
another module (``from .crypto import digest`` in `chain`, `merkle`,
`simnet` and `datastore`) is replaced at every binding site, so a call is
traced whichever module makes it. Spans nest: a span's self time is its
duration minus the durations of the spans it encloses, so
``simnet.run -> Sim.step -> record_protocol.* -> chain.* -> merkle/crypto``
is attributed layer by layer. Spans and counters stay in memory until
`summary()`. Spans are timed with the clock given to the tracer, which in
the benchmark is `Calibrator.clock`: it leaves out the reference slices.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

LAYERS = {
    "crypto": ("sign", "verify", "encrypt_for", "decrypt", "generate_keypair", "digest"),
    "merkle": ("build_tree",),
    "chain": (
        "verify_chain", "validate_block", "block_bytes", "block_from_bytes", "import_chain",
        "export_chain", "make_block", "record_digest", "Chain.append", "trace",
    ),
    "credit": ("reelect", "apply_record_outcome", "apply_block_outcome", "apply_validator_outcomes"),
    "record_protocol": (
        "prepare_upload", "receive_upload", "seal_block", "validate_proposal", "sign_vote",
        "commit", "choose_validators",
    ),
    "share_protocol": ("initiate_share", "receive_share", "record_share"),
    "datastore": (
        "DataStore.put", "DataStore.get", "DataStore.fail_unit", "DataStore.recover_unit",
        "DataStore.audit",
    ),
    "simnet": (
        "Sim.step", "Sim.run", "SimReport.chain_export_text", "SimReport.credit_log_text",
        "SimReport.trace_text", "SimReport.metrics_text",
    ),
    "cli": ("main",),
}

# cli.main is split by subcommand: argparse, file read and printing differ.
CLI_COMMANDS = ("verify", "trace")


def span_names() -> list[str]:
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            if layer == "cli":
                names += [f"cli.main.{cmd}" for cmd in CLI_COMMANDS]
            else:
                names.append(f"{layer}.{fn}")
    return names


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in span_names()}  # calls, self, total
        self.stack: list[list] = []  # open spans: [name, child time, child calls]
        self.covered = 0.0  # summed duration of outermost spans
        self.started = 0.0
        # counters at the same boundaries
        self.digest_bytes = 0
        self.verify_triples: set[int] = set()
        self.tree_leaves = 0
        self.blocks_seen: set[bytes] = set()  # distinct blocks, by recorder signature
        self.verify_chain_blocks = 0
        self.trace_records_scanned = 0
        self.idle_steps = 0
        self.round_s: list[float] = []
        self.last_step_end = 0.0
        self.report_s = 0.0

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stats = self.stats[name]
        stack = self.stack
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            ctx = before(args) if before is not None else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += duration
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] += 1
                else:
                    tracer.covered += duration
            if after is not None:
                after(ctx, args, result, duration, frame)
            return result

        return traced

    def _hooks(self, name):
        seen = self.blocks_seen

        def see_arg(i):
            return lambda args: seen.add(args[i].header.recorder_signature)

        def see_result(ctx, args, result, duration, frame):
            seen.add(result.header.recorder_signature)

        def digest_before(args):
            self.digest_bytes += len(args[0])

        def verify_before(args):
            self.verify_triples.add(hash(args))

        def tree_before(args):
            self.tree_leaves += len(args[0])

        def validate_before(args):
            seen.add(args[0].header.recorder_signature)
            if self.stack and self.stack[-1][0] == "chain.verify_chain":
                self.verify_chain_blocks += 1

        def trace_before(args):
            self.trace_records_scanned += sum(len(b.records) for b in args[0].blocks)

        def proposal_before(args):
            seen.add(args[2].block.header.recorder_signature)

        def step_before(args):
            sim = args[0]
            return sim.tick, sim.config.block_interval_ticks

        def step_after(ctx, args, result, duration, frame):
            tick, interval = ctx
            if tick > 0 and tick % interval == 0:
                self.round_s.append(duration)
            if frame[2] == 0:
                self.idle_steps += 1
            self.last_step_end = self.clock()

        def run_after(ctx, args, result, duration, frame):
            self.report_s += self.clock() - self.last_step_end

        return {
            "crypto.digest": (digest_before, None),
            "crypto.verify": (verify_before, None),
            "merkle.build_tree": (tree_before, None),
            "chain.validate_block": (validate_before, None),
            "chain.block_bytes": (see_arg(0), None),
            "chain.Chain.append": (see_arg(1), None),
            "chain.make_block": (None, see_result),
            "chain.block_from_bytes": (None, see_result),
            "chain.trace": (trace_before, None),
            "record_protocol.validate_proposal": (proposal_before, None),
            "simnet.Sim.step": (step_before, step_after),
            "simnet.Sim.run": (None, run_after),
        }.get(name, (None, None))

    def install(self) -> None:
        """Wrap every function in LAYERS at every binding site; start the
        traced wall clock."""
        modules = {layer: importlib.import_module(f"gridledger.{layer}") for layer in LAYERS}
        loaded = [m for n, m in list(sys.modules.items()) if n == "gridledger" or n.startswith("gridledger.")]
        for layer, functions in LAYERS.items():
            module = modules[layer]
            for fn_name in functions:
                if layer == "cli":
                    self._install_cli(module)
                    continue
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, method = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self._wrap(name, getattr(cls, method), *self._hooks(name)))
                    continue
                original = getattr(module, fn_name)
                traced = self._wrap(name, original, *self._hooks(name))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
        self.started = self.clock()

    def _install_cli(self, cli) -> None:
        original = cli.main
        by_command = {cmd: self._wrap(f"cli.main.{cmd}", original) for cmd in CLI_COMMANDS}

        def main(argv=None):
            traced = by_command.get(argv[0]) if argv else None
            return (traced or original)(argv)

        cli.main = main

    # --- results ------------------------------------------------------------

    def summary(self, time_scale: float = 1.0) -> dict:
        """Per-function calls/self/total, per-layer self share of the traced
        wall time, and the counters; call once the traced work is done.
        Times are multiplied by `time_scale`."""
        wall = self.clock() - self.started
        functions = {
            name: {"calls": calls, "self_s": self_s * time_scale, "total_s": total_s * time_scale}
            for name, (calls, self_s, total_s) in self.stats.items()
        }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, self_s, _) in self.stats.items():
            layer_self[name.split(".", 1)[0]] += self_s
        calls = {name: s[0] for name, s in self.stats.items()}
        blocks = len(self.blocks_seen) or 1
        steps = calls["simnet.Sim.step"]
        return {
            "wall_s": wall * time_scale,
            "functions": functions,
            "layer_self_frac": {layer: t / wall for layer, t in layer_self.items()},
            "unattributed_frac": (wall - self.covered) / wall,
            "verify_chain_total_frac": self.stats["chain.verify_chain"][2] / wall,
            "digest_bytes": self.digest_bytes,
            "verify_per_signature": calls["crypto.verify"] / max(1, len(self.verify_triples)),
            "build_tree_leaves": self.tree_leaves,
            "build_tree_per_block": calls["merkle.build_tree"] / blocks,
            "validate_block_per_block": calls["chain.validate_block"] / blocks,
            "distinct_blocks": len(self.blocks_seen),
            "verify_chain_blocks": self.verify_chain_blocks,
            "trace_records_scanned": self.trace_records_scanned,
            "step_idle_frac": self.idle_steps / steps if steps else 0.0,
            "round_s": [s * time_scale for s in self.round_s],
            "report_s": self.report_s * time_scale,
        }
