"""Compare two sets of benchmark results under the benchmark's bounds.

    python3 bench/compare.py BASE NEW

BASE and NEW are result directories (or single result files) written by
`bench.py --trace 0`, typically ten seeds per workload on each side. For
each workload and each end-to-end metric in BENCHMARK.json it prints the
median and quartiles of each side and a verdict:

- worse: NEW's median is worse than BASE's by more than the metric's bound.
- unresolved: not worse, but a side's spread (quartile distance over
  median) is wider than the bound, and NEW does not beat BASE in every
  pairing of their runs.
- better: NEW's median is better by more than BASE's own spread, and NEW
  wins at least nine tenths of all pairings of a BASE run with a NEW run.
- within bound: anything else.

The metrics only some workloads report (records_per_s, verify_blocks_per_s,
lineage_ms.*) have no bound in BENCHMARK.json. They get the same verdict
under the largest bound the contract allows, marked "ungated", and do not
affect the exit code. The failed-operation counts of each side follow,
then how many runs of each side still show the known defect (bench.py's
`tamper_upload_probe`).

Exits 1 if any gated metric is worse, else 0. Run it from the checkout root.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

UNGATED = {"records_per_s": "higher", "verify_blocks_per_s": "higher", "lineage_ms.p50": "lower",
           "lineage_ms.p90": "lower"}
UNGATED_BOUND = 0.25


def load(path: Path) -> dict[str, list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = {}
    for f in files:
        record = json.loads(f.read_text())
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float, float, float]:
    """Returns (verdict, relative change, base spread, new spread); the
    change is positive when NEW is better."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1 if better == "higher" else -1
    change = sign * (nmed - bmed) / bmed
    base_spread = (bq3 - bq1) / bmed
    new_spread = (nq3 - nq1) / nmed
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    if change < -bound:
        return "worse", change, base_spread, new_spread
    if max(base_spread, new_spread) > bound and wins < 1.0:
        return "unresolved", change, base_spread, new_spread
    if change > base_spread and wins >= 0.9:
        return "better", change, base_spread, new_spread
    return "within bound", change, base_spread, new_spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads(Path("BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    counts: dict[str, int] = {}
    print(f"{'workload':8s} {'metric':16s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
          f" {'change':>8s} {'spread b/n':>13s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        if not b_runs or not n_runs:
            print(f"{workload:8s} missing on one side ({len(b_runs)} base, {len(n_runs)} new runs)")
            counts["missing"] = counts.get("missing", 0) + 1
            continue
        metrics = [(m["name"], m["better"], m["bound"], True) for m in contract["end_to_end"]]
        metrics += [
            (name, better, UNGATED_BOUND, False) for name, better in UNGATED.items()
            if all(name in r["end_to_end"] for r in b_runs + n_runs)
        ]
        for name, better, bound, gated in metrics:
            bv = [r["end_to_end"][name] for r in b_runs]
            nv = [r["end_to_end"][name] for r in n_runs]
            result, change, bs, ns = verdict(bv, nv, better, bound)
            if gated:
                counts[result] = counts.get(result, 0) + 1
            else:
                result = f"{result} (ungated)"
            bq, nq = quartiles(bv), quartiles(nv)
            print(
                f"{workload:8s} {name:16s}"
                f" {bq[1]:>11.5g} [{bq[0]:.5g}, {bq[2]:.5g}] n={len(bv):<2d}"
                f" {nq[1]:>11.5g} [{nq[0]:.5g}, {nq[2]:.5g}] n={len(nv):<2d}"
                f" {change:+8.2%} {bs:6.2%}/{ns:6.2%} {bound:6.2f}  {result}"
            )
        b_failed = sum(r["failed"] for r in b_runs)
        n_failed = sum(r["failed"] for r in n_runs)
        print(f"{workload:8s} {'ops failed':16s} base {b_failed}/{sum(r['attempted'] for r in b_runs)}"
              f"  new {n_failed}/{sum(r['attempted'] for r in n_runs)}")
        b_defects = [d for r in b_runs for d in r.get("known_defects", [])]
        n_defects = [d for r in n_runs for d in r.get("known_defects", [])]
        if b_defects or n_defects:
            print(f"{workload:8s} {'known defect':16s} base present in {sum(not d['ok'] for d in b_defects)}"
                  f"/{len(b_defects)} runs  new present in {sum(not d['ok'] for d in n_defects)}/{len(n_defects)} runs")
    print("summary (gated metrics): " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("missing") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
