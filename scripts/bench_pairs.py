#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarized per side.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload lm \\
        --pairs 10 --seed 101 --out BENCH_7.json

Runs ``benchmarks/run.py`` in two source checkouts, ``--pairs`` times per
workload. Pair i uses seed ``--seed`` + i, and the side that runs first
alternates, starting with the parent. Each run's ``machine`` line and
result are kept under ``pairs``. ``summary`` gives, per workload and
end-to-end metric, each side's median and quartiles, the number of pairs
the change wins (ties count for neither side), and whether that is a gain:
there are at least ten pairs, the change wins at least nine tenths of
them, and the medians differ by more than the parent's interquartile
range. ``regression`` marks a metric whose change median is worse than the
parent's by more than the metric's ``bound`` in BENCHMARK.json times the
parent's median. ``unresolved`` marks a metric with a bound whose parent
interquartile range exceeds that bound times the parent's median, unless
every change run beats every parent run: the parent's own spread is then
wider than the bound, so a median inside the bound does not show that the
metric held. Runs last ``run_seconds`` of the change's BENCHMARK.json;
``sides`` records each checkout's ``git describe --always --dirty`` and
``paths`` its absolute path, since a checkout's path alone can move
``peak_rss_mib``. ``--out`` is overwritten.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="parent commit's checkout")
    p.add_argument("--change", required=True, type=Path, help="changed checkout")
    p.add_argument("--workload", required=True, action="append",
                   help="benchmark workload; repeat for several")
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    p.add_argument("--out", required=True, type=Path)
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process: its ``machine`` line and its result line."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    machine = next(line for line in lines if line.startswith("machine "))
    return {"machine": json.loads(machine[len("machine "):]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], lower_is_better: dict[str, bool],
              bounds: dict[str, float] | None = None) -> dict:
    """Per-metric medians, quartiles, the change's wins and, for metrics with a
    bound, whether the change regressed and whether the parent's spread leaves
    the metric unresolved, over a workload's pairs."""
    out = {"pairs": len(pairs)}
    for side in SIDES:
        attempted = sum(p[side]["result"]["attempted"] for p in pairs)
        failed = sum(p[side]["result"]["failed"] for p in pairs)
        out[f"{side}_failed_share"] = failed / attempted if attempted else 0.0
        out[f"{side}_all_correct"] = all(p[side]["result"]["correct"] for p in pairs)
    metrics = {}
    for name in pairs[0]["parent"]["result"]["metrics"]:
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        sign = 1.0 if lower_is_better.get(name, True) else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        row = {"unit": pairs[0]["parent"]["result"]["metrics"][name]["unit"], "change_wins": wins}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            row[side] = {"median": median, "q1": q1, "q3": q3}
        gap = sign * (row["parent"]["median"] - row["change"]["median"])
        iqr = row["parent"]["q3"] - row["parent"]["q1"]
        row["gain"] = len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gap > iqr
        bound = (bounds or {}).get(name)
        tolerance = None if bound is None else bound * abs(row["parent"]["median"])
        row["regression"] = tolerance is not None and -gap > tolerance
        beats_all = (max(sign * c for c in values["change"])
                     < min(sign * p for p in values["parent"]))
        row["unresolved"] = tolerance is not None and iqr > tolerance and not beats_all
        metrics[name] = row
    out["metrics"] = metrics
    return out


def read_spec(checkout: Path) -> tuple[float, dict[str, bool], dict[str, float]]:
    """Run length and, per end-to-end metric, whether lower is better and its
    regression bound (a share of the parent's median), from BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    return (spec["run_seconds"], {m["name"]: m["better"] == "lower" for m in metrics},
            {m["name"]: m["bound"] for m in metrics if "bound" in m})


def revision(checkout: Path) -> str:
    """The checkout's commit, marked ``-dirty`` when tracked files differ from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} is not a git checkout:\n{proc.stderr.strip()}")
    return proc.stdout.strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds, lower, bounds = read_spec(args.change)
    checkouts = {"parent": args.parent, "change": args.change}
    doc = {
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "machine_note": "each run's own machine line is kept under pairs",
        "sides": {side: revision(checkout) for side, checkout in checkouts.items()},
        "paths": {side: str(checkout.resolve()) for side, checkout in checkouts.items()},
    }
    pairs = doc["pairs"] = {}
    for workload in args.workload:
        rows = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            row = {"seed": seed, "first": order[0]}
            for side in order:
                row[side] = run_once(checkouts[side], workload, seed, seconds)
                wall = row[side]["result"]["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall {wall:.3f} s", file=sys.stderr)
            rows.append(row)
        pairs[workload] = rows
    doc["summary"] = {w: summarize(rows, lower, bounds) for w, rows in sorted(pairs.items())}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
