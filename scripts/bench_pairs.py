#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two source trees.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs 10 --out BENCH_<n>.json

For each workload and each pair k, both trees run

    python3 perfbench/run.py --workload W --seed S --seconds T

with T the `run_seconds` of BENCHMARK.json and the same seed S = --seed + k, one after the other; the tree that goes
first alternates from pair to pair.  The final JSON line and the
`attempted ... rounds R` line of every run are kept.  The output file holds,
per workload and end-to-end metric, the median and quartiles of both trees
and the number of pairs the change won (and, beside `peak_rss_mb`, each
tree's fewest and most rounds), plus every run's values and rounds, the
seeds, the Python version, the core count and each tree's `src/` line
count; the same summary is printed after each workload, and the line counts
before the first.  Neither tree is modified beyond the benchmark's own
git-ignored output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("corpus-numeric", "corpus-symbolic", "random-crosscheck")
ROUNDS = re.compile(r"attempted (\d+) failed (\d+) rounds (\d+)")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {done.returncode}")
    result = json.loads(lines[-1])
    rounds = [ROUNDS.search(line) for line in lines]
    rounds = [m for m in rounds if m]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "rounds": int(rounds[-1].group(3)) if rounds else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def label(tree: Path) -> str:
    """The tree's short commit id, or its directory name outside git."""
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else tree.resolve().name


def src_lines(tree: Path) -> int:
    """The lines of src/homsuper/*.py and src/homsuper/corpus/__init__.py, as
    `wc -l` counts them."""
    src = tree / "src" / "homsuper"
    return sum(f.read_bytes().count(b"\n") for f in [*src.glob("*.py"), src / "corpus" / "__init__.py"])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def round_range(pairs, side):
    """[fewest, most] rounds of one side's runs (None where not printed)."""
    rounds = [p[side]["rounds"] for p in pairs if p[side]["rounds"] is not None]
    return [min(rounds), max(rounds)] if rounds else None


def summarise(pairs, metrics) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m.get("better", "lower") == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out[name] = {
            "unit": m.get("unit", ""), "better": m.get("better", "lower"),
            "bound": m.get("bound"),
            "parent": quartiles(parent), "change": quartiles(change),
            "change_wins": wins, "pairs": len(pairs),
        }
    # the harness keeps every round, so peak RSS rises with the rounds a
    # run managed: keep each side's range beside it
    if "peak_rss_mb" in out:
        out["peak_rss_mb"]["rounds"] = {side: round_range(pairs, side) for side in ("parent", "change")}
    return out


def printout(workload: str, summary: dict) -> str:
    """One line per end-to-end metric: medians, quartiles, wins, and for
    peak_rss_mb the rounds of each side."""
    lines = []
    for name, s in summary.items():
        par, chg = s["parent"], s["change"]
        line = (f"{workload} {name}: parent {par['median']:.4g} [{par['q1']:.4g}-{par['q3']:.4g}]"
                f" -> change {chg['median']:.4g} [{chg['q1']:.4g}-{chg['q3']:.4g}] {s['unit']},"
                f" change wins {s['change_wins']} of {s['pairs']}")
        if "rounds" in s:
            line += "; rounds " + ", ".join(
                f"{side} {'-'.join(map(str, r)) if r else '?'}" for side, r in s["rounds"].items())
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    report = {
        "parent": label(args.parent), "change": label(args.change),
        "python": platform.python_version(), "cores": os.cpu_count(),
        "seconds": seconds,
        "src_lines": {side: src_lines(getattr(args, side)) for side in ("parent", "change")},
        "workloads": {},
    }
    print("src lines: " + "  ".join(f"{side} {n}" for side, n in report["src_lines"].items()), flush=True)
    for workload in WORKLOADS:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} sweep_s {pair[side]['metrics']['sweep_s']:.3f} rounds {pair[side]['rounds']}"
                for side in ("parent", "change")), flush=True)
            pairs.append(pair)
        summary = summarise(pairs, spec["end_to_end"])
        print(printout(workload, summary), flush=True)
        report["workloads"][workload] = {
            "seeds": [p["parent"]["seed"] for p in pairs],
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
            "correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
            "summary": summary,
            "runs": pairs,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
