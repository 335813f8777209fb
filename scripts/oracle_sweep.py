#!/usr/bin/env python3
"""Fuzz the checkers against the brute-force oracle on random graded tables.

    python3 scripts/oracle_sweep.py [count] [seed]

Every checker verdict (and first counterexample) must agree between the two
evaluation routes; disagreements are printed and the exit code is nonzero.
The sweep's wall time, the seconds spent in `run_checker` and in
`oracle_verdict`, and the three checkers with the most oracle time go to
stderr, so stdout stays the verdict lines.
"""

import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

from gen import random_even_map, random_graded_algebra  # noqa: E402
from homsuper.identities import CHECKERS, PreconditionError, run_checker  # noqa: E402
from homsuper.oracle import oracle_verdict  # noqa: E402
from homsuper.superalg import hom  # noqa: E402


def main(count: int, seed: int) -> int:
    rng = random.Random(seed)
    bad = 0
    checker_s, oracle_s = 0.0, Counter()
    for trial in range(count):
        dim = rng.choice([2, 3])
        A = random_graded_algebra(rng, dim, rng.randint(0, dim))
        H = hom(A, random_even_map(rng, A))
        for name in CHECKERS:
            start = time.perf_counter()
            try:
                rep = run_checker(name, H, max_counterexamples=1)
            except PreconditionError:
                continue
            finally:
                checker_s += time.perf_counter() - start
            start = time.perf_counter()
            holds, first = oracle_verdict(name, H)
            oracle_s[name] += time.perf_counter() - start
            agree = rep.holds == holds and (
                holds or rep.counterexamples[0][0] == first
            )
            if not agree:
                bad += 1
                print(f"MISMATCH trial={trial} checker={name}")
    print(f"{count} random instances swept, {bad} mismatches")
    top = ", ".join(f"{name} {t:.2f} s" for name, t in oracle_s.most_common(3))
    print(f"run_checker {checker_s:.2f} s, oracle_verdict {sum(oracle_s.values()):.2f} s"
          f" (most: {top})", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    start = time.perf_counter()
    status = main(count, seed)
    print(f"wall {time.perf_counter() - start:.2f} s", file=sys.stderr)
    sys.exit(status)
