#!/usr/bin/env python3
"""homsuper benchmark: batch verdict times on three workloads.

    python3 perfbench/run.py --workload corpus-numeric --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ./src.  A run
builds the workload's inputs, times set-up in fresh interpreters, repeats
the workload's batch until --seconds have passed (at least once), verifies
every output outside the timed region, and prints one metric per line
followed by a JSON summary as the last line.  With --trace 1 it reports the
per-layer metrics instead (see README.md).  Results and traces are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 11
LAYER_PROBES = 5

END_TO_END_UNITS = {"sweep_s": "s", "check_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _import_package() -> None:
    """Put ./src first on the path and make sure homsuper comes from there."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "homsuper", "__init__.py")):
        raise SystemExit(f"error: no homsuper package under {src}; run from the repository root")
    sys.path.insert(0, src)
    sys.path.insert(1, BENCH_DIR)
    import homsuper

    if not os.path.abspath(homsuper.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: homsuper imported from {homsuper.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Fresh-interpreter probes
# ---------------------------------------------------------------------------


def _probe_cmd(kind: str, workload: str, seed: int):
    return [sys.executable, os.path.abspath(__file__), "--probe", kind,
            "--workload", workload, "--seed", str(seed)]


def _probe_child(kind: str, workload: str, seed: int) -> None:
    if kind == "setup":
        _import_package()
        from workloads import build_inputs

        build_inputs(workload, seed)
        print("ready", flush=True)
        return
    clock = time.perf_counter
    t0 = clock()
    _import_package()
    t1 = clock()
    from homsuper import corpus

    for entry in corpus.ENTRY_IDS:
        corpus.load_document(entry)
    t2 = clock()
    from workloads import build_inputs

    t3 = clock()
    build_inputs(workload, seed)
    t4 = clock()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "parse_ms": (t2 - t1) * 1e3,
                      "build_ms": (t4 - t3) * 1e3}), flush=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from spawning an interpreter to its inputs being
    ready: the homsuper import, .salg parsing, instance build or table
    generation."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(_probe_cmd("setup", workload, seed), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return statistics.median(samples)


def layer_setup_ms(workload: str, seed: int) -> dict:
    runs = []
    for _ in range(LAYER_PROBES):
        done = subprocess.run(_probe_cmd("layers", workload, seed), stdout=subprocess.PIPE,
                              text=True, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# Untraced run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failures(inputs, rounds):
    """(failed operations over all rounds, wrong outputs among them, the
    verifier's rejections of the first round).

    The first round is verified; every later round must repeat it exactly.
    An operation that raised counts as failed but not as a wrong output.
    """
    from verify import same_outcomes, verify

    first = rounds[0]
    rejects = verify(inputs, first)
    failed = wrong = 0
    for outcomes in rounds:
        bad = set(rejects) | set(same_outcomes(first, outcomes))
        failed += len(bad)
        wrong += sum(1 for k in bad if outcomes[k].kind != "error")
    return failed, wrong, rejects


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    from workloads import build_inputs, run_batch

    inputs = build_inputs(workload, seed)
    setup_s = setup_seconds(workload, seed)
    walls, rounds, op_times = [], [], []
    start = time.perf_counter()
    while True:
        wall, outcomes, times = run_batch(inputs)
        walls.append(wall)
        rounds.append(outcomes)
        op_times.extend(times)
        if time.perf_counter() - start >= seconds:
            break
    rss = peak_rss_mb()
    failed, wrong, rejects = failures(inputs, rounds)
    metrics = {
        "sweep_s": statistics.median(walls),
        "check_p50_ms": statistics.median(op_times) * 1e3,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    return {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "attempted": len(inputs.ops) * len(rounds), "failed": failed, "wrong": wrong,
        "rejects": _describe(inputs, rejects),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _describe(inputs, rejects):
    return [f"{inputs.cases[inputs.ops[k][0]].label} {inputs.ops[k][1]}: {why}"
            for k, why in sorted(rejects.items())]


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _fallback_instances():
    """Corpus tables for field kinds a workload does not use itself: Q and
    GF(3) at the suggest bindings, Frac(Q[a,b,c,t]) from dt-jordan."""
    from homsuper import corpus

    out = [corpus.build(e, "base", corpus.suggested_bindings(e)).hom for e in corpus.ENTRY_IDS]
    return out + [corpus.build("dt-jordan", "base").hom]


def run_traced(workload: str, seed: int) -> dict:
    """A batch run untraced and with spans, op by op; a batch counting field
    operations; then time per field operation."""
    import random

    from tracing import FieldCounter, Tracer, op_ns, operand_pool
    from workloads import ALL_CHECKERS, build_inputs, run_op

    inputs = build_inputs(workload, seed)
    layers = layer_setup_ms(workload, seed)

    # each operation runs both untraced and traced, back to back, so both
    # sides see the same machine load; which side goes first alternates, so
    # neither gets the other's warm-up
    tracer = Tracer()
    root = tracer.open("workload", workload=workload, seed=seed)
    plain, traced, plain_s = [], [], 0.0
    for k, op in enumerate(inputs.ops):
        for side in ((0, 1) if k % 2 else (1, 0)):
            if side:
                with tracer.installed(), tracer.span("op", instance=inputs.cases[op[0]].label,
                                                     checker=op[1]):
                    traced.append(run_op(inputs, op))
            else:
                t0 = time.perf_counter()
                plain.append(run_op(inputs, op))
                plain_s += time.perf_counter() - t0
    in_sweep = tracer.under(root)
    traced_s = sum(s["end"] - s["start"] for s in in_sweep if s["name"] == "op")

    counter = FieldCounter({id(c.hom.field): c.hom.field for c in inputs.cases}.values())
    count_tracer = Tracer()
    with count_tracer.installed(), counter.installed():
        counted = [run_op(inputs, op) for op in inputs.ops]

    with tracer.installed(), tracer.span("verify"):
        failed, wrong, rejects = failures(inputs, [traced, plain, counted])
    tracer.close(root)

    self_t = tracer.self_times()

    def total(name, spans=in_sweep, self_time=False):
        return sum(self_t[s["id"]] if self_time else s["end"] - s["start"]
                   for s in spans if s["name"] == name)

    m = {}
    for kind, calls in counter.counts.items():
        for meth in ("add", "sub", "mul", "is_zero"):
            m[f"coeff.{kind}.{meth}_calls"] = (calls[meth], "count")
    pools = operand_pool(c.hom for c in inputs.cases)
    for kind, pool in operand_pool(_fallback_instances()).items():
        pools.setdefault(kind, pool)
    rng = random.Random(seed)
    for kind in ("Q", "GF", "Frac"):
        F, operands = pools[kind]
        for op, ns in op_ns(F, operands, rng).items():
            m[f"coeff.{kind}.{op}_ns"] = (ns, "ns")
    checks = [s for s in in_sweep if s["name"] == "check"]
    tuples = sum(s["tuples"] for s in checks)
    counted_tuples = sum(s["tuples"] for s in count_tracer.spans if s["name"] == "check")
    m["identities.tuples_evaluated"] = (tuples, "count")
    m["identities.field_ops_per_tuple"] = (counter.checker_ops / counted_tuples, "ops/tuple")
    for name in ALL_CHECKERS:
        n = sum(s["tuples"] for s in checks if s["checker"] == name)
        t = sum(s["end"] - s["start"] for s in in_sweep
                if s["name"] == "enumerate" and s["checker"] == name)
        if n == 0:
            print(f"warning: {workload} evaluates no {name} tuple", file=sys.stderr)
        m[f"identities.us_per_tuple.{name}"] = (t / n * 1e6 if n else 0.0, "us")
    m["identities.ctx_build_s"] = (total("ctx_build", self_time=True), "s")
    m["identities.enumerate_s"] = (total("enumerate"), "s")
    m["superalg.derived_algebra_s"] = (total("derived"), "s")
    m["superalg.precondition_s"] = (total("precondition"), "s")
    oracle_spans = [s for s in tracer.spans if s["name"] == "oracle"]
    oracle_s = sum(s["end"] - s["start"] for s in oracle_spans)
    m["oracle.verdict_s"] = (oracle_s, "s")
    m["oracle.us_per_tuple"] = (oracle_s / sum(s["tuples"] for s in oracle_spans) * 1e6, "us")
    m["io.parse_ms"] = (layers["parse_ms"], "ms")
    m["corpus.build_ms"] = (layers["build_ms"], "ms")
    m["init.import_ms"] = (layers["import_ms"], "ms")
    m["trace.overhead"] = (traced_s / plain_s, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"spans": tracer.spans, "field_ops": counter.counts,
                   "checker_field_ops": counter.checker_ops}, fh)
    return {
        "workload": workload, "seed": seed, "rounds": 3, "traced": True,
        "attempted": 3 * len(inputs.ops), "failed": failed, "wrong": wrong,
        "rejects": _describe(inputs, rejects),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _emit(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{result['workload']:<18} {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"{result['workload']:<18} attempted {result['attempted']} failed {result['failed']}"
          f" rounds {result['rounds']}")
    for line in result["rejects"]:
        print(f"  rejected: {line}")
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "-trace" if result.get("traced") else ""
    path = os.path.join(OUT_DIR, f"result-{result['workload']}-seed{result['seed']}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def _run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {done.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="corpus-numeric | corpus-symbolic | random-crosscheck | all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "layers"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe:
        _probe_child(args.probe, args.workload, args.seed)
        return 0
    _import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
