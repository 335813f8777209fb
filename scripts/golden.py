#!/usr/bin/env python3
"""Golden digests of the command-line output.

    python3 scripts/golden.py           # compare against tests/data/cli_golden.txt
    python3 scripts/golden.py --write   # regenerate the file

Every invocation runs `cli.main` in-process and records one sha256 of
(exit code, stdout, stderr).  The sweep covers every checker on every corpus
entry and variant at its `suggest` bindings (text and `--json`), the same
with the parameters left free (`--json`), and `verify-paper` (text and
`--json`); then `validate`, `twist`, `commutator`, `plus` and
`derive --n 0..3`, which reach the product and map kernels through `maps`,
on every entry and variant, at `suggest` and with the parameters free.
Last, every checker, `validate`, `twist`, `commutator`, `plus` and
`derive --n 0..2` on `tests/data/frac-den.salg`, whose denominators have
several terms: no bundled table reaches that route of the fraction field.
Paths are read from the repository root.  A refactor that keeps these
digests keeps every byte of output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.txt"
FRAC_DEN = ["--file", "tests/data/frac-den.salg"]


def invocations():
    from homsuper import corpus
    from homsuper.identities import CHECKERS

    sources = []
    for entry in corpus.ENTRY_IDS:
        sets = []
        for name, value in sorted(corpus.suggested_bindings(entry).items()):
            sets += ["--set", f"{name}={value}"]
        for variant in corpus.variant_names(entry):
            sources.append((["--corpus", entry, "--map", variant], sets))
    for source, sets in sources:
        for name in CHECKERS:
            argv = ["check", *source, "--identity", name]
            yield argv + sets
            yield argv + sets + ["--json"]
            yield argv + ["--json"]
    yield ["verify-paper"]
    yield ["verify-paper", "--json"]
    constructions = [["validate"], ["twist"], ["commutator"], ["plus"]]
    constructions += [["derive", "--n", str(n)] for n in range(4)]
    for source, sets in sources:
        for command in constructions:
            yield command + source + sets
            yield command + source
    for name in CHECKERS:
        yield ["check", *FRAC_DEN, "--identity", name]
    constructions = [["validate"], ["twist", "--map", "alpha"], ["commutator"], ["plus"]]
    for command in constructions + [["derive", "--n", str(n)] for n in range(3)]:
        yield command + FRAC_DEN


def digest(argv) -> str:
    from homsuper import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def compute():
    """[(command line, digest)] over the whole sweep, run from the root."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return [(" ".join(argv), digest(argv)) for argv in invocations()]
    finally:
        os.chdir(cwd)


def read_golden():
    out = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        hexdigest, _, cmd = line.partition(" ")
        out.append((cmd, hexdigest))
    return out


def main(argv) -> int:
    rows = compute()
    if argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text("".join(f"{d} {cmd}\n" for cmd, d in rows), encoding="utf-8")
        print(f"wrote {len(rows)} digests to {GOLDEN.relative_to(ROOT)}")
        return 0
    want = dict(read_golden())
    bad = [cmd for cmd, d in rows if want.get(cmd) != d]
    missing = len(set(want) - {cmd for cmd, _ in rows})
    for cmd in bad:
        print(f"DIFFERS {cmd}")
    print(f"{len(rows)} invocations, {len(bad)} differ, {missing} golden lines unmatched")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv))
