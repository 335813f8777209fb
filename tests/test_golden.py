"""Byte-identical command-line output: the digests of `scripts/golden.py`.

Each line of `tests/data/cli_golden.txt` is the sha256 of (exit code,
stdout, stderr) of one in-process `cli.main` call.  After a deliberate
output change, regenerate the file with `python3 scripts/golden.py --write`
and say so in the change log.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


def _golden_module():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_cli_output_matches_golden_digests():
    golden = _golden_module()
    want = golden.read_golden()
    got = golden.compute()
    assert [cmd for cmd, _ in got] == [cmd for cmd, _ in want]
    differ = [cmd for (cmd, d), (_, w) in zip(got, want) if d != w]
    assert not differ, differ[:10]
