"""The benchmark's output checks run against the program's real outputs:
`bench/selftest.py` feeds every check the real output of each command (and
wrong variants of it) and compares with the benchmark's own Fraction facts.
It writes only under the git-ignored bench/work/."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "0 self-test failures" in result.stdout.splitlines()
