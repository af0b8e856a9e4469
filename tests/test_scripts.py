"""The helper scripts CI runs: tests/code_lines.py."""

import os
import subprocess
import sys
from pathlib import Path

import rfloc

SCRIPT = Path(__file__).with_name("code_lines.py")
ENV = {**os.environ, "PYTHONPATH": str(Path(rfloc.__file__).parents[1])}


def test_code_lines_counts_each_methods_config_keys():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, env=ENV, check=True
    ).stdout
    counts = {}
    for line in out.split("settable config keys (--set):\n")[1].splitlines():
        count, _, rest = line.strip().partition("  ")
        command, _, keys = rest.partition(": ")
        assert int(count) == len(keys.split(", ")), line
        counts[command] = int(count)
    assert counts["adapt mtloc"] == counts["cv mtloc"] == 6
    assert counts["adapt mtloc-conf"] == counts["cv mtloc-conf"] == 10
    assert counts["adapt shot"] == 12


def test_code_lines_ends_quietly_on_a_closed_pipe():
    # The reader is gone before the script writes a line, as with `| head`
    # on a slow start.
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == ""
