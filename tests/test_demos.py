"""The demos end quietly when the reader of their output stops early."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stops_quietly_on_a_closed_pipe(demo):
    # the reader is gone before the demo starts, so its first write meets a
    # closed pipe however fast the demo runs; `demo | head -1` is the same case
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, str(demo)], stdout=write_end, stderr=subprocess.PIPE,
            env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == -signal.SIGPIPE
