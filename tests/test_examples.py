"""The example hunts' command lines: local shards only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_example(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", ["fsp_trojan_hunt.py",
                                    "raft_trojan_hunt.py"])
def test_hunt_example_takes_no_hosts(script):
    result = _run_example(script, "--hosts", "hostA:9100")
    assert result.returncode == 2
    assert "--hosts" in result.stderr
