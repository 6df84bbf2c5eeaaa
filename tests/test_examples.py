"""The example hunts' and the CLI's command lines: local shards only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        env=env, capture_output=True, text=True, timeout=120)


def _run_example(script, *args):
    return _run_python(str(ROOT / "examples" / script), *args)


@pytest.mark.parametrize("script", ["fsp_trojan_hunt.py",
                                    "raft_trojan_hunt.py"])
def test_hunt_example_takes_no_hosts(script):
    result = _run_example(script, "--hosts", "hostA:9100")
    assert result.returncode == 2
    assert "--hosts" in result.stderr


@pytest.mark.parametrize("command", [
    [str(ROOT / "examples" / "fsp_trojan_hunt.py")],
    [str(ROOT / "examples" / "raft_trojan_hunt.py")],
    ["-m", "repro", "fsp"]], ids=["fsp-example", "raft-example", "cli"])
def test_takes_no_worker_loss_policy(command):
    """A lost shard worker is always survived, so there is no policy
    flag to pick one."""
    result = _run_python(*command, "--on-worker-loss", "recover")
    assert result.returncode == 2
    assert "--on-worker-loss" in result.stderr
