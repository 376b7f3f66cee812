"""The benchmark's traced run, perfbench/traced_cli.py, wraps every layer right after
`import gpfq.cli`, before any layer has run; it must still trace and answer like a plain run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["density", "greedy", "--q", "2", "--digits", "6"], ("density", "numeric")),
        (["factor", "--q", "4", "x^3+1"], ("factor", "polyring")),
        # each command reaches its layers through gpfq.cli's names, which the harness wraps
        (["tables", "--which", "1"], ("tables", "density", "numeric")),
        (["extremal", "--q", "2", "--max-degree", "3"], ("progfree", "polyring")),
        # the check runs in progsearch, a module the harness does not list, so its time is booked to cli
        (["progcheck", "--q", "2", "--file", "FILE"], ("polyring",)),
        (["figure1", "--qmax", "5"], ("density", "numeric")),
        (["checkpoint", "--q", "2", "--k", "3"], ("density",)),
        # the only ops that render a non-Interval value (upper-simple's exact Fraction), which the
        # harness reads through numeric.Fraction
        (["tables", "--which", "3"], ("tables", "density", "numeric")),
        (["density", "upper-simple", "--q", "5", "--digits", "9"], ("density", "numeric")),
    ],
)
def test_traced_run_answers_like_a_plain_run(tmp_path, argv, layers):
    (tmp_path / "members.txt").write_text("1\nx+1\nx\nx^2\n")
    argv = [str(tmp_path / "members.txt") if arg == "FILE" else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    plain = subprocess.run(
        [sys.executable, "-m", "gpfq.cli", *argv], capture_output=True, text=True, timeout=30, env=env,
    )
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(HARNESS), str(trace), *argv], capture_output=True, text=True, timeout=30, env=env,
    )
    assert (traced.returncode, plain.returncode) == (0, 0), traced.stderr[-300:]
    assert traced.stdout == plain.stdout
    calls = json.loads(trace.read_text())["calls"]
    assert [layer for layer in layers if calls[layer] == 0] == []
