"""The benchmark's hooks into the kernel: ``perfbench/run.py --self-check``
swaps ``rewrite._Fuel`` for a counting tank and wraps ``surface.declare``,
then runs every workload's requests twice and compares their counts."""

import ast
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_perfbench_self_check_counts():
    done = subprocess.run(
        [sys.executable, "-B", str(RUN), "--self-check"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    counts = {}
    for line in done.stdout.splitlines():
        if line.startswith(("self-check user:", "self-check oracle:")):
            counts[line.split()[1].rstrip(":")] = ast.literal_eval(line[line.index("{") :])
    assert counts == {
        "user": {"surface.core_nodes": 2_176, "nbe.nf_nodes": 314},
        "oracle": {
            "nbe.nf_nodes": 6_444,
            "rewrite.beta_iota_steps": 9_577,
            "gen.attempts": 1_107,
            "gen.cases": 960,
            "surface.core_nodes": 181,
        },
    }, done.stdout
    assert "self-check mul 10 10 --oracle: 121 beta/iota steps" in done.stdout, done.stdout
