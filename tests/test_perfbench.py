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
    lines = [line for line in done.stdout.splitlines() if line.startswith("self-check oracle:")]
    assert len(lines) == 1, done.stdout
    counts = ast.literal_eval(lines[0][lines[0].index("{") :])
    assert counts["rewrite.beta_iota_steps"] == 9_555
    assert counts["gen.attempts"] == 1_107
    assert counts["gen.cases"] == 960
