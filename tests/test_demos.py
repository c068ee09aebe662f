"""Every demo script runs to completion against the source tree and prints
exactly its frozen output, held here as the sha256 of its stdout."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

STDOUT_SHA256 = {
    "01_exact_group_law.py": "d2fa8027235c485a2448123133ccad2534a0499779af05c6f264d74108e9c267",
    "02_point_counting.py": "4f7eeb486d1613d17fb3bc49ca51cb0ebaf1cd9ba23ca16d11a591b7fc49d4d5",
    "03_torsion_certificates.py": "bd4e72fd666443a72dd8ffe0bf2f679d83e1100d143a12f357da59f6b6bcd9aa",
    "04_rank_certificates.py": "ff6fd4accaa4561b6ab714aeaa4d3aa62d61241fb843ac3dc3a84c56647a4f1e",
    "05_parameter_sweep.py": "814a0b882f85dc71e5d89b324318e35aef1f0a973a89a7e6a14fc37e59e1cd18",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
