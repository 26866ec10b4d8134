"""Smoke runs of the demo scripts, so an API change they rely on cannot
break them unnoticed. Each runs in a subprocess on a miniature setting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lirrdet

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script,args,summary", [
    ("run_protocol.py", ["--quick", "--out", "{tmp}"], "Method      Ims  AP      AP50    AP75"),
    ("render_benchmark.py", ["--count", "2", "--size", "32"], "bit-identical = True"),
    ("domain_confusion.py", ["--steps", "20"], "joint model:"),
])
def test_demo_runs(tmp_path, script, args, summary):
    src_dir = str(Path(lirrdet.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script),
                           *(a.format(tmp=tmp_path / "out") for a in args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stdout
