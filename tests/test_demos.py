"""Smoke runs of the demo scripts and of README's Library example, so an
API change they rely on cannot break them unnoticed. Each script runs in a
subprocess on a miniature setting; the example runs as written."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lirrdet

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script,args,summary", [
    ("run_protocol.py", ["--quick", "--out", "{tmp}"], "Method      Ims  AP      AP50    AP75"),
    ("render_benchmark.py", ["--count", "2", "--size", "32"], "bit-identical = True"),
    ("domain_confusion.py", ["--steps", "20"], "joint model:"),
])
def test_demo_runs(tmp_path, script, args, summary):
    assert summary in _run_demo(script, [a.format(tmp=tmp_path / "out") for a in args])


def test_protocol_over_seeds_summarizes_and_writes_every_ap(tmp_path):
    out = _run_demo("run_protocol.py", ["--quick", "--seeds", "1-2", "--out", str(tmp_path)])
    assert "Method      Ims  mean    sd      min     max" in out
    assert "SDA 8 - Oracle 8 per seed: 1: " in out
    saved = json.loads((tmp_path / "protocol.json").read_text())
    assert set(saved) == {"seeds", "steps", "quick", "wall_s", "ap"} and saved["seeds"] == [1, 2]
    runs = {"source_only", "oracle_50", "oracle_100", "sda_50", "sda_100"}
    assert set(saved["ap"]) == {"1", "2"} and all(set(seed) == runs for seed in saved["ap"].values())
    assert all(set(run) == {"ap", "ap50", "ap75"} for seed in saved["ap"].values() for run in seed.values())


def _run_demo(script, args) -> str:
    """The demo's stdout; it must exit 0."""
    src_dir = str(Path(lirrdet.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_library_example_runs():
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md (Library)", "exec"), scope)
    assert math.isfinite(scope["bd"].l_total)
    assert isinstance(scope["dets"], list)
