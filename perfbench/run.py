"""Run one lirrdet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sda_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A fuller
report (environment, hashes, checks, sample counts) and, for a traced run,
the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is first imported, so every run uses one setting.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="sets the fixed number of training steps (steps per second x seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _print_table(report: dict) -> None:
    print(f"# lirrdet benchmark: workload={report['workload']} seed={report['seed']} "
          f"steps={report['steps']} trace={int(report['trace'])}")
    for key, value in report["environment"].items():
        print(f"#   {key}: {value}")
    for name, (value, unit) in report["metrics"].items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print("# reported, not bounded (ap: trained detector, AP@[.50:.95]):")
    for name, (value, unit) in report["reported"].items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(f"# failed {report['failed']} of {report['attempted']} operations")
    print(f"# samples: {report['samples']}")
    print(f"# checks (failures): {report['checks']}")
    for key in ("params_sha256", "detections_sha256", "dense_detections_sha256"):
        print(f"# {key}: {report[key]}")
    if "step_self_ms" in report:
        print("# self time per traced step (ms):")
        for name, ms in report["step_self_ms"]:
            print(f"#   {name:32s} {ms:10.4f}")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "lirrdet" / "__init__.py").is_file():
        print(f"perfbench: no lirrdet package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    if Path(harness.lirrdet.__file__).resolve().parent != (src / "lirrdet").resolve():
        print(f"perfbench: imported lirrdet from {harness.lirrdet.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR))
    try:
        report = harness.run(workload, args.seed, harness.steps_for(workload, args.seconds),
                             work, trace=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["environment"] = harness.environment(ROOT, args.seed, THREAD_VARS)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    reported = {k: {"value": v, "unit": u} for k, (v, u) in report["reported"].items()}
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**report, "metrics": metrics, "reported": reported}, indent=1) + "\n")

    _print_table(report)
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
