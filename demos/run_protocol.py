"""Run the full three-method comparison through the command line.

Generates the benchmark, trains SourceOnly, Oracle, and SDA at both label
budgets, evaluates every run on the held-out target test split, and prints
the summary table. Default settings reproduce the table in the README
(about three minutes on one core); --quick swaps in a miniature benchmark
to exercise the same flow in seconds.
"""

import argparse
import json
import time
from pathlib import Path

from lirrdet.cli import main as lirrdet

# name, mode, label budget key (None = mode reads no target labels)
RUNS = (
    ("source_only", "SourceOnly", None),
    ("oracle_50", "Oracle", "small"),
    ("oracle_100", "Oracle", "full"),
    ("sda_50", "SDA", "small"),
    ("sda_100", "SDA", "full"),
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="protocol_out")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--quick", action="store_true",
                    help="miniature benchmark and step count, same flow")
    args = ap.parse_args()

    out = Path(args.out)
    data = out / "data"
    out.mkdir(parents=True, exist_ok=True)

    gen = ["gen", "--out", str(data)]
    steps, size, widths = args.steps, 64, [16, 32, 48, 64]
    budgets = {"small": 50, "full": 100}
    if args.quick:
        bench = {"scene": {"size": 32, "seed": 7}, "source_count": 40,
                 "target_train_small": 8, "target_train_full": 16,
                 "target_test_count": 24}
        (out / "bench.json").write_text(json.dumps(bench))
        gen += ["--config", str(out / "bench.json")]
        steps, size, widths = min(steps, 60), 32, [8, 16, 24, 32]
        budgets = {"small": 8, "full": 16}

    t0 = time.time()
    if lirrdet(gen) != 0:
        raise SystemExit("benchmark generation failed")
    print(f"benchmark generated in {time.time() - t0:.1f}s -> {data}")

    reports = []
    for name, mode, budget in RUNS:
        cfg = {
            "mode": mode,
            "target_test_path": str(data / "target_test.bin"),
            "image_size": size,
            "widths": widths,
            "seed": args.seed,
            "steps": steps,
            "eval_cadence": steps,
            "out_dir": str(out / name),
        }
        if mode != "Oracle":
            cfg["source_path"] = str(data / "source_train.bin")
        if budget is not None:
            cfg["target_train_path"] = str(data / "target_train_full.bin")
            cfg["label_budget"] = budgets[budget]
        cfg_path = out / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))

        t0 = time.time()
        if lirrdet(["train", "--config", str(cfg_path)]) != 0:
            raise SystemExit(f"training failed: {name}")
        print(f"  {name}: {time.time() - t0:.1f}s")
        reports.append(str(out / name / "run_report.json"))

    print()
    lirrdet(["report", *reports])


if __name__ == "__main__":
    main()
