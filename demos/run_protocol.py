"""Run the full three-method comparison through the command line.

Generates the benchmark once, then for each training seed trains
SourceOnly, Oracle, and SDA at both label budgets, evaluates every run on
the held-out target test split, and prints the summary table. With one
seed (--seed, default 42) it prints that seed's table; with --seeds 42-49
it prints each method's mean, standard deviation and min-max AP over the
seeds, and each seed's paired SDA 50 - Oracle 50 with its mean and
standard error. Every per-seed AP goes to protocol.json in --out. The
README's table is --seeds 42-49 (about 90 s a seed on one core); --quick
swaps in a miniature benchmark to exercise the same flow in seconds.
"""

import argparse
import json
import math
import statistics
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


def seed_range(text: str) -> list:
    """"42-49" (or one seed, "42") as the list of seeds it spans."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def summary(aps: dict, budgets: dict) -> str:
    """Mean, sd and min-max AP per method over the seeds of `aps`
    (seed -> run name -> final metrics), then SDA 50 - Oracle 50 per seed."""
    seeds = list(aps)
    lines = [f"AP over seeds {seeds[0]}-{seeds[-1]} ({len(seeds)} seeds)",
             "Method      Ims  mean    sd      min     max"]
    for name, mode, budget in RUNS:
        ap = [aps[s][name]["ap"] for s in seeds]
        ims = budgets[budget] if budget else 0
        lines.append(f"{mode:<10}  {ims:<3}  {statistics.mean(ap):.4f}  {statistics.stdev(ap):.4f}  "
                     f"{min(ap):.4f}  {max(ap):.4f}")
    diff = [aps[s]["sda_50"]["ap"] - aps[s]["oracle_50"]["ap"] for s in seeds]
    lines += ["", f"SDA {budgets['small']} - Oracle {budgets['small']} per seed: "
              + ", ".join(f"{s}: {d:+.4f}" for s, d in zip(seeds, diff)),
              f"mean {statistics.mean(diff):+.4f} +- {statistics.stdev(diff) / math.sqrt(len(diff)):.4f} "
              "(standard error)"]
    return "\n".join(lines) + "\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="protocol_out")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seeds", type=seed_range,
                    help="training seeds, e.g. 42-49: each runs the five methods")
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--quick", action="store_true",
                    help="miniature benchmark and step count, same flow")
    args = ap.parse_args()
    seeds = args.seeds or [args.seed]

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

    t_start = t0 = time.time()
    if lirrdet(gen) != 0:
        raise SystemExit("benchmark generation failed")
    print(f"benchmark generated in {time.time() - t0:.1f}s -> {data}")

    aps = {}
    for seed in seeds:
        run_dir = out if len(seeds) == 1 else out / f"seed{seed}"
        reports = []
        for name, mode, budget in RUNS:
            cfg = {
                "mode": mode,
                "target_test_path": str(data / "target_test.bin"),
                "image_size": size,
                "widths": widths,
                "seed": seed,
                "steps": steps,
                "eval_cadence": steps,
                "out_dir": str(run_dir / name),
            }
            if mode != "Oracle":
                cfg["source_path"] = str(data / "source_train.bin")
            if budget is not None:
                cfg["target_train_path"] = str(data / "target_train_full.bin")
                cfg["label_budget"] = budgets[budget]
            run_dir.mkdir(parents=True, exist_ok=True)
            cfg_path = run_dir / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg, indent=2))

            t0 = time.time()
            if lirrdet(["train", "--config", str(cfg_path)]) != 0:
                raise SystemExit(f"training failed: {name} (seed {seed})")
            print(f"  seed {seed} {name}: {time.time() - t0:.1f}s")
            reports.append(str(run_dir / name / "run_report.json"))
        aps[seed] = {name: {k: json.loads(Path(r).read_text())["final"][k] for k in ("ap", "ap50", "ap75")}
                     for (name, *_), r in zip(RUNS, reports)}
        if len(seeds) == 1:
            print()
            lirrdet(["report", *reports])

    wall = time.time() - t_start
    (out / "protocol.json").write_text(json.dumps(
        {"seeds": seeds, "steps": steps, "quick": args.quick, "wall_s": round(wall, 1),
         "ap": {str(s): runs for s, runs in aps.items()}}, indent=2) + "\n")
    if len(seeds) > 1:
        print()
        print(summary(aps, budgets), end="")
    print(f"wall time {wall:.0f}s for {len(seeds)} seed(s) of {steps} steps -> {out / 'protocol.json'}")


if __name__ == "__main__":
    main()
