"""Command line front end: gen, train, eval, report.

gen writes the four benchmark splits as dataset files, train runs one
experiment from a flat JSON config, eval recomputes metrics from a saved
checkpoint, and report merges finished runs into one comparison table.
Operational failures (missing files, an output path that is not a
directory, bad configs, a non-finite loss) print one error line naming the
cause and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .container import atomic_open
from .jsonconfig import read_json
from .pipeline import ExperimentConfig, Mode, RunReport, evaluate_checkpoint, run_experiment
from .synthgen import BenchmarkConfig, DatasetError, RenderError, make_benchmark, save_dataset


def _cmd_gen(args) -> int:
    cfg = BenchmarkConfig()
    if args.config:
        cfg = BenchmarkConfig.from_dict(read_json(args.config, "config"))
    if args.seed is not None:
        cfg = replace(cfg, scene=replace(cfg.scene, seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # fail on a bad --out before rendering
    splits = make_benchmark(cfg)
    for split in fields(splits):
        path, samples = out / f"{split.name}.bin", getattr(splits, split.name)
        save_dataset(samples, path, config=cfg.to_dict())
        print(f"wrote {path} ({len(samples)} images)")
    with atomic_open(out / "benchmark_config.json") as f:
        f.write(json.dumps(cfg.to_dict(), indent=2) + "\n")
    return 0


def _load_experiment_config(path: str) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config not found: {path}")
    d = read_json(p, "config")
    if isinstance(d, dict) and "config" in d and "eval_series" in d:
        # a run report; use its embedded echo, minus the retired no-op
        # "deterministic" key that older reports carry
        if not isinstance(d["config"], dict):
            raise ValueError(f"{path}: run report key config must be a JSON object, got {d['config']!r}")
        d = {k: v for k, v in d["config"].items() if k != "deterministic"}
    return ExperimentConfig.from_dict(d)


def _cmd_train(args) -> int:
    cfg = _load_experiment_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    report = run_experiment(cfg)
    f = report.final
    print(f"{cfg.mode.value} seed={cfg.seed} steps={cfg.steps} "
          f"ap={f['ap']:.4f} ap50={f['ap50']:.4f} ap75={f['ap75']:.4f}")
    print(f"report: {Path(cfg.out_dir) / 'run_report.json'}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_experiment_config(args.config)
    ap, records = evaluate_checkpoint(cfg, checkpoint_path=args.checkpoint)
    print(json.dumps(ap.to_dict(), indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_open(out / "eval_report.json") as f:
            f.write(json.dumps(ap.to_dict(), indent=2) + "\n")
        from .detector.inference import save_detections
        save_detections(out / "detections.jsonl", records)
    return 0


_MODE_ORDER = {Mode.SOURCE_ONLY.value: 0, Mode.ORACLE.value: 1, Mode.SDA.value: 2}


def _table_rows(report_paths) -> list:
    rows = []
    for path in report_paths:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"run report not found: {path}")
        rep = RunReport.load(p)
        mode = rep.config["mode"]
        ims = 0 if mode == Mode.SOURCE_ONLY.value else rep.config["label_budget"]
        rows.append((mode, ims, rep.final["ap"], rep.final["ap50"], rep.final["ap75"]))
    rows.sort(key=lambda r: (_MODE_ORDER.get(r[0], 99), r[1]))
    return rows


def format_table(rows) -> str:
    header = ("Method", "Ims", "AP", "AP50", "AP75")
    body = [(m, str(ims), f"{ap:.4f}", f"{a50:.4f}", f"{a75:.4f}")
            for m, ims, ap, a50, a75 in rows]
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(header)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([line(header)] + [line(r) for r in body]) + "\n"


def _cmd_report(args) -> int:
    rows = _table_rows(args.reports)
    text = format_table(rows)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_open(out / "table.txt") as f:
            f.write(text)
        with atomic_open(out / "table.csv", newline="") as f:
            w = csv.writer(f)
            w.writerow(("Method", "Ims", "AP", "AP50", "AP75"))
            w.writerows(rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lirrdet",
                                     description="domain-adaptive detection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="render benchmark splits to dataset files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="benchmark config JSON")
    p.add_argument("--seed", type=int, help="override the scene seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="run one experiment from a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="recompute metrics from a checkpoint")
    p.add_argument("--config", required=True,
                   help="experiment config JSON or a finished run_report.json")
    p.add_argument("--checkpoint", help="checkpoint path (default: out_dir/checkpoint.bin)")
    p.add_argument("--out", help="directory for eval_report.json and detections")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="merge run reports into one table")
    p.add_argument("reports", nargs="+", help="run_report.json paths")
    p.add_argument("--out", help="directory for table.txt and table.csv")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has already printed usage
        return int(e.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, DatasetError,  # CheckpointError is a RuntimeError
            RenderError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # a size that numpy or a list cannot allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
