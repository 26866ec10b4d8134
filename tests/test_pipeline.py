"""Experiment runner and CLI: config handling, mode isolation, artifacts,
determinism, and the gen/train/eval/report flow on a miniature benchmark."""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import _step_ref
import lirrdet
from lirrdet.autodiff import SGD, CheckpointError, load_checkpoint, save_checkpoint
from lirrdet.cli import main
from lirrdet.detector.model import Detector, ModelSpec
from lirrdet.lirr import DomainClassifier, LirrConfig, train_step
from lirrdet.pipeline import (ExperimentConfig, Mode, RunReport, batch_schedule,
                              evaluate_checkpoint, run_experiment)
from lirrdet.synthgen import (BenchmarkConfig, SceneSpec, load_dataset,
                              make_benchmark, save_dataset)

TINY_WIDTHS = (8, 16, 24, 32)
# a losses.jsonl line: the step and every LossBreakdown field, in every mode
LOG_KEYS = {"step", "l_rep", "l_i", "l_d", "l_risk", "l_total",
            "l_i_cls", "l_i_loc", "l_d_cls", "l_d_loc"}


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = BenchmarkConfig(scene=SceneSpec(size=32, seed=7), source_count=12,
                          target_train_small=4, target_train_full=6,
                          target_test_count=6)
    splits = make_benchmark(cfg)
    names = {"source_train.bin": splits.source_train,
             "target_train_small.bin": splits.target_train_small,
             "target_train_full.bin": splits.target_train_full,
             "target_test.bin": splits.target_test}
    for name, samples in names.items():
        save_dataset(samples, out / name, config=cfg.to_dict())
    return out


def tiny_config(bench, out_dir, mode="SDA", **kw):
    base = dict(mode=mode,
                source_path=str(bench / "source_train.bin"),
                target_train_path=str(bench / "target_train_full.bin"),
                target_test_path=str(bench / "target_test.bin"),
                label_budget=4, image_size=32, widths=TINY_WIDTHS,
                batch_size=2, steps=4, eval_cadence=2, seed=3,
                out_dir=str(out_dir))
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_materialize_in_echo(self):
        cfg = ExperimentConfig(source_path="s", target_train_path="t",
                               target_test_path="e")
        d = cfg.to_dict()
        assert d["mode"] == "SDA"
        assert d["steps"] == 2000 and d["eval_cadence"] == 200
        assert d["widths"] == [16, 32, 48, 64]
        assert d["label_budget"] == 50
        assert set(d) == {f for f in d}  # all keys JSON-safe strings
        json.dumps(d)

    def test_round_trip(self):
        cfg = ExperimentConfig(mode="Oracle", target_train_path="t",
                               target_test_path="e", seed=9, lr=0.01)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys.*learning_rate"):
            ExperimentConfig.from_dict({"learning_rate": 0.1})

    @pytest.mark.parametrize("key,value,match", [
        ("lr", True, "lr must be a number"),
        ("steps", 10.5, "steps must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("widths", [8, 16, "24", 32], r"widths\[2\] must be an integer"),
        ("mode", 1, "mode must be a string"),
    ])
    def test_wrong_json_type_rejected(self, key, value, match):
        d = {"source_path": "s", "target_train_path": "t", "target_test_path": "e", key: value}
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict(d)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="Finetune", source_path="s",
                             target_train_path="t", target_test_path="e")

    @pytest.mark.parametrize("field,value", [
        ("steps", 0), ("batch_size", 0), ("label_budget", -1),
        ("eval_cadence", 0), ("lr", -0.1), ("momentum", 1.0),
        ("widths", (16, 32, 48)), ("widths", (16, 32, 48, 64, 80)),
        ("image_size", 60), ("image_size", 40), ("image_size", 0),
        ("lambda_rep", -1.0), ("lambda_risk", -0.5), ("grl_lambda", -0.1),
    ])
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(source_path="s", target_train_path="t",
                             target_test_path="e", **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("lr", math.nan), ("lr", math.inf), ("momentum", math.nan), ("lambda_rep", -math.inf),
        ("lambda_risk", math.nan), ("grl_lambda", math.inf),
    ])
    def test_non_finite_number_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ExperimentConfig(source_path="s", target_train_path="t",
                             target_test_path="e", **{field: value})

    @pytest.mark.parametrize("mode,missing", [
        ("SourceOnly", "source_path"),
        ("Oracle", "target_train_path"),
        ("SDA", "target_train_path"),
        ("SDA", "source_path"),
        ("SourceOnly", "target_test_path"),
    ])
    def test_required_paths_per_mode(self, mode, missing):
        paths = {"source_path": "s", "target_train_path": "t",
                 "target_test_path": "e"}
        paths[missing] = ""
        with pytest.raises(ValueError, match=missing):
            ExperimentConfig(mode=mode, **paths)

    def test_source_only_needs_no_target_train(self):
        cfg = ExperimentConfig(mode="SourceOnly", source_path="s",
                               target_test_path="e")
        assert cfg.target_train_path == ""


class TestBatchSchedule:
    def test_deterministic(self):
        a = batch_schedule(10, 4, 7, seed=5, stream=1)
        b = batch_schedule(10, 4, 7, seed=5, stream=1)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (7, 4)

    def test_epochs_are_permutations(self):
        table = batch_schedule(6, 3, 8, seed=0, stream=2).ravel()
        for k in range(0, len(table) - 5, 6):
            assert sorted(table[k:k + 6]) == list(range(6))

    def test_streams_differ(self):
        a = batch_schedule(50, 4, 10, seed=5, stream=1)
        b = batch_schedule(50, 4, 10, seed=5, stream=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 3, 8, 13])
    def test_matches_the_list_growing_table(self, n):
        for batch_size, steps, seed, stream in itertools.product((1, 4, 8), (1, 5, 26), (0, 7), (1, 2)):
            got = batch_schedule(n, batch_size, steps, seed, stream)
            want = _step_ref.batch_schedule(n, batch_size, steps, seed, stream)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)


class TestRunExperiment:
    def test_sda_artifacts(self, bench, tmp_path):
        cfg = tiny_config(bench, tmp_path / "run")
        report = run_experiment(cfg)
        out = tmp_path / "run"
        for name in ("run_report.json", "losses.jsonl", "checkpoint.bin",
                     "detections.jsonl"):
            assert (out / name).is_file(), name

        lines = [json.loads(l) for l in (out / "losses.jsonl").read_text().splitlines()]
        assert [l["step"] for l in lines] == [1, 2, 3, 4]
        assert all(set(l) == LOG_KEYS for l in lines)

        assert [e["step"] for e in report.eval_series] == [2, 4]
        assert set(report.final) == {"ap", "ap50", "ap75", "per_threshold", "thresholds"}
        assert report.counters == {"source_samples": 8, "target_train_samples": 8}
        assert report.version == lirrdet.__version__
        assert report.wall_clock_sec > 0

        on_disk = RunReport.load(out / "run_report.json")
        assert on_disk.to_dict() == report.to_dict()

    def test_source_only_never_opens_target_train(self, bench, tmp_path):
        # the target-train path is a lie; only true isolation survives this
        cfg = tiny_config(bench, tmp_path, mode="SourceOnly",
                          target_train_path=str(bench / "no_such_file.bin"))
        report = run_experiment(cfg)
        assert report.counters["target_train_samples"] == 0
        assert report.counters["source_samples"] == cfg.steps * cfg.batch_size

    def test_oracle_never_opens_source(self, bench, tmp_path):
        cfg = tiny_config(bench, tmp_path, mode="Oracle",
                          source_path=str(bench / "no_such_file.bin"))
        report = run_experiment(cfg)
        assert report.counters["source_samples"] == 0
        assert report.counters["target_train_samples"] == cfg.steps * cfg.batch_size

    def test_budget_is_prefix_of_full_split(self, bench, tmp_path):
        full = run_experiment(tiny_config(bench, tmp_path / "a", mode="Oracle"))
        small = run_experiment(tiny_config(
            bench, tmp_path / "b", mode="Oracle",
            target_train_path=str(bench / "target_train_small.bin")))
        assert full.final == small.final
        assert (tmp_path / "a" / "losses.jsonl").read_bytes() == \
               (tmp_path / "b" / "losses.jsonl").read_bytes()

    def test_budget_exceeding_split_rejected(self, bench, tmp_path):
        cfg = tiny_config(bench, tmp_path, mode="Oracle", label_budget=7)
        with pytest.raises(ValueError, match="label budget 7 exceeds"):
            run_experiment(cfg)

    def test_missing_dataset_named(self, bench, tmp_path):
        cfg = tiny_config(bench, tmp_path,
                          source_path=str(bench / "gone.bin"))
        with pytest.raises(FileNotFoundError, match="gone.bin"):
            run_experiment(cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_step(self, bench, tmp_path):
        cfg = tiny_config(bench, tmp_path, mode="SourceOnly", steps=40,
                          lr=1e8, momentum=0.9)
        with pytest.raises(RuntimeError, match="non-finite training loss at step"):
            run_experiment(cfg)

    def test_runs_are_bit_deterministic(self, bench, tmp_path):
        a = run_experiment(tiny_config(bench, tmp_path / "a"))
        b = run_experiment(tiny_config(bench, tmp_path / "b"))
        assert a.eval_series == b.eval_series
        assert a.final == b.final
        assert (tmp_path / "a" / "losses.jsonl").read_bytes() == \
               (tmp_path / "b" / "losses.jsonl").read_bytes()
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
               (tmp_path / "b" / "checkpoint.bin").read_bytes()

    def test_eval_reproduces_final_exactly(self, bench, tmp_path):
        cfg = tiny_config(bench, tmp_path)
        report = run_experiment(cfg)
        ap, records = evaluate_checkpoint(cfg)
        assert ap.to_dict() == report.final
        dumped = [json.loads(l) for l in (tmp_path / "detections.jsonl").read_text().splitlines()]
        assert len(dumped) == len(records)

    def test_checkpoint_of_other_widths_rejected(self, bench, tmp_path):
        cfg = tiny_config(bench, tmp_path)
        run_experiment(cfg)
        wider = replace(cfg, widths=(8, 16, 24, 48))
        with pytest.raises(CheckpointError, match="checkpoint.bin"):
            evaluate_checkpoint(wider)

    def test_config_echo_closure(self, bench, tmp_path):
        report = run_experiment(tiny_config(bench, tmp_path / "a"))
        echoed = ExperimentConfig.from_dict(report.config)
        rerun = run_experiment(replace(echoed, out_dir=str(tmp_path / "b")))
        assert rerun.final == report.final
        assert rerun.eval_series == report.eval_series


class TestOneTrainingPath:
    """Every mode runs lirr.train_step; the supervised modes keep the bits of
    the hand-built supervised step they ran before (tests/_step_ref.py)."""

    @pytest.mark.parametrize("mode", ["SourceOnly", "Oracle"])
    def test_supervised_modes_match_reference_loop(self, bench, tmp_path, mode):
        cfg = tiny_config(bench, tmp_path, mode=mode, steps=6)
        report = run_experiment(cfg)
        logged = [json.loads(l)["l_total"] for l in Path(report.losses_path).read_text().splitlines()]
        model, losses = _step_ref.supervised_run(cfg)
        assert logged == losses
        saved = load_checkpoint(report.checkpoint_path)
        assert set(saved) == {f"model.{name}" for name, _ in model.named_parameters()}
        for name, param in model.named_parameters():
            assert saved[f"model.{name}"].tobytes() == param.data.tobytes(), name

    def test_every_mode_logs_the_same_ten_keys(self, bench, tmp_path):
        for mode in ("SourceOnly", "Oracle", "SDA"):
            report = run_experiment(tiny_config(bench, tmp_path / mode, mode=mode))
            lines = [json.loads(l) for l in Path(report.losses_path).read_text().splitlines()]
            assert [l["step"] for l in lines] == [1, 2, 3, 4]
            assert all(set(l) == LOG_KEYS for l in lines), mode
            for l in lines:
                if mode == "SDA":
                    assert l["l_d"] > 0.0 and l["l_rep"] != 0.0
                    continue
                assert l["l_d"] == l["l_rep"] == l["l_d_cls"] == l["l_d_loc"] == 0.0
                assert l["l_i"] == l["l_risk"] == l["l_total"] > 0.0
                assert l["l_i_cls"] + l["l_i_loc"] == pytest.approx(l["l_i"], rel=1e-5)


_TWENTY_SDA_STEPS = """
import hashlib
import numpy as np
from lirrdet.autodiff import SGD
from lirrdet.detector import Detector, ModelSpec
from lirrdet.lirr import DomainClassifier, DomainLabel, LirrConfig, train_step
from lirrdet.synthgen import SOURCE_DOMAIN, TARGET_DOMAIN, SceneSpec, render_scene

scene = SceneSpec(size=64, seed=0)
src = [render_scene(scene, SOURCE_DOMAIN, i) for i in range(8)]
tgt = [render_scene(scene, TARGET_DOMAIN, 100 + i, domain=DomainLabel.TARGET)
       for i in range(8)]
rng = np.random.default_rng(0)
model = Detector(ModelSpec(), rng=rng)
classifier = DomainClassifier(64, rng=rng)
params = model.parameters() + classifier.parameters()
opt = SGD(params, lr=0.005, momentum=0.5)
for _ in range(20):
    train_step(src, tgt, model, classifier, opt, LirrConfig())
digest = hashlib.sha256()
for p in params:
    digest.update(p.data.tobytes())
print(digest.hexdigest())
"""


def test_parameters_do_not_depend_on_blas_threads():
    src_dir = str(Path(lirrdet.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _TWENTY_SDA_STEPS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


# Four 4 MB temporaries per step, as a training step makes and frees them; prints the
# minor page faults of steps 2-10, after the first has grown the heap.
_STEP_TEMPORARIES = """
import resource
import numpy as np
import lirrdet

def step():
    return sum(float(a[0]) for a in [np.ones(1 << 19) for _ in range(4)])

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(9):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc thresholds")
def test_a_step_reuses_the_heap_the_last_step_freed():
    # with glibc's starting thresholds the nine steps fault about 18,000 pages in again; 0 now
    src_dir = str(Path(lirrdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _STEP_TEMPORARIES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000, proc.stdout


class TestSdaReducesToJointSupervised:
    def test_zero_weights_match_manual_joint_loop(self, bench, tmp_path):
        """With both objective weights at zero the SDA pipeline must walk the
        same trajectory as a plain joint-supervised loop over the same
        batch schedule (the loss math identity is covered in the lirr tests;
        this pins the pipeline's seeding, scheduling, and logging)."""
        cfg = tiny_config(bench, tmp_path / "run", lambda_rep=0.0,
                          lambda_risk=0.0, steps=6)
        report = run_experiment(cfg)
        lines = [json.loads(l) for l in (tmp_path / "run" / "losses.jsonl").read_text().splitlines()]
        logged = [l["l_total"] for l in lines]
        # a zero weight skips a term's graph, not its value: SDA still reports both
        assert all(l["l_d"] > 0.0 and l["l_rep"] < 0.0 for l in lines)

        source = load_dataset(bench / "source_train.bin").samples
        source.sort(key=lambda s: s.image_id)
        target = load_dataset(bench / "target_train_full.bin").samples
        target.sort(key=lambda s: s.image_id)
        target = target[:cfg.label_budget]

        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
        model = Detector(ModelSpec(image_size=32, widths=TINY_WIDTHS), rng=rng)
        clf = DomainClassifier(TINY_WIDTHS[-1], rng=rng)
        opt = SGD(list(model.parameters()) + list(clf.parameters()),
                  lr=cfg.lr, momentum=cfg.momentum)
        zero = LirrConfig(lambda_rep=0.0, lambda_risk=0.0)
        src_sched = batch_schedule(len(source), cfg.batch_size, cfg.steps, cfg.seed, 1)
        tgt_sched = batch_schedule(len(target), cfg.batch_size, cfg.steps, cfg.seed, 2)

        manual = []
        for k in range(cfg.steps):
            bd = train_step([source[i] for i in src_sched[k]],
                            [target[i] for i in tgt_sched[k]],
                            model, clf, opt, zero)
            manual.append(bd.l_total)
        assert manual == logged

        saved = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(saved[f"model.{name}"], param.data)


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    cfg_path = out / "bench.json"
    cfg_path.write_text(json.dumps({
        "scene": {"size": 32, "seed": 11}, "source_count": 8,
        "target_train_small": 3, "target_train_full": 4,
        "target_test_count": 4}))
    assert main(["gen", "--out", str(out / "data"),
                 "--config", str(cfg_path)]) == 0
    return out / "data"


@pytest.fixture(scope="module")
def trained(gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = {"mode": "SDA", "source_path": str(gen_dir / "source_train.bin"),
           "target_train_path": str(gen_dir / "target_train_full.bin"),
           "target_test_path": str(gen_dir / "target_test.bin"),
           "label_budget": 3, "image_size": 32, "widths": list(TINY_WIDTHS),
           "batch_size": 2, "steps": 3, "eval_cadence": 3,
           "seed": 5, "out_dir": str(out / "run")}
    (out / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(out / "cfg.json")]) == 0
    return out


class TestCli:
    def test_gen_writes_loadable_splits(self, gen_dir):
        counts = {"source_train.bin": 8, "target_train_small.bin": 3,
                  "target_train_full.bin": 4, "target_test.bin": 4}
        for name, n in counts.items():
            ds = load_dataset(gen_dir / name)
            assert len(ds.samples) == n
            assert ds.config["scene"]["size"] == 32
        echoed = json.loads((gen_dir.parent / "data" / "benchmark_config.json").read_text())
        assert echoed["source_count"] == 8

    def test_gen_seed_override(self, gen_dir, tmp_path):
        cfg_path = gen_dir.parent / "bench.json"
        assert main(["gen", "--out", str(tmp_path / "d2"),
                     "--config", str(cfg_path), "--seed", "99"]) == 0
        ds = load_dataset(tmp_path / "d2" / "source_train.bin")
        assert ds.config["scene"]["seed"] == 99
        base = load_dataset(gen_dir / "source_train.bin")
        assert not np.array_equal(ds.samples[0].image, base.samples[0].image)

    def test_train_writes_report(self, trained, capsys):
        report = json.loads((trained / "run" / "run_report.json").read_text())
        assert report["final"]["ap"] >= 0.0

    def test_train_seed_and_out_overrides(self, trained, tmp_path):
        assert main(["train", "--config", str(trained / "cfg.json"),
                     "--seed", "17", "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "run_report.json").read_text())
        assert report["config"]["seed"] == 17
        assert report["config"]["out_dir"] == str(tmp_path / "o")

    def test_eval_matches_trained_final(self, trained, capsys):
        assert main(["eval", "--config",
                     str(trained / "run" / "run_report.json")]) == 0
        printed = json.loads(capsys.readouterr().out)
        report = json.loads((trained / "run" / "run_report.json").read_text())
        assert printed == report["final"]

    def test_eval_rejects_report_with_retired_deterministic_key(self, trained, tmp_path, capsys):
        # reports written while the no-op --deterministic flag existed echo it;
        # their config no longer loads
        report = json.loads((trained / "run" / "run_report.json").read_text())
        report["config"]["deterministic"] = False
        old = tmp_path / "run_report.json"
        old.write_text(json.dumps(report))
        assert main(["eval", "--config", str(old)]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown config keys: ['deterministic']\n"

    def test_eval_rejects_checkpoint_of_another_model(self, trained, tmp_path, capsys):
        other = tmp_path / "other.bin"
        save_checkpoint(other, {"model.conv9.weight": np.zeros((2, 2), dtype=np.float32)})
        assert main(["eval", "--config", str(trained / "run" / "run_report.json"),
                     "--checkpoint", str(other)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(other) in err
        assert "Traceback" not in err

    def test_eval_out_dir(self, trained, tmp_path, capsys):
        assert main(["eval", "--config", str(trained / "run" / "run_report.json"),
                     "--out", str(tmp_path / "ev")]) == 0
        capsys.readouterr()
        saved = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        report = json.loads((trained / "run" / "run_report.json").read_text())
        assert saved == report["final"]
        assert (tmp_path / "ev" / "detections.jsonl").is_file()

    def test_report_table_order_and_csv(self, tmp_path, capsys):
        import csv as csv_mod
        rows = [("SDA", 50, 0.48), ("SourceOnly", 50, 0.12),
                ("Oracle", 100, 0.51), ("Oracle", 50, 0.35)]
        paths = []
        for i, (mode, budget, ap) in enumerate(rows):
            rep = RunReport(config={"mode": mode, "label_budget": budget},
                            final={"ap": ap, "ap50": ap + 0.3, "ap75": ap / 2})
            p = tmp_path / f"r{i}.json"
            rep.save(p)
            paths.append(str(p))
        assert main(["report", *paths, "--out", str(tmp_path / "tbl")]) == 0
        text = (tmp_path / "tbl" / "table.txt").read_text()
        lines = text.strip().splitlines()
        assert lines[0].split() == ["Method", "Ims", "AP", "AP50", "AP75"]
        assert [l.split()[0] for l in lines[1:]] == \
               ["SourceOnly", "Oracle", "Oracle", "SDA"]
        assert [l.split()[1] for l in lines[1:]] == ["0", "50", "100", "50"]
        with open(tmp_path / "tbl" / "table.csv") as f:
            got = list(csv_mod.reader(f))
        assert got[0] == ["Method", "Ims", "AP", "AP50", "AP75"]
        assert [r[0] for r in got[1:]] == ["SourceOnly", "Oracle", "Oracle", "SDA"]
        assert capsys.readouterr().out.startswith("Method")

    def test_unknown_flag_exits_nonzero_with_usage(self, capsys):
        assert main(["train", "--config", "x.json", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_missing_config_named(self, capsys):
        assert main(["train", "--config", "/no/such/config.json"]) == 1
        assert "/no/such/config.json" in capsys.readouterr().err

    def test_missing_dataset_named(self, tmp_path, capsys):
        cfg = {"mode": "SourceOnly", "source_path": str(tmp_path / "absent.bin"),
               "target_test_path": str(tmp_path / "absent.bin"),
               "out_dir": str(tmp_path / "run")}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(p)]) == 1
        assert "absent.bin" in capsys.readouterr().err

    def test_missing_report_named(self, capsys):
        assert main(["report", "/no/such/report.json"]) == 1
        assert "/no/such/report.json" in capsys.readouterr().err

    @pytest.mark.parametrize("content,key", [
        ([1, 2], "not a JSON object"),
        ({"zzz": 1}, "unknown run report keys ['zzz']"),
        ({"config": {"mode": "sda"}, "final": {}}, "config.label_budget"),
        ({"config": {"mode": "SDA", "label_budget": "5"}, "final": {}}, "config.label_budget"),
        ({"config": {"mode": ["SDA"], "label_budget": 5}}, "config.mode"),
        ({"config": {"mode": "SDA", "label_budget": 5}, "final": {"ap": 0.1, "ap50": 0.2}}, "final.ap75"),
        ({"config": {"mode": "SDA", "label_budget": 5}, "final": []}, "final.ap"),
        ({"config": {"mode": "SDA", "label_budget": 5},
          "final": {"ap": -10**400, "ap50": 0.2, "ap75": 0.1}}, "final.ap"),
        ({"config": {"mode": "SDA", "label_budget": 5},
          "final": {"ap": math.nan, "ap50": 0.2, "ap75": 0.1}}, "final.ap"),
        ({"config": {"mode": "SDA", "label_budget": 5},
          "final": {"ap": math.inf, "ap50": 0.2, "ap75": 0.1}}, "final.ap"),
        (b"not json", "not valid JSON"),
        (b"\xff\xfe", "not valid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "run report is not valid JSON"),
    ], ids=["array", "unknown-key", "no-label_budget", "label_budget-str", "mode-list",
            "no-ap75", "final-array", "ap-beyond-float", "ap-nan", "ap-infinity", "not-json",
            "not-utf8", "too-deep"])
    def test_malformed_report_named(self, tmp_path, capsys, content, key):
        p = tmp_path / "run_report.json"
        p.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        assert main(["report", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,config,message", [
        ("train", {"steps": "10"}, "config key steps must be an integer"),
        ("train", {"widths": 16}, "config key widths must be an array"),
        ("train", {"lr": None}, "config key lr must be a number"),
        ("gen", {"source_count": "5"}, "config key source_count must be an integer"),
        ("gen", {"source": {"noise_sigma": "x"}}, "config key source.noise_sigma must be a number"),
        ("gen", {"scene": {"foo": 1}}, "unknown config keys: ['scene.foo']"),
        ("gen", {"scene": {"polygon_sides": [3]}}, "polygon_sides"),
        ("train", b"not json", "cfg.json: config is not valid JSON"),
        ("train", b"\xff\xfe{}", "cfg.json: config is not valid JSON"),
        ("gen", b"not json", "cfg.json: config is not valid JSON"),
        ("gen", b"\xff\xfe{}", "cfg.json: config is not valid JSON"),
        pytest.param("train", b"[" * 100_000 + b"]" * 100_000,
                     "cfg.json: config is not valid JSON", id="train-too-deep"),
    ])
    def test_bad_config_value_reported(self, tmp_path, capsys, command, config, message):
        p = tmp_path / "cfg.json"
        if isinstance(config, bytes):  # a file that is not UTF-8 JSON
            p.write_bytes(config)
        else:
            if command == "train":
                config = {"source_path": "s", "target_train_path": "t",
                          "target_test_path": "e", **config}
            p.write_text(json.dumps(config))
        out = ["--out", str(tmp_path / "data")] if command == "gen" else []
        assert main([command, "--config", str(p), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_report_shaped_config_with_bad_config_key(self, tmp_path, capsys, command):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"config": [1], "eval_series": []}))
        assert main([command, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and "key config" in err
        assert len(err.splitlines()) == 1

    def test_bad_config_key_reported(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"modee": "SDA"}))
        assert main(["train", "--config", str(p)]) == 1
        assert "modee" in capsys.readouterr().err
