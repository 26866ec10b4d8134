"""The CLI boundary: every config or report file either works or gives one
`error:` line and exit status 1, never a traceback.

Generated JSON (valid files with up to three keys or items replaced,
dropped or added, and arbitrary JSON values) and raw bytes go through
`cli.main` for `train --config`, `eval --config`, `gen --config` and
`report`. The subject is the boundary, so `run_experiment`,
`evaluate_checkpoint` and `make_benchmark` are stubs that record the config
they get, and an accepted config must be well formed; the pipeline tests
cover the real runs. The last tests run the real commands, `gen` and
`train` in a child process with a time limit and an address-space limit:
an empty split, a split whose images do not fit the model, a class id the
model does not have and a size that cannot be allocated must each end in
one `error:` line. So must an `--out` that names a file or a path under
one, and a `--config` that names a directory.
"""

import copy
import functools
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lirrdet
from lirrdet import cli, container, pipeline
from lirrdet.lirr import DomainLabel
from lirrdet.pipeline import ExperimentConfig, RunReport
from lirrdet.synthgen import (BenchmarkConfig, BenchmarkSplits, Sample, SceneSpec, load_dataset,
                              make_benchmark, save_dataset)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# integers include ones no float can hold, which a JSON parser still reads
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -10**400]) | st.floats()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6)

_EXPERIMENT = ExperimentConfig(source_path="s.bin", target_train_path="t.bin",
                               target_test_path="x.bin").to_dict()
_BENCHMARK = BenchmarkConfig().to_dict()
_REPORT = RunReport(config=_EXPERIMENT, eval_series=[{"step": 1, "ap": 0.5}],
                    final={"ap": 0.5, "ap50": 0.75, "ap75": 0.25}).to_dict()
VALID = {"train": [_EXPERIMENT, _REPORT], "eval": [_EXPERIMENT, _REPORT],
         "gen": [_BENCHMARK], "report": [_REPORT]}
# a file per command with a negative seed or start, which the fuzz draws too rarely
NEGATIVE = {"train": {**_EXPERIMENT, "seed": -1}, "eval": {**_REPORT, "config": {**_EXPERIMENT, "seed": -2}},
            "gen": {**_BENCHMARK, "source_start": -3}, "report": {**_REPORT, "config": {**_EXPERIMENT, "seed": -1}}}


def _paths(node, depth, prefix=()):
    """Every key/index path into a parsed JSON document, down to `depth` levels."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items if depth else ():
        yield prefix + (key,)
        yield from _paths(child, depth - 1, prefix + (key,))


def _near(value):
    """Values of the same JSON type as `value`, which get past type checks;
    numbers include NaN and Infinity, which a JSON parser reads."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, (int, float)):
        return st.integers(-2, 10) | st.floats(-10.0, 10.0) \
            | st.sampled_from([math.nan, math.inf, -math.inf])
    return st.text(max_size=6) if isinstance(value, str) else st.nothing()


@st.composite
def _edited(draw, base):
    """`base` with up to three keys or items replaced, dropped or added."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc, draw(st.integers(1, 3))))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        node = functools.reduce(operator.getitem, parent, doc)
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace":
            node[key] = draw(_near(node[key]) | JSON_VALUES)
        elif action == "drop":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        else:
            node.append(draw(JSON_VALUES))
    return doc


def _contents(command):
    docs = st.one_of(*(_edited(base) for base in VALID[command]), JSON_VALUES)
    return docs.map(lambda d: json.dumps(d).encode()) | st.binary(max_size=64)


def _typed_like(value, default) -> bool:
    """Whether `value` has the JSON types of `default`; an integer may fill a
    float, and a number there is finite as a float."""
    if isinstance(default, dict):
        return isinstance(value, dict) and value.keys() == default.keys() \
            and all(_typed_like(value[k], default[k]) for k in default)
    if isinstance(default, list):
        return isinstance(value, list) and all(_typed_like(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is type(default)


def _well_formed(cfg) -> bool:
    """What a stub checks of the config it gets: its echo has the default's
    JSON types, every (lo, hi) range of a scene is ordered, and seeds and
    start indices are non-negative (numpy seeds only from those)."""
    if isinstance(cfg, ExperimentConfig):
        return _typed_like(cfg.to_dict(), _EXPERIMENT) and cfg.seed >= 0
    scene = cfg.scene
    ranges = (scene.polygon_sides, scene.scale_range, scene.position_range, scene.rotation_range)
    starts = (scene.seed, cfg.source_start, cfg.target_train_start, cfg.target_test_start)
    return _typed_like(cfg.to_dict(), _BENCHMARK) and all(lo <= hi for lo, hi in ranges) \
        and min(starts) >= 0


@pytest.fixture
def stubs(monkeypatch):
    """Replace the long-running entry points; each records the config it gets."""
    calls = []
    sample = Sample(image=np.zeros((1, 16, 16), dtype=np.float32), gt_boxes=np.array([[1.0, 1.0, 4.0, 4.0]]),
                    gt_classes=np.array([1]), domain=DomainLabel.TARGET, image_id=0)

    def run_experiment(cfg):
        calls.append(cfg)
        return SimpleNamespace(final={"ap": 0.5, "ap50": 0.75, "ap75": 0.25})

    def evaluate_checkpoint(cfg, checkpoint_path=None):
        calls.append(cfg)
        return SimpleNamespace(to_dict=lambda: {"ap": 0.5}), []

    def make_benchmark(cfg):
        calls.append(cfg)
        return BenchmarkSplits([sample], [sample], [sample], [sample])

    for name, stub in (("run_experiment", run_experiment), ("evaluate_checkpoint", evaluate_checkpoint),
                       ("make_benchmark", make_benchmark)):
        monkeypatch.setattr(cli, name, stub)
    return calls


def _argv(command, path, tmp_path):
    if command == "report":
        return ["report", str(path)]
    out = ["--out", str(tmp_path / "out")] if command in ("train", "gen") else []
    return [command, "--config", str(path), *out]


def _run(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_files_run(stubs, tmp_path, command):
    path = tmp_path / "in.json"
    for doc in VALID[command]:
        path.write_text(json.dumps(doc))
        assert _run(_argv(command, path, tmp_path)) == (0, "")
    assert len(stubs) == (0 if command == "report" else len(VALID[command]))
    assert all(_well_formed(cfg) for cfg in stubs)


@pytest.mark.parametrize("command", sorted(VALID))
def test_any_file_works_or_prints_one_error_line(stubs, tmp_path_factory, command):
    tmp_path = tmp_path_factory.mktemp(command)
    path = tmp_path / "in.json"

    @FUZZ
    @given(content=_contents(command))
    @example(content=json.dumps(NEGATIVE[command]).encode())
    def check(content):
        path.write_bytes(content)
        stubs.clear()
        code, err = _run(_argv(command, path, tmp_path))
        if code == 0:
            assert err == "" and all(_well_formed(cfg) for cfg in stubs), stubs
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err

    check()


def test_gen_scale_range_too_small_is_one_error_line(tmp_path):
    # the real make_benchmark: no polygon of this scale has enough area
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"source_count": 1, "target_train_small": 1, "target_train_full": 1,
                                "target_test_count": 1, "scene": {"scale_range": [0.001, 0.001]}}))
    code, err = _run(_argv("gen", path, tmp_path))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert "scale_range" in err


@pytest.mark.parametrize("scale,why", [
    ([0.001, 0.001], "10 had a degenerate area below 4.0"),
    ([0.5, 0.6], "10 did not fit the 64-px frame"),
    ([0.9, 1.0], "10 did not fit the 64-px frame"),
])
def test_gen_polygon_error_names_the_failed_check(tmp_path, scale, why):
    # the real make_benchmark; too small a polygon is degenerate, too big a one leaves
    # the frame (at scale 0.5-0.6 some fit: scene 0 renders, scene 1 does not)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"source_count": 2, "target_train_small": 1, "target_train_full": 1,
                                "target_test_count": 1, "scene": {"scale_range": scale}}))
    code, err = _run(_argv("gen", path, tmp_path))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert f"scale_range {tuple(scale)}: {why}\n" in err, err


@pytest.mark.parametrize("command,doc,extra,key", [
    ("gen", _BENCHMARK, ["--seed", "-1"], "seed"),
    ("gen", {**_BENCHMARK, "scene": {**_BENCHMARK["scene"], "seed": -2}}, [], "seed"),
    ("gen", {**_BENCHMARK, "source_start": -5}, [], "source_start"),
    ("gen", {**_BENCHMARK, "target_train_start": -1}, [], "target_train_start"),
    ("gen", {**_BENCHMARK, "target_test_start": -3}, [], "target_test_start"),
    ("train", {**_EXPERIMENT, "seed": -4}, [], "seed"),
    ("train", _EXPERIMENT, ["--seed", "-4"], "seed"),
    ("eval", {**_EXPERIMENT, "seed": -4}, [], "seed"),
], ids=["gen-seed-flag", "scene-seed", "source_start", "target_train_start", "target_test_start",
        "train-seed", "train-seed-flag", "eval-seed"])
def test_negative_seed_or_start_names_its_key(stubs, tmp_path, command, doc, extra, key):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, err = _run(_argv(command, path, tmp_path) + extra)
    assert code == 1 and err.count("\n") == 1, err
    assert re.fullmatch(f"error: {key} must be >= 0, got -\\d+\n", err), err
    assert stubs == []


@pytest.mark.parametrize("command,doc,key", [
    ("train", {**_EXPERIMENT, "lr": float("nan")}, "lr"),
    ("train", {**_EXPERIMENT, "lambda_rep": float("inf")}, "lambda_rep"),
    ("train", {**_EXPERIMENT, "lr": 10**400}, "lr"),
    ("gen", {**_BENCHMARK, "source": {**_BENCHMARK["source"], "noise_sigma": float("nan")}},
     "source.noise_sigma"),
    ("gen", {**_BENCHMARK, "scene": {**_BENCHMARK["scene"], "scale_range": [0.1, float("inf")]}},
     r"scene.scale_range\[1\]"),
], ids=["lr-nan", "lambda_rep-inf", "lr-huge-int", "noise_sigma-nan", "scale_range-inf"])
def test_non_finite_number_names_its_key(stubs, tmp_path, command, doc, key):
    # Python's JSON parser reads NaN, Infinity and integers no float can hold
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, err = _run(_argv(command, path, tmp_path))
    assert code == 1 and err.count("\n") == 1, err
    assert re.search(f"config key {key} must be a finite number", err), err
    assert stubs == []


# cli.main in a child process whose address space is capped at 1 GiB, so an
# allocation too large for it fails whatever the host's overcommit policy
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from lirrdet.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_capped(argv, timeout=120):
    src_dir = str(Path(lirrdet.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stderr


@pytest.fixture(scope="module")
def splits_dir(tmp_path_factory):
    """Tiny real splits, plus `empty.bin`: a well-formed dataset of 0 images."""
    out = tmp_path_factory.mktemp("splits")
    splits = make_benchmark(BenchmarkConfig(scene=SceneSpec(size=32, seed=3), source_count=4,
                                            target_train_small=2, target_train_full=2,
                                            target_test_count=2))
    for name in ("source_train", "target_train_full", "target_test"):
        save_dataset(getattr(splits, name), out / f"{name}.bin")
    container.write(out / "empty.bin", {"count": 0, "image_shape": [1, 32, 32], "config": {}},
                    {"images": b"", "annotations": b""})
    return out


def _train_config(splits_dir, tmp_path, mode="SDA", **paths):
    cfg = {"mode": mode, "source_path": str(splits_dir / "source_train.bin"),
           "target_train_path": str(splits_dir / "target_train_full.bin"),
           "target_test_path": str(splits_dir / "target_test.bin"),
           "label_budget": 2, "image_size": 32, "widths": [8, 16, 24, 32], "batch_size": 2,
           "steps": 2, "eval_cadence": 2, "out_dir": str(tmp_path / "run"),
           **{k: str(splits_dir / v) for k, v in paths.items()}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("mode,key,what", [
    ("SDA", "source_path", "source train"),
    ("SourceOnly", "source_path", "source train"),
    ("Oracle", "target_train_path", "target train"),
    ("SDA", "target_train_path", "target train"),
    ("SDA", "target_test_path", "target test"),
])
def test_train_on_an_empty_split_is_one_error_line(splits_dir, tmp_path, mode, key, what):
    # an empty training split used to cycle empty epochs forever, and an empty
    # test split to "succeed" with ap=-1
    cfg = _train_config(splits_dir, tmp_path, mode, **{key: "empty.bin"})
    code, err = _run_capped(["train", "--config", str(cfg)], timeout=60)
    assert code == 1 and err == f"error: {what} dataset has no samples: {splits_dir / 'empty.bin'}\n", err


def test_eval_on_an_empty_test_split_is_one_error_line(splits_dir, tmp_path):
    assert _run(["train", "--config", str(_train_config(splits_dir, tmp_path))]) == (0, "")
    cfg = _train_config(splits_dir, tmp_path, target_test_path="empty.bin")
    code, err = _run(["eval", "--config", str(cfg)])
    assert code == 1 and err == f"error: target test dataset has no samples: {splits_dir / 'empty.bin'}\n", err


def test_gen_too_large_for_memory_is_one_error_line(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"source_count": 10**9, "source_start": 10**11,
                                "target_train_start": 0, "target_test_start": 1000}))
    code, err = _run_capped(["gen", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1 and err.startswith("error: out of memory: ") and err.count("\n") == 1, err


def test_train_too_many_steps_for_memory_is_one_error_line(splits_dir, tmp_path):
    # the batch table of 10^10 steps is allocated before step 1, and fails at once
    cfg = _train_config(splits_dir, tmp_path)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "steps": 10**10}))
    code, err = _run_capped(["train", "--config", str(cfg)])
    assert code == 1 and err.startswith("error: out of memory: ") and err.count("\n") == 1, err


def _no_loss_lines(tmp_path) -> bool:
    losses = tmp_path / "run" / "losses.jsonl"
    return not losses.exists() or losses.read_text() == ""


@pytest.mark.parametrize("split_size", [16, 64])
@pytest.mark.parametrize("key,what", [("source_path", "source train"),
                                      ("target_train_path", "target train"),
                                      ("target_test_path", "target test")])
def test_train_on_a_split_of_the_wrong_image_size_is_one_error_line(splits_dir, tmp_path, key, what,
                                                                      split_size):
    # a split smaller than the model used to end in an IndexError at step 1,
    # and a larger one trained against misaligned anchors until the first eval
    split = tmp_path / "other_size.bin"
    save_dataset(make_benchmark(BenchmarkConfig(scene=SceneSpec(size=split_size, seed=3), source_count=2,
                                                target_train_small=2, target_train_full=2,
                                                target_test_count=2)).target_train_full, split)
    cfg = _train_config(splits_dir, tmp_path, **{key: split})
    code, err = _run(["train", "--config", str(cfg)])
    assert code == 1 and err == (f"error: {what} dataset has images of shape (1, {split_size}, {split_size}), "
                                 f"the model takes (1, 32, 32): {split}\n"), err
    assert _no_loss_lines(tmp_path)


def test_eval_on_a_split_of_the_wrong_image_size_is_one_error_line(splits_dir, tmp_path):
    assert _run(["train", "--config", str(_train_config(splits_dir, tmp_path))]) == (0, "")
    cfg = _train_config(splits_dir, tmp_path)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "image_size": 16}))
    code, err = _run(["eval", "--config", str(cfg)])
    assert code == 1 and err == (f"error: target test dataset has images of shape (1, 32, 32), the model "
                                 f"takes (1, 16, 16): {splits_dir / 'target_test.bin'}\n"), err


@pytest.mark.parametrize("bad", [0, 5])
def test_train_on_a_class_the_model_lacks_is_one_error_line(splits_dir, tmp_path, bad):
    # class 5 used to fail in the loss with no file named, and class 0 trained as background
    samples = load_dataset(splits_dir / "source_train.bin").samples
    samples[2].gt_classes = np.full(len(samples[2].gt_classes), bad)
    save_dataset(samples, tmp_path / "bad.bin")
    cfg = _train_config(splits_dir, tmp_path, source_path=str(tmp_path / "bad.bin"))
    code, err = _run(["train", "--config", str(cfg)])
    assert code == 1 and err == f"error: image_id {samples[2].image_id}: class {bad} is not in 1..1\n", err


@pytest.mark.parametrize("mode,key,what,name,want", [
    ("SDA", "source_path", "source train", "target_train_full.bin", "SOURCE"),
    ("SDA", "target_train_path", "target train", "source_train.bin", "TARGET"),
    ("SourceOnly", "source_path", "source train", "target_train_full.bin", "SOURCE"),
    ("Oracle", "target_train_path", "target train", "source_train.bin", "TARGET"),
])
def test_train_on_a_split_of_the_other_domain_is_one_error_line(splits_dir, tmp_path, mode, key, what,
                                                                name, want):
    # a swapped path used to train silently, and the step scores each batch by
    # the head of its split's domain, so the source head would learn target images
    cfg = _train_config(splits_dir, tmp_path, mode, **{key: name})
    first = load_dataset(splits_dir / name).samples[0]
    code, err = _run(["train", "--config", str(cfg)])
    assert code == 1 and err == (f"error: {what} dataset has image_id {first.image_id} of domain "
                                 f"{first.domain.name}, not {want}: {splits_dir / name}\n"), err
    assert _no_loss_lines(tmp_path)


def test_train_on_a_split_with_one_record_of_the_other_domain_is_one_error_line(splits_dir, tmp_path):
    samples = load_dataset(splits_dir / "source_train.bin").samples
    samples[2].domain = DomainLabel.TARGET
    save_dataset(samples, tmp_path / "mixed.bin")
    cfg = _train_config(splits_dir, tmp_path, source_path=str(tmp_path / "mixed.bin"))
    code, err = _run(["train", "--config", str(cfg)])
    assert code == 1 and err == (f"error: source train dataset has image_id {samples[2].image_id} of domain "
                                 f"TARGET, not SOURCE: {tmp_path / 'mixed.bin'}\n"), err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(VALID))
def test_out_that_is_not_a_directory_is_one_error_line(stubs, monkeypatch, splits_dir, tmp_path, command,
                                                       under):
    # such an --out used to end in a FileExistsError or NotADirectoryError
    # traceback, and gen rendered the whole benchmark before it failed
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    path = tmp_path / "in.json"
    path.write_text(json.dumps(VALID[command][0]))
    argv = ["report", str(path)] if command == "report" else [command, "--config", str(path)]
    if command == "train":  # the real run, which makes its out_dir before it loads a split
        monkeypatch.setattr(cli, "run_experiment", pipeline.run_experiment)
        argv = ["train", "--config", str(_train_config(splits_dir, tmp_path))]
    code, err = _run(argv + ["--out", str(out)])
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1 and str(out) in err, err
    assert blocker.read_text() == ""
    if command == "gen":
        assert stubs == []


@pytest.mark.parametrize("command", sorted(VALID))
def test_config_that_is_a_directory_is_one_error_line(stubs, tmp_path, command):
    # gen --config DIR used to end in an IsADirectoryError traceback
    code, err = _run(_argv(command, tmp_path, tmp_path))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err, err
    assert stubs == []
