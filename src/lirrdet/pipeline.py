"""Experiment runner comparing three training protocols on one benchmark.

SourceOnly fits the supervised detection risk on labelled source images,
Oracle fits the same risk on the labelled target-train budget, and SDA
fits the full domain-adaptive objective on both. Every mode runs the same
step, ``lirr.train_step``, with each split's batch in its own argument and
None for a split the mode does not read. What a run is allowed to read is
written down once, in ``_MODE_SPLITS``: the config's path check, split
loading, batch tables and counters all follow it, so the step is only ever
handed batches of the splits the mode may consume, and per-split sample
counters are carried into the run report so the isolation can be audited
afterwards.

A run is a pure function of its config. Model init and batch order derive
from (seed, stream) pairs, the parameters do not depend on the number of
BLAS threads, and the final metrics regenerate exactly from the saved
checkpoint plus the test split.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import SGD, CheckpointError, save_checkpoint, load_checkpoint
from .coco_eval import EvalInput, evaluate
from .container import atomic_open
from .detector.inference import forward_detect, save_detections
from .detector.model import Detector, ModelSpec
from .jsonconfig import from_json_dict, is_finite, read_json, to_json
from .lirr import DomainClassifier, DomainLabel, LirrConfig, train_step
from .synthgen import load_dataset


class Mode(str, Enum):
    SOURCE_ONLY = "SourceOnly"
    ORACLE = "Oracle"
    SDA = "SDA"


# (seed, stream) tag of the model-init random stream
_STREAM_INIT = 0


@dataclass(frozen=True)
class _Split:
    """A training split: where its path lives, what it is called in errors
    and counters, the domain every record must name, the (seed, stream) tag
    of its batch order, and whether label_budget trims it."""
    path_field: str
    what: str
    counter: str
    domain: DomainLabel
    stream: int
    budgeted: bool


_SOURCE = _Split("source_path", "source train", "source_samples", DomainLabel.SOURCE, 1, budgeted=False)
_TARGET = _Split("target_train_path", "target train", "target_train_samples", DomainLabel.TARGET, 2,
                 budgeted=True)

# The one place that decides what a mode may read. A split missing here is
# never opened, and the training step sees None in its place.
_MODE_SPLITS = {
    Mode.SOURCE_ONLY: (_SOURCE,),
    Mode.ORACLE: (_TARGET,),
    Mode.SDA: (_SOURCE, _TARGET),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, JSON-serializable description of one training run.

    Unused paths may stay empty: SourceOnly never reads the target-train
    file and Oracle never reads the source file. label_budget picks the
    first N target-train images by id, mirroring how the benchmark nests
    its small split inside the full one.
    """
    mode: Mode = Mode.SDA
    source_path: str = ""
    target_train_path: str = ""
    target_test_path: str = ""
    label_budget: int = 50
    image_size: int = 64
    widths: tuple = (16, 32, 48, 64)
    batch_size: int = 8
    lr: float = 0.005
    momentum: float = 0.5
    lambda_rep: float = 0.1
    lambda_risk: float = 1.0
    grl_lambda: float = 1.0
    seed: int = 0
    steps: int = 2000
    eval_cadence: int = 200
    out_dir: str = "run"

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        for name in ("label_budget", "batch_size", "steps", "eval_cadence"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.lr < 0 or not 0 <= self.momentum < 1:
            raise ValueError("lr must be >= 0 and momentum in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.model_spec  # ModelSpec rejects bad widths and image sizes
        self.lirr_config  # LirrConfig rejects negative lambdas
        needed = ["target_test_path"] + [sp.path_field for sp in _MODE_SPLITS[self.mode]]
        for name in sorted(needed):
            if not getattr(self, name):
                raise ValueError(f"mode {self.mode.value} requires {name}")

    @property
    def lirr_config(self) -> LirrConfig:
        return LirrConfig(lambda_rep=self.lambda_rep, lambda_risk=self.lambda_risk,
                          grl_lambda=self.grl_lambda)

    @property
    def model_spec(self) -> ModelSpec:
        return ModelSpec(image_size=self.image_size, widths=self.widths)

    from_dict = classmethod(from_json_dict)  # unknown keys and wrong-typed values raise ValueError
    to_dict = to_json


# what `lirrdet report` reads from a run report, and the JSON types it takes (numbers fit a float)
_REPORT_FIELDS = {"config.mode": str, "config.label_budget": int,
                  "final.ap": (int, float), "final.ap50": (int, float), "final.ap75": (int, float)}


@dataclass
class RunReport:
    config: dict
    eval_series: list = field(default_factory=list)
    final: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    losses_path: str = ""
    checkpoint_path: str = ""
    detections_path: str = ""
    wall_clock_sec: float = 0.0
    version: str = __version__

    to_dict = to_json

    def save(self, path) -> None:
        with atomic_open(path) as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        """Read a saved report; a file that is not one raises ValueError naming the key."""
        d = read_json(path, "run report")
        if not isinstance(d, dict):
            raise ValueError(f"{path}: run report is not a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown run report keys {unknown}")
        for key, kind in _REPORT_FIELDS.items():
            part, field_name = key.split(".")
            value = d[part].get(field_name) if isinstance(d.get(part), dict) else None
            fits = isinstance(value, kind) and not isinstance(value, bool)
            if not fits or (kind is not str and not is_finite(value)):
                raise ValueError(f"{path}: run report key {key} is missing or invalid ({value!r})")
        return cls(**d)


def _load_split(path: str, what: str, spec: ModelSpec):
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} dataset not found: {path}")
    samples = load_dataset(p).samples
    if not samples:
        raise ValueError(f"{what} dataset has no samples: {path}")
    shape = (spec.in_channels, spec.image_size, spec.image_size)
    if samples[0].image.shape != shape:  # a dataset holds one image shape
        raise ValueError(f"{what} dataset has images of shape {samples[0].image.shape}, "
                         f"the model takes {shape}: {path}")
    samples.sort(key=lambda s: s.image_id)
    return samples


def _load_training_split(config: ExperimentConfig, split: _Split):
    path = getattr(config, split.path_field)
    samples = _load_split(path, split.what, config.model_spec)
    wrong = next((s for s in samples if s.domain != split.domain), None)
    if wrong is not None:  # the step scores each batch by the head of its split's domain
        raise ValueError(f"{split.what} dataset has image_id {wrong.image_id} of domain "
                         f"{wrong.domain.name}, not {split.domain.name}: {path}")
    if split.budgeted:
        if config.label_budget > len(samples):
            raise ValueError(
                f"label budget {config.label_budget} exceeds {split.what} size {len(samples)}")
        samples = samples[:config.label_budget]
    return samples


def batch_schedule(n: int, batch_size: int, steps: int, seed, stream: int) -> np.ndarray:
    """Deterministic (steps, batch_size) index table: shuffled epochs, cycled.

    Exposed so a test can replay exactly the batches a run consumed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
    table = np.empty((-(-steps * batch_size // n), n), dtype=np.int64)  # one epoch a row
    for row in table:
        row[:] = rng.permutation(n)
    return table.ravel()[:steps * batch_size].reshape(steps, batch_size)


def _evaluate_model(model, test_samples) -> tuple:
    gt, dets, records = {}, {}, []
    for s in test_samples:
        gt[s.image_id] = [(tuple(float(v) for v in b), int(c))
                          for b, c in zip(s.gt_boxes, s.gt_classes)]
        dets[s.image_id] = forward_detect(model, s.image)
        records.extend((s.image_id, d) for d in dets[s.image_id])
    return evaluate(EvalInput(gt=gt, detections=dets)), records


def _model_state(model, classifier=None) -> dict:
    state = {f"model.{k}": v for k, v in model.state_dict().items()}
    if classifier is not None:
        state.update({f"classifier.{k}": v for k, v in classifier.state_dict().items()})
    return state


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Train per the config's mode, evaluating on the target test split.

    Writes losses.jsonl, checkpoint.bin, detections.jsonl, and
    run_report.json under config.out_dir. Aborts with a diagnostic the
    first time the training loss goes non-finite.
    """
    t0 = time.perf_counter()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    test = _load_split(config.target_test_path, "target test", config.model_spec)
    splits = _MODE_SPLITS[config.mode]
    data = [_load_training_split(config, sp) for sp in splits]

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_INIT)))
    model = Detector(config.model_spec, rng=rng)
    classifier = DomainClassifier(config.widths[-1], rng=rng) if config.mode == Mode.SDA else None
    params = model.parameters() + (classifier.parameters() if classifier is not None else [])
    optimizer = SGD(params, lr=config.lr, momentum=config.momentum)

    # mode isolation happens here: the loop below only sees these tables
    scheds = [batch_schedule(len(d), config.batch_size, config.steps, config.seed, sp.stream)
              for sp, d in zip(splits, data)]
    counters = {sp.counter: 0 for sp in (_SOURCE, _TARGET)}

    losses_path = out / "losses.jsonl"
    eval_series = []
    with open(losses_path, "w") as log:
        for step in range(1, config.steps + 1):
            batches = {sp: [d[i] for i in sched[step - 1]] for sp, d, sched in zip(splits, data, scheds)}
            for sp, batch in batches.items():
                counters[sp.counter] += len(batch)
            line = train_step(batches.get(_SOURCE), batches.get(_TARGET), model, classifier,
                              optimizer, config.lirr_config).to_dict()

            log.write(json.dumps({"step": step, **line}) + "\n")
            if not np.isfinite(line["l_total"]):
                raise RuntimeError(
                    f"non-finite training loss at step {step} "
                    f"(mode {config.mode.value}, seed {config.seed}): {line}")

            if step % config.eval_cadence == 0 or step == config.steps:
                ap, records = _evaluate_model(model, test)
                eval_series.append({"step": step, **ap.to_dict()})

    final_entry = eval_series[-1]
    checkpoint_path = out / "checkpoint.bin"
    save_checkpoint(checkpoint_path, _model_state(model, classifier))
    detections_path = out / "detections.jsonl"
    save_detections(detections_path, records)

    report = RunReport(
        config=config.to_dict(),
        eval_series=eval_series,
        final={k: v for k, v in final_entry.items() if k != "step"},
        counters=counters,
        losses_path=str(losses_path),
        checkpoint_path=str(checkpoint_path),
        detections_path=str(detections_path),
        wall_clock_sec=time.perf_counter() - t0,
    )
    report.save(out / "run_report.json")
    return report


def evaluate_checkpoint(config: ExperimentConfig, checkpoint_path=None) -> tuple:
    """Rebuild the model from a checkpoint and rerun the final evaluation.

    Returns (APReport, detection records). Given the checkpoint and test
    split of a finished run this reproduces the report's final metrics
    bit for bit. A checkpoint whose parameters do not fit the config's
    model raises CheckpointError.
    """
    path = Path(checkpoint_path) if checkpoint_path else Path(config.out_dir) / "checkpoint.bin"
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    state = load_checkpoint(path)
    model_state = {k[len("model."):]: v for k, v in state.items() if k.startswith("model.")}
    model = Detector(config.model_spec, rng=np.random.default_rng(0))
    try:
        model.load_state_dict(model_state)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{path}: does not fit the configured model: {e.args[0]}") from e
    test = _load_split(config.target_test_path, "target test", config.model_spec)
    return _evaluate_model(model, test)
