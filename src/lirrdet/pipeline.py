"""Experiment runner comparing three training protocols on one benchmark.

SourceOnly fits the supervised detection risk on labelled source images,
Oracle fits the same risk on the labelled target-train budget, and SDA
fits the full domain-adaptive objective on both. What a run is allowed to
read is written down once, in ``_MODE_SPLITS``: the config's path check,
split loading, batch tables and counters all follow it, so a mode's step
function is only ever handed batches of the splits it may consume, and
per-split sample counters are carried into the run report so the isolation
can be audited afterwards.

A run is a pure function of its config. Model init and batch order derive
from (seed, stream) pairs, the parameters do not depend on the number of
BLAS threads, and the final metrics regenerate exactly from the saved
checkpoint plus the test split.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import SGD, CheckpointError, save_checkpoint, load_checkpoint
from .coco_eval import EvalInput, evaluate
from .detector.inference import forward_detect, save_detections
from .detector.model import Detector, ModelSpec
from .jsonconfig import from_json_dict
from .lirr import DomainClassifier, LirrConfig, invariant_risk, train_step
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
    and counters, the (seed, stream) tag of its batch order, and whether
    label_budget trims it."""
    path_field: str
    what: str
    counter: str
    stream: int
    budgeted: bool


_SOURCE = _Split("source_path", "source train", "source_samples", 1, budgeted=False)
_TARGET = _Split("target_train_path", "target train", "target_train_samples", 2, budgeted=True)

# The one place that decides what a mode may read. A split missing here is
# never opened, and the step function only ever sees batches of these
# splits, in this order.
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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from parsed JSON; unknown keys and wrong-typed values raise ValueError."""
        return from_json_dict(cls, d)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["mode"] = self.mode.value
        d["widths"] = list(self.widths)
        return d


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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(**d)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _load_split(path: str, what: str):
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} dataset not found: {path}")
    samples = load_dataset(p).samples
    samples.sort(key=lambda s: s.image_id)
    return samples


def _load_training_split(config: ExperimentConfig, split: _Split):
    samples = _load_split(getattr(config, split.path_field), split.what)
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
    order = []
    while len(order) < steps * batch_size:
        order.extend(rng.permutation(n))
    return np.asarray(order[:steps * batch_size], dtype=np.int64).reshape(steps, batch_size)


def _evaluate_model(model, test_samples) -> tuple:
    gt = {}
    dets = {}
    records = []
    for s in test_samples:
        gt[s.image_id] = [(tuple(float(v) for v in b), int(c))
                          for b, c in zip(s.gt_boxes, s.gt_classes)]
        kept = forward_detect(model, s.image)
        dets[s.image_id] = [(d.bbox, d.class_id, d.score) for d in kept]
        records.extend((s.image_id, d) for d in kept)
    return evaluate(EvalInput(gt=gt, detections=dets)), records


def _model_state(model, classifier=None) -> dict:
    state = {f"model.{k}": v for k, v in model.state_dict().items()}
    if classifier is not None:
        state.update({f"classifier.{k}": v for k, v in classifier.state_dict().items()})
    return state


def _supervised_step(batch, model, optimizer):
    optimizer.zero_grad()
    loss = invariant_risk(batch, model)
    loss.backward()
    optimizer.step()
    v = float(loss.data)
    return {"l_rep": 0.0, "l_i": v, "l_d": 0.0, "l_risk": v, "l_total": v}


def _sda_step(batch_src, batch_tgt, model, classifier, optimizer, lirr_cfg):
    bd = train_step(batch_src, batch_tgt, model, classifier, optimizer, lirr_cfg).to_dict()
    return {k: bd[k] for k in ("l_rep", "l_i", "l_d", "l_risk", "l_total")}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Train per the config's mode, evaluating on the target test split.

    Writes losses.jsonl, checkpoint.bin, detections.jsonl, and
    run_report.json under config.out_dir. Aborts with a diagnostic the
    first time the training loss goes non-finite.
    """
    t0 = time.perf_counter()
    mode = config.mode
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    test = _load_split(config.target_test_path, "target test")
    splits = _MODE_SPLITS[mode]
    data = [_load_training_split(config, sp) for sp in splits]

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_INIT)))
    model = Detector(config.model_spec, rng=rng)
    classifier = DomainClassifier(config.widths[-1], rng=rng) if mode == Mode.SDA else None
    params = list(model.parameters())
    if classifier is not None:
        params += list(classifier.parameters())
    optimizer = SGD(params, lr=config.lr, momentum=config.momentum)
    if classifier is None:
        step_fn = partial(_supervised_step, model=model, optimizer=optimizer)
    else:
        step_fn = partial(_sda_step, model=model, classifier=classifier,
                          optimizer=optimizer, lirr_cfg=config.lirr_config)

    # mode isolation happens here: the loop below only sees these tables
    scheds = [batch_schedule(len(d), config.batch_size, config.steps, config.seed, sp.stream)
              for sp, d in zip(splits, data)]
    counters = {sp.counter: 0 for sp in (_SOURCE, _TARGET)}

    losses_path = out / "losses.jsonl"
    eval_series = []
    with open(losses_path, "w") as log:
        for step in range(1, config.steps + 1):
            batches = [[d[i] for i in sched[step - 1]] for d, sched in zip(data, scheds)]
            for sp, batch in zip(splits, batches):
                counters[sp.counter] += len(batch)
            line = step_fn(*batches)

            log.write(json.dumps({"step": step, **line}) + "\n")
            if not np.isfinite(line["l_total"]):
                raise RuntimeError(
                    f"non-finite training loss at step {step} "
                    f"(mode {mode.value}, seed {config.seed}): {line}")

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
    test = _load_split(config.target_test_path, "target test")
    return _evaluate_model(model, test)
