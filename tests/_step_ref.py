"""The supervised training step and batch table as the package had them
before every mode ran `lirrdet.lirr.train_step`.

`invariant_risk` builds the shared head's mean risk by hand, without going
through the objective, and `supervised_run` replays a SourceOnly or Oracle
run with it: same seeds, same batch table, `invariant_risk`, `backward`,
SGD. `run_experiment` must give the same parameters and `l_total` series
bit for bit. `batch_schedule` is the list-growing table the pipeline drew
before it filled one preallocated row per epoch.
"""

import numpy as np

from lirrdet.autodiff import SGD, Tensor
from lirrdet.detector.model import Detector
from lirrdet.lirr import _check_labeled, _matches, _risk_sum, _stack_images
from lirrdet.pipeline import Mode
from lirrdet.synthgen import load_dataset


def batch_schedule(n, batch_size, steps, seed, stream):
    rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
    order = []
    while len(order) < steps * batch_size:
        order.extend(rng.permutation(n))
    return np.asarray(order[:steps * batch_size], dtype=np.int64).reshape(steps, batch_size)


def invariant_risk(batch, model) -> Tensor:
    batch = list(batch)
    if not batch:
        raise ValueError("invariant_risk: empty batch")
    _check_labeled(batch, model)
    feats = model.features(_stack_images(batch))
    total, _, _ = _risk_sum(*model.predict(feats, "invariant"), _matches(batch, model))
    return total * (1.0 / len(batch))


def supervised_step(batch, model, optimizer):
    optimizer.zero_grad()
    loss = invariant_risk(batch, model)
    loss.backward()
    optimizer.step()
    v = float(loss.data)
    return {"l_rep": 0.0, "l_i": v, "l_d": 0.0, "l_risk": v, "l_total": v}


def supervised_run(config):
    """(model, l_total list) of a SourceOnly or Oracle config, step by step."""
    source_only = config.mode == Mode.SOURCE_ONLY
    path, stream = (config.source_path, 1) if source_only else (config.target_train_path, 2)
    samples = sorted(load_dataset(path).samples, key=lambda s: s.image_id)
    if not source_only:
        samples = samples[:config.label_budget]
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    model = Detector(config.model_spec, rng=rng)
    optimizer = SGD(model.parameters(), lr=config.lr, momentum=config.momentum)
    sched = batch_schedule(len(samples), config.batch_size, config.steps, config.seed, stream)
    losses = [supervised_step([samples[i] for i in row], model, optimizer)["l_total"]
              for row in sched]
    return model, losses
