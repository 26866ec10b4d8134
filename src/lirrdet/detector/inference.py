"""A sample's (C, H, W) image to detections, and the JSON-lines detection dump."""

from __future__ import annotations

import json

import numpy as np

from ..autodiff import Tensor, default_dtype, no_grad
from ..container import atomic_open
from .boxes import Detection, decode_boxes, nms

NMS_THR = 0.5
SCORE_THR = 0.05
MAX_DETS = 100  # detections kept per image, here and in coco_eval


def forward_detect(model, image) -> list:
    """Run the always-on head over one (C, H, W) image, a sample's layout, and
    return kept detections.

    Softmax per anchor, background and scores under SCORE_THR dropped,
    decode with clamping to the image, then class-aware greedy NMS that
    stops at its MAX_DETS-th kept box. Those are the MAX_DETS highest-scoring
    boxes the uncapped NMS keeps; candidates after the last keep are never
    scored, and Detection tuples are built only for the kept boxes.
    """
    x = np.asarray(image, dtype=default_dtype())
    spec = model.spec
    if x.shape != (spec.in_channels, spec.image_size, spec.image_size):
        raise ValueError(
            f"forward_detect: image shape {x.shape} does not match configured "
            f"({spec.in_channels}, {spec.image_size}, {spec.image_size})")

    with no_grad():
        feats = model.features(Tensor(x[:, None]))  # (C, 1, H, W), as the model reads
        cls, loc = model.predict(feats, "invariant")

    z = cls.data[0].astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    boxes = decode_boxes(loc.data[0], model.anchors, image_size=spec.image_size)

    # class-major, anchor-ascending: the order nms breaks score ties by
    k, a = np.nonzero(probs[:, 1:].T >= SCORE_THR)
    k += 1
    kept = nms(boxes[a], probs[a, k], k, NMS_THR, MAX_DETS)
    a, k = a[kept], k[kept]
    return [Detection(tuple(b), c, s)
            for b, c, s in zip(boxes[a].tolist(), k.tolist(), probs[a, k].tolist())]


def save_detections(path, records) -> None:
    """Write (image_id, Detection) pairs as JSON lines."""
    with atomic_open(path) as f:
        for image_id, det in records:
            f.write(json.dumps({
                "image_id": int(image_id),
                "class_id": int(det.class_id),
                "score": float(det.score),
                "bbox": [float(v) for v in det.bbox],
            }) + "\n")
