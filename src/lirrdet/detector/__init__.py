from .boxes import Detection, decode_boxes, encode_boxes, iou_matrix, nms
from .anchors import LevelSpec, generate_anchors
from .matching import IGNORE, NEGATIVE, MatchResult, match_anchors
from .model import Detector, ModelSpec
from .inference import forward_detect, save_detections

__all__ = [
    "Detection",
    "Detector",
    "IGNORE",
    "LevelSpec",
    "MatchResult",
    "ModelSpec",
    "NEGATIVE",
    "decode_boxes",
    "encode_boxes",
    "forward_detect",
    "generate_anchors",
    "iou_matrix",
    "match_anchors",
    "nms",
    "save_detections",
]
