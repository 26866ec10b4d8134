from .tensor import (
    Tensor,
    ShapeError,
    TapeError,
    backward,
    no_grad,
    precision,
    default_dtype,
)
from .functional import conv2d, grad_reverse
from .nn import Parameter, Module, Conv2d, Linear, he_normal
from .optim import SGD
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError

__all__ = [
    "Tensor", "ShapeError", "TapeError", "backward", "no_grad",
    "precision", "default_dtype", "conv2d", "grad_reverse",
    "Parameter", "Module", "Conv2d", "Linear",
    "he_normal", "SGD", "save_checkpoint", "load_checkpoint", "CheckpointError",
]
