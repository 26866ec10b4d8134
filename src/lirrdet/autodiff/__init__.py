from .tensor import (
    Tensor,
    ShapeError,
    TapeError,
    backward,
    no_grad,
    precision,
    set_default_dtype,
    default_dtype,
    matmul,
)
from .functional import (
    conv2d,
    global_avg_pool,
    bias_add,
    softmax_cross_entropy,
    binary_cross_entropy_logit,
    smooth_l1,
    grad_reverse,
    gather_rows,
    concat,
)
from .nn import Parameter, Module, Conv2d, Linear, he_normal
from .optim import SGD
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError

__all__ = [
    "Tensor", "ShapeError", "TapeError", "backward", "no_grad",
    "precision", "set_default_dtype", "default_dtype", "matmul",
    "conv2d", "global_avg_pool", "bias_add", "softmax_cross_entropy",
    "binary_cross_entropy_logit", "smooth_l1", "grad_reverse", "gather_rows",
    "concat", "Parameter", "Module", "Conv2d", "Linear", "he_normal", "SGD",
    "save_checkpoint", "load_checkpoint", "CheckpointError",
]
