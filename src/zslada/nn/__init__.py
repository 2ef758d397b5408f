"""Dense MLP engine: exact reverse-mode gradients, optimizers, checkpoints."""

from zslada.nn.mlp import (
    GradientTape,
    MlpSpec,
    MlpNetwork,
    MlpCache,
    init_network,
    mlp_forward,
    mlp_backward,
    param_grads,
    forward_eval,
    stable_sigmoid,
)
from zslada.nn.optim import (
    OptimizerHyper,
    OptimizerState,
    init_optimizer,
    adam_step,
    rmsprop_step,
)
from zslada.nn.gradcheck import GradCheckReport, grad_check, numeric_gradient
from zslada.nn.checkpoint import save_container, load_container

__all__ = [
    "GradientTape",
    "MlpSpec",
    "MlpNetwork",
    "MlpCache",
    "init_network",
    "mlp_forward",
    "mlp_backward",
    "param_grads",
    "forward_eval",
    "stable_sigmoid",
    "OptimizerHyper",
    "OptimizerState",
    "init_optimizer",
    "adam_step",
    "rmsprop_step",
    "GradCheckReport",
    "grad_check",
    "numeric_gradient",
    "save_container",
    "load_container",
]
