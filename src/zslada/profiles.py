"""Named architecture and training presets.

A preset holds three things: the base heads' architecture (hidden
widths, batchnorm, dropout), the ``PretrainConfig`` that trains them and
the ``AdaConfig`` that adapts from them.  ``sun`` / ``awa`` / ``cub``
carry the published per-dataset settings for externally prepared
feature directories; ``synth-small`` is sized for the bundled synthetic
benchmarks and desk-scale acceptance runs.  The CUB preset's dropout
probability is undocumented upstream, so it reuses the 0.1 figure
documented for AWA; same for the adaptation generators' dropout.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .ada import AdaConfig
from .base_model import BaseZslModel, PretrainConfig
from .data import ClassAttributeTable
from .errors import ConfigError
from .nn.mlp import MlpSpec, init_network
from .rng import named_seed


@dataclass(frozen=True)
class Preset:
    hidden: tuple[int, ...]
    batchnorm: bool
    dropout: float
    pretrain: PretrainConfig
    ada: AdaConfig


_PRESETS: dict[str, Preset] = {
    "sun": Preset(hidden=(1800,), batchnorm=True, dropout=0.0,
                  pretrain=PretrainConfig(learning_rate=1e-5, mean_weight_decay=0.001,
                                          prec_weight_decay=0.1),
                  ada=AdaConfig()),
    "awa": Preset(hidden=(1800,), batchnorm=True, dropout=0.1,
                  pretrain=PretrainConfig(learning_rate=1e-5, mean_weight_decay=1e3,
                                          prec_weight_decay=1e4),
                  ada=AdaConfig(gen_dropout=0.1)),
    "cub": Preset(hidden=(1200, 1800), batchnorm=True, dropout=0.1,
                  pretrain=PretrainConfig(learning_rate=1e-5, mean_weight_decay=0.01,
                                          prec_weight_decay=0.1),
                  ada=AdaConfig(gen_dropout=0.1)),
    # Short schedule on purpose: the single-layer classifiers generalize
    # past pseudo-label noise early, then start memorizing it.
    "synth-small": Preset(hidden=(128,), batchnorm=False, dropout=0.0,
                          pretrain=PretrainConfig(learning_rate=1e-3, mean_weight_decay=1e-5,
                                                  prec_weight_decay=1e-5, max_epochs=150),
                          ada=AdaConfig(gen_hidden=(48,), disc_hidden=(48,),
                                        gen_dropout=0.0, use_batchnorm=False,
                                        learning_rate=1e-3, n_critic=2, n_steps=1000,
                                        batch_size=64, crossover_interval=200)),
}

PROFILE_NAMES = tuple(_PRESETS)


def preset(name: str) -> Preset:
    if name not in _PRESETS:
        raise ConfigError(f"unknown profile {name!r}, expected one of {PROFILE_NAMES}")
    return _PRESETS[name]


def ada_profile(name: str) -> AdaConfig:
    return preset(name).ada


def pretrain_config(name: str, seed: int = 0) -> PretrainConfig:
    return replace(preset(name).pretrain, seed=seed)


def build_base_model(attribute_table: ClassAttributeTable, feature_dim: int,
                     profile: str = "synth-small", seed: int = 0,
                     include_logdet: bool = True) -> BaseZslModel:
    """Fresh mean/precision networks shaped by a named profile."""
    p = preset(profile)
    widths = (attribute_table.attr_dim, *p.hidden, feature_dim)
    spec = MlpSpec.dense(widths, activation="relu", batchnorm=p.batchnorm,
                         dropout=p.dropout)
    mean_net = init_network(spec, seed=named_seed(seed, "mean_net"))
    prec_net = init_network(spec, seed=named_seed(seed, "prec_net"))
    return BaseZslModel(mean_net=mean_net, prec_net=prec_net,
                        attribute_table=attribute_table,
                        include_logdet=include_logdet)
