"""The settings codec: every settings object comes back from its JSON."""
import dataclasses
import json

import pytest

from zslada.ada import AdaConfig
from zslada.base_model import PretrainConfig
from zslada.errors import ConfigError
from zslada.nn.mlp import MlpSpec
from zslada.settings import from_dict
from zslada.synthetic import SyntheticWorldSpec

from .helpers import bench_spec

SETTINGS = {
    "AdaConfig": AdaConfig(gen_hidden=(12, 7), disc_hidden=(9,), n_critic=3,
                           cycle_form="within_domain"),
    "PretrainConfig": PretrainConfig(learning_rate=3e-3, patience=4, mean_weight_decay=1e-4,
                                     seed=9),
    "SyntheticWorldSpec": bench_spec(seed=13, shift_magnitude=2.0, map_hidden=(5, 3),
                                     precision_range=(0.5, 2.0)),
    "MlpSpec": MlpSpec.dense((3, 4, 2), batchnorm=True, dropout=0.25),
}


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_json_round_trip(name):
    # JSON hands tuples back as lists; __post_init__ turns them into tuples
    value = SETTINGS[name]
    payload = json.loads(json.dumps(dataclasses.asdict(value)))
    assert from_dict(type(value), payload, name) == value


def test_unknown_and_missing_keys_are_named():
    payload = dataclasses.asdict(bench_spec(seed=13))
    with pytest.raises(ConfigError, match="flavor"):
        from_dict(SyntheticWorldSpec, {**payload, "flavor": "extra"}, "synthetic-world")
    del payload["attr_dim"]
    with pytest.raises(ConfigError, match="attr_dim"):
        from_dict(SyntheticWorldSpec, payload, "synthetic-world")
    with pytest.raises(ConfigError, match="gamma"):
        from_dict(AdaConfig, {"gamma": 1.0}, "adaptation config")
    spec = dataclasses.asdict(SETTINGS["MlpSpec"])
    with pytest.raises(ConfigError, match="bn_eps"):
        MlpSpec.from_dict({**spec, "bn_eps": 1e-5})


def test_base_replaces_only_the_given_fields():
    base = SETTINGS["AdaConfig"]
    out = from_dict(AdaConfig, {"gen_hidden": [8], "seed": 7}, "adaptation config", base=base)
    assert out == dataclasses.replace(base, gen_hidden=(8,), seed=7)
    spec = SETTINGS["SyntheticWorldSpec"]
    assert (from_dict(SyntheticWorldSpec, {"seed": 4}, "synthetic-world", base=spec)
            == dataclasses.replace(spec, seed=4))
    with pytest.raises(ConfigError, match="gamma"):
        from_dict(AdaConfig, {"gamma": 1.0}, "adaptation config", base=base)
    with pytest.raises(ConfigError, match="n_critic"):
        from_dict(AdaConfig, {"n_critic": 0}, "adaptation config", base=base)
