"""The settings codec: every settings object comes back from its JSON."""
import dataclasses
import json
from typing import get_type_hints

import pytest

from zslada.ada import AdaConfig, AdaStateMeta
from zslada.base_model import BaseModelMeta, PretrainConfig
from zslada.cli import RUNS, EvalSettings
from zslada.errors import ConfigError
from zslada.nn.mlp import MlpSpec
from zslada.settings import from_dict
from zslada.synthetic import SyntheticWorldSpec

from .helpers import bench_spec, wrong_values

SETTINGS = {
    "AdaConfig": AdaConfig(gen_hidden=(12, 7), disc_hidden=(9,), n_critic=3,
                           cycle_form="within_domain"),
    "PretrainConfig": PretrainConfig(learning_rate=3e-3, patience=4, mean_weight_decay=1e-4,
                                     seed=9),
    "SyntheticWorldSpec": bench_spec(seed=13, shift_magnitude=2.0, map_hidden=(5, 3),
                                     precision_range=(0.5, 2.0)),
    "MlpSpec": MlpSpec.dense((3, 4, 2), batchnorm=True, dropout=0.25),
    "EvalSettings": EvalSettings(n_samples=7, seed=3),
    "EvalRun": RUNS["eval"](world={"S": 2}, data="d", base="b.ckpt", eval={"seed": 1},
                            reports=("report_m1.csv", "report_m2.csv")),
}
# the checkpoint records, whose nested settings the codec reads too
SETTINGS.update({
    "AdaStateMeta": AdaStateMeta(config=SETTINGS["AdaConfig"], variant="std_da", phase="recovery",
                                 iteration=12, unseen_ids=(4, 5), agreement_estimate=0.5,
                                 empty_pseudo_ids=(5,), specs={"c_t": SETTINGS["MlpSpec"]},
                                 seeds={"c_t": 7}),
    "BaseModelMeta": BaseModelMeta(mean_spec=SETTINGS["MlpSpec"],
                                   prec_spec=MlpSpec.dense((3, 2)), mean_seed=1, prec_seed=2,
                                   include_logdet=False, attr_table_hash="0f",
                                   pretrain=SETTINGS["PretrainConfig"]),
})


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_json_round_trip(name):
    # JSON hands tuples back as lists; the codec turns them back into tuples
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
        from_dict(MlpSpec, {**spec, "bn_eps": 1e-5}, "network spec")


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


# Every class the command line and the checkpoint loaders read through the
# codec, each with a valid instance for the refused values to replace a field of.
TYPED = {name: SETTINGS[name] for name in
         ("AdaConfig", "PretrainConfig", "SyntheticWorldSpec", "MlpSpec", "EvalSettings",
          "AdaStateMeta", "BaseModelMeta")}
TYPED.update({cls.__name__: cls() for cls in RUNS.values()})

GRID = [(name, f.name) for name, value in TYPED.items() for f in dataclasses.fields(value)]


@pytest.mark.parametrize("name, key", GRID, ids=[f"{n}.{k}" for n, k in GRID])
def test_a_wrongly_typed_value_of_any_field_is_refused_by_name(name, key):
    base = TYPED[name]
    for value in wrong_values(get_type_hints(type(base))[key]):
        with pytest.raises(ConfigError) as err:
            from_dict(type(base), {key: value}, name, base=base)
        # a {"k": item} object is refused for its item
        item = isinstance(value, dict)
        where = f"{name} {key} key 'k'" if item else f"{name} key {key!r}"
        assert f"{where} must be " in str(err.value), value
        assert str(err.value).endswith(f", got {value['k'] if item else value!r}"), value
