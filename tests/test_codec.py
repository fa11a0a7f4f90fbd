"""Properties of the config codec shared by every config file (``JsonConfig``).

Any JSON value given to ``from_dict`` is either rejected with ``ConfigError``
or loads into a config that survives a JSON round trip unchanged. Nothing
here builds a suite or trains.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirnet.data import GENERATOR_KINDS, SuiteSpec
from hirnet.errors import ConfigError
from hirnet.harness import LOSS_KINDS, ExperimentConfig, OptimizerConfig

# Deterministic, and no example database written next to the sources.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)


def objects_of(cls, valid):
    """JSON objects with any of ``cls``'s fields, each value drawn from its
    ``valid`` strategy; half of them then get one field, or one stray key,
    set to any JSON value."""
    names = [f.name for f in dataclasses.fields(cls)]
    fields = st.fixed_dictionaries({}, optional={n: valid[n] for n in names})
    damage = st.tuples(st.sampled_from(names) | st.text(max_size=6), json_values)
    return fields | st.builds(lambda raw, kv: {**raw, kv[0]: kv[1]}, fields, damage)


prior_shift_rows = st.sampled_from([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75], [0, 1]])
suite_objects = objects_of(SuiteSpec, {
    "kind": st.sampled_from(GENERATOR_KINDS),
    "n_per_class": st.integers(1, 500),
    "angles": st.lists(st.floats(-360, 360) | st.integers(-360, 360), min_size=1, max_size=7),
    "noise_sd": st.floats(0, 1),
    "seed": st.integers(0, 2**70),
    "class_count": st.integers(2, 6),
    "prior_shift": st.none() | st.lists(prior_shift_rows, min_size=1, max_size=7),
    "prior_shift_seed": st.integers(0, 99),
})
optimizer_objects = objects_of(OptimizerConfig, {
    name: st.floats(-1, 1) | st.integers(-9, 9) for name in ("lr", "beta1", "beta2", "eps")})
experiment_objects = objects_of(ExperimentConfig, {
    "suite": suite_objects,
    "hidden_sizes": st.lists(st.integers(1, 64), max_size=3),
    "loss_kind": st.sampled_from(LOSS_KINDS),
    "alpha": st.floats(0, 10) | st.integers(0, 9),
    "normalize_hir": st.booleans(),
    "cross_domain_only": st.booleans(),
    "paired": st.booleans(),
    "optimizer": optimizer_objects,
    "epochs": st.integers(1, 500),
    "per_class_per_domain": st.integers(1, 9),
    "seeds": st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
    "held_out": st.just("all") | st.integers(0, 5),  # out of range if fewer angles
    "collect_diagnostics": st.booleans(),
})


def rejected_or_round_tripped(cls, raw):
    """``raw`` loaded as ``cls`` after checking it round-trips; None if rejected."""
    try:
        config = cls.from_dict(raw)
    except ConfigError:
        return None
    assert isinstance(config, cls)
    assert cls.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    return config


@pytest.mark.parametrize("cls", [ExperimentConfig, SuiteSpec, OptimizerConfig])
@PROPERTY
@given(raw=json_values)
def test_any_json_value_is_rejected_or_round_trips(cls, raw):
    rejected_or_round_tripped(cls, raw)


@pytest.mark.parametrize("cls, objects, default", [
    (ExperimentConfig, experiment_objects, ExperimentConfig()),
    (SuiteSpec, suite_objects, SuiteSpec()),
], ids=["experiment", "suite"])
def test_config_objects_are_rejected_or_round_trip(cls, objects, default):
    accepted = []

    @PROPERTY
    @given(raw=objects)
    def check(raw):
        accepted.append(rejected_or_round_tripped(cls, raw))

    check()
    # The property says little unless many objects are accepted, and varied.
    assert sum(c is not None and c != default for c in accepted) >= 50


def test_to_dict_writes_every_field_as_json_data():
    config = ExperimentConfig(suite=SuiteSpec(prior_shift=[(1, 0)] * 6), seeds=(3, 4))
    raw = config.to_dict()
    assert list(raw) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert raw["seeds"] == [3, 4] and raw["hidden_sizes"] == [32]
    assert raw["suite"]["angles"] == [0.0, 15.0, 30.0, 45.0, 60.0, 75.0]
    assert raw["suite"]["prior_shift"] == [[1.0, 0.0]] * 6
    assert raw["optimizer"] == {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


@pytest.mark.parametrize("raw", ["abc", [1], {"suite": "abc"}, {"optimizer": None}])
def test_non_objects_rejected(raw):
    # "abc" must not read as the unknown fields 'a', 'b' and 'c'.
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ExperimentConfig.from_dict(raw)


def test_read_turns_unreadable_files_into_config_errors(tmp_path):
    binary = tmp_path / "config.json"
    binary.write_bytes(b"\xff\xfe")
    for path in (binary, tmp_path):  # not UTF-8 text; a directory
        with pytest.raises(ConfigError):
            ExperimentConfig.read(path)
