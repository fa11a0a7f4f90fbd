"""Properties of the program's input codecs.

Any JSON value given to ``from_dict`` of a config (``JsonConfig``) is
either rejected with ``ConfigError`` or loads into a config that survives a
JSON round trip unchanged. Any damaged checkpoint text given to ``hirnet
diag`` either exits 0 with finite outputs or exits 2 with ``config error``,
never with a traceback or a warning. Nothing here trains.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirnet.cli import main
from hirnet.data import DEFAULT_ANGLES, GENERATOR_KINDS, SuiteSpec
from hirnet.errors import ConfigError, write_json
from hirnet.harness import LOSS_KINDS, ExperimentConfig, OptimizerConfig
from hirnet.models import MlpSpec, init_params, save_checkpoint

# Deterministic, and no example database written next to the sources.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)


def objects_of(cls, valid, fit=lambda raw: raw):
    """JSON objects with any of ``cls``'s fields, each value drawn from its
    ``valid`` strategy and then made to ``fit`` the others; half of them then
    get one field, or one stray key, set to any JSON value."""
    names = [f.name for f in dataclasses.fields(cls)]
    fields = st.fixed_dictionaries({}, optional={n: valid[n] for n in names}).map(fit)
    damage = st.tuples(st.sampled_from(names) | st.text(max_size=6), json_values)
    return fields | st.builds(lambda raw, kv: {**raw, kv[0]: kv[1]}, fields, damage)


prior_shift_rows = st.sampled_from([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75], [0, 1]])


def one_row_per_angle(raw):
    """A suite object whose prior_shift, if it has rows, is cycled to one row
    per angle and, as its rows have two columns, whose gaussians have two classes."""
    rows = raw.get("prior_shift")
    if not rows:
        return raw
    n_angles = len(raw.get("angles", DEFAULT_ANGLES))
    raw = {**raw, "prior_shift": [rows[i % len(rows)] for i in range(n_angles)]}
    return {**raw, "class_count": 2} if raw.get("kind") == "gaussians" else raw


suite_objects = objects_of(SuiteSpec, {
    "kind": st.sampled_from(GENERATOR_KINDS),
    "n_per_class": st.integers(1, 500),
    "angles": st.lists(st.floats(-360, 360) | st.integers(-360, 360), min_size=1, max_size=7),
    "noise_sd": st.floats(0, 1),
    "seed": st.integers(0, 2**70),
    "class_count": st.integers(2, 6),
    "prior_shift": st.none() | st.lists(prior_shift_rows, min_size=1, max_size=7),
    "prior_shift_seed": st.integers(0, 99),
}, one_row_per_angle)
optimizer_objects = objects_of(OptimizerConfig, {
    "lr": st.floats(0, 1, exclude_min=True, exclude_max=True)})
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
    assert raw["optimizer"] == {"lr": 1e-3}


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


@pytest.fixture(scope="module")
def diag_inputs(tmp_path_factory):
    """A checkpoint's text and a suite manifest it fits."""
    root = tmp_path_factory.mktemp("diag")
    save_checkpoint(init_params(MlpSpec((2, 4, 2), seed=3)), root / "model.ckpt")
    suite = SuiteSpec(kind="moons", n_per_class=10, angles=(0.0, 30.0), seed=1)
    write_json(suite.to_dict(), root / "suite.json")
    return root, (root / "model.ckpt").read_bytes()


def diag_accepts(root, text: bytes) -> bool:
    """Run ``hirnet diag`` on the checkpoint ``text``; True if it exits 0,
    with finite outputs, False if it exits 2 with ``config error`` and
    writes nothing. A warning fails, as does any other ending."""
    ckpt, out = root / "damaged.ckpt", root / "out"
    ckpt.write_bytes(text)
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(root / "suite.json"),
                     "--out", str(out)])
    if code == 2:
        assert err.getvalue().startswith("config error: ") and not out.exists()
        return False
    assert code == 0

    def no_constant(name):
        raise AssertionError(f"{name} in diag_summary.json")

    summary = json.loads((out / "diag_summary.json").read_text(), parse_constant=no_constant)
    values = [v for v in summary.values() if isinstance(v, float)]
    values += [float(v) for line in (out / "domain_mmd.csv").read_text().splitlines()[1:]
               for v in line.split(",")]
    values += [float(line.split(",")[-1])
               for line in (out / "posterior_kl.csv").read_text().splitlines()[1:]]
    assert all(math.isfinite(v) for v in values)
    return True


def test_intact_checkpoint_is_accepted(diag_inputs):
    assert diag_accepts(*diag_inputs)


def test_checkpoint_truncated_at_any_line_exits_2(diag_inputs):
    root, text = diag_inputs
    lines = text.splitlines(keepends=True)
    for keep in range(len(lines)):
        assert not diag_accepts(root, b"".join(lines[:keep]))


replacement_tokens = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e308", "-1", "0", "-7", str(2**63),
    str(10**400), "99999999999", ""]) | st.integers(-2**70, 2**70).map(str)


@pytest.mark.parametrize("damage", ["token", "byte"])
def test_damaged_checkpoint_exits_0_with_finite_outputs_or_2(diag_inputs, damage):
    root, text = diag_inputs
    lines = text.decode().splitlines()
    places = [(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))]
    accepted = []
    if damage == "token":
        changes = st.tuples(st.sampled_from(places), replacement_tokens)
    else:
        changes = st.tuples(st.integers(0, len(text) - 1), st.integers(0, 7))

    def damaged(change) -> bytes:
        if damage == "byte":  # one bit of one byte flipped
            at, bit = change
            return text[:at] + bytes([text[at] ^ 1 << bit]) + text[at + 1:]
        (i, j), token = change
        edited = list(lines)
        edited[i] = " ".join(token if k == j else tok for k, tok in enumerate(lines[i].split()))
        return ("\n".join(edited) + "\n").encode()

    @PROPERTY
    @given(change=changes)
    def check(change):
        accepted.append(diag_accepts(root, damaged(change)))

    check()
    # Both endings must be common, or the property says little.
    assert min(sum(accepted), len(accepted) - sum(accepted)) >= 30
