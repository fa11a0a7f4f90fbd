"""The bytes of every output writer.

``write_json`` writes what ``json.dumps(data, indent=2, sort_keys=True) +
"\\n"`` gives, for any finite JSON data, and a record as its ``to_dict()``;
data that strict JSON cannot hold, NaN and Infinity included, raises and
writes no file. The CSV and checkpoint writers build each file in one
pass; each must give the bytes of the row-by-row formatting it replaced,
which is kept here as the reference. Nothing here trains.
"""

import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirnet import diagnostics
from hirnet.errors import write_json
from hirnet.harness import (RunOutcome, RunReport, TrainTraces, write_accuracy_csv,
                            write_report_json, write_trace_csv)
from hirnet.models import CHECKPOINT_MAGIC, MlpSpec, ModelParams, init_params, save_checkpoint

# Deterministic, and no example database written next to the sources; the row writers
# format each value alike, so fewer of their examples say as much.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
ROWS_PROPERTY = settings(PROPERTY, max_examples=80)

# st.floats() draws NaN, both infinities and subnormals too; these are drawn more often.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf, 0.1, 1e16, 1e-5, 123456789.0]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [f for f in EDGE_FLOATS if math.isfinite(f)])
strings = st.text(max_size=8) | st.sampled_from(['"', "\\", "\n\t", "é", " ", "😀", "\x00"])
leaves = (st.none() | st.booleans() | st.integers() | floats | floats.map(np.float64) | strings)
# The shapes written from joined reprs: a list of floats, and a list of rows of floats.
float_lists = st.lists(floats, max_size=6) | st.lists(finite_floats, min_size=1, max_size=6)
float_rows = st.lists(st.lists(finite_floats, min_size=1, max_size=4), min_size=1, max_size=4)
json_data = st.recursive(
    leaves | float_lists | float_rows | st.lists(st.lists(floats, max_size=3), max_size=3),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(strings, inner, max_size=4)),
    max_leaves=20)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """One folder for the module's files; each example overwrites the one before."""
    return tmp_path_factory.mktemp("writers")


def dumped(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


@PROPERTY
@given(data=json_data)
@example(data={"l_c": [0.5, math.nan], "l_h": [1e308, math.inf, -math.inf]})
@example(data={"per_domain_kl": [[0.25, 1.0], [math.nan, 2.0]]})
@example(data=[1.0, True, 2.0])
@example(data={"rows": [[1.5, False], [2.5]]})
@example(data=[[1e308], [1e308]])  # finite values whose sum is not
@example(data=([1.0], (2.0,), [], [[3.0]]))
@example(data={1: [math.nan]})  # a non-string key: json.dumps writes the whole dict
@example(data={"l_c": [0.5, 1e308], "per_domain_kl": [[0.25, 1.0], [5e-324, -0.0]]})
def test_write_json_gives_the_bytes_of_json_dumps(out, data):
    """Finite data as ``json.dumps`` writes it; data that ``json.dumps(...,
    allow_nan=False)`` rejects raises, with no file written."""
    path = out / "data.json"
    path.unlink(missing_ok=True)
    try:
        expected = dumped(data)
    except ValueError:
        with pytest.raises(ValueError):
            write_json(data, path)
        assert not path.exists()
    else:
        write_json(data, path)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("bad", [object(), np.int64(3), {1, 2}, {(1, 2): 0.5}, [[1.0, None, {3}]]],
                         ids=["object", "numpy-int", "set", "tuple-key", "set-in-rows"])
def test_a_value_json_cannot_encode_raises_and_leaves_the_file_as_it_was(tmp_path, bad):
    path = tmp_path / "report.json"
    path.write_text("the old report\n")
    with pytest.raises(TypeError):
        json.dumps(bad)
    with pytest.raises(TypeError):
        write_json({"runs": [{"traces": [[0.5, 1.5]] * 3, "value": bad}]}, path)
    assert path.read_text() == "the old report\n"


def traces(n_epochs: int, angles, values) -> TrainTraces:
    """Traces of ``n_epochs`` over domains at ``angles``, their values drawn from ``values``."""
    n = len(angles)
    take = iter(values)
    return TrainTraces(domain_params=list(angles),
                       l_c=[next(take) for _ in range(n_epochs)],
                       l_h=[next(take) for _ in range(n_epochs)],
                       per_domain_l_c=[[next(take) for _ in range(n)] for _ in range(n_epochs)],
                       per_domain_kl=[[next(take) for _ in range(n)] for _ in range(n_epochs)])


def outcome(held_out, seed, traces_, accuracy=0.75, params=None) -> RunOutcome:
    failed = traces_ is None
    return RunOutcome(held_out, 15.0 * held_out, seed, None if failed else accuracy, failed,
                      "non-finite loss at epoch 0" if failed else None, traces_,
                      None if failed else {"agreement": 0.5, "domain_mmd": [[0.0, 0.25]]},
                      params, 0.125)


def test_a_record_is_written_as_the_json_of_its_to_dict(tmp_path):
    params = init_params(MlpSpec((2, 3, 2), seed=1))  # not part of the report
    report = RunReport({"loss_kind": "hir", "seeds": (0, 1), "alpha": 1e-3},
                       [outcome(0, 0, traces(3, [15.0, 30.0], [0.5 + i for i in range(18)]),
                                params=params),
                        outcome(1, 0, traces(2, [0.0, 30.0], [5e-324, 1e308, -0.0] * 4)),
                        outcome(2, 1, None)],
                       {"0": {"mean_accuracy": 0.75, "sd_accuracy": None}}, 1.5)
    write_report_json(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == dumped(report.to_dict())
    assert "final_params" not in json.loads((tmp_path / "report.json").read_text())["runs"][0]


def reference_trace_csv(traces_: TrainTraces) -> str:
    """The row-by-row trace writer the one-pass writer replaced."""
    text = "epoch,domain,l_c,l_h\n"
    for epoch, (lc, lh) in enumerate(zip(traces_.l_c, traces_.l_h)):
        text += f"{epoch},total,{lc:.17g},{lh:.17g}\n"
        for d, angle in enumerate(traces_.domain_params):
            text += (f"{epoch},{angle:g},{traces_.per_domain_l_c[epoch][d]:.17g},"
                     f"{traces_.per_domain_kl[epoch][d]:.17g}\n")
    return text


@ROWS_PROPERTY
@given(n_epochs=st.integers(0, 4),
       angles=st.lists(finite_floats, min_size=1, max_size=4),
       values=st.lists(floats, min_size=40, max_size=40))
def test_trace_csv_gives_the_row_by_row_bytes(out, n_epochs, angles, values):
    traces_ = traces(n_epochs, angles, values * 2)
    path = out / "traces.csv"
    write_trace_csv(outcome(0, 0, traces_), path)
    assert path.read_text() == reference_trace_csv(traces_)


def reference_checkpoint(params: ModelParams) -> str:
    """The checkpoint writer the one-pass writer replaced: numpy scalars, row by row."""
    lines = [CHECKPOINT_MAGIC, "layer_sizes " + " ".join(str(s) for s in params.layer_sizes)]
    for w, b in zip(params.weights, params.biases):
        lines.append(f"W {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(f"{v:.17g}" for v in row) for row in w)
        lines.append(f"b 1 {b.shape[1]}")
        lines.append(" ".join(f"{v:.17g}" for v in b[0]))
    return "\n".join(lines) + "\n"


@ROWS_PROPERTY
@given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
       values=st.lists(floats, min_size=1, max_size=60))
def test_checkpoint_gives_the_row_by_row_bytes(out, sizes, values):
    params = init_params(MlpSpec(tuple(sizes), seed=0))
    for array in params.weights + params.biases:
        array.flat = np.resize(np.array(values), array.size)
    path = out / "model.ckpt"
    save_checkpoint(params, path)
    assert path.read_text() == reference_checkpoint(params)


@ROWS_PROPERTY
@given(angles=st.lists(finite_floats, min_size=1, max_size=4),
       values=st.lists(floats, min_size=16, max_size=16))
def test_domain_mmd_csv_gives_the_row_by_row_bytes(out, angles, values):
    n = len(angles)
    matrix = np.array(values[:n * n]).reshape(n, n)
    path = out / "domain_mmd.csv"
    diagnostics.write_domain_mmd_csv(matrix, angles, path)
    reference = ",".join(f"{a:g}" for a in angles) + "\n"
    reference += "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in matrix)
    assert path.read_text() == reference


@ROWS_PROPERTY
@given(classes=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       values=st.lists(floats, min_size=36, max_size=36))
def test_posterior_kl_csv_gives_the_row_by_row_bytes(out, classes, values):
    n = len(classes)
    kl = np.array(values[:n * n]).reshape(n, n)
    kl[np.arange(n), np.arange(n)] = np.nan  # never a present entry
    bundle = types.SimpleNamespace(posterior_kl=kl, probe_classes=np.array(classes))
    path = out / "posterior_kl.csv"
    diagnostics.write_posterior_kl_csv(bundle, path)
    i_idx, j_idx = np.nonzero(~np.isnan(kl))
    order = np.argsort(bundle.probe_classes[i_idx], kind="stable")
    reference = "i,j,class,value\n" + "".join(
        f"{i},{j},{bundle.probe_classes[i]},{kl[i, j]:.17g}\n"
        for i, j in zip(i_idx[order], j_idx[order]))
    assert path.read_text() == reference


def test_accuracy_csv_gives_the_row_by_row_bytes(tmp_path):
    reports = [RunReport({"loss_kind": kind, "alpha": alpha},
                         [outcome(0, 0, traces(1, [0.0], [0.5] * 4), accuracy=acc),
                          outcome(1, 3, None)], {}, 0.0)
               for kind, alpha, acc in (("hir", 1e-3, 1 / 3), ("mmd", 0.1, 1.0))]
    write_accuracy_csv(reports, tmp_path / "accuracy.csv")
    reference = "held_out,seed,loss_kind,alpha,accuracy\n"
    for report in reports:
        for run in report.runs:
            acc = "" if run.accuracy is None else f"{run.accuracy:.17g}"
            reference += (f"{run.held_out_param:g},{run.seed},{report.config['loss_kind']},"
                          f"{report.config['alpha']:g},{acc}\n")
    assert (tmp_path / "accuracy.csv").read_text() == reference
