"""Property tests of the CLI: any parameter value gives a clean exit, and the
serialization and argument fast paths equal their element-wise references."""

import contextlib
import dataclasses
import decimal
import io
import json
import math
import numbers
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

from qvdw import cli
from qvdw.cli import MODELS, main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every JSON value, NaN and the infinities included (json.dumps writes them
# as NaN/Infinity, which the --set parser reads back)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)
# numbers drawn on their own as well, so that most draws reach the models
PARAMETER_VALUES = st.floats() | st.integers() | st.booleans() | JSON_VALUES


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _solvable_above_16(value):
    """Whether ``value`` is an n_max the Fock oracle accepts and that costs
    more than a moment to solve (17 <= n_max <= 64)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 16 < value <= 64 and float(value).is_integer())


# any n_max, but of the n_max the Fock oracle solves only 12..16, so that the
# test stays quick; larger ones are refused by the dimension limit
N_MAX_VALUES = st.integers(12, 16) | PARAMETER_VALUES.filter(
    lambda value: not _solvable_above_16(value))


@st.composite
def scenarios(draw):
    model = draw(st.sampled_from(["vdw", "refractive", "entangle"]))
    names = sorted(MODELS[model].defaults)
    params = draw(st.dictionaries(st.sampled_from(names), PARAMETER_VALUES, max_size=3))
    if model == "entangle" and "n_max" in params:
        params["n_max"] = draw(N_MAX_VALUES)
    return model, params


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(scenarios())
def test_any_parameter_values_keep_the_exit_code_contract(scenario):
    model, params = scenario
    argv = [model, "--format", "json"]
    for key, value in params.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""


# --- every model, config documents and the physics invariants ---------------

def _sizes(low, high):
    """Whole numbers low..high, or any value but a whole number above high,
    which the models would solve at that size."""
    def not_above(value):
        return not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and value > high
                    and (isinstance(value, int) or float(value).is_integer()))
    return st.integers(low, high) | PARAMETER_VALUES.filter(not_above)


# values each model solves; vdw's separation starts below the instability at
# 2^(1/3) (unit mass, frequency and charge), so some draws end in exit 3
SOLVABLE = {
    "vdw": {"mass": st.floats(0.5, 2.0), "freq": st.floats(0.5, 2.0),
            "charge": st.floats(0.0, 1.0), "coulomb_k": st.floats(0.1, 1.0),
            "separation": st.floats(1.0, 100.0)},
    "refractive": {"freq": st.floats(0.1, 10.0), "index": st.floats(1.0, 4.0)},
    "entangle": {"coupling": st.floats(0.0, 0.9), "n_max": st.integers(12, 16)},
    "dispersive": {"qubit_freq": st.floats(0.1, 10.0), "mode_freq": st.floats(0.1, 10.0),
                   "coupling": st.floats(-0.5, 0.5)},
    "full": {"qubit_freq": st.floats(0.1, 10.0), "n_max": st.integers(2, 6),
             "dim_limit": st.integers(2, 4096)},
}
# full builds one mode per item of a mode list, so every list, string and
# dict drawn for one holds at most one item: at most one field and one dipole
# mode, which with n_max <= 6 keeps the n_max + 1 leak check at dimension 98
ONE_ITEM = (st.lists(PARAMETER_VALUES, max_size=1) | st.text(max_size=1)
            | st.dictionaries(st.text(max_size=1), JSON_VALUES, max_size=1)
            | st.none() | st.booleans() | st.integers() | st.floats())
# any value, but never an n_max or a dim_limit that would be solved at size
ANY = {
    "entangle": {"n_max": N_MAX_VALUES},
    "full": {"n_max": _sizes(2, 6), "dim_limit": _sizes(0, 4096),
             **dict.fromkeys(("field_freqs", "dipole_freqs", "qubit_field_couplings",
                              "dipole_field_couplings"), ONE_ITEM)},
}


@st.composite
def full_modes(draw):
    """Mode lists that fit together: at most one field and one dipole mode."""
    n_field, n_dipole = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    freqs, couplings = st.floats(0.1, 10.0), st.floats(-0.5, 0.5)
    return {"field_freqs": draw(st.lists(freqs, min_size=n_field, max_size=n_field)),
            "dipole_freqs": draw(st.lists(freqs, min_size=n_dipole, max_size=n_dipole)),
            "qubit_field_couplings": draw(st.lists(couplings, min_size=n_field,
                                                   max_size=n_field)),
            "dipole_field_couplings": [[draw(couplings)] * n_field] * n_dipole}


@st.composite
def parameters(draw, model):
    """Some of the model's parameters: about half the draws take every value
    from its solvable range, the others may take any value for any of them."""
    names = sorted(MODELS[model].defaults)
    keys = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    if draw(st.booleans()):
        params = {key: draw(SOLVABLE[model][key]) for key in keys
                  if key in SOLVABLE[model]}
        return {**params, **draw(full_modes())} if model == "full" else params
    return {key: draw(SOLVABLE[model].get(key, st.nothing())
                      | ANY.get(model, {}).get(key, PARAMETER_VALUES))
            for key in keys}


class InTmp(str):
    """A file name that the test places inside its temporary directory."""


# never an int or a bool (a file descriptor) and never a relative path
PATHS = (st.floats() | st.lists(JSON_VALUES, max_size=2) | st.none()
         | st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2)
         | st.sampled_from(["out.txt", "missing/out.txt"]).map(InTmp))


@st.composite
def sweeps(draw, model):
    """About half the draws sweep a sweepable parameter across its solvable
    range; the others hold any value, with at most 4 points when whole."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(MODELS[model].sweepable)))
        sweep = {"parameter": name, "start": draw(SOLVABLE[model][name]),
                 "stop": draw(SOLVABLE[model][name]), "points": draw(st.integers(2, 4))}
        return {**sweep, **draw(st.fixed_dictionaries({}, optional={"log": st.booleans()}))}
    return draw(JSON_VALUES | st.fixed_dictionaries(
        {"parameter": st.sampled_from(sorted(MODELS[model].sweepable)) | JSON_VALUES,
         "start": PARAMETER_VALUES, "stop": PARAMETER_VALUES, "points": _sizes(2, 4)},
        optional={"log": st.booleans() | JSON_VALUES}))


OUTPUTS = (JSON_VALUES.filter(lambda value: not (isinstance(value, dict) and "path" in value))
           | st.fixed_dictionaries({}, optional={
               "format": st.sampled_from(["csv", "json"]) | JSON_VALUES, "path": PATHS}))


@st.composite
def documents(draw):
    model = draw(st.sampled_from(sorted(MODELS)))
    doc = draw(st.fixed_dictionaries({}, optional={
        "parameters": parameters(model) | JSON_VALUES, "sweep": sweeps(model),
        "output": OUTPUTS, "si_scale_factors": JSON_VALUES}))
    return model, doc


def _columns(text, out_format):
    if out_format == "json":
        return json.loads(text, parse_constant=_reject_constant)["columns"]
    header, *rows = text.splitlines()
    values = [[float(v) for v in row.split(",")] for row in rows]
    assert all(len(row) == len(header.split(",")) for row in values)
    return {name: [row[i] for row in values] for i, name in enumerate(header.split(","))}


def _check_invariants(model, columns):
    for column in columns.values():
        assert all(math.isfinite(v) for v in column)
    if model == "vdw":
        assert max(columns["exact_shift"]) <= 0.0
        assert max(columns["pert_shift"]) <= 0.0
    if model == "entangle":
        assert min(columns["E_N_gaussian"]) >= 0.0
        assert min(columns["E_N_fock"]) >= -1e-12
    if model == "full":
        assert min(columns["overlap_ground"] + columns["overlap_excited"]) > 0.5


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
    return code, out.getvalue()


@st.composite
def flag_scenarios(draw):
    model = draw(st.sampled_from(sorted(MODELS)))
    return model, draw(parameters(model)), draw(st.sampled_from(["csv", "json"]))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(flag_scenarios())
def test_every_model_keeps_the_contract_and_its_invariants(scenario):
    model, params, out_format = scenario
    argv = [model, "--format", out_format]
    for key, value in params.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    code, out = _main(argv)
    if code == 0:
        _check_invariants(model, _columns(out, out_format))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(documents())
def test_any_config_document_keeps_the_contract_and_its_invariants(drawn):
    model, doc = drawn
    with tempfile.TemporaryDirectory() as tmp:
        output = doc.get("output")
        path = output.get("path") if isinstance(output, dict) else None
        if isinstance(path, InTmp):
            doc = {**doc, "output": {**output, "path": os.path.join(tmp, path)}}
        config = os.path.join(tmp, "scenario.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out = _main([model, "--config", config])
        if code == 0:
            if isinstance(path, InTmp):
                assert out == ""
                with open(doc["output"]["path"], encoding="utf-8") as fh:
                    out = fh.read()
            _check_invariants(model, _columns(out, output.get("format", "csv")
                                              if isinstance(output, dict) else "csv"))


# --- sweeps against one-point calls ----------------------------------------

# sweep bounds and parameter values reaching past each model's range: vdw's
# instability, dispersive's exact resonance with the default mode_freq 5,
# couplings whose square overflows, an index below 1, negative frequencies
BOUNDS = st.floats(-1.0, 12.0) | st.sampled_from([0.0, 1.0, 4.0, 5.0, 6.0, 1e-200, 1e200])
CLOSED_FORM = ("vdw", "dispersive", "refractive")


@st.composite
def closed_form_sweeps(draw):
    model = draw(st.sampled_from(CLOSED_FORM))
    parameter = draw(st.sampled_from(sorted(MODELS[model].sweepable)))
    names = draw(st.lists(st.sampled_from(sorted(MODELS[model].defaults)), unique=True))
    others = {name: draw(SOLVABLE[model][name] | BOUNDS) for name in names
              if name != parameter}
    bounds = (draw(BOUNDS), draw(BOUNDS), draw(st.integers(2, 9)), draw(st.booleans()))
    return model, parameter, others, bounds, draw(st.sampled_from(["csv", "json"]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _tokens(text, out_format):
    """Each column's printed numbers, as the text the output holds."""
    if out_format == "json":
        return json.loads(text, parse_float=str, parse_int=str)["columns"]
    header, *rows = text.splitlines()
    return {name: [row.split(",")[i] for row in rows]
            for i, name in enumerate(header.split(","))}


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(closed_form_sweeps())
@hypothesis.example(("dispersive", "qubit_freq", {}, (4.0, 6.0, 3, False), "csv"))
@hypothesis.example(("dispersive", "mode_freq", {"coupling": 1e200}, (1.0, 3.0, 4, False), "json"))
@hypothesis.example(("dispersive", "coupling", {}, (0.1, 1e200, 3, True), "csv"))
@hypothesis.example(("dispersive", "qubit_freq", {}, (3.0, -1.0, 5, False), "csv"))
@hypothesis.example(("refractive", "index", {}, (2.0, 0.5, 4, False), "json"))
@hypothesis.example(("refractive", "freq", {"index": 1.5}, (-1.0, 2.0, 5, False), "csv"))
@hypothesis.example(("vdw", "separation", {}, (5.0, 1.0, 5, True), "json"))
def test_sweep_rows_equal_one_point_calls(drawn):
    model, parameter, others, (start, stop, points, log), out_format = drawn
    argv = [model, "--format", out_format]
    for key, value in others.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    sweep = ["--sweep", f"{parameter}={start!r}:{stop!r}:{points}" + (":log" if log else "")]
    code, out, err = _run(argv + sweep)
    # the same sweep evaluated row by row prints the same bytes
    rows_only = dataclasses.replace(MODELS[model], broadcasts=frozenset())
    with mock.patch.dict(MODELS, {model: rows_only}):
        assert _run(argv + sweep) == (code, out, err)
    if code != 0:
        assert out == "" and len(err.splitlines()) == 1
        # a model error at a row is that row's own one-point error, its value first
        prefix = f"qvdw: model error: {parameter}="
        if err.startswith(prefix):
            value, message = err[len(prefix):].split(": ", 1)
            one = _run(argv + ["--set", f"{parameter}={json.dumps(float(value))}"])
            assert one == (3, "", "qvdw: model error: " + message)
        return
    swept = _tokens(out, out_format)
    assert len(swept[parameter]) == points
    for k, value in enumerate(swept[parameter]):
        one_code, one_out, _ = _run(argv + ["--set", f"{parameter}={json.dumps(float(value))}"])
        assert one_code == 0
        assert {name: column[k] for name, column in swept.items() if name != parameter} \
            == {name: column[0] for name, column in _tokens(one_out, out_format).items()}
        if out_format == "csv":
            assert out.splitlines()[k + 1] == f"{value},{one_out.splitlines()[1]}"


# --- fast paths against their element-wise definitions ----------------------

def _is_finite_reference(value):
    """cli._is_finite without its flat-list fast path."""
    if isinstance(value, dict):
        return all(_is_finite_reference(v) for v in value.values())
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(_is_finite_reference(v) for v in value)
    if isinstance(value, numbers.Real):
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return True


def _json_dumps_reference(obj, indent=0):
    """cli._json_dumps without its flat float-list fast path."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{inner}{json.dumps(str(k))}: {_json_dumps_reference(v, indent + 1)}"
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_dumps_reference(v, indent) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# floats (NaN and the infinities included), np.float64, ints (some too large
# for a float), bools, and a few non-numbers
NUMBERS = (st.floats() | st.floats().map(np.float64) | st.integers()
           | st.sampled_from([10**400, -10**400]) | st.booleans() | st.booleans().map(np.bool_))
LEAVES = NUMBERS | st.none() | st.text(max_size=4)
NESTED = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=12)


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(st.lists(NUMBERS, max_size=12) | st.lists(st.floats(), max_size=60)
                  | st.lists(st.floats().map(np.float64), max_size=60) | NESTED)
def test_finite_check_and_json_equal_their_reference(value):
    assert cli._is_finite(value) == _is_finite_reference(value)
    # numbers that convert to float but are not numbers.Real count as finite
    with_odd = (value if isinstance(value, list) else []) + [
        decimal.Decimal("NaN"), decimal.Decimal("sNaN"), decimal.Decimal("Infinity")]
    assert cli._is_finite(with_odd) == _is_finite_reference(with_odd)
    assert cli._json_dumps(value) == _json_dumps_reference(value)
    if isinstance(value, list) and all(isinstance(v, float) for v in value):
        array = np.array(value)
        assert cli._is_finite(array) == _is_finite_reference(array)
        assert cli._json_dumps(array) == _json_dumps_reference(array)


# ints too large for a float are left out: the CSV writer has no finiteness check
CSV_VALUES = NUMBERS.filter(lambda v: not isinstance(v, int) or abs(v) < 10**300)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.lists(st.tuples(CSV_VALUES, CSV_VALUES, CSV_VALUES), max_size=6))
def test_csv_rows_equal_their_reference(rows):
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    table = cli.ResultTable({f"c{i}": column for i, column in enumerate(columns)}, {})
    want = [",".join(table.columns)]
    want += [",".join("%.17g" % float(v) for v in row) for row in rows]
    assert table.to_csv() == "\n".join(want) + "\n"
