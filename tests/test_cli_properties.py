"""Property test of the CLI contract: any parameter value gives a clean exit."""

import contextlib
import io
import json

import pytest

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


# vdw and refractive only: neither takes an n_max, so no draw can ask for a
# huge Fock space
@st.composite
def scenarios(draw):
    model = draw(st.sampled_from(["vdw", "refractive"]))
    names = sorted(MODELS[model].defaults)
    params = draw(st.dictionaries(st.sampled_from(names), PARAMETER_VALUES, max_size=3))
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
