"""JSON rendering: the emitter against the stdlib encoder, and no garbage."""

import gc
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envstat.report import RunReport, render_json
from envstat.scenarios import SCENARIOS, resolve_config, run_scenario


def stdlib_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2, allow_nan=True) + "\n"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_render_json_matches_stdlib_for_every_scenario(scenario):
    report = run_scenario(resolve_config({"scenario": scenario}))
    assert render_json(report) == stdlib_json(report)


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  1e16, 1e-7, 0.1, 2.0**53, 1.7976931348623157e308)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(alphabet=st.characters(exclude_categories=())),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(alphabet=st.characters(exclude_categories=())),
                        children, max_size=4)),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(config=st.dictionaries(st.text(), values, max_size=4), value=values)
def test_render_json_matches_stdlib_on_arbitrary_values(config, value):
    report = RunReport("property", config, data={"value": value}, wall_time_s=-0.0)
    assert render_json(report) == stdlib_json(report)


def test_render_json_rejects_what_stdlib_rejects():
    with pytest.raises(TypeError):
        render_json(RunReport("bad", {}, data={"value": object()}))


def test_quantum_cycle_op_leaves_no_reference_cycles():
    raw = {"scenario": "quantum-cycle"}
    render_json(run_scenario(resolve_config(raw)))  # first call may set up caches
    gc.collect()
    gc.disable()
    try:
        render_json(run_scenario(resolve_config(raw)))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
