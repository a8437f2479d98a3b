"""JSON rendering: the emitter against the stdlib encoder, and no garbage."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envstat.report import CheckRecord, RunReport, render_json
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
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
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


any_text = st.text(alphabet=st.characters(exclude_categories=()))
names = st.one_of(any_text, st.sampled_from(['say "x"', "back\\slash", "ünïcødé ✓ 中"]))
records = st.builds(CheckRecord, names, scalars, scalars, scalars, st.booleans(), names, names)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(checks=st.lists(records, max_size=5), prefix=st.none() | names)
@example(checks=[], prefix=None)
def test_render_json_matches_stdlib_on_arbitrary_checks(checks, prefix):
    report = RunReport("property", {}, checks=checks)
    if prefix is not None:  # full-suite's prefixed names
        suite = RunReport("suite", {})
        suite.merge(report, prefix)
        report = suite
    assert render_json(report) == stdlib_json(report)


float_items = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1e307, 1.7976931348623157e308),
    st.floats(-1.7976931348623157e308, -1e307),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(float_items, max_size=8))
@example([1e308, 1e308])  # finite items whose sum overflows
@example([0.5, math.nan])
@example([-math.inf, 1.0])
@example([np.float64(0.1), 0.2])
def test_render_json_matches_stdlib_on_float_lists(items):
    report = RunReport("floats", {"items": items},
                       data={"list": items, "tuple": tuple(items), "nested": [items, {"x": items}]})
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
