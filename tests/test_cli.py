"""CLI contracts: exit codes, determinism, config handling, schemas."""

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envstat.cli import main
from envstat.errors import ConfigError
from envstat.scenarios import SCENARIOS, resolve_config, run_scenario
from envstat.szilard import split_spectrum


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"wall_time_s"' not in line)


# ---------------------------------------------------------------------------
# basic runs and exit codes
# ---------------------------------------------------------------------------

def test_born_finegrain_reports_exact_rational(capsys):
    code, out, err = run_cli(["born-finegrain", "--mu", "3", "--nu", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["data"]["p_up"] == "3/8"
    assert report["data"]["p_up_numerator"] == 3
    assert report["passed"] is True
    assert "4/4 checks passed" in err


def test_quantum_cycle_reports_log2_gain(capsys, tmp_path):
    out_path = tmp_path / "qc.json"
    code, _, _ = run_cli(["quantum-cycle", "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    gain = by_name["measurement_delta_a_over_kt"]
    assert gain["passed"] is True
    assert abs(gain["measured"] - 0.6931471805599453) < 0.02
    assert report["config"]["engine"]["temperature"] == 1000.0


def test_negative_length_is_config_error(capsys, tmp_path):
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(
        ["quantum-cycle", "--L", "-1", "--out", str(out_path)], capsys)
    assert code == 2
    assert "config error" in err
    assert not out_path.exists()  # no partial output file


@pytest.mark.parametrize("flags", [
    ["quantum-cycle", "--T", "nan"],
    ["quantum-cycle", "--U", "nan"],
    ["quantum-cycle", "--T", "inf"],
    ["quantum-cycle", "--U", "1e-3"],  # every doublet sits above the barrier
    ["quantum-cycle", "--T", "0.00125"],  # eps*beta = 800: every box weight underflows
    ["quantum-cycle", "--T", "0.005"],  # the box sum survives, the doublet sum underflows
    ["quantum-cycle", "--L", "1e160"],  # L^2 overflows in epsilon
    ["spectrum-split", "--L", "1e200"],
    ["quantum-cycle", "--n-trunc", "4097"],  # past the 4096-level budget
    ["quantum-cycle", "--U", "1e6"],  # doublet 12's splitting is below float resolution
    ["spectrum-split", "--U", "1e6"],  # so is doublet 1's
])
def test_invalid_engine_input_fails_closed(capsys, tmp_path, flags):
    out_path = tmp_path / "never.json"
    code, out, err = run_cli([*flags, "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert not out_path.exists()


def test_fd_levels_past_the_grid_resolution_fail_closed(capsys, tmp_path):
    # levels near 9e6 sit above 2t of the 4999-node grid, where the centre
    # cell's amplitude ratio changes sign and the grid cannot resolve them
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({
        "engine": {"barrier_height": 1e8, "barrier_width": 3e-5, "n_trunc": 3000},
        "params": {"n_pairs": 1500}}))
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(
        ["spectrum-split", "--config", str(cfg), "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: finite-difference levels this high change sign inside "
                   "the barrier edge cells; the grid is too coarse\n")
    assert not out_path.exists()


@pytest.mark.parametrize("engine,reason", [
    ({"hbar": 1e200},  # hbar^2 overflows
     "derived scale epsilon overflows or underflows double precision"),
    ({"kb": 1e300, "temperature": 1e10},  # kT overflows, so beta = 0
     "derived scale beta overflows or underflows double precision"),
    ({"kb": 1e-300, "temperature": 1e-300},  # kT underflows to 0
     "derived scale beta overflows or underflows double precision"),
    ({"n_trunc": 900.5}, "n_trunc must be an integer, got 900.5"),
    ({"n_trunc": True}, "n_trunc must be an integer, got True"),
    ({"n_trunc": 100_000_000},
     "n_trunc must lie in 1..4096, the desk-scale level budget; got 100000000"),
    ({"temperature": True}, "temperature must be a number, not a bool"),
    ({"barrier_height": False}, "barrier_height must be a number, not a bool"),
], ids=["hbar-overflow", "kt-overflow", "kt-underflow", "n-trunc-float",
        "n-trunc-bool", "n-trunc-huge", "temperature-bool", "barrier-bool"])
def test_config_file_with_overflowing_scales_fails_closed(capsys, tmp_path, engine, reason):
    cfg = tmp_path / "engine.json"
    cfg.write_text(json.dumps({"engine": engine}))
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(
        ["quantum-cycle", "--config", str(cfg), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"config error: invalid engine config: {reason}"]
    assert not out_path.exists()


# a tolerance other than the fixed one is rejected; restating the fixed ones
# is accepted, as every rerun from an embedded config shows
@pytest.mark.parametrize("tols,reason", [
    *(({"decomposition": v}, f"tolerance decomposition is fixed at 1e-10; got {v!r}")
      for v in ("x", -1, math.nan, True, 1e-3)),
    ({"looseness": 1e-3}, "unknown tolerances field(s): looseness"),
], ids=["string", "negative", "nan", "bool", "loosened", "unknown"])
def test_tolerances_are_fixed(capsys, tmp_path, tols, reason):
    cfg = tmp_path / "tols.json"
    cfg.write_text(json.dumps({"tolerances": tols}))
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(
        ["envariance-check", "--config", str(cfg), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"config error: {reason}"]
    assert not out_path.exists()


@pytest.mark.parametrize("raw", [
    {"engine": 5}, {"engine": None}, {"params": "ab"}, {"params": [1]},
    {"tolerances": 5}, {"tolerances": "ab"}, {"output": 5}, {"output": "ab"},
    {"output": {"path": ["a"]}}, {"output": {"path": 2.5}},
], ids=lambda raw: json.dumps(raw))
def test_malformed_config_section_fails_closed(capsys, tmp_path, monkeypatch, raw):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    code, out, err = run_cli(["born-finegrain", "--config", "cfg.json"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_integer_output_path_fails_closed(tmp_path):
    # open(2) would write the report to file descriptor 2 and close it, so
    # this runs in its own process
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": {"path": 2}}))
    proc = subprocess.run(
        [sys.executable, "-m", "envstat.cli", "born-finegrain", "--config", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "config error: output path must be a string or null, not int"]


# the largest admitted value of each param, and a scenario that takes it
PARAM_BOUNDS = {
    "rank": (1024, "envariance-check"),
    "mu": (4095, "born-finegrain"),
    "nu": (4095, "born-finegrain"),
    "max_rank": (64, "theorem-sweep"),
    "n_unitaries": (1000, "theorem-sweep"),
    "n_pairs": (2048, "spectrum-split"),
    "samples": (10_000_000, "classical-cycle"),
}


@pytest.mark.parametrize("param", sorted(PARAM_BOUNDS))
def test_param_upper_bounds(param):
    # resolved only: a run at the bound would not be desk scale
    bound, scenario = PARAM_BOUNDS[param]
    assert resolve_config(
        {"scenario": scenario, "params": {param: bound}}).params[param] == bound
    with pytest.raises(ConfigError, match=f"param {param} must be at most {bound}"):
        resolve_config({"scenario": scenario, "params": {param: bound + 1}})


# junk that no numeric field admits: wrong types, bools, non-finite values,
# zero and negatives
_JUNK = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=0), st.floats(max_value=0.0),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_NOT_AN_OBJECT = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(), st.integers(), st.floats(),
    st.lists(st.integers(), max_size=2))
_POSITIVE_ENGINE_FIELDS = ("mass", "box_length", "barrier_width", "temperature",
                           "hbar", "kb")
_SECTIONS = ("engine", "tolerances", "params", "output")


@st.composite
def broken_configs(draw):
    """A scenario's fully resolved config with one field replaced by junk."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    raw = resolve_config({"scenario": scenario}).to_dict()
    kinds = ["engine", "n_trunc", "seeds", "section", "unknown", "tolerance",
             "output_path", "output_format"] + (["param"] if raw["params"] else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "engine":
        raw["engine"][draw(st.sampled_from(_POSITIVE_ENGINE_FIELDS))] = draw(_JUNK)
    elif kind == "n_trunc":
        raw["engine"]["n_trunc"] = draw(st.one_of(
            _JUNK.filter(lambda v: v is not None), st.floats(1.0, 4096.0),
            st.integers(4097, 10**12)))
    elif kind == "param":
        key = draw(st.sampled_from(sorted(raw["params"])))
        bound = PARAM_BOUNDS[key][0]
        raw["params"][key] = draw(st.one_of(
            _JUNK, st.floats(1.0, 1e6), st.integers(bound + 1, 10**12)))
    elif kind == "seeds":
        raw["seeds"] = draw(st.one_of(
            _NOT_AN_OBJECT.filter(lambda v: not isinstance(v, list)),
            st.just([]), st.lists(_JUNK.filter(lambda v: v != 0), min_size=1, max_size=2)))
    elif kind == "section":
        raw[draw(st.sampled_from(_SECTIONS))] = draw(_NOT_AN_OBJECT)
    elif kind == "unknown":
        key = "x-" + draw(st.text(max_size=3))
        section = draw(st.sampled_from((None,) + _SECTIONS))
        (raw if section is None else raw[section])[key] = 1
    elif kind == "tolerance":
        key = draw(st.sampled_from(sorted(raw["tolerances"])))
        fixed = raw["tolerances"][key]
        raw["tolerances"][key] = draw(st.one_of(
            _JUNK, st.floats().filter(lambda v: v != fixed)))
    elif kind == "output_path":
        raw["output"]["path"] = draw(_NOT_AN_OBJECT.filter(
            lambda v: v is not None and not isinstance(v, str)))
    else:
        raw["output"]["format"] = draw(_JUNK.filter(lambda v: v not in ("json", "csv")))
    return raw


# the fail-closed contract: invalid input is a ConfigError before anything
# runs (never a traceback, never a silently loosened or oversized run)
@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw=broken_configs())
def test_resolve_config_rejects_any_single_junk_field(raw):
    with pytest.raises(ConfigError):
        resolve_config(raw)


def test_spectrum_split_beyond_n_trunc_reports_every_doublet(capsys, tmp_path):
    # n_pairs = 10 asks for more doublets than the default n_trunc = 12 holds
    cfg = tmp_path / "pairs.json"
    cfg.write_text(json.dumps({"params": {"n_pairs": 10}}))
    out_path = tmp_path / "split.json"
    code, _, _ = run_cli(
        ["spectrum-split", "--config", str(cfg), "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert [row[0] for row in report["table"]["rows"]] == list(range(1, 11))
    assert len(report["data"]["numeric_energies"]) == 20


def test_spectrum_split_doublets_above_barrier_fail_closed(capsys, tmp_path):
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(
        ["spectrum-split", "--U", "5", "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "past the barrier top" in err
    assert not out_path.exists()


def test_unknown_config_field_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scenario": "born-finegrain", "typo_field": 1}))
    code, _, err = run_cli(["born-finegrain", "--config", str(cfg)], capsys)
    assert code == 2
    assert "typo_field" in err


def test_config_scenario_mismatch_rejected(capsys, tmp_path):
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps({"scenario": "quantum-cycle"}))
    code, _, err = run_cli(["born-finegrain", "--config", str(cfg)], capsys)
    assert code == 2


def test_negative_seed_rejected(capsys):
    code, _, err = run_cli(["born-finegrain", "--seed", "-3"], capsys)
    assert code == 2
    assert "seeds" in err


def test_unwritable_output_path(capsys, tmp_path):
    code, _, err = run_cli(
        ["born-finegrain", "--out", str(tmp_path / "no" / "dir" / "x.json")],
        capsys)
    assert code == 2
    assert "cannot write report" in err


def test_malformed_json_reports_location(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"scenario": "born-finegrain",}')
    code, _, err = run_cli(["born-finegrain", "--config", str(cfg)], capsys)
    assert code == 2
    assert "line" in err


def test_check_failure_exits_one(capsys, tmp_path):
    # 100 samples cannot hit the 0.5% binomial gate at this seed
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({
        "scenario": "classical-cycle",
        "seeds": [1],
        "params": {"samples": 100},
    }))
    code, _, err = run_cli(["classical-cycle", "--config", str(cfg)], capsys)
    assert code == 1
    assert "FAILED: left_fraction" in err


# temperatures log-uniform from 1e3 up to 2e5, where the default engine
# reaches the 4096-level budget: every check there is in regime, so a
# failure would be a defect (a check that only rounding can fail, say)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(temperature=st.floats(math.log(1e3), math.log(2e5)).map(math.exp))
def test_cycles_pass_every_check_at_in_regime_temperatures(temperature):
    for scenario in ("quantum-cycle", "classical-cycle"):
        report = run_scenario(resolve_config(
            {"scenario": scenario, "engine": {"temperature": temperature}}))
        assert [c.name for c in report.checks if not c.passed] == []


# ---------------------------------------------------------------------------
# precedence and echo
# ---------------------------------------------------------------------------

def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "born-finegrain",
        "params": {"mu": 1, "nu": 1},
    }))
    code, out, _ = run_cli(
        ["born-finegrain", "--config", str(cfg), "--mu", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["params"] == {"mu": 2, "nu": 1}
    assert report["data"]["p_up"] == "2/3"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_report_reruns_from_embedded_config(capsys, tmp_path, scenario):
    code, out, _ = run_cli([scenario, "--seed", "99"], capsys)
    assert code == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(json.loads(out)["config"]))
    code2, out2, _ = run_cli([scenario, "--config", str(echo)], capsys)
    assert code2 == 0
    assert strip_wall_time(out2) == strip_wall_time(out)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_json_reports_identical_modulo_wall_time(capsys, tmp_path):
    # same config (including output path) twice: only wall time may differ
    path = tmp_path / "sweep.json"
    contents = []
    for _ in range(2):
        code, _, _ = run_cli(
            ["theorem-sweep", "--seed", "4242", "--out", str(path)], capsys)
        assert code == 0
        contents.append(path.read_text())
    assert strip_wall_time(contents[0]) == strip_wall_time(contents[1])


def test_csv_reports_bitwise_identical(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(
            ["spectrum-split", "--format", "csv", "--out", str(p)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

def test_spectrum_split_csv_schema(capsys, tmp_path):
    out_path = tmp_path / "split.csv"
    code, _, _ = run_cli(
        ["spectrum-split", "--format", "csv", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "k,E_k,Delta_formula,Delta_numeric,ratio"
    assert len(lines) == 6  # header plus five doublets


def test_checks_csv_schema(capsys, tmp_path):
    out_path = tmp_path / "checks.csv"
    code, _, _ = run_cli(
        ["born-finegrain", "--format", "csv", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "name,measured,expected,tolerance,passed,provenance,units"
    assert len(lines) == 5


def test_full_suite_aggregates_all_scenarios(capsys, tmp_path):
    out_path = tmp_path / "suite.json"
    code, _, err = run_cli(["full-suite", "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    prefixes = {c["name"].split(".")[0] for c in report["checks"]}
    assert prefixes == {"envariance-check", "born-finegrain", "theorem-sweep",
                        "canonical-count", "spectrum-split", "quantum-cycle",
                        "classical-cycle"}
    assert report["data"]["spectrum-split"]["table"]["columns"] == [
        "k", "E_k", "Delta_formula", "Delta_numeric", "ratio"]
    assert report["passed"] is True


def test_theorem_sweep_emits_distance_arrays(capsys):
    code, out, _ = run_cli(["theorem-sweep", "--seed", "11"], capsys)
    assert code == 0
    report = json.loads(out)
    dists = report["data"]["restoration_distances"]
    assert set(dists) == {str(k) for k in range(1, 9)}
    assert all(len(v) == 100 for v in dists.values())


def test_report_carries_units_and_provenance(capsys):
    code, out, _ = run_cli(["quantum-cycle"], capsys)
    assert code == 0
    report = json.loads(out)
    for check in report["checks"]:
        assert check["units"]
        assert check["provenance"] in (
            "closed-form", "independent-oracle", "exact-count", "definition")


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_module_invocation_roundtrip(tmp_path):
    out_path = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "envstat.cli", "born-finegrain",
         "--mu", "1", "--nu", "2", "--out", str(out_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(out_path.read_text())
    assert report["data"]["p_up"] == "1/3"


def test_no_scenario_prints_help(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 2
    assert "scenario" in out


def test_import_loads_no_scipy(tmp_path):
    # the finite-difference oracle is solved with numpy alone, so neither
    # the import nor a spectrum-split run loads scipy
    scipy_modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, envstat.scenarios; print({scipy_modules}); "
         "from envstat.cli import main; "
         f"code = main(['spectrum-split', '--out', {str(tmp_path / 'split.json')!r}]); "
         f"print(code, {scipy_modules})"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "0 []"]


def test_spectrum_split_passes_when_high_barriers_close_every_gap(capsys, tmp_path):
    # at 4U and 8U every splitting is 0, below the solver's resolution, so
    # 0 -> 0 has nothing left to decrease; Delta > 0 -> 0 at 2U -> 4U still
    # counts as a decrease
    engine = resolve_config({"scenario": "spectrum-split",
                             "engine": {"barrier_height": 1e4}}).engine
    deltas = [split_spectrum(replace(engine, barrier_height=1e4 * f), "numeric",
                             n_pairs=5).deltas for f in (1, 2, 4, 8)]
    assert np.all(deltas[0] > 0) and np.any(deltas[1] > 0)
    assert np.all(deltas[2] == 0) and np.all(deltas[3] == 0)
    out_path = tmp_path / "split.json"
    code, _, err = run_cli(["spectrum-split", "--U", "1e4", "--out", str(out_path)], capsys)
    assert (code, err) == (0, "spectrum-split: 4/4 checks passed\n")
    checks = {c["name"]: c["passed"] for c in json.loads(out_path.read_text())["checks"]}
    assert checks["splitting_monotone_decreasing_in_barrier_height"]
    assert all(checks.values())


@pytest.mark.parametrize("engine", [
    {"barrier_height": 3e7},
    {"barrier_height": 1e8},
    {"barrier_height": 1e5, "barrier_width": 0.03 * math.pi},
    {"barrier_height": 1e6, "barrier_width": 0.01 * math.pi},
    {"barrier_height": 1e20, "barrier_width": 0.001 * math.pi},
    {"barrier_height": 1e21, "barrier_width": 0.001 * math.pi},
])
def test_spectrum_split_with_a_closed_doublet_at_u_fails_closed(capsys, tmp_path, engine):
    # doublet 1's numeric splitting at U itself is 0, so the table has no
    # ratio of the formula to it (at --U 1e4 only 4U and 8U close, and the
    # run passes); at U 1e20 and 1e21 the FD oracle, solved before, must
    # not mistake the hard wall's rounding for a level past the barrier top
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({"engine": engine}))
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(
        ["spectrum-split", "--config", str(cfg), "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: doublet 1 splitting at U = {engine['barrier_height']:g} is 0, "
                   "below the 1e-12 relative resolution of its roots; lower U or d\n")
    assert not out_path.exists()


def test_spectrum_split_names_the_barrier_whose_solve_fails(capsys, tmp_path):
    # at U = 1e24 the U, 2U and 4U solves pass and the 8U one finds no sign
    # change in doublet 1's window; the one line names that barrier
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(["spectrum-split", "--U", "1e24", "--out", str(out_path)],
                             capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("error: no sign change for doublet 1 (sym) at U = 8e+24 ")
    assert not out_path.exists()
