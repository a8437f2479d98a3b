"""CLI contracts: exit codes, determinism, config handling, schemas."""

import json
import subprocess
import sys

import pytest

from envstat.cli import main


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
    ["--T", "nan"],
    ["--U", "nan"],
    ["--T", "inf"],
    ["--U", "1e-3"],  # every doublet sits above the barrier
    ["--T", "0.00125"],  # eps*beta = 800: every box weight underflows
    ["--T", "0.005"],  # the box sum survives, the doublet sum underflows
])
def test_invalid_engine_input_fails_closed(capsys, tmp_path, flags):
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(["quantum-cycle", *flags, "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert not out_path.exists()


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


def test_report_reruns_from_embedded_config(capsys, tmp_path):
    code, out, _ = run_cli(["classical-cycle", "--seed", "99"], capsys)
    assert code == 0
    report = json.loads(out)
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(report["config"]))
    code2, out2, _ = run_cli(["classical-cycle", "--config", str(echo)], capsys)
    assert code2 == 0
    report2 = json.loads(out2)
    assert report2["checks"] == report["checks"]
    assert report2["data"] == report["data"]


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


def test_import_loads_no_scipy():
    # scipy serves only the finite-difference oracle, imported when it runs
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, envstat.scenarios; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
