"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 1-7 each run their scenario through resolve_config and
run_scenario, at the criterion's own seeds, params and engine, and assert
on named checks of the returned report, so every gate is defined once, in
envstat.scenarios; a named check the report lacks fails.  A gate that only
a criterion holds reads the report's data or table instead of recomputing
it.  Criterion 8 runs property suites that no scenario covers.  Every
criterion runs within its wall-clock budget, collects named subchecks,
prints a single PASS/FAIL line with the failing subchecks spelled out, and
then asserts.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np

from envstat import envariance as env, hilbert as hb
from envstat.report import RunReport
from envstat.scenarios import resolve_config, run_scenario
from envstat.szilard import EngineConfig
from hilbert_randoms import (
    random_bipartite_state,
    random_density_operator,
    random_state_vector,
)


class Criterion:
    def __init__(self, number: int, budget_s: float):
        self.number = number
        self.budget_s = budget_s
        self.start = time.perf_counter()
        self.failures: list[str] = []
        self.count = 0

    def check(self, name: str, ok: bool) -> None:
        self.count += 1
        if not ok:
            self.failures.append(name)

    def scenario_checks(self, report: RunReport, names) -> None:
        """One subcheck per named check of the report, passed as the report
        has it; a name the report lacks fails."""
        for name in names:
            record = _record(report, name)
            detail = ("missing from the report" if record is None
                      else f"measured {record.measured!r}")
            self.check(f"{report.scenario}.{name} ({detail})", _passed(report, name))

    def conclude(self) -> None:
        elapsed = time.perf_counter() - self.start
        self.check(f"runtime {elapsed:.1f}s within {self.budget_s:.0f}s",
                   elapsed < self.budget_s)
        verdict = "PASS" if not self.failures else "FAIL"
        detail = "" if not self.failures else " | failed: " + "; ".join(self.failures)
        print(f"criterion {self.number}: {verdict} "
              f"({self.count} subchecks, {elapsed:.1f}s){detail}")
        assert not self.failures, f"criterion {self.number} failed: {self.failures}"


def run(raw: dict) -> RunReport:
    """The report of a raw scenario config, resolved as the CLI resolves it."""
    return run_scenario(resolve_config(raw))


def natural_engine(eps_beta: float, d_over_l: float, barrier_height: float = math.inf,
                   n_trunc: int | None = None) -> dict:
    """The engine section of EngineConfig.natural's config."""
    return dataclasses.asdict(
        EngineConfig.natural(eps_beta, d_over_l, barrier_height, n_trunc))


def _record(report: RunReport, name: str):
    return next((c for c in report.checks if c.name == name), None)


def _passed(report: RunReport, name: str) -> bool:
    """Whether the report's check `name` passed; a missing check fails."""
    record = _record(report, name)
    return record is not None and record.passed


def test_criterion_1_born_rule_by_counting():
    crit = Criterion(1, budget_s=10.0)
    reports = {(mu, total - mu): run({"scenario": "born-finegrain",
                                      "params": {"mu": mu, "nu": total - mu}})
               for total in range(2, 51) for mu in range(1, total)}
    crit.check(
        "p_up is exactly mu/(mu+nu) for every pair",
        all(Fraction(r.data["p_up_numerator"], r.data["p_up_denominator"])
            == Fraction(mu, mu + nu) for (mu, nu), r in reports.items()))
    for name in ("p_up_matches_coarse_amplitude_squared", "finegrained_block_weight_up",
                 "finegrained_block_weight_down", "all_branch_pairs_certified"):
        crit.check(f"born-finegrain.{name} in all {len(reports)} runs",
                   all(_passed(r, name) for r in reports.values()))

    # anchor the batch predicate with the full operational certificate
    operational = True
    for total in (2, 17, 33, 50):
        result = env.finegrain_born_rule(env.FinegrainSpec(total // 2,
                                                           total - total // 2))
        for k in range(total):
            for l in range(k + 1, total):
                operational &= env.equal_probability_certificate(
                    result.state, k, l, result.form)
    crit.check("operational swap/counterswap certificates on sampled sizes",
               operational)
    crit.conclude()


def test_criterion_2_envariance_theorem_sweep():
    crit = Criterion(2, budget_s=30.0)
    report = run({"scenario": "theorem-sweep", "seeds": [2026],
                  "params": {"max_rank": 8, "n_unitaries": 100}})
    crit.scenario_checks(report, ("max_restoration_distance", "max_reduced_state_distance",
                                  "uneven_control_moved_fraction"))
    crit.conclude()


def test_criterion_3_partition_function_asymptotics():
    crit = Criterion(3, budget_s=5.0)
    report = run({"scenario": "quantum-cycle", "engine": natural_engine(1e-3, 0.01)})
    crit.scenario_checks(report, ("partition_sum_vs_boltzmann_gas_relative_error",
                                  "boltzmann_gas_error_monotone_decreasing"))
    crit.conclude()


def test_criterion_4_barrier_splitting():
    crit = Criterion(4, budget_s=60.0)
    # regime: U >= 10 * E_5 with E_5 the fifth doublet center, d/L = 0.05
    engine = natural_engine(1.0, 0.05, barrier_height=1200.0, n_trunc=12)
    report = run({"scenario": "spectrum-split", "engine": engine,
                  "params": {"n_pairs": 5}})
    column = dict(zip(report.table.columns, zip(*report.table.rows)))
    assert engine["barrier_height"] >= 10.0 * column["E_k"][4]

    crit.scenario_checks(report, ("fd_oracle_max_relative_difference",
                                  "splitting_monotone_decreasing_in_barrier_height"))
    ratios = np.array(column["ratio"])
    crit.check(
        "closed-form splitting within factor 2 of exact for k <= 5 "
        f"(ratios {np.array2string(ratios, precision=3)})",
        bool(np.all((ratios >= 0.5) & (ratios <= 2.0))))
    crit.conclude()


def test_criterion_5_engine_ledger():
    crit = Criterion(5, budget_s=30.0)
    report = run({"scenario": "quantum-cycle", "engine": natural_engine(1e-3, 0.01)})
    crit.scenario_checks(report, (
        "insertion_delta_a_closed_form_over_kt", "measurement_delta_a_over_kt",
        "measurement_entropy_drop", "p_left", "p_right", "measurement_repeatability"))
    crit.conclude()


def test_criterion_6_classical_comparator():
    crit = Criterion(6, budget_s=10.0)
    engine = natural_engine(1e-3, 0.01)
    classical = run({"scenario": "classical-cycle", "seeds": [12345], "engine": engine,
                     "params": {"samples": 100_000}})
    quantum = run({"scenario": "quantum-cycle", "engine": engine})
    crit.scenario_checks(classical, ("left_fraction",
                                     "insertion_contrast_classical_vs_quantum"))
    crit.scenario_checks(quantum, ("delta_a_arises_at_measurement_not_insertion",))
    crit.conclude()


def test_criterion_7_canonical_counting():
    crit = Criterion(7, budget_s=60.0)
    report = run({"scenario": "canonical-count"})
    crit.scenario_checks(report, ("fitted_beta", "fit_r_squared",
                                  "brute_force_enumeration_max_difference"))
    crit.conclude()


def test_criterion_8_property_suites():
    crit = Criterion(8, budget_s=60.0)
    rng = np.random.default_rng(808)
    n = 1000

    worst_norm = 0.0
    for _ in range(n):
        v = random_state_vector(int(rng.integers(2, 9)), rng)
        worst_norm = max(worst_norm, abs(np.linalg.norm(v.amps) - 1.0))
    crit.check(f"{n} state vectors normalized (worst {worst_norm:.2e})",
               worst_norm <= 1e-12)

    worst_norm = 0.0
    worst_spectra = 0.0
    for _ in range(n):
        ds = int(rng.integers(2, 7))
        de = int(rng.integers(2, 7))
        st = random_bipartite_state(ds, de, rng)
        worst_norm = max(worst_norm, abs(np.linalg.norm(st.amps) - 1.0))
        r = min(ds, de)
        e_sys = hb.partial_trace_env(st).eigenvalues()[::-1][:r]
        e_env = hb.partial_trace_sys(st).eigenvalues()[::-1][:r]
        worst_spectra = max(worst_spectra, float(np.max(np.abs(e_sys - e_env))))
    crit.check(f"{n} bipartite states normalized (worst {worst_norm:.2e})",
               worst_norm <= 1e-12)
    crit.check(
        f"reduced spectra identical on both sides (worst {worst_spectra:.2e})",
        worst_spectra <= 1e-10)

    worst_herm = worst_trace = 0.0
    worst_eig = 1.0
    for _ in range(n):
        rho = random_density_operator(int(rng.integers(2, 7)), rng)
        m = rho.matrix
        worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
        worst_trace = max(worst_trace, abs(np.trace(m).real - 1.0))
        worst_eig = min(worst_eig, float(rho.eigenvalues()[0]))
    crit.check(f"{n} density operators Hermitian (worst {worst_herm:.2e})",
               worst_herm <= 1e-12)
    crit.check(f"{n} density operators unit trace (worst {worst_trace:.2e})",
               worst_trace <= 1e-10)
    crit.check(f"{n} density operators positive (worst eigenvalue {worst_eig:.2e})",
               worst_eig >= -1e-10)

    worst_u = 0.0
    for _ in range(n):
        d = int(rng.integers(2, 7))
        u = hb.haar_unitary(d, rng)
        worst_u = max(worst_u, float(np.max(np.abs(
            u.matrix.conj().T @ u.matrix - np.eye(d)))))
    crit.check(f"{n} unitaries satisfy U^dag U = 1 (worst {worst_u:.2e})",
               worst_u <= 1e-10)
    crit.conclude()
