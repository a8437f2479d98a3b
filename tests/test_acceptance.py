"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion runs at its stated tolerance and wall-clock budget.  A
criterion test collects named subchecks, prints a single PASS/FAIL line
with the failing subchecks spelled out, and then asserts.
"""

import math
import time
from fractions import Fraction

import numpy as np

from envstat import envariance as env, equilibrium as eq, hilbert as hb
from envstat.szilard import (
    EngineConfig,
    box_spectrum,
    classical_ensemble_cycle,
    fd_pair_energies,
    free_energy_ledger,
    split_spectrum,
    thermal_state,
    z_boltzmann_gas,
)
from hilbert_randoms import (
    random_bipartite_state,
    random_density_operator,
    random_state_vector,
)

LN2 = math.log(2.0)


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

    def conclude(self) -> None:
        elapsed = time.perf_counter() - self.start
        self.check(f"runtime {elapsed:.1f}s within {self.budget_s:.0f}s",
                   elapsed < self.budget_s)
        verdict = "PASS" if not self.failures else "FAIL"
        detail = "" if not self.failures else " | failed: " + "; ".join(self.failures)
        print(f"criterion {self.number}: {verdict} "
              f"({self.count} subchecks, {elapsed:.1f}s){detail}")
        assert not self.failures, f"criterion {self.number} failed: {self.failures}"


def test_criterion_1_born_rule_by_counting():
    crit = Criterion(1, budget_s=10.0)
    worst_amp = 0.0
    all_rational = True
    all_certified = True
    for total in range(2, 51):
        for mu in range(1, total):
            spec = env.FinegrainSpec(mu, total - mu)
            result = env.finegrain_born_rule(spec)
            all_rational &= result.p_up == Fraction(mu, total)
            alpha_sq = float(np.abs(result.coarse_state.amps[0, 0]) ** 2)
            worst_amp = max(worst_amp, abs(float(result.p_up) - alpha_sq))
            all_certified &= env.all_pairs_certified(result.form)
    crit.check("p_up is exactly mu/(mu+nu) for every pair", all_rational)
    crit.check(f"|p_up - alpha^2| max {worst_amp:.2e} <= 1e-12", worst_amp <= 1e-12)
    crit.check("every branch pair certified (batch predicate)", all_certified)

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
    worst_restore = 0.0
    worst_reduced = 0.0
    for rank in range(1, 9):
        for trial in range(100):
            rng = np.random.default_rng([2026, rank, trial])
            even = eq.make_even_state(
                rank, phases=rng.uniform(0, 2 * math.pi, rank), rng=rng)
            report = eq.verify_no_local_evolution(even, hb.haar_unitary(rank, rng))
            worst_restore = max(worst_restore, report.restoration_distance)
            worst_reduced = max(worst_reduced, report.reduced_distance)
    crit.check(f"restoration distance max {worst_restore:.2e} < 1e-10 in 100% of runs",
               worst_restore < 1e-10)
    crit.check(f"reduced-state invariance max {worst_reduced:.2e} < 1e-10",
               worst_reduced < 1e-10)

    uneven = hb.BipartitePureState(
        np.diag([math.sqrt(0.3), math.sqrt(0.7)]).astype(complex))
    moved = sum(
        eq.verify_no_local_evolution(
            uneven, hb.haar_unitary(2, np.random.default_rng([2027, t]))
        ).reduced_distance > 1e-3
        for t in range(100))
    crit.check(f"uneven negative control moved in {moved}% of runs (need >= 95%)",
               moved >= 95)
    crit.conclude()


def test_criterion_3_partition_function_asymptotics():
    crit = Criterion(3, budget_s=5.0)
    cfg = EngineConfig.natural(eps_beta=1e-3)
    _, z = thermal_state(box_spectrum(cfg), cfg.temperature)
    rel = abs(z - z_boltzmann_gas(1e-3)) / z
    crit.check(f"relative error {rel:.4f} within 3% at eps*beta = 1e-3", rel <= 0.03)

    errors = []
    for eb in (1e-1, 1e-2, 1e-3, 1e-4):
        sweep_cfg = EngineConfig.natural(eps_beta=eb)
        _, z = thermal_state(box_spectrum(sweep_cfg), sweep_cfg.temperature)
        errors.append(abs(z - z_boltzmann_gas(eb)) / z)
    crit.check("error decreases monotonically over the decade sweep",
               all(b < a for a, b in zip(errors, errors[1:])))
    crit.conclude()


def test_criterion_4_barrier_splitting():
    crit = Criterion(4, budget_s=60.0)
    # regime: U >= 10 * E_5 with E_5 the fifth doublet center, d/L = 0.05
    cfg = EngineConfig.natural(eps_beta=1.0, d_over_l=0.05,
                               barrier_height=1200.0, n_trunc=12)
    numeric = split_spectrum(cfg, "numeric", n_pairs=5)
    formula = split_spectrum(cfg, "formula", n_pairs=5)
    assert cfg.barrier_height >= 10.0 * numeric.centers[4]

    fd = fd_pair_energies(cfg, 5)
    exact = numeric.energies
    fd_rel = float(np.max(np.abs(fd - exact) / exact))
    crit.check(f"grid oracle vs transcendental solve {fd_rel:.2e} <= 1e-6 (k <= 5)",
               fd_rel <= 1e-6)

    ratios = formula.deltas / numeric.deltas
    crit.check(
        "closed-form splitting within factor 2 of exact for k <= 5 "
        f"(ratios {np.array2string(ratios, precision=3)})",
        bool(np.all((ratios >= 0.5) & (ratios <= 2.0))))

    deltas = [split_spectrum(
        EngineConfig.natural(eps_beta=1.0, d_over_l=0.05, barrier_height=u,
                             n_trunc=12), "numeric", n_pairs=5).deltas
        for u in (1200.0, 2400.0, 4800.0, 9600.0)]
    crit.check("splitting shrinks monotonically as the barrier grows",
               all(np.all(b < a) for a, b in zip(deltas, deltas[1:])))
    crit.conclude()


def test_criterion_5_engine_ledger():
    crit = Criterion(5, budget_s=30.0)
    cfg = EngineConfig.natural(eps_beta=1e-3, d_over_l=0.01,
                               barrier_height=math.inf)
    kt = cfg.kb * cfg.temperature
    ledger = free_energy_ledger(cfg)
    _, insert, measure, _, _ = ledger.entries
    # Boltzmann-gas volume effect of the barrier, kT ln(L/(L-d))
    gas_law = kt * math.log(cfg.box_length / (cfg.box_length - cfg.barrier_width))

    crit.check(f"insertion shifts A by {gas_law / kt:.5f} kT <= 1.1 d/L",
               gas_law <= 1.1 * kt * 0.01)
    rel = abs((measure.free_energy - insert.free_energy) / kt - LN2) / LN2
    crit.check(f"measurement delta A = kT ln 2 within 2% (off by {rel:.2e})",
               rel <= 0.02)
    drop = insert.entropy - measure.entropy
    crit.check(f"entropy drop ln 2 within 1e-6 (off by {abs(drop - LN2):.2e})",
               abs(drop - LN2) <= 1e-6)
    crit.check(f"p_L = {ledger.p_left:.12f} within 1e-10 of 1/2",
               abs(ledger.p_left - 0.5) <= 1e-10)
    crit.check(f"p_R = {ledger.p_right:.12f} within 1e-10 of 1/2",
               abs(ledger.p_right - 0.5) <= 1e-10)
    crit.check(
        f"repeated measurement reproduces the outcome "
        f"(p = {ledger.repeat_left_prob:.12f})",
        abs(ledger.repeat_left_prob - 1.0) <= 1e-10)
    crit.conclude()


def test_criterion_6_classical_comparator():
    crit = Criterion(6, budget_s=10.0)
    cfg = EngineConfig.natural(eps_beta=1e-3, d_over_l=0.01)
    kt = cfg.kb * cfg.temperature
    result = classical_ensemble_cycle(cfg, 100_000, seed=12345)
    start, insert, _, _, _ = free_energy_ledger(cfg).entries
    quantum = insert.free_energy - start.free_energy

    crit.check(f"left fraction {result.left_fraction:.5f} within 0.5% of 1/2",
               abs(result.left_fraction - 0.5) <= 0.005)
    crit.check(
        "contrast: classical insertion jump kT ln 2 vs quantum "
        f"{quantum / kt:.3f} kT", kt * LN2 > 10.0 * abs(quantum))
    crit.conclude()


def test_criterion_7_canonical_counting():
    crit = Criterion(7, budget_s=60.0)
    growth = 1.0
    bath = eq.LevelLadder(
        tuple(float(j) for j in range(30)),
        tuple(round(math.exp(growth * j)) for j in range(30)))
    system = eq.LevelLadder((0.0, 1.0), (1, 1))
    fit = eq.canonical_by_counting(system, bath, total_energy=25.0)
    crit.check(f"fitted beta {fit.beta:.4f} within 5% of {growth}",
               abs(fit.beta - growth) <= 0.05 * growth)
    crit.check(f"r^2 = {fit.r_squared:.6f} > 0.99", fit.r_squared > 0.99)

    bath2 = eq.LevelLadder(tuple(0.5 * j for j in range(40)), tuple([3] * 40))
    system2 = eq.LevelLadder((0.0, 0.5, 1.0), (1, 2, 1))
    microstates = sum(bath2.degeneracies) * sum(system2.degeneracies)
    assert microstates <= 10**6
    fit2 = eq.canonical_by_counting(system2, bath2, total_energy=9.0)
    states = bath2.expand()
    brute = np.array([
        g * int(np.sum(np.abs(ek + states - 9.0) <= fit2.window))
        for ek, g in zip(system2.energies, system2.degeneracies)], dtype=float)
    brute /= brute.sum()
    crit.check(
        f"brute-force enumeration over {microstates} joint microstates matches "
        "shell counting exactly", bool(np.array_equal(fit2.occupancies, brute)))
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
