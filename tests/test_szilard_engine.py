"""Thermal states, measurement, and the cycle ledgers."""

import math
import tracemalloc

import numpy as np
import pytest

from envstat.errors import (
    DimensionMismatchError,
    InvalidStateError,
    RegimeError,
    TruncationError,
)
from envstat.hilbert import DensityOperator, von_neumann_entropy
from envstat.scenarios import resolve_config, run_scenario
from envstat.szilard import (
    EngineConfig,
    EngineState,
    SplitSpectrum,
    BoxSpectrum,
    barrier_thermal_state,
    box_spectrum,
    classical_ensemble_cycle,
    free_energy_ledger,
    measure_side,
    split_partition_function,
    split_spectrum,
    thermal_state,
    z_boltzmann_gas,
)
from lr_oracles import energy_basis_state, lr_block_map


# ---------------------------------------------------------------------------
# thermal states of the bare box
# ---------------------------------------------------------------------------

def test_frozen_limit_is_ground_state():
    cfg = EngineConfig.natural(eps_beta=50.0)
    rho, _ = thermal_state(box_spectrum(cfg), cfg.temperature)
    assert von_neumann_entropy(rho) < 1e-10
    assert np.real(rho.matrix[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_partition_sum_approaches_boltzmann_gas():
    cfg = EngineConfig.natural(eps_beta=1e-3)
    _, z = thermal_state(box_spectrum(cfg), cfg.temperature)
    assert abs(z - z_boltzmann_gas(1e-3)) / z < 0.03


def test_partition_sum_error_decreases_monotonically():
    errors = []
    for eb in (1e-1, 1e-2, 1e-3, 1e-4):
        cfg = EngineConfig.natural(eps_beta=eb)
        _, z = thermal_state(box_spectrum(cfg), cfg.temperature)
        errors.append(abs(z - z_boltzmann_gas(eb)) / z)
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_partition_sum_against_extended_sum_oracle():
    cfg = EngineConfig.natural(eps_beta=0.5, n_trunc=50)
    _, z = thermal_state(box_spectrum(cfg), cfg.temperature)
    n = np.arange(1, 501)  # ten times more terms
    z_oracle = float(np.sum(np.exp(-0.5 * n**2)))
    assert abs(z - z_oracle) < 1e-12


def test_truncation_tail_rejected():
    short = BoxSpectrum(epsilon=1.0, n_max=40)
    with pytest.raises(TruncationError):
        thermal_state(short, temperature=1000.0)


def test_underflowing_partition_sum_is_out_of_regime():
    frozen = BoxSpectrum(epsilon=1.0, n_max=3)
    with pytest.raises(RegimeError, match="underflows"):
        thermal_state(frozen, temperature=1.0 / 800.0)


# ---------------------------------------------------------------------------
# split-box thermal states
# ---------------------------------------------------------------------------

def synthetic_split(deltas, centers=None):
    deltas = np.asarray(deltas, dtype=float)
    if centers is None:
        centers = np.asarray([4.0 * (k + 1) ** 2 for k in range(len(deltas))])
    return SplitSpectrum(1.0, np.arange(1, len(deltas) + 1), centers, deltas, "formula")


def test_underflowing_split_partition_sum_is_out_of_regime():
    split = synthetic_split([0.0, 0.0])
    with pytest.raises(RegimeError, match="underflows"):
        barrier_thermal_state(split, temperature=1.0 / 200.0)


def test_zero_splitting_has_no_lr_coherence():
    split = synthetic_split([0.0, 0.0, 0.0])
    rho, _ = barrier_thermal_state(split, temperature=100.0)
    off = rho.matrix - np.diag(np.diagonal(rho.matrix))
    assert np.max(np.abs(off)) == 0.0


def test_both_bases_have_unit_trace_and_same_spectrum():
    split = synthetic_split([0.02, 0.01, 0.005])
    e = energy_basis_state(split, temperature=10.0)
    lr, _ = barrier_thermal_state(split, temperature=10.0)
    for rho in (e, lr):
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    assert np.allclose(e.eigenvalues(), lr.eigenvalues(), atol=1e-12)


def test_bases_related_by_doublet_rotation():
    split = synthetic_split([0.03, 0.015])
    e = energy_basis_state(split, temperature=5.0)
    lr, _ = barrier_thermal_state(split, temperature=5.0)
    b = lr_block_map(split.count)
    assert np.max(np.abs(b.T @ e.matrix @ b - lr.matrix)) < 1e-12


def test_lowest_doublet_coherence_ratio_is_tanh():
    beta = 1.0 / 7.0
    split = synthetic_split([0.1 / beta, 0.02 / beta])
    rho, _ = barrier_thermal_state(split, temperature=7.0)
    ratio = np.real(rho.matrix[0, 1]) / np.real(rho.matrix[0, 0])
    assert abs(ratio - math.tanh(beta * split.deltas[0])) < 1e-10


@pytest.mark.parametrize("eps_beta,barrier", [
    (1e-3, math.inf), (1e-4, math.inf), (1e-3, 2000.0), (0.02, 1e5)])
def test_barrier_state_returns_its_partition_sum(eps_beta, barrier):
    cfg = EngineConfig.natural(eps_beta=eps_beta, barrier_height=barrier)
    split = split_spectrum(cfg, "formula")
    rho, z = barrier_thermal_state(split, cfg.temperature, cfg.kb)
    assert z == split_partition_function(split, cfg.beta)
    assert rho.dim == 2 * split.count


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def engine_lr_state(eps_beta=1e-3):
    cfg = EngineConfig.natural(eps_beta=eps_beta, d_over_l=0.01)
    split = split_spectrum(cfg, "formula")
    return cfg, split, barrier_thermal_state(split, cfg.temperature)[0]


def test_symmetric_engine_measures_half_half():
    _, _, rho = engine_lr_state()
    out_l, out_r = measure_side(rho)
    assert abs(out_l.probability - 0.5) < 1e-10
    assert abs(out_r.probability - 0.5) < 1e-10
    assert abs(out_l.probability + out_r.probability - 1.0) < 1e-10


def test_post_state_carries_cosh_weights():
    cfg, split, rho = engine_lr_state(eps_beta=0.02)
    out_l, _ = measure_side(rho)
    beta = cfg.beta
    weights = np.exp(-beta * split.centers) * np.cosh(beta * split.deltas)
    weights /= np.sum(weights)
    diag = np.real(np.diagonal(out_l.post_state.matrix))[0::2]
    assert np.max(np.abs(diag - weights)) < 1e-10


def test_measurement_drops_entropy_by_one_bit():
    _, _, rho = engine_lr_state()
    out_l, out_r = measure_side(rho)
    s_pre = von_neumann_entropy(rho)
    s_l = von_neumann_entropy(out_l.post_state)
    s_r = von_neumann_entropy(out_r.post_state)
    assert abs(s_pre - s_l - math.log(2.0)) < 1e-6
    mix = out_l.probability * s_l + out_r.probability * s_r + math.log(2.0)
    assert abs(mix - s_pre) < 1e-6


def test_measurement_is_repeatable():
    _, _, rho = engine_lr_state()
    out_l, _ = measure_side(rho)
    again_l, again_r = measure_side(out_l.post_state)
    assert abs(again_l.probability - 1.0) < 1e-10
    assert again_r.probability < 1e-10
    assert again_r.post_state is None
    assert np.max(np.abs(again_l.post_state.matrix - out_l.post_state.matrix)) < 1e-10


# ---------------------------------------------------------------------------
# structured states against a dense oracle
# ---------------------------------------------------------------------------

def assert_rel_close(actual, expected, rel=1e-12):
    """Max-norm agreement relative to the largest entry of the oracle."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def dense_oracle(matrix: np.ndarray):
    """eigvalsh-validated DensityOperator plus its spectrum and entropy.

    The spectrum comes from a real eigvalsh (the states are real
    symmetric); the entropy uses the same 1e-14 cut as von_neumann_entropy.
    """
    rho = DensityOperator(matrix)
    lam = np.linalg.eigvalsh(rho.matrix.real)
    kept = lam[lam >= 1e-14]
    return rho, lam, float(-np.sum(kept * np.log(kept)))


def dense_projection(rho: DensityOperator, side: str) -> np.ndarray:
    """P rho P with an explicit projector matrix onto one side."""
    proj = np.zeros((rho.dim, rho.dim))
    idx = np.arange(0 if side == "L" else 1, rho.dim, 2)
    proj[idx, idx] = 1.0
    return proj @ rho.matrix.real @ proj


@pytest.fixture(scope="module", params=[
    (1e-3, math.inf), (1e-4, math.inf), (1e-3, 2000.0), (1e-4, 2000.0)],
    ids=["eb1e-3-Uinf", "eb1e-4-Uinf", "eb1e-3-U2000", "eb1e-4-U2000"])
def engine_states(request):
    eps_beta, barrier = request.param
    cfg = EngineConfig.natural(eps_beta=eps_beta, barrier_height=barrier)
    split = split_spectrum(cfg, "formula")
    rho_box, _ = thermal_state(box_spectrum(cfg), cfg.temperature)
    return split, {
        "box": rho_box,
        "energy": energy_basis_state(split, cfg.temperature),
        "LR": barrier_thermal_state(split, cfg.temperature)[0],
    }


def test_structured_states_match_dense_oracle(engine_states):
    split, states = engine_states
    for basis, rho in states.items():
        assert rho.dim <= 896
        dense, lam, entropy = dense_oracle(rho.matrix)
        assert_rel_close(rho.eigenvalues(), lam)
        assert von_neumann_entropy(rho) == pytest.approx(entropy, rel=1e-12)
        if basis == "box":
            continue
        # the which-side measurement against explicit projectors
        for outcome in measure_side(rho):
            projected = dense_projection(dense, outcome.side)
            p = float(np.trace(projected))
            post, post_lam, post_entropy = dense_oracle(projected / p)
            assert outcome.probability == pytest.approx(p, rel=1e-12)
            assert post.distance(outcome.post_state) <= 1e-12 * np.max(post_lam)
            assert_rel_close(outcome.post_state.eigenvalues(), post_lam)
            assert von_neumann_entropy(outcome.post_state) == pytest.approx(
                post_entropy, rel=1e-12)


def test_lr_state_is_rotated_energy_state(engine_states):
    split, states = engine_states
    b = lr_block_map(split.count)
    assert_rel_close(states["LR"].matrix, b.T @ states["energy"].matrix @ b)
    # each coherence is w sinh(beta Delta): nonzero exactly where Delta is
    assert np.array_equal(states["LR"].coherences > 0, split.deltas > 0)


def test_engine_state_rejects_invalid_structure():
    with pytest.raises(InvalidStateError, match="trace"):
        EngineState(np.array([0.5, 0.4]))
    with pytest.raises(InvalidStateError, match="finite"):
        EngineState(np.array([np.nan, 1.0]))
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        EngineState(np.array([0.5, 0.5]), np.array([0.6]))  # 0.5 - 0.6 < 0
    with pytest.raises(DimensionMismatchError):
        EngineState(np.array([0.25, 0.25, 0.5]), np.array([0.1, 0.1]))


def test_engine_state_block_eigenvalues_closed_form():
    rho = EngineState(np.array([0.3, 0.3, 0.4]), np.array([0.1]))
    assert np.allclose(rho.eigenvalues(), [0.2, 0.4, 0.4], atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(rho.matrix), rho.eigenvalues(), atol=1e-15)


# ---------------------------------------------------------------------------
# quantum cycle ledger
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ledger():
    return free_energy_ledger(EngineConfig.natural(eps_beta=1e-3, d_over_l=0.01))


def test_ledger_measurement_gain_is_kt_log2(ledger):
    kt = 1000.0
    _, insert, measure, _, _ = ledger.entries
    assert (measure.free_energy - insert.free_energy) / kt == pytest.approx(
        math.log(2.0), rel=0.02)
    assert insert.entropy - measure.entropy == pytest.approx(
        math.log(2.0), abs=1e-6)


def test_ledger_insertion_volume_effect_is_small(ledger):
    kt = 1000.0
    start, insert, measure, _, _ = ledger.entries
    insertion = insert.free_energy - start.free_energy
    # the exact sums carry the volume term plus the discreteness offset
    assert insertion / kt < 0.05
    assert measure.free_energy - insert.free_energy > 10 * insertion


def test_ledger_first_law_every_step(ledger):
    kt = 1000.0
    for prev, entry in zip(ledger.entries, ledger.entries[1:]):
        assert abs(entry.first_law_residual(prev)) / kt < 1e-8


def test_ledger_cycle_closes(ledger):
    kt = 1000.0
    _, insert, measure, expand, erase = ledger.entries
    extracted = -(insert.work_on + measure.work_on + expand.work_on)
    assert extracted / kt == pytest.approx(math.log(2.0), abs=1e-10)
    assert (extracted - erase.work_on) / kt == pytest.approx(0.0, abs=1e-10)


def test_ledger_measurement_probabilities(ledger):
    assert abs(ledger.p_left - 0.5) < 1e-10
    assert abs(ledger.p_right - 0.5) < 1e-10
    assert abs(ledger.repeat_left_prob - 1.0) < 1e-10


def test_ledger_entropies_match_operator_entropies(ledger):
    # the ledger's population-based entropies must agree with the operator
    # entropies of the measured states
    cfg = EngineConfig.natural(eps_beta=1e-3, d_over_l=0.01)
    split = split_spectrum(cfg, "formula")
    rho, _ = barrier_thermal_state(split, cfg.temperature)
    out_l, _ = measure_side(rho)
    _, insert, measure, _, _ = ledger.entries
    assert measure.entropy == pytest.approx(
        von_neumann_entropy(out_l.post_state), abs=1e-8)
    assert insert.entropy == pytest.approx(von_neumann_entropy(rho), abs=1e-8)


def test_ledger_entropy_finite_when_populations_underflow():
    # 448 doublets at kT = 1000: the top populations underflow to exactly 0
    cfg = EngineConfig.natural(eps_beta=1e-3, n_trunc=896)
    split = split_spectrum(cfg, "formula")
    assert math.exp(-cfg.beta * split.centers[-1]) == 0.0
    _, insert, measure, _, _ = free_energy_ledger(cfg).entries
    assert math.isfinite(measure.entropy)
    assert insert.entropy - measure.entropy == pytest.approx(math.log(2.0), abs=1e-6)


@pytest.mark.parametrize("cfg", [
    EngineConfig.natural(eps_beta=1e-3),
    EngineConfig.natural(eps_beta=2.5e-4, barrier_height=2e4),
    EngineConfig.natural(eps_beta=1e-3, n_trunc=896),
    EngineConfig(mass=3.0, box_length=2.0, barrier_width=0.02,
                 barrier_height=math.inf, temperature=40.0, hbar=2.0, kb=0.5)],
    ids=["eb1e-3", "eb2.5e-4-U2e4", "n896", "non-natural"])
def test_ledger_returns_the_box_partition_sum(cfg):
    _, z = thermal_state(box_spectrum(cfg), cfg.temperature, cfg.kb)
    assert free_energy_ledger(cfg).z_box == z


def test_ledger_rejects_barrier_below_every_doublet():
    with pytest.raises(RegimeError, match="below every doublet"):
        free_energy_ledger(EngineConfig.natural(barrier_height=1e-3))


def test_ledger_memory_is_linear_in_levels():
    cfg = EngineConfig.natural(eps_beta=5e-6)
    assert cfg.n_trunc == 4000
    tracemalloc.start()
    try:
        led = free_energy_ledger(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense 4000 x 4000 complex matrix alone would be 244 MiB
    assert peak < 16 * 2**20
    assert abs(led.p_left - 0.5) < 1e-10


@pytest.mark.parametrize("field,value", [
    ("temperature", math.nan), ("temperature", math.inf),
    ("barrier_height", math.nan), ("barrier_height", -math.inf),
    ("mass", math.inf), ("kb", math.nan)])
def test_config_rejects_non_finite_values(field, value):
    fields = dict(mass=0.5, box_length=math.pi, barrier_width=0.01 * math.pi,
                  barrier_height=math.inf, temperature=1000.0)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        EngineConfig(**fields)


def test_ledger_out_of_regime_still_produced():
    led = free_energy_ledger(EngineConfig.natural(eps_beta=0.5))
    assert [e.step for e in led.entries] == [
        "initial", "insert-barrier", "measure", "expand", "erase"]
    # the quantum-cycle report flags the regime its closed forms need
    report = run_scenario(resolve_config(
        {"scenario": "quantum-cycle", "engine": {"temperature": 2.0}}))
    assert not {c.name: c for c in report.checks}["high_temperature_regime"].passed


# ---------------------------------------------------------------------------
# classical comparator
# ---------------------------------------------------------------------------

def test_ledger_holds_in_non_natural_units():
    # nothing may silently assume hbar = kB = 1 or m = 1/2
    cfg = EngineConfig(mass=3.0, box_length=2.0, barrier_width=0.02,
                       barrier_height=math.inf, temperature=40.0,
                       hbar=2.0, kb=0.5)
    led = free_energy_ledger(cfg)
    kt = cfg.kb * cfg.temperature
    _, insert, measure, _, _ = led.entries
    assert (measure.free_energy - insert.free_energy) / kt == pytest.approx(
        math.log(2.0), rel=0.02)
    assert insert.entropy - measure.entropy == pytest.approx(math.log(2.0),
                                                             abs=1e-6)
    assert abs(led.p_left - 0.5) < 1e-10
    for prev, entry in zip(led.entries, led.entries[1:]):
        assert abs(entry.first_law_residual(prev)) / kt < 1e-8


def test_deep_quantum_si_regime_rejected_clearly():
    with pytest.raises(ValueError, match="desk-scale"):
        EngineConfig(mass=4.6e-26, box_length=1e-6, barrier_width=1e-9,
                     barrier_height=math.inf, temperature=300.0,
                     hbar=1.054571817e-34, kb=1.380649e-23)


def test_classical_left_fraction_near_half():
    res = classical_ensemble_cycle(EngineConfig.natural(), 100_000, seed=12345)
    assert abs(res.left_fraction - 0.5) < 0.005


def test_classical_cycle_is_deterministic():
    a = classical_ensemble_cycle(EngineConfig.natural(), 10_000, seed=7)
    b = classical_ensemble_cycle(EngineConfig.natural(), 10_000, seed=7)
    assert a.left_count == b.left_count


def test_classical_vs_quantum_insertion_contrast():
    report = run_scenario(resolve_config(
        {"scenario": "classical-cycle", "seeds": [3], "params": {"samples": 100}}))
    contrast = {c.name: c for c in report.checks}["insertion_contrast_classical_vs_quantum"]
    assert contrast.passed
    quantum = report.data["quantum_insertion_delta_a_over_kt"]
    assert quantum == pytest.approx(math.log(1.0 / 0.99), rel=1e-12)
    assert quantum < 0.02
