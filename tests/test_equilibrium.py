"""Even states, counter-evolution, canonical counting, purification."""

import math

import numpy as np
import pytest

from envstat.equilibrium import (
    LevelLadder,
    canonical_by_counting,
    counter_evolution_for,
    make_even_state,
    thermal_purification,
    verify_no_local_evolution,
)
from envstat.errors import (
    DimensionMismatchError,
    SubspaceEscapeError,
    TruncationError,
)
from envstat.hilbert import (
    BipartitePureState,
    UnitaryOperator,
    apply_local,
    haar_unitary,
    partial_trace_env,
)

RNG = np.random.default_rng(31)


# ---------------------------------------------------------------------------
# even states
# ---------------------------------------------------------------------------

def test_rank_one_even_state_is_product():
    even = make_even_state(1, rng=RNG)
    assert np.linalg.matrix_rank(even.state.amps) == 1


def test_computational_even_state_is_bell():
    even = make_even_state(2, seed_bases=(np.eye(2, dtype=complex),
                                          np.eye(2, dtype=complex)))
    assert np.allclose(even.state.amps, np.eye(2) / math.sqrt(2), atol=1e-15)


def test_even_state_reduced_is_uniform():
    even = make_even_state(8, phases=RNG.uniform(0, 2 * math.pi, 8), rng=RNG)
    rho = partial_trace_env(even.state)
    assert np.max(np.abs(rho.matrix - np.eye(8) / 8.0)) < 1e-10


def test_even_state_dimension_validation():
    with pytest.raises(DimensionMismatchError):
        make_even_state(0)
    with pytest.raises(DimensionMismatchError):
        make_even_state(3, phases=[0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        make_even_state(3, dim_sys=2)


def test_even_state_rejects_non_orthonormal_seed_bases():
    from envstat.errors import InvalidStateError

    skewed = np.array([[1.0, 0.8], [0.0, 0.6]], dtype=complex)
    with pytest.raises(InvalidStateError):
        make_even_state(2, seed_bases=(skewed, np.eye(2, dtype=complex)))


# ---------------------------------------------------------------------------
# counter-evolution
# ---------------------------------------------------------------------------

def test_identity_has_identity_counter_evolution():
    even = make_even_state(3, rng=RNG)
    u_env = counter_evolution_for(even, UnitaryOperator.identity(3))
    # identity up to a global phase
    overlap = abs(np.trace(u_env.matrix)) / 3.0
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_hadamard_like_rotation_restored():
    even = make_even_state(2, phases=(0.4, 1.9), rng=RNG)
    h = UnitaryOperator(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
    u_env = counter_evolution_for(even, h)
    moved = apply_local(even.state, h, "S")
    assert apply_local(moved, u_env, "E").distance(even.state) < 1e-10


def test_hundred_random_unitaries_on_rank_five():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([5, trial])
        even = make_even_state(5, phases=rng.uniform(0, 2 * math.pi, 5), rng=rng)
        u = haar_unitary(5, rng)
        u_env = counter_evolution_for(even, u)
        moved = apply_local(even.state, u, "S")
        worst = max(worst, apply_local(moved, u_env, "E").distance(even.state))
    assert worst < 1e-10


def test_counter_evolution_with_larger_environment():
    even = make_even_state(3, phases=RNG.uniform(0, 2 * math.pi, 3),
                           dim_env=6, rng=RNG)
    u = haar_unitary(3, RNG)
    u_env = counter_evolution_for(even, u)
    assert u_env.dim == 6
    moved = apply_local(even.state, u, "S")
    assert apply_local(moved, u_env, "E").distance(even.state) < 1e-10


def test_subspace_escape_detected():
    # rank-2 even subspace inside a 3-level system; rotate branch 0 out
    even = make_even_state(2, dim_sys=3, dim_env=3, rng=np.random.default_rng(8))
    u = np.eye(3, dtype=complex)
    # unitary moving weight between the branch span and the third direction
    span = np.linalg.svd(even.sys_vecs, full_matrices=True)[0]
    mix = np.eye(3, dtype=complex)
    theta = 0.7
    mix[0, 0] = mix[2, 2] = math.cos(theta)
    mix[0, 2] = -math.sin(theta)
    mix[2, 0] = math.sin(theta)
    u = UnitaryOperator(span @ mix @ span.conj().T)
    with pytest.raises(SubspaceEscapeError):
        counter_evolution_for(even, u)


def test_no_local_evolution_report_even():
    even = make_even_state(3, phases=RNG.uniform(0, 2 * math.pi, 3), rng=RNG)
    perm = np.zeros((3, 3), dtype=complex)
    perm[0, 1] = perm[1, 2] = perm[2, 0] = 1.0
    report = verify_no_local_evolution(even, UnitaryOperator(perm))
    assert report.even
    assert report.reduced_distance < 1e-10
    assert report.restoration_distance < 1e-10


def test_uneven_restoration_bound_is_optimal():
    # no sampled environment unitary may beat the reported best restoration
    uneven = BipartitePureState(
        np.diag([math.sqrt(0.2), math.sqrt(0.8)]).astype(complex))
    u = haar_unitary(2, np.random.default_rng(13))
    report = verify_no_local_evolution(uneven, u)
    moved = apply_local(uneven, u, "S")
    rng = np.random.default_rng(14)
    best_sampled = min(
        apply_local(moved, haar_unitary(2, rng), "E").distance(uneven)
        for _ in range(200))
    assert report.restoration_distance <= best_sampled + 1e-12
    assert report.restoration_distance > 1e-3  # generic unitary: no way back


def test_no_local_evolution_negative_control():
    uneven = BipartitePureState(
        np.diag([math.sqrt(0.3), math.sqrt(0.7)]).astype(complex))
    moved_count = 0
    for trial in range(50):
        rng = np.random.default_rng([77, trial])
        report = verify_no_local_evolution(uneven, haar_unitary(2, rng))
        assert not report.even
        if report.reduced_distance > 1e-3:
            moved_count += 1
    assert moved_count >= 48


# ---------------------------------------------------------------------------
# canonical counting
# ---------------------------------------------------------------------------

def exponential_bath(growth: float, levels: int) -> LevelLadder:
    return LevelLadder(tuple(float(j) for j in range(levels)),
                       tuple(round(math.exp(growth * j)) for j in range(levels)))


def test_single_level_system_flagged():
    fit = canonical_by_counting(LevelLadder((0.0,), (1,)),
                                exponential_bath(1.0, 12), total_energy=8.0)
    assert not fit.beta_defined
    assert math.isnan(fit.beta)
    assert fit.occupancies[0] == pytest.approx(1.0, abs=1e-12)


def test_exponential_bath_recovers_beta():
    system = LevelLadder((0.0, 1.0), (1, 1))
    fit = canonical_by_counting(system, exponential_bath(1.0, 30), total_energy=25.0)
    assert fit.beta == pytest.approx(1.0, rel=0.05)
    assert fit.r_squared > 0.99
    assert abs(float(np.sum(fit.occupancies)) - 1.0) < 1e-12


def test_counting_matches_brute_force_enumeration():
    bath = LevelLadder(tuple(0.5 * j for j in range(40)), tuple([3] * 40))
    system = LevelLadder((0.0, 0.5, 1.0), (1, 2, 1))
    fit = canonical_by_counting(system, bath, total_energy=9.0)
    states = bath.expand()
    brute = np.array([
        g * int(np.sum(np.abs(ek + states - 9.0) <= fit.window))
        for ek, g in zip(system.energies, system.degeneracies)], dtype=float)
    brute /= brute.sum()
    assert np.array_equal(fit.occupancies, brute)


def test_empty_shell_recorded_and_warned():
    bath = LevelLadder(tuple(float(j) for j in range(30)), tuple([1] * 30))
    system = LevelLadder((0.0, 0.25, 1.0), (1, 1, 1))  # middle level misses shells
    with pytest.warns(UserWarning):
        fit = canonical_by_counting(system, bath, total_energy=10.0, window=0.1)
    assert fit.excluded == (1,)
    assert fit.occupancies[1] == 0.0


def test_bath_size_enforced():
    with pytest.raises(ValueError):
        canonical_by_counting(LevelLadder((0.0, 1.0), (1, 1)),
                              LevelLadder((0.0, 1.0), (1, 1)), total_energy=1.0)


def test_ladder_validation():
    with pytest.raises(ValueError):
        LevelLadder((1.0, 0.5), (1, 1))
    with pytest.raises(ValueError):
        LevelLadder((0.0, 1.0), (1, 0))


# ---------------------------------------------------------------------------
# thermal purification
# ---------------------------------------------------------------------------

def test_single_level_purification_is_product():
    state = thermal_purification(LevelLadder((0.0,), (1,)), beta=1.0)
    assert state.amps.shape == (1, 1)


def test_two_level_purification_reduces_to_gibbs():
    state = thermal_purification(LevelLadder((0.0, 1.0), (1, 1)), beta=math.log(2.0))
    diag = np.real(np.diagonal(partial_trace_env(state).matrix))
    assert np.allclose(diag, [2 / 3, 1 / 3], atol=1e-12)


def test_purification_matches_engine_thermal_state():
    from envstat.szilard import EngineConfig, box_spectrum, thermal_state

    cfg = EngineConfig.natural(eps_beta=0.5, n_trunc=50)
    box = box_spectrum(cfg)
    rho, _ = thermal_state(box, cfg.temperature)
    ladder = LevelLadder(tuple(box.energies.tolist()), tuple([1] * 50))
    reduced = partial_trace_env(thermal_purification(ladder, cfg.beta, check_tail=True))
    assert reduced.distance(rho) < 1e-10


def test_purification_idempotent_on_spectrum():
    ladder = LevelLadder((0.0, 0.7, 1.1), (1, 1, 1))
    first = partial_trace_env(thermal_purification(ladder, beta=2.0))
    # re-purify the reduced spectrum: same Gibbs operator comes back
    p = np.real(np.diagonal(first.matrix))
    energies = tuple(-math.log(x) / 2.0 for x in p)
    again = partial_trace_env(thermal_purification(
        LevelLadder(tuple(sorted(energies)), (1, 1, 1)), beta=2.0))
    assert np.allclose(np.sort(np.real(np.diagonal(again.matrix))),
                       np.sort(p), atol=1e-12)


def test_purification_tail_check():
    ladder = LevelLadder((0.0, 0.5), (1, 1))
    with pytest.raises(TruncationError):
        thermal_purification(ladder, beta=1.0, check_tail=True)


def test_purification_requires_positive_beta():
    with pytest.raises(ValueError):
        thermal_purification(LevelLadder((0.0,), (1,)), beta=0.0)
