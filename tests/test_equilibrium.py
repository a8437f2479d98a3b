"""Even states, counter-evolution, canonical counting, purification."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envstat import equilibrium as eq
from envstat.equilibrium import (
    LevelLadder,
    canonical_by_counting,
    counter_evolution_for,
    make_even_state,
    no_evolution_sweep,
    thermal_purification,
    verify_no_local_evolution,
)
from envstat.errors import (
    DimensionMismatchError,
    InvalidStateError,
    SubspaceEscapeError,
    TruncationError,
)
from envstat.hilbert import (
    BipartitePureState,
    UnitaryOperator,
    apply_local,
    check_unitary,
    dagger,
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
# the stacked sweep
# ---------------------------------------------------------------------------

def _per_trial_reference(rank, rng):
    """One trial as make_even_state + haar_unitary + verify_no_local_evolution
    computed it one state at a time: the oracle of the stacked sweep."""
    def haar():
        z = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    phases = rng.uniform(0, 2 * math.pi, rank)
    s, e = haar(), haar()
    amps = (s * (np.exp(1j * phases) / np.sqrt(rank))) @ e.T
    u = haar()
    moved = u @ amps
    rho_before = amps @ amps.conj().T
    rho_after = moved @ moved.conj().T
    rotated = u @ s
    overlaps = rotated.conj().T @ s
    partners = e @ (overlaps * np.exp(1j * phases)).T
    mapped = partners * np.exp(-1j * phases)
    u_env = np.eye(rank, dtype=np.complex128) - e @ e.conj().T + mapped @ e.conj().T
    restored = moved @ u_env.T
    return (float(np.linalg.norm(restored - amps)),
            float(np.linalg.norm(rho_before - rho_after)))


def _trial_rngs(seed, rank, n):
    return (np.random.default_rng([seed, rank, t]) for t in range(n))


@pytest.mark.parametrize("seed", [1, 2003, 12345])
def test_stacked_sweep_is_bitwise_the_per_trial_loop(seed):
    # rank 40 takes two chunks of 40 trials; rank 1 is the lone-pair product
    for rank in [*range(1, 17), 40]:
        ref = [_per_trial_reference(rank, rng) for rng in _trial_rngs(seed, rank, 50)]
        for n in (1, 20, 50):
            restoration, reduced = no_evolution_sweep(rank, _trial_rngs(seed, rank, n))
            assert restoration == [r for r, _ in ref[:n]], (rank, n)
            assert reduced == [q for _, q in ref[:n]], (rank, n)


def _even_stack(rank, dim, n, seed):
    """Arrays of n even states of the given rank on dim x dim, stacked."""
    states = [make_even_state(rank, phases=np.full(rank, 0.3 * k), dim_sys=dim,
                              dim_env=dim, rng=np.random.default_rng([seed, k]))
              for k in range(n)]
    amps = np.stack([st.state.amps for st in states])
    return (np.stack([st.phases for st in states]),
            np.stack([st.sys_vecs for st in states]),
            np.stack([st.env_vecs for st in states]),
            amps, amps @ dagger(amps))


def _in_span_unitaries(sys_vecs, seed):
    """Unitaries that rotate each state's branch span into itself."""
    rng = np.random.default_rng(seed)
    out = []
    for s in sys_vecs:
        mix = haar_unitary(s.shape[1], rng).matrix
        out.append(np.eye(s.shape[0]) - s @ s.conj().T + s @ mix @ s.conj().T)
    return np.stack(out)


def test_stack_with_one_leaking_unitary_fails_closed():
    phases, s, e, amps, rho = _even_stack(rank=2, dim=3, n=4, seed=8)
    u = _in_span_unitaries(s, 9)
    u_env, reduced, restoration = eq.counter_evolve(phases, s, e, amps, rho, u)
    assert np.all(restoration < 1e-10) and np.all(reduced < 1e-10)
    u[2] = haar_unitary(3, np.random.default_rng(10)).matrix  # leaves the span
    with pytest.raises(SubspaceEscapeError):
        eq.counter_evolve(phases, s, e, amps, rho, u)


def test_stack_with_one_non_unitary_member_fails_closed():
    phases, s, e, amps, rho = _even_stack(rank=3, dim=3, n=4, seed=11)
    u = _in_span_unitaries(s, 12)
    check_unitary(u)
    u[1] *= 1.0 + 1e-6
    with pytest.raises(InvalidStateError, match="unitarity"):
        check_unitary(u)
    with pytest.raises(InvalidStateError):
        eq.counter_evolve(phases, s, e, amps, rho, u)


@pytest.mark.parametrize("seed", [1, 2003, 12345])
def test_reduced_shifts_are_bitwise_the_per_trial_control(seed, monkeypatch):
    # theorem-sweep's negative control, one verify_no_local_evolution per
    # trial before it was stacked; 16 entries per stack makes 4-trial chunks
    monkeypatch.setattr(eq, "_STACK_ENTRIES", 16)
    uneven = BipartitePureState(np.diag([math.sqrt(0.3), math.sqrt(0.7)]).astype(complex))
    per_trial = [verify_no_local_evolution(
        uneven, haar_unitary(2, np.random.default_rng([seed, 999, trial]))).reduced_distance
        for trial in range(50)]
    shifts = eq.reduced_shifts(
        uneven, (np.random.default_rng([seed, 999, trial]) for trial in range(50)))
    assert shifts.tolist() == per_trial


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_bounded_by_chunking():
    budget = 32 * 2**20
    assert _traced_peak(lambda: no_evolution_sweep(64, _trial_rngs(5, 64, 100))) <= budget
    # the same 100 trials as one unchunked stack need several times more
    assert _traced_peak(lambda: eq._sweep_stack(64, list(_trial_rngs(5, 64, 100)))) > budget


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
    for energies, degeneracies, reason in [
        ((1.0, 0.5), (1, 1), "nondecreasing"),
        ((0.0, 1.0), (1, 0), ">= 1"),
        ((0.0, 1.0), (1,), "one degeneracy per level"),
        ((), (), "one degeneracy per level"),
        (((0.0, 1.0),), ((1, 1),), "one degeneracy per level"),  # 2-d
        ((0.0, math.nan), (1, 1), "finite"),
        ((0.0, math.inf), (1, 1), "finite"),
        ((-math.inf, 0.0), (1, 1), "finite"),
        ((0.0, 1.0), (1.7, 2), "integers"),
        ((0.0, 1.0), (1, math.nan), "integers"),
        ((0.0, 1.0), (1, 2**63), "fit int64"),  # a Python int past int64
        ((0.0, 1.0), (1, 2.0**63), "fit int64"),
        ((0.0, 1.0), np.array([1, 2**63], dtype=np.uint64), "fit int64"),
        ((0.0, 1.0), ("1", "2"), "fit int64"),
    ]:
        with pytest.raises(ValueError, match=reason):
            LevelLadder(energies, degeneracies)


@pytest.mark.parametrize("degeneracies", [
    (1, 2.0, 3), np.array([1, 2, 3], dtype=np.uint64), np.array([1, 2, 3], dtype=np.int8)])
def test_ladder_is_read_only_arrays(degeneracies):
    ladder = LevelLadder((0, 0.5, 0.5), degeneracies)
    assert ladder.energies.dtype == np.float64
    assert ladder.degeneracies.dtype == np.int64
    assert ladder.degeneracies.tolist() == [1, 2, 3]
    assert ladder.count == 3
    for arr in (ladder.energies, ladder.degeneracies):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_ladder_takes_the_int64_maximum():
    top = np.iinfo(np.int64).max
    for degeneracies in ((1, top), np.array([1, top], dtype=np.uint64)):
        assert LevelLadder((0.0, 1.0), degeneracies).degeneracies[1] == top


def test_shell_counts_sum_exactly_past_int64():
    # in-shell sums of 2 and 3 times 2**62 pass the int64 maximum
    system = LevelLadder((0.0, 0.5), (1, 1))
    bath = LevelLadder(np.arange(20.0), np.full(20, 2**62))
    # default window 1/2: shells {10} and {9, 10}
    assert canonical_by_counting(system, bath, 10.0).occupancies.tolist() == [1 / 3, 2 / 3]
    # window 1: shells {9, 10, 11} and {9, 10}
    fit = canonical_by_counting(system, bath, 10.0, window=1.0)
    assert fit.occupancies.tolist() == [0.6, 0.4]


def _oracle_occupancies(system, bath, total_energy, window):
    """Shell counting as a full-array predicate per system level, the
    default window from np.unique: (occupancies, window), or ValueError
    when no window can be inferred or no microstate lands in any shell."""
    if window is None:
        gaps = np.diff(np.unique(bath.energies))
        if gaps.size == 0:
            raise ValueError("cannot infer a window from a single bath level")
        window = float(np.min(gaps)) / 2.0
    counts = np.empty(system.count, dtype=np.float64)
    for k, ek in enumerate(system.energies):
        inside = np.abs(ek + bath.energies - total_energy) <= window
        counts[k] = float(np.sum(bath.degeneracies[inside]))
    weights = system.degeneracies.astype(np.float64) * counts
    total = float(np.sum(weights))
    if total == 0:
        raise ValueError("no joint microstate lands in the window at all")
    return weights / total, window


@st.composite
def shell_cases(draw):
    """Ladders on a grid with repeated levels, |E| up to 1e6, and a total
    energy whose shell edges often sit exactly on a bath level.  Off-grid
    system energies make E - E_k round, where a bare searchsorted boundary
    and the predicate disagree."""
    spacing = draw(st.sampled_from([1.0, 0.5, 0.1, 1 / 3, 1e-3, 7.25]))
    origin = draw(st.sampled_from([0.0, -1e6, 1e6])) + draw(st.floats(-1e3, 1e3))
    n_sys = draw(st.integers(1, 4))
    steps = sorted(draw(st.lists(st.integers(0, 60), min_size=10 * n_sys, max_size=120)))
    bath_e = tuple(origin + spacing * j for j in steps)
    bath_g = draw(st.lists(st.integers(1, 5), min_size=len(steps), max_size=len(steps)))
    sys_origin = draw(st.one_of(st.just(0.0), st.floats(-1e4, 1e4)))
    sys_e = tuple(sys_origin + spacing * j for j in sorted(draw(
        st.lists(st.integers(0, 4), min_size=n_sys, max_size=n_sys))))
    sys_g = draw(st.lists(st.integers(1, 3), min_size=n_sys, max_size=n_sys))
    window = draw(st.one_of(
        st.none(),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]).map(lambda m: m * spacing),
        st.floats(1e-9, 5.0)))
    edge = window if window is not None else spacing / 2.0
    on_edge = st.builds(lambda i, j, s: sys_e[i] + bath_e[j] + s * edge,
                        st.integers(0, n_sys - 1), st.integers(0, len(steps) - 1),
                        st.sampled_from([-1, 0, 1]))
    totals = draw(st.lists(st.one_of(on_edge, st.floats(origin - 10.0, origin + 80.0)),
                           min_size=1, max_size=12))
    return LevelLadder(sys_e, sys_g), LevelLadder(bath_e, bath_g), totals, window


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=shell_cases())
# two shells whose predicate holds one level past the boundary that a bare
# searchsorted on E - E_k -+ window finds
@example(case=(LevelLadder((3672.4178589436465,), (1,)),
               LevelLadder(tuple(4.580302341526188 + 0.1 * j for j in range(50)), (1,) * 50),
               [3682.2981612851727], 0.5))
@example(case=(LevelLadder((1.0,), (1,)), LevelLadder((1.57606119e-47,) * 10, (1,) * 10),
               [0.0], 1.0))
def test_shell_counts_match_full_array_predicate(case):
    system, bath, totals, window = case
    for total in totals:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty shells are legal here
            try:
                want, want_window = _oracle_occupancies(system, bath, total, window)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    canonical_by_counting(system, bath, total, window)
                continue
            fit = canonical_by_counting(system, bath, total, window)
        assert np.array_equal(fit.occupancies, want)
        assert fit.window == want_window


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
