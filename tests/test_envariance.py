"""Countershifts, counterswaps, certificates, and Born-weight counting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from envstat.envariance import (
    FinegrainSpec,
    PhaseShift,
    SwapSpec,
    all_pairs_certified,
    coarse_probabilities,
    counterswap_for,
    countershift_for,
    equal_probability_certificate,
    finegrain_born_rule,
    incommensurate_bound,
    swap_unitary,
)
from envstat.equilibrium import make_even_state
from envstat.errors import BasisMismatchError, BranchLimitError, NotEvenError
from envstat.hilbert import (
    BipartitePureState,
    StateVector,
    apply_local,
    partial_trace_env,
    schmidt,
)

RNG = np.random.default_rng(55)


def uneven_state():
    return BipartitePureState(
        np.diag([math.sqrt(1 / 3), math.sqrt(2 / 3)]).astype(complex))


def decohered_qubit(alpha, beta, phi=0.0):
    """alpha |0>|e0> + e^{i phi} beta |1>|e1>."""
    amps = np.diag([alpha, beta * np.exp(1j * phi)]).astype(complex)
    return BipartitePureState(amps)


# ---------------------------------------------------------------------------
# phase shifts
# ---------------------------------------------------------------------------

def test_zero_phase_countershift_is_identity():
    st = decohered_qubit(0.6, 0.8)
    form = schmidt(st)
    shift = PhaseShift(phases=(0.0, 0.0), basis=tuple(form.sys_basis))
    u = countershift_for(st, shift, form)
    assert np.max(np.abs(u.matrix - np.eye(2))) < 1e-12


def test_pi_countershift_restores_decohered_qubit():
    st = decohered_qubit(0.6, 0.8)
    form = schmidt(st)
    # phase pi on the branch holding the |1> component
    phases = tuple(math.pi if abs(b.amps[1]) > 0.5 else 0.0 for b in form.sys_basis)
    shift = PhaseShift(phases=phases, basis=tuple(form.sys_basis))
    u_env = countershift_for(st, shift, form)
    moved = apply_local(st, shift.to_unitary(), "S")
    assert apply_local(moved, u_env, "E").distance(st) < 1e-10


def test_random_even_state_random_phases_restore():
    even = make_even_state(4, phases=RNG.uniform(0, 2 * math.pi, 4), rng=RNG)
    form = schmidt(even.state)
    shift = PhaseShift(phases=tuple(RNG.uniform(0, 2 * math.pi, form.rank)),
                       basis=tuple(form.sys_basis))
    u_env = countershift_for(even.state, shift, form)
    moved = apply_local(even.state, shift.to_unitary(), "S")
    assert apply_local(moved, u_env, "E").distance(even.state) < 1e-10


def test_uneven_aligned_phases_are_still_envariant():
    st = decohered_qubit(math.sqrt(0.2), math.sqrt(0.8))
    form = schmidt(st)
    shift = PhaseShift(phases=(0.7, 2.1), basis=tuple(form.sys_basis))
    u_env = countershift_for(st, shift, form)
    moved = apply_local(st, shift.to_unitary(), "S")
    assert apply_local(moved, u_env, "E").distance(st) < 1e-10
    # the reduced state never felt the shift
    assert partial_trace_env(moved).distance(partial_trace_env(st)) < 1e-10


def test_rotated_basis_inside_degenerate_subspace_is_aligned():
    # for an even state every orthonormal basis of the degenerate subspace
    # is a valid branch basis, so phases in it must still be undoable
    bell = BipartitePureState(np.eye(2, dtype=complex) / math.sqrt(2.0))
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    shift = PhaseShift(phases=(1.1, 2.7),
                       basis=(StateVector(h[:, 0]), StateVector(h[:, 1])))
    u_env = countershift_for(bell, shift)
    moved = apply_local(bell, shift.to_unitary(), "S")
    assert apply_local(moved, u_env, "E").distance(bell) < 1e-10


def test_misaligned_phase_basis_is_detected():
    st = uneven_state()
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    basis = (StateVector(h[:, 0]), StateVector(h[:, 1]))
    shift = PhaseShift(phases=(0.9, 0.0), basis=basis)
    with pytest.raises(BasisMismatchError):
        countershift_for(st, shift)


# ---------------------------------------------------------------------------
# swaps
# ---------------------------------------------------------------------------

def test_counterswap_restores_bell_state():
    bell = BipartitePureState(np.eye(2, dtype=complex) / math.sqrt(2.0))
    form = schmidt(bell)
    spec = SwapSpec(pairs=((0, 1),))
    u_s = swap_unitary(form, spec, 2)
    u_e = counterswap_for(bell, spec, form)
    assert apply_local(apply_local(bell, u_s, "S"), u_e, "E").distance(bell) < 1e-10


def test_counterswap_rejects_uneven_branches():
    with pytest.raises(NotEvenError):
        counterswap_for(uneven_state(), SwapSpec(pairs=((0, 1),)))


def test_partial_swap_on_even_rank_four():
    even = make_even_state(4, phases=RNG.uniform(0, 2 * math.pi, 4), rng=RNG)
    form = schmidt(even.state)
    spec = SwapSpec(pairs=((1, 3),))
    u_s = swap_unitary(form, spec, 4)
    u_e = counterswap_for(even.state, spec, form)
    restored = apply_local(apply_local(even.state, u_s, "S"), u_e, "E")
    assert restored.distance(even.state) < 1e-10


def test_swap_spec_validation():
    with pytest.raises(ValueError):
        SwapSpec(pairs=((0, 0),))
    with pytest.raises(ValueError):
        SwapSpec(pairs=((0, 1), (1, 2)))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_even_pair_true():
    bell = BipartitePureState(np.eye(2, dtype=complex) / math.sqrt(2.0))
    assert equal_probability_certificate(bell, 0, 1)


def test_certificate_uneven_pair_false():
    assert not equal_probability_certificate(uneven_state(), 0, 1)


def test_certificate_all_pairs_on_even_state():
    even = make_even_state(5, phases=RNG.uniform(0, 2 * math.pi, 5), rng=RNG)
    form = schmidt(even.state)
    for k in range(5):
        for l in range(k + 1, 5):
            assert equal_probability_certificate(even.state, k, l, form)


def test_certificate_implies_equal_weights():
    st = decohered_qubit(math.sqrt(0.5 + 1e-12), math.sqrt(0.5 - 1e-12))
    form = schmidt(st)
    if equal_probability_certificate(st, 0, 1, form):
        assert abs(form.coeffs[0] ** 2 - form.coeffs[1] ** 2) < 1e-8


def test_batch_predicate_matches_pairwise_certificates():
    for alpha2 in (0.5, 0.5 + 1e-6, 0.3):
        st = decohered_qubit(math.sqrt(alpha2), math.sqrt(1 - alpha2))
        form = schmidt(st)
        assert all_pairs_certified(form) == equal_probability_certificate(st, 0, 1, form)


# ---------------------------------------------------------------------------
# finegraining
# ---------------------------------------------------------------------------

def test_finegrain_symmetric_case():
    result = finegrain_born_rule(FinegrainSpec(1, 1))
    assert result.p_up == Fraction(1, 2)


def test_finegrain_one_two():
    result = finegrain_born_rule(FinegrainSpec(1, 2))
    assert result.p_up == Fraction(1, 3)
    assert result.p_down == Fraction(2, 3)


def test_finegrain_three_five_matches_amplitudes():
    result = finegrain_born_rule(FinegrainSpec(3, 5))
    assert result.p_up == Fraction(3, 8)
    alpha_sq = abs(result.coarse_state.amps[0, 0]) ** 2
    assert abs(float(result.p_up) - alpha_sq) < 1e-12
    up, down = coarse_probabilities(result)
    assert abs(up - 3 / 8) < 1e-12
    assert abs(down - 5 / 8) < 1e-12


def test_finegrain_every_pair_certified():
    result = finegrain_born_rule(FinegrainSpec(2, 3))
    assert all_pairs_certified(result.form)
    for k in range(5):
        for l in range(k + 1, 5):
            assert equal_probability_certificate(result.state, k, l, result.form)


def test_finegrain_branch_labels():
    result = finegrain_born_rule(FinegrainSpec(2, 1))
    assert [lab[0] for lab in result.branch_labels] == ["up", "up", "down"]


def test_finegrain_branch_budget():
    with pytest.raises(BranchLimitError):
        finegrain_born_rule(FinegrainSpec(4000, 1000))


def test_finegrain_rejects_zero_counts():
    with pytest.raises(ValueError):
        FinegrainSpec(0, 3)


# ---------------------------------------------------------------------------
# rational brackets
# ---------------------------------------------------------------------------

def test_bracket_exact_half():
    b = incommensurate_bound(0.5, 10)
    assert (b.low, b.high) == (Fraction(1, 2), Fraction(1, 2))


def test_bracket_exact_third_small_denominator():
    b = incommensurate_bound(1 / 3, 3)
    assert (b.low, b.high) == (Fraction(1, 3), Fraction(1, 3))


def _scan_oracle(target, max_den: int, snap: float = 1e-12):
    """Bracket by scanning every denominator 2..max_den: floor and ceil of
    target*q, or round(target*q) on both sides when target is within snap
    of it; only n/q with 1 <= n <= q-1 is realizable, else 0 or 1 with the
    flag false.  Returns (low, high, low_realizable, high_realizable)."""
    exact = Fraction(target)
    best_low: Fraction | None = None
    best_high: Fraction | None = None
    for q in range(2, max_den + 1):
        scaled = exact * q
        nearest = round(scaled)
        if abs(exact - Fraction(nearest, q)) <= snap:
            n_low = n_high = nearest
        else:
            n_low, n_high = math.floor(scaled), math.ceil(scaled)
        if 1 <= n_low <= q - 1:
            cand = Fraction(n_low, q)
            if best_low is None or cand > best_low:
                best_low = cand
        if 1 <= n_high <= q - 1:
            cand = Fraction(n_high, q)
            if best_high is None or cand < best_high:
                best_high = cand
    return (best_low if best_low is not None else Fraction(0),
            best_high if best_high is not None else Fraction(1),
            best_low is not None, best_high is not None)


def _fields(bracket):
    return bracket.low, bracket.high, bracket.low_realizable, bracket.high_realizable


def test_bracket_irrational_matches_exhaustive_scan():
    target = 1.0 / math.sqrt(2.0)
    b = incommensurate_bound(target, 100)
    assert _fields(b) == _scan_oracle(target, 100)
    assert b.low <= Fraction(target) <= b.high
    assert float(b.high - b.low) <= 0.02
    assert b.low_realizable and b.high_realizable


@st.composite
def bracket_cases(draw):
    """max_den in 1..2000 with targets drawn uniformly, near some p/q
    (inside and outside snap = 1e-12), and within 1/max_den of 0 and 1."""
    max_den = draw(st.integers(1, 2000))
    q = draw(st.integers(1, 2 * max_den))
    near_fraction = st.builds(
        lambda p, offset: p / q + offset, st.integers(0, q),
        st.sampled_from([0.0, 1e-13, -1e-13, 9e-13, -9e-13, 1.1e-12, -1.1e-12,
                         1e-11, -1e-11]) | st.floats(-1e-10, 1e-10))
    edge = st.floats(0.0, 1.0, exclude_min=True).map(lambda u: u / max_den)
    target = draw(st.one_of(st.floats(0.0, 1.0), near_fraction, edge,
                            edge.map(lambda u: 1.0 - u)))
    assume(0.0 < target < 1.0)
    return target, max_den


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=bracket_cases())
def test_bracket_matches_denominator_scan(case):
    target, max_den = case
    assert _fields(incommensurate_bound(target, max_den)) == _scan_oracle(target, max_den)


def test_bracket_width_shrinks_with_denominator():
    target = 1.0 / math.pi
    brackets = [incommensurate_bound(target, q) for q in (5, 10, 20, 50, 100)]
    widths = [float(b.high - b.low) for b in brackets]
    assert all(b <= a for a, b in zip(widths, widths[1:]))


def test_bracket_clamps_below_realizable_band():
    b = incommensurate_bound(1e-4, 10)
    assert b.low == Fraction(0) and not b.low_realizable
    assert b.high == Fraction(1, 10) and b.high_realizable
